"""The persistent plan registry: one sqlite artifact instead of loose JSON.

:class:`~repro.serving.cache.DesignCache`'s disk tier began life as a
directory of ``design-*.json`` blobs — fine for a single writer mirroring a
handful of designs, but never designed as the serving daemon's backing
store.  :class:`PlanRegistry` promotes that tier into a real artifact
store: a single WAL-mode sqlite file that is

* **safe for concurrent multi-process readers and a writer** — WAL mode
  lets readers proceed during a write, a busy timeout absorbs writer
  contention, and every store is one atomic transaction (a killed writer
  can never expose half a row);
* **self-verifying** — every row carries a SHA-256 checksum of its
  payload, and a row that fails the checksum, fails to parse, or carries
  the wrong key is *deleted and treated as a miss*, exactly matching the
  corrupt-file→miss→re-solve semantics of the old disk tier;
* **versioned** — the schema version is pinned in a ``meta`` table; a
  registry written by a future incompatible version is refused loudly
  (:class:`RegistryVersionError`) instead of being misread;
* **indexed on the alpha axis** — rows are keyed by the canonical design
  key but also indexed on ``(n, props, objective, backend, alpha)``, so
  :meth:`PlanRegistry.nearest` finds the cached neighbour of a design
  nearest in ``alpha`` (the hook for an LP warm start).

Legacy ``design-*.json`` files found next to the sqlite file are imported
once, on first open (the loose files are left untouched), so existing
``--cache-dir`` state directories keep working unchanged.

Fault injection: stores honour the same :mod:`repro.engine.faults` sites
as the old disk tier — ``io_error:`` at site ``cache_store`` raises
``OSError`` (the caller counts it and keeps serving from memory) and
``torn_cache`` simulates a crash mid-transaction: the pending row is
rolled back and :class:`~repro.engine.faults.InjectedCrash` unwinds, so a
restarted process sees a clean miss, never a partial row.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

#: Current schema version; bump on incompatible schema changes.
SCHEMA_VERSION = 1

#: Filename of the registry artifact inside a cache directory.
REGISTRY_FILENAME = "registry.sqlite"

#: The solver tag every design key ends in (``...|backend=scipy``) and the
#: value of every row's ``backend`` column.  HiGHS is the only solver; the
#: tag stays so registries written when it selected one of two solvers keep
#: their keys and keep serving hits.
KEY_BACKEND = "scipy"

#: How many nearest-neighbour candidate rows to inspect before giving up
#: (a corrupt candidate is deleted and the next one tried).
_NEIGHBOUR_CANDIDATES = 4


class RegistryError(RuntimeError):
    """Base class for registry failures."""


class RegistryVersionError(RegistryError):
    """The sqlite file was written by an incompatible schema version."""


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanRegistry:
    """A WAL-mode sqlite store of compiled design-cache entries.

    Parameters
    ----------
    directory:
        Directory holding (or to hold) the ``registry.sqlite`` artifact.
        Created on first use.  Legacy ``design-*.json`` files in it are
        imported on first open.

    Notes
    -----
    One connection per instance, guarded by a lock so a shared registry
    (the daemon's) is thread-safe; cross-*process* safety comes from
    sqlite's WAL journaling.  All methods that read rows verify the
    payload checksum and key before returning anything, deleting bad rows
    so the caller re-solves and overwrites them.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.path = self.directory / REGISTRY_FILENAME
        self._lock = threading.RLock()
        self.corrupt_rows = 0
        self.imported_legacy = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            str(self.path), timeout=10.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._init_schema()
        self._import_legacy_files()

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    def _init_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and int(row[0]) > SCHEMA_VERSION:
                raise RegistryVersionError(
                    f"{self.path}: registry schema version {row[0]} is newer than "
                    f"this build's {SCHEMA_VERSION}; refusing to misread it"
                )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS plans (
                    key TEXT PRIMARY KEY,
                    n INTEGER NOT NULL,
                    alpha REAL NOT NULL,
                    props TEXT NOT NULL,
                    objective TEXT NOT NULL,
                    backend TEXT NOT NULL,
                    payload TEXT NOT NULL,
                    checksum TEXT NOT NULL,
                    created REAL NOT NULL
                )
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_plans_point "
                "ON plans (n, props, objective, backend, alpha)"
            )
            if row is None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    def _import_legacy_files(self) -> None:
        """One-time import of old loose ``design-*.json`` entries.

        The loose files are read, inserted under their recorded keys (rows
        already present win — the sqlite tier is newer by construction)
        and *left untouched* on disk, so rolling back to an older build
        loses nothing.  Unparseable or truncated legacy files are skipped:
        they were already misses under the old tier's semantics.
        """
        with self._lock:
            done = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'legacy_import_done'"
            ).fetchone()
            if done is not None:
                return
            imported = 0
            for path in sorted(self.directory.glob("design-*.json")):
                try:
                    payload = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if not isinstance(payload, dict) or "key" not in payload:
                    continue
                if "mechanism" not in payload or "decision" not in payload:
                    continue
                key = str(payload["key"])
                fields = parse_design_key(key)
                if fields is None:
                    continue
                try:
                    self._insert(key, payload, fields, replace=False)
                    imported += 1
                except sqlite3.Error:  # pragma: no cover - best-effort import
                    continue
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('legacy_import_done', ?)",
                    (str(int(time.time())),),
                )
            self.imported_legacy = imported

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``key``, or ``None`` (miss).

        A row whose checksum, JSON or recorded key does not verify is
        deleted and reported as a miss — the caller re-solves and
        overwrites it, exactly like a corrupt loose file under the old
        disk tier.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, checksum FROM plans WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return None
            entry = self._verify(key, row[0], row[1])
            if entry is None:
                self._drop_row(key)
            return entry

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM plans WHERE key = ?", (key,)
            ).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM plans").fetchone()[0]
            )

    def keys(self) -> Iterator[str]:
        with self._lock:
            rows = self._conn.execute("SELECT key FROM plans ORDER BY key").fetchall()
        return iter([row[0] for row in rows])

    def nearest(
        self,
        n: int,
        props: str,
        objective: str,
        alpha: float,
        exclude_key: Optional[str] = None,
    ) -> Optional[Tuple[float, Dict[str, Any]]]:
        """The cached neighbour closest to ``alpha`` on the same design axis.

        Searches the ``(n, props, objective)`` index for the
        :data:`KEY_BACKEND` row whose ``alpha`` is nearest the requested
        one.  Corrupt candidates are deleted and the next-nearest tried.
        Returns ``(neighbour_alpha, entry)`` or ``None``.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, alpha, payload, checksum FROM plans "
                "WHERE n = ? AND props = ? AND objective = ? AND backend = ? "
                "AND key != ? ORDER BY ABS(alpha - ?) LIMIT ?",
                (
                    int(n),
                    props,
                    objective,
                    KEY_BACKEND,
                    exclude_key or "",
                    float(alpha),
                    _NEIGHBOUR_CANDIDATES,
                ),
            ).fetchall()
            for key, row_alpha, payload, checksum in rows:
                entry = self._verify(key, payload, checksum)
                if entry is None:
                    self._drop_row(key)
                    continue
                return float(row_alpha), entry
        return None

    def _verify(
        self, key: str, payload: str, checksum: str
    ) -> Optional[Dict[str, Any]]:
        if _checksum(payload) != checksum:
            return None
        try:
            entry = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        if "mechanism" not in entry or "decision" not in entry:
            return None
        return entry

    def _drop_row(self, key: str) -> None:
        self.corrupt_rows += 1
        try:
            with self._conn:
                self._conn.execute("DELETE FROM plans WHERE key = ?", (key,))
        except sqlite3.Error:  # pragma: no cover - read-only fs etc.
            pass

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Store one entry atomically (insert-or-replace in one transaction).

        Raises ``OSError`` on an injected I/O failure (site
        ``cache_store``) — the caller counts the error and keeps serving —
        and :class:`~repro.engine.faults.InjectedCrash` on ``torn_cache``,
        after rolling the pending row back: the simulated process death
        leaves the registry exactly as it was, which is what a real
        mid-transaction kill leaves after WAL recovery.
        """
        fields = parse_design_key(key)
        if fields is None:
            raise RegistryError(f"cannot parse design key {key!r}")
        from repro.engine import faults as _faults

        injector = _faults.get_injector()
        if injector.io_error("cache_store"):
            raise OSError(f"injected I/O error storing {key!r} in {self.path}")
        with self._lock:
            if injector.torn("cache_store"):
                # Crash mid-write: stage the row in an open transaction and
                # die before COMMIT.  Rolling back models WAL recovery — a
                # restarted process (or any concurrent reader) sees the
                # registry without the half-written row.
                try:
                    self._conn.execute("BEGIN IMMEDIATE")
                    self._insert_row(key, entry, fields)
                finally:
                    self._conn.rollback()
                raise _faults.InjectedCrash(
                    f"torn cache store injected mid-transaction at {self.path}"
                )
            self._insert(key, entry, fields, replace=True)

    def _insert(
        self,
        key: str,
        entry: Dict[str, Any],
        fields: Dict[str, Any],
        replace: bool,
    ) -> None:
        with self._conn:
            if not replace:
                row = self._conn.execute(
                    "SELECT 1 FROM plans WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    return
            self._insert_row(key, entry, fields)

    def _insert_row(self, key: str, entry: Dict[str, Any], fields: Dict[str, Any]) -> None:
        payload = json.dumps(entry)
        self._conn.execute(
            "INSERT OR REPLACE INTO plans "
            "(key, n, alpha, props, objective, backend, payload, checksum, created) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                int(fields["n"]),
                float(fields["alpha"]),
                fields["props"],
                fields["objective"],
                fields["backend"],
                payload,
                _checksum(payload),
                time.time(),
            ),
        )

    def delete(self, key: str) -> None:
        """Remove one entry (used when a stored payload fails to materialise)."""
        with self._lock:
            try:
                with self._conn:
                    self._conn.execute("DELETE FROM plans WHERE key = ?", (key,))
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass

    def clear(self) -> None:
        """Drop every stored plan (the ``meta`` table survives)."""
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM plans")

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def corrupt_row(self, key: str) -> None:
        """Flip one stored checksum (test helper for corrupt-row recovery)."""
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE plans SET checksum = 'deadbeef' WHERE key = ?", (key,)
            )

    def describe(self) -> str:
        return (
            f"registry[{self.path.name} entries={len(self)} "
            f"corrupt_rows={self.corrupt_rows} imported={self.imported_legacy}]"
        )

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover
                pass

    def __enter__(self) -> "PlanRegistry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def parse_design_key(key: str) -> Optional[Dict[str, Any]]:
    """Split a canonical design key into its indexed registry columns.

    The key format is owned by :func:`repro.serving.cache.design_key`:
    ``n=..|alpha=..|props=..|obj=..|backend=..``.  Returns ``None`` for a
    key that does not parse (such entries cannot be indexed, so they are
    not stored).
    """
    fields: Dict[str, str] = {}
    for part in key.split("|"):
        name, sep, value = part.partition("=")
        if not sep:
            return None
        fields[name] = value
    try:
        return {
            "n": int(fields["n"]),
            "alpha": float(fields["alpha"]),
            "props": fields["props"],
            "objective": fields["obj"],
            "backend": fields["backend"],
        }
    except (KeyError, ValueError):
        return None

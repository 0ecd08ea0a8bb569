"""Durable per-tenant budgets for the serving daemon (``--state-dir``).

PR 7 made one-shot execution crash-safe: an :class:`~repro.engine
.durability.AccountantLedger` journals every budget charge durably before
sampling.  PR 8 made serving multi-tenant — but kept every tenant's
:class:`~repro.privacy.PrivacyAccountant` in memory, so a daemon crash
silently reset all privacy budgets.  This module joins the two: a
:class:`TenantStore` gives **each tenant its own append-only ledger** under
the daemon's ``--state-dir``::

    <state-dir>/commit.bin                   # cross-tenant group-commit log
    <state-dir>/tenants/<slug>/tenant.json   # {"tenant": name} sidecar
    <state-dir>/tenants/<slug>/ledger.bin    # the tenant's AccountantLedger

The ledger's record index *is* the tenant's request sequence number, and —
because the daemon spawns a tenant's request-``k`` substream as the
``k``-th child of the tenant's root — it is also the substream spawn
position.  The header pins the root's full entropy and spawn key, so a
restarted daemon re-derives the *same* :class:`numpy.random.SeedSequence`
lineage: a reconnecting tenant's post-restart draws are bit-identical to
the uninterrupted run.  Three record types matter:

``charge``
    fsync'd (group-committed per batch) *before* the coalesced batch
    samples; carries the request's input checksum and design parameters so
    an in-doubt request can be replayed idempotently and verified.
``refusal``
    an over-budget request spent nothing but consumed its spawn; recovery
    replays refusals to land on the exact stream position.
``done``
    the response reached the client's connection; a charged-but-not-done
    index is the crash window, re-served (never re-charged) on replay.

**Group commit**: a coalesced batch can touch every tenant, and one device
flush per touched ledger per batch is the dominant serving cost of
durability.  Instead, each batch's ledger
appends are buffered to the OS (surviving *process* crashes as-is), their
raw record bytes are copied — tagged with tenant slug and ledger byte
offset — into one store-wide ``commit.bin``, and only *that* file is
``fdatasync``'d: one flush per batch, regardless of tenant count.  The
single commit barrier is :meth:`TenantStore.stage_commit` (drain, framing,
the ``write``) followed by the daemon's one ``_datasync`` of the returned
descriptor after the batch samples and before any response leaves.
Recovery re-applies the commit log's records into the ledger files at
their recorded offsets (idempotent: re-writing bytes the page cache
already persisted changes nothing) before parsing them, then resets the
log (an end-of-log sentinel at offset 0; the file keeps its preallocated
size).  Tenant ledgers get their own full flush at checkpoints
(:meth:`sync_all`, commit-log rotation) and shutdown.

Recovery is **per-tenant fail-soft**: a torn ledger *tail* (a crash
mid-append) is truncated away exactly as in ``serve-stream --resume``;
a ledger that is damaged beyond that (mid-file corruption, a failed
checksum, an impossible replay) quarantines *that tenant only* — its
``hello``/``release`` answer with a code-2 error while every other tenant
serves on.  A ledger whose pinned configuration no longer matches the
daemon's (different ``--seed`` for a derived root, different default
``--budget-alpha``) is likewise refused per-tenant with
:class:`~repro.engine.durability.LedgerConfigError` semantics rather than
silently forking the tenant's stream or budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.engine.durability import (
    AccountantLedger,
    LedgerConfigError,
    LedgerCorruptionError,
    LedgerError,
    datasync,
)

#: Fault-injection site of tenant-ledger appends (``torn_tenant_ledger``).
TENANT_LEDGER_SITE = "tenant_ledger_append"

#: Commit-log entry framing: ``<payload_len u32, crc32 u32>`` then payload.
_COMMIT_HEAD = struct.Struct("<II")
#: Payload prefix: ``<slug_len u16, ledger_offset u64>`` then slug + record bytes.
_COMMIT_META = struct.Struct("<HQ")
#: Preallocated commit-log size.  The file is zero-filled once at open and
#: then only ever overwritten in place: a per-batch ``fdatasync`` therefore
#: never has file metadata (size, block allocations) to journal, which on
#: ext4 turns the flush into a pure data write.  A batch that would run
#: past the end checkpoints the ledgers first and wraps to offset 0.
_COMMIT_LOG_BYTES = 1 << 20
#: An all-zero entry head marking end-of-log (``payload_len == 0``); each
#: batch write ends with one, and the next batch overwrites it.
_COMMIT_SENTINEL = b"\0" * _COMMIT_HEAD.size

_SLUG_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def tenant_slug(name: str) -> str:
    """Filesystem-safe directory name for a tenant: readable prefix + digest.

    The digest suffix makes distinct tenant names collision-free even when
    their readable prefixes coincide (``"a/b"`` vs ``"a_b"``); the sidecar
    ``tenant.json`` preserves the exact original name.
    """
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:10]
    prefix = _SLUG_SAFE.sub("_", name)[:48].strip("._") or "tenant"
    return f"{prefix}-{digest}"


@dataclass
class RecoveredTenant:
    """One tenant's state replayed from its ledger at daemon startup."""

    name: str
    ledger: AccountantLedger
    #: Substream root positioned at ``next_seq`` children already spawned.
    root: np.random.SeedSequence
    #: Explicit per-tenant seed from the original ``hello`` (``None`` = derived).
    tenant_seed: Optional[int]
    #: ``"hello"`` when the tenant's budget overrode the daemon default.
    budget_source: str
    #: The next request sequence number (== substream spawn position).
    next_seq: int
    refusals: int


class TenantStore:
    """The daemon's durable tenant-budget directory under ``--state-dir``.

    Construct, then call :meth:`recover` once at startup: it replays every
    tenant ledger into :attr:`recovered` and sorts the casualties into
    :attr:`quarantined` (damaged ledgers) and :attr:`config_rejected`
    (ledgers pinned to a different ``--seed``/``--budget-alpha``).  New
    tenants get a fresh ledger through :meth:`create`.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        server_seed: Optional[int] = None,
        default_budget_alpha: Optional[float] = None,
        fsync: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.tenants_dir = self.state_dir / "tenants"
        self.server_seed = server_seed
        self.default_budget_alpha = default_budget_alpha
        self.fsync = fsync
        self.recovered: Dict[str, RecoveredTenant] = {}
        #: tenant name -> reason its ledger is unusable (damage).
        self.quarantined: Dict[str, str] = {}
        #: tenant name -> reason its pinned config mismatches this daemon.
        self.config_rejected: Dict[str, str] = {}
        self._ledgers: Dict[str, AccountantLedger] = {}
        #: ledger identity -> utf-8 tenant slug, for tagging commit-log
        #: entries (pre-encoded: the hot path concatenates it per record).
        self._slug_by_ledger: Dict[int, bytes] = {}
        self._commit_path = self.state_dir / "commit.bin"
        self._commit_fd: Optional[int] = None
        self._commit_pos = 0

    # ------------------------------------------------------------------ #
    # Startup recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> Dict[str, RecoveredTenant]:
        """Replay every tenant ledger; fail-soft per tenant.

        An empty (or absent) state dir recovers nothing — a fresh daemon.
        """
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self._replay_commit_log()
        for tenant_dir in sorted(self.tenants_dir.iterdir()):
            if not tenant_dir.is_dir():
                continue
            name = self._sidecar_name(tenant_dir)
            ledger_path = tenant_dir / "ledger.bin"
            if not ledger_path.exists() or ledger_path.stat().st_size == 0:
                # The creating process died before the header reached the
                # disk: the tenant never existed durably.  Forget it.
                continue
            try:
                self._recover_one(name, ledger_path)
            except (LedgerCorruptionError, LedgerError) as error:
                if isinstance(error, LedgerConfigError):
                    self.config_rejected[name] = str(error)
                else:
                    self.quarantined[name] = str(error)
        return self.recovered

    def _recover_one(self, name: str, ledger_path: Path) -> None:
        ledger = AccountantLedger.open(
            ledger_path, fsync=self.fsync, fault_site=TENANT_LEDGER_SITE
        )
        try:
            config = ledger.config
            stored_name = config.get("tenant")
            if stored_name != name:
                raise LedgerCorruptionError(
                    f"{ledger_path}: ledger belongs to tenant {stored_name!r} "
                    f"but sits in {name!r}'s directory; refusing to guess"
                )
            tenant_seed = config.get("tenant_seed")
            stored_server_seed = config.get("server_seed")
            if tenant_seed is None and stored_server_seed != self.server_seed:
                raise LedgerConfigError(
                    f"{ledger_path}: tenant {name!r}'s substream root was "
                    f"derived under --seed {stored_server_seed!r}, but this "
                    f"daemon runs --seed {self.server_seed!r}; restart with "
                    "the original seed or start a fresh state dir"
                )
            budget_source = config.get("budget_source", "hello")
            if budget_source == "default" and (
                self.default_budget_alpha is None
                or float(self.default_budget_alpha)
                != float(ledger.accountant.alpha_target)
            ):
                raise LedgerConfigError(
                    f"{ledger_path}: tenant {name!r} was budgeted from the "
                    f"daemon default --budget-alpha "
                    f"{ledger.accountant.alpha_target:g}, but this daemon "
                    f"runs --budget-alpha {self.default_budget_alpha!r}; "
                    "restart with the original budget"
                )
            root = np.random.SeedSequence(
                int(config["entropy"]),
                spawn_key=tuple(int(w) for w in config.get("spawn_key", ())),
                pool_size=int(config.get("pool_size", 4)),
                n_children_spawned=ledger.next_index(),
            )
        except KeyError as error:
            ledger.close()
            raise LedgerCorruptionError(
                f"{ledger_path}: header config is missing {error.args[0]!r}"
            ) from error
        except LedgerError:
            ledger.close()
            raise
        self.recovered[name] = RecoveredTenant(
            name=name,
            ledger=ledger,
            root=root,
            tenant_seed=None if tenant_seed is None else int(tenant_seed),
            budget_source=budget_source,
            next_seq=ledger.next_index(),
            refusals=ledger.refusal_count(),
        )
        self._ledgers[name] = ledger
        self._slug_by_ledger[id(ledger)] = ledger_path.parent.name.encode("utf-8")

    def _sidecar_name(self, tenant_dir: Path) -> str:
        """The tenant's exact name from its sidecar (slug when unreadable)."""
        sidecar = tenant_dir / "tenant.json"
        try:
            return str(json.loads(sidecar.read_text())["tenant"])
        except (OSError, ValueError, KeyError, TypeError):
            return tenant_dir.name

    # ------------------------------------------------------------------ #
    # New tenants
    # ------------------------------------------------------------------ #
    def create(
        self,
        name: str,
        root: np.random.SeedSequence,
        tenant_seed: Optional[int],
        budget_alpha: float,
        budget_source: str,
    ) -> AccountantLedger:
        """Open a fresh ledger for a first-seen tenant, pinning its lineage.

        The header records everything restart recovery needs: the root's
        raw entropy and spawn key (so even a fresh-entropy root restores
        bit-exactly), the seeds it was derived from, and which knob set the
        budget.  Must be called before the tenant's root spawns anything.
        """
        tenant_dir = self.tenants_dir / tenant_slug(name)
        tenant_dir.mkdir(parents=True, exist_ok=True)
        sidecar = tenant_dir / "tenant.json"
        temp = tenant_dir / "tenant.json.tmp"
        temp.write_text(json.dumps({"tenant": name}))
        os.replace(temp, sidecar)
        ledger = AccountantLedger.open(
            tenant_dir / "ledger.bin",
            alpha_target=float(budget_alpha),
            config={
                "tenant": name,
                "entropy": str(root.entropy),
                "spawn_key": [int(w) for w in root.spawn_key],
                "pool_size": int(root.pool_size),
                "tenant_seed": None if tenant_seed is None else int(tenant_seed),
                "server_seed": self.server_seed,
                "budget_source": budget_source,
            },
            fsync=self.fsync,
            fault_site=TENANT_LEDGER_SITE,
        )
        self._ledgers[name] = ledger
        self._slug_by_ledger[id(ledger)] = tenant_dir.name.encode("utf-8")
        return ledger

    # ------------------------------------------------------------------ #
    # Group commit
    # ------------------------------------------------------------------ #
    def stage_commit(
        self, ledgers: Iterable[AccountantLedger]
    ) -> Optional[int]:
        """Write this batch's records to the commit log; defer the sync.

        Everything CPU-bound (drain, framing, the ``write(2)``) happens
        here; the returned file descriptor still needs a
        :func:`~repro.engine.durability.datasync` before any response may
        leave the process — the serving daemon issues it after sampling
        the batch, immediately before returning control to the event loop
        (no response can reach a socket earlier).  Returns ``None`` when
        nothing needs syncing (no-fsync mode, or no deferred appends).
        """
        ledgers = list(ledgers)
        if not self.fsync:
            for ledger in ledgers:
                ledger.sync()  # plain flush; nothing stronger was promised
            return None
        parts: list = []
        meta_pack, head_pack, crc32 = _COMMIT_META.pack, _COMMIT_HEAD.pack, zlib.crc32
        for ledger in ledgers:
            encoded = self._slug_by_ledger.get(id(ledger))
            if encoded is None:  # not ours: fall back to a direct sync
                ledger.sync()
                continue
            for offset, blob in ledger.drain_unsynced():
                payload = meta_pack(len(encoded), offset) + encoded + blob
                parts.append(head_pack(len(payload), crc32(payload)))
                parts.append(payload)
        if not parts:
            return None
        parts.append(_COMMIT_SENTINEL)
        buffer = b"".join(parts)
        descriptor = self._open_commit_log()
        if self._commit_pos + len(buffer) > _COMMIT_LOG_BYTES:
            # Wrap: checkpoint the ledgers (making every logged record
            # durable in its own file) and restart the log at offset 0.
            # The drained bytes of *this* batch were flushed by that
            # checkpoint too, so logging them again is merely redundant —
            # replay is an idempotent byte overwrite.  A single batch
            # larger than the whole log (pathological) simply extends the
            # file past its preallocation; the next wrap resets it.
            self.sync_all()
        os.pwrite(descriptor, buffer, self._commit_pos)
        self._commit_pos += len(buffer) - len(_COMMIT_SENTINEL)
        return descriptor

    def _open_commit_log(self) -> int:
        if self._commit_fd is None:
            descriptor = os.open(
                self._commit_path, os.O_RDWR | os.O_CREAT, 0o644
            )
            size = os.fstat(descriptor).st_size
            if size < _COMMIT_LOG_BYTES:
                # Materialise real zeroed blocks (not a sparse hole) so
                # steady-state batch writes never allocate — allocation is
                # metadata, and metadata is what makes fdatasync pay for
                # an ext4 journal commit.  One-time cost at daemon start.
                os.lseek(descriptor, size, os.SEEK_SET)
                os.write(descriptor, b"\0" * (_COMMIT_LOG_BYTES - size))
                os.fsync(descriptor)
            self._commit_fd = descriptor
        return self._commit_fd

    def _reset_commit_log(self) -> None:
        """Mark the log empty after its records became durable in the ledgers.

        Writes the end-of-log sentinel at offset 0 (the file keeps its
        preallocated size — shrinking it would reintroduce the metadata
        churn the preallocation exists to avoid).  Entries beyond the
        sentinel from earlier epochs are unreachable to the parser and
        harmless even if misread: replay rewrites bytes an append-only
        ledger already holds.
        """
        if self._commit_fd is None and not self._commit_path.exists():
            return
        descriptor = self._open_commit_log()
        os.pwrite(descriptor, _COMMIT_SENTINEL, 0)
        datasync(descriptor)
        self._commit_pos = 0

    def _replay_commit_log(self) -> None:
        """Re-apply commit-log records the tenant ledgers may have lost.

        Every entry carries the raw (self-checksummed) ledger record bytes
        and the exact ledger offset they were appended at; writing them
        back is idempotent over whatever suffix the page cache persisted
        before the crash.  A torn commit-log *tail* is expected — the
        batch it belonged to never sampled, let alone answered — so
        parsing simply stops there.  Applied ledger files are flushed
        before the (now redundant) log is reset.
        """
        try:
            blob = self._commit_path.read_bytes()
        except OSError:
            return
        by_slug: Dict[str, List[Tuple[int, bytes]]] = {}
        position = 0
        while position + _COMMIT_HEAD.size <= len(blob):
            length, crc = _COMMIT_HEAD.unpack_from(blob, position)
            if length == 0:
                break  # end-of-log sentinel (or preallocated zeros)
            payload = blob[
                position + _COMMIT_HEAD.size : position + _COMMIT_HEAD.size + length
            ]
            if (
                len(payload) < length
                or length < _COMMIT_META.size
                or zlib.crc32(payload) != crc
            ):
                break  # torn tail: an unacknowledged batch — drop it
            slug_len, offset = _COMMIT_META.unpack_from(payload, 0)
            slug = payload[
                _COMMIT_META.size : _COMMIT_META.size + slug_len
            ].decode("utf-8", errors="replace")
            record = payload[_COMMIT_META.size + slug_len :]
            by_slug.setdefault(slug, []).append((offset, bytes(record)))
            position += _COMMIT_HEAD.size + length
        for slug, entries in by_slug.items():
            tenant_dir = self.tenants_dir / slug
            tenant_dir.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(
                tenant_dir / "ledger.bin", os.O_RDWR | os.O_CREAT, 0o644
            )
            try:
                for offset, record in entries:
                    os.lseek(descriptor, offset, os.SEEK_SET)
                    os.write(descriptor, record)
                datasync(descriptor)
            finally:
                os.close(descriptor)
        self._reset_commit_log()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def rejection_reason(self, name: str) -> Optional[str]:
        """Why ``name`` cannot be served (``None`` when it can)."""
        return self.quarantined.get(name) or self.config_rejected.get(name)

    def sync_all(self) -> None:
        """Checkpoint: flush every open tenant ledger, then drop the log."""
        for ledger in self._ledgers.values():
            ledger.sync()
        self._reset_commit_log()

    def close_all(self) -> None:
        """Checkpoint and close every open tenant ledger (drain/shutdown)."""
        for ledger in self._ledgers.values():
            ledger.close()
        if self._commit_fd is not None:
            os.close(self._commit_fd)
            self._commit_fd = None

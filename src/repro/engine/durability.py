"""Durable privacy accounting: a write-ahead ledger behind the accountant.

The :class:`~repro.privacy.PrivacyAccountant` tracks the one piece of state
a DP release system must never lose — how much of the privacy budget has
already been spent.  In-memory accounting is fine for a one-shot run, but a
crash mid-``serve-stream`` would forget every charge, and a restart would
happily re-release what was already paid for.  :class:`AccountantLedger`
closes that hole with a write-ahead log:

* **Append-only, fsync'd, per-record checksummed.**  Every record is
  ``<length:u32><crc32:u32><utf-8 json payload>``.  A charge is appended
  (and fsync'd) *before* it is applied to the in-memory accountant, so the
  durable state is always at least as spent as the in-memory one — the
  safe direction for a budget.
* **Atomic recovery.**  Reopening replays the log into a fresh accountant.
  A *torn tail* — a record whose length prefix or payload is cut short at
  EOF, exactly what a crash mid-``write`` leaves behind — is truncated
  away silently (that charge never took effect in any observable output).
  A record that is *complete but wrong* (checksum or JSON mismatch, or a
  replay that no longer fits the budget) is corruption, not a crash
  artifact, and raises :class:`LedgerCorruptionError` loudly rather than
  guessing; the tamper-evidence rationale follows the Integrity Coded
  Databases line of work cited in PAPERS.md.
* **Checkpointed resume.**  Besides ``charge`` records the executor
  journals ``done`` records — ``(chunk, size, records, offset)`` — once a
  chunk's released bytes are durably in the output file.  On restart,
  :meth:`resume_state` returns the contiguous done prefix so
  ``serve-stream --resume`` can truncate the output to the last checkpoint
  and skip exactly the chunks that were already served, while chunks that
  were *charged but not served* (the crash window) are re-served without
  being charged again — :meth:`charge` is idempotent by chunk index.

Record types
------------
``header``
    First record of every ledger: schema version, ``alpha_target``, and an
    arbitrary JSON ``config`` dict pinning the run parameters (n, alpha,
    properties, chunk size, seed entropy, …) so a resume with different
    parameters is refused (:class:`LedgerConfigError`) instead of silently
    producing a stream that matches nothing.
``charge``
    ``{chunk, alpha, size, label, crc}`` — one spent release.  ``crc`` is
    a checksum of the chunk's *input* counts, making a resume against a
    diverged input stream detectable (:meth:`verify_chunk`).
``done``
    ``{chunk, size, records, records_total, offset}`` — the chunk's output
    reached durable storage at byte ``offset``.
``refusal``
    ``{chunk, label}`` — the release at this index was *refused* over
    budget.  Nothing was spent, but the index itself is consumed: the
    serving daemon's per-tenant ledgers use record indices as substream
    spawn positions, and a refusal consumes a spawn (exactly as in
    in-memory serving), so restart recovery must replay refusals to land
    on the same stream position.

Multi-tenant note
-----------------
The serving daemon keeps one ledger *per tenant* (see
:mod:`repro.serving.tenant_store`); those ledgers use the daemon-specific
fault site ``tenant_ledger_append`` (the ``torn_tenant_ledger`` spec) and
group-commit their appends — ``charge(..., sync=False)`` buffers several
records, one :meth:`sync` makes them durable before any sample leaves the
process.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.engine import faults as _faults
from repro.privacy import BudgetExceededError, PrivacyAccountant

#: Bump on incompatible record-format changes.
LEDGER_VERSION = 1

#: Per-record head: payload length (u32) + payload crc32 (u32), little-endian.
_RECORD_HEAD = struct.Struct("<II")

#: Sanity cap on a record payload: ledger records are small JSON documents,
#: so a length beyond this is corruption, not a big record.
_MAX_PAYLOAD = 1 << 20


def datasync(fileno: int) -> None:
    """Flush file *data* (and the metadata needed to read it) to disk.

    ``fdatasync`` is the standard WAL sync: it skips the inode-only
    metadata (mtime etc.) a full ``fsync`` would also journal, which
    matters when a serving daemon group-commits many small appends per
    batch.  Falls back to ``fsync`` where unavailable.
    """
    if hasattr(os, "fdatasync"):
        os.fdatasync(fileno)
    else:  # pragma: no cover - non-POSIX fallback
        os.fsync(fileno)


class LedgerError(RuntimeError):
    """Base class for accountant-ledger failures."""


class LedgerCorruptionError(LedgerError):
    """A complete ledger record is damaged, or the log replays inconsistently.

    Never raised for a torn tail (which recovery truncates); raised when
    the bytes on disk claim to be a full record but fail their checksum,
    do not parse, or replay into an impossible accounting state.
    """


class LedgerConfigError(LedgerError):
    """An existing ledger's pinned run configuration does not match the caller's."""


def chunk_crc(chunk) -> int:
    """Checksum of a chunk's input counts (int64 little-endian bytes).

    Stored in ``charge`` records so a resumed run can detect that the
    input stream it is skipping over is not the stream that was charged.
    """
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return zlib.crc32(_np.ascontiguousarray(chunk, dtype="<i8").tobytes())


#: Lazily-bound numpy module (:func:`chunk_crc` is this module's only user,
#: and the ledger itself must stay importable without numpy).
_np = None


@dataclass(frozen=True)
class ResumeState:
    """The contiguous completed prefix recovered from a ledger.

    ``next_chunk`` is the first chunk index that still needs serving;
    ``records`` is how many released counts the completed prefix contains;
    ``offset`` is the output-file byte offset recorded by the last done
    chunk (``None`` when nothing completed — the output starts empty).
    """

    next_chunk: int
    records: int
    offset: Optional[int]


class AccountantLedger:
    """A :class:`~repro.privacy.PrivacyAccountant` with a write-ahead log.

    Construct via :meth:`open`.  The wrapped accountant is exposed as
    :attr:`accountant`; all budget *decisions* still live in
    :class:`~repro.privacy.PrivacyAccountant` — this class only makes the
    outcomes durable and replayable.
    """

    def __init__(
        self,
        path: Path,
        handle,
        accountant: PrivacyAccountant,
        config: dict,
        fsync: bool,
        charges: Dict[int, dict],
        done: Dict[int, dict],
        refusals: Optional[Dict[int, dict]] = None,
        fault_site: str = "ledger_append",
    ) -> None:
        self.path = path
        self._handle = handle
        self.accountant = accountant
        self.config = config
        self._fsync = fsync
        self._charges = charges
        self._done = done
        self._refusals: Dict[int, dict] = {} if refusals is None else refusals
        self.fault_site = fault_site
        #: Buffered appends awaiting a group-commit :meth:`sync`.
        self._dirty = False
        #: ``(offset, blob)`` of appends deferred with ``sync=False``,
        #: until either a full :meth:`sync` of this file or a
        #: :meth:`drain_unsynced` hand-off to an external commit log.
        self._unsynced: List[Tuple[int, bytes]] = []
        #: Done records deferred with ``mark_done(..., defer=True)``;
        #: serialised and appended at the next :meth:`sync` (checkpoint or
        #: close), not per request.
        self._pending_done: List[dict] = []
        #: Append position, tracked in userspace (the handle is positioned
        #: at EOF by :meth:`open` and only ever appends) — saves a
        #: ``tell()`` per record on the serving hot path.
        self._offset: int = handle.tell()
        self._closed = False
        self._crashed = False

    # ------------------------------------------------------------------ #
    # Open / recover
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        alpha_target: Optional[float] = None,
        config: Optional[dict] = None,
        fsync: bool = True,
        fault_site: str = "ledger_append",
    ) -> "AccountantLedger":
        """Open (creating or recovering) a ledger at ``path``.

        A fresh ledger requires ``alpha_target`` and pins ``config`` (any
        JSON-serialisable dict) into its header.  Reopening an existing
        ledger replays the log — truncating a torn tail, refusing complete
        corruption — and then checks that ``alpha_target`` and every key
        the caller passes in ``config`` match the pinned header (keys the
        caller omits, e.g. the recorded seed entropy, are not compared and
        can be read back from :attr:`config`).
        """
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            return cls._recover(path, alpha_target, config, fsync, fault_site)
        if alpha_target is None:
            raise LedgerError(
                f"{path}: creating a new ledger requires alpha_target"
            )
        accountant = PrivacyAccountant(alpha_target=alpha_target)
        handle = path.open("wb+")
        ledger = cls(
            path, handle, accountant, dict(config or {}), fsync, {}, {},
            fault_site=fault_site,
        )
        ledger._append(
            {
                "type": "header",
                "version": LEDGER_VERSION,
                "alpha_target": float(accountant.alpha_target),
                "config": ledger.config,
            },
            faultable=False,
        )
        return ledger

    @classmethod
    def _recover(
        cls,
        path: Path,
        alpha_target: Optional[float],
        config: Optional[dict],
        fsync: bool,
        fault_site: str = "ledger_append",
    ) -> "AccountantLedger":
        # Parse and replay read-only; the append handle is opened only
        # once the log is known good, so no error path has one to close.
        with path.open("rb") as reader:
            records, keep_bytes = cls._read_records(path, reader)
        if not records:
            # The creating process died inside the very first (header)
            # write: nothing was ever charged, so start over.
            path.unlink()
            return cls.open(
                path, alpha_target=alpha_target, config=config, fsync=fsync,
                fault_site=fault_site,
            )
        header = records[0]
        if header.get("type") != "header" or header.get("version") != LEDGER_VERSION:
            raise LedgerCorruptionError(
                f"{path}: first record is not a version-{LEDGER_VERSION} header "
                f"(got {header.get('type')!r} v{header.get('version')!r})"
            )
        stored_target = float(header["alpha_target"])
        if alpha_target is not None and float(alpha_target) != stored_target:
            raise LedgerConfigError(
                f"{path}: ledger was opened with --budget-alpha {stored_target:g}, "
                f"not {float(alpha_target):g}; resume with the original budget"
            )
        stored_config = dict(header.get("config") or {})
        for key, value in (config or {}).items():
            if stored_config.get(key) != value:
                raise LedgerConfigError(
                    f"{path}: ledger pins {key}={stored_config.get(key)!r} but this "
                    f"run requests {key}={value!r}; resume with the original "
                    "parameters or start a fresh ledger"
                )
        accountant = PrivacyAccountant(alpha_target=stored_target)
        charges: Dict[int, dict] = {}
        done: Dict[int, dict] = {}
        refusals: Dict[int, dict] = {}
        for record in records[1:]:
            kind = record.get("type")
            if kind == "charge":
                chunk = int(record["chunk"])
                if chunk in charges or chunk in refusals:
                    raise LedgerCorruptionError(
                        f"{path}: chunk {chunk} is charged twice in the log"
                    )
                try:
                    accountant.record(
                        float(record["alpha"]), label=record.get("label", "")
                    )
                except (BudgetExceededError, ValueError) as error:
                    # A charge was only ever appended after admit()
                    # passed, so a log that replays over budget (or with an
                    # invalid alpha) was not written by this code path.
                    raise LedgerCorruptionError(
                        f"{path}: replaying chunk {chunk}'s charge fails "
                        f"({error}); the log is inconsistent"
                    ) from error
                charges[chunk] = record
            elif kind == "done":
                chunk = int(record["chunk"])
                if chunk not in charges:
                    raise LedgerCorruptionError(
                        f"{path}: chunk {chunk} is marked done but never charged"
                    )
                done[chunk] = record
            elif kind == "refusal":
                chunk = int(record["chunk"])
                if chunk in charges or chunk in refusals:
                    raise LedgerCorruptionError(
                        f"{path}: chunk {chunk} is recorded twice in the log"
                    )
                refusals[chunk] = record
            else:
                raise LedgerCorruptionError(
                    f"{path}: unknown record type {kind!r}"
                )
        handle = path.open("rb+")
        if keep_bytes < path.stat().st_size:
            # Torn tail: drop the partial record a crash left behind, then
            # make the truncation itself durable before appending anything.
            handle.truncate(keep_bytes)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        handle.seek(0, os.SEEK_END)
        return cls(
            path, handle, accountant, stored_config, fsync, charges, done,
            refusals=refusals, fault_site=fault_site,
        )

    @staticmethod
    def _read_records(path: Path, handle) -> tuple:
        """Parse every complete record; return (records, bytes_to_keep)."""
        records = []
        keep = 0
        handle.seek(0)
        while True:
            head = handle.read(_RECORD_HEAD.size)
            if len(head) == 0:
                break
            if len(head) < _RECORD_HEAD.size:
                break  # torn head at EOF
            length, crc = _RECORD_HEAD.unpack(head)
            if length > _MAX_PAYLOAD:
                raise LedgerCorruptionError(
                    f"{path}: record at byte {keep} claims {length} payload bytes "
                    f"(cap {_MAX_PAYLOAD}); the log is damaged"
                )
            payload = handle.read(length)
            if len(payload) < length:
                break  # torn payload at EOF
            if zlib.crc32(payload) != crc:
                raise LedgerCorruptionError(
                    f"{path}: record at byte {keep} fails its checksum; "
                    "the log is damaged (not merely torn) — refusing to guess "
                    "the spent budget"
                )
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise LedgerCorruptionError(
                    f"{path}: record at byte {keep} passes its checksum but is "
                    f"not valid JSON ({error}); the log is damaged"
                ) from error
            records.append(record)
            keep += _RECORD_HEAD.size + length
        return records, keep

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def _append(
        self,
        record: dict,
        faultable: bool = True,
        sync: Optional[bool] = None,
    ) -> None:
        """Serialise, checksum, append and fsync one record.

        The in-memory accountant is only updated *after* this returns, so
        a crash anywhere inside leaves the durable state ahead of (never
        behind) the memory state.  ``sync=False`` defers the fsync to a
        later group-commit :meth:`sync` — the caller promises nothing
        derived from this record leaves the process before that sync.
        """
        if self._closed:
            raise LedgerError(f"{self.path}: ledger is closed")
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        blob = _RECORD_HEAD.pack(len(payload), zlib.crc32(payload)) + payload
        if faultable:
            injector = _faults.get_injector()
            # Cheap guard for the serving hot path: only walk the full
            # predicate calls when a fault that can reach a ledger append
            # is actually configured (production injectors are all-off).
            if (
                injector.io_error_rate > 0.0
                or injector.torn_write is not None
                or injector.torn_tenant_ledger is not None
            ):
                self._faulted_append(injector, blob)
        offset = self._offset
        self._handle.write(blob)
        self._offset = offset + len(blob)
        if sync is False:
            # Deferred append: leave the bytes in the userspace buffer —
            # the group-commit barrier (sync()/drain_unsynced()) flushes
            # them once per batch.  Nothing derived from this record may
            # leave the process before that barrier, so there is no
            # reader the buffering could disappoint.
            self._dirty = True
            if self._fsync:
                self._unsynced.append((offset, blob))
            return
        self._handle.flush()
        if self._fsync:
            datasync(self._handle.fileno())
            self._dirty = False
            self._unsynced.clear()
        else:
            self._dirty = True

    def _faulted_append(self, injector, blob: bytes) -> None:
        """The slow half of :meth:`_append`'s fault checks (injector armed)."""
        if injector.io_error(self.fault_site):
            raise OSError(f"injected I/O error appending to {self.path}")
        if injector.torn(self.fault_site):
            # Crash mid-write: half the record reaches the disk, the
            # process dies.  close() must not tidy up after a corpse.
            torn = blob[: max(1, len(blob) // 2)]
            self._offset += len(torn)
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._crashed = True
            raise _faults.InjectedCrash(
                f"torn write injected at {self.path}"
            )

    def sync(self) -> None:
        """Group-commit barrier: sync any appends buffered with ``sync=False``."""
        if self._closed or self._crashed:
            return
        if self._pending_done:
            # Materialise done marks deferred off the serving hot path.
            # They are advisory (losing one costs a bit-identical replay),
            # so they skip fault injection: a checkpoint must not crash on
            # a record whose loss is defined to be harmless.
            pending, self._pending_done = self._pending_done, []
            for record in pending:
                self._append(record, faultable=False, sync=False)
        if not self._dirty:
            return
        self._handle.flush()
        if self._fsync:
            datasync(self._handle.fileno())
        self._dirty = False
        self._unsynced.clear()

    def drain_unsynced(self) -> List[Tuple[int, bytes]]:
        """Hand off appends buffered with ``sync=False`` for external commit.

        Returns ``(ledger_offset, raw_record_bytes)`` pairs in append order
        and forgets them: the caller (the serving daemon's tenant store)
        takes over durability by copying the bytes into its own group-commit
        log and syncing *that* — one device flush per batch instead of one
        per touched tenant ledger.  This ledger file itself stays dirty, so
        a later :meth:`sync` (checkpoint/shutdown) still flushes it; until
        then restart recovery re-applies the commit-log copy at these exact
        byte offsets, which is idempotent against whatever prefix the page
        cache already persisted.
        """
        pending = self._unsynced
        self._unsynced = []
        # Deliberately NO flush here: pushing the ledger's dirty pages to
        # the OS every batch drags this file's metadata into the same
        # ext4 journal transaction the commit log's sync commits, making
        # that one ``fdatasync`` pay for every touched ledger anyway.
        # The drained records are fully recoverable from the commit log
        # (by byte offset), so the userspace buffer is loss-free; the
        # file itself catches up at :meth:`sync` (checkpoint/shutdown).
        return pending

    def charge(
        self,
        chunk: int,
        alpha: float,
        size: int,
        label: str = "",
        crc: Optional[int] = None,
        extra: Optional[dict] = None,
        sync: Optional[bool] = None,
    ) -> bool:
        """Durably charge one chunk; idempotent by chunk index.

        Returns ``True`` when the charge was applied now, ``False`` when
        the ledger already holds it (a resumed run replaying the schedule —
        the chunk is *not* double-counted, but its parameters must match
        the recorded ones or :class:`LedgerCorruptionError` is raised).
        The same call as :meth:`~repro.privacy.PrivacyAccountant.charge`:
        an ``alpha`` the accountant's admission rule refuses raises
        *before* anything is appended, so a refused release leaves no trace,
        durable or otherwise (the serving daemon journals the refusal
        separately via :meth:`record_refusal` because refusals consume
        substream spawns).
        ``extra`` lands as additional record keys (e.g. the daemon's design
        parameters, read back for idempotent request replay); ``sync=False``
        defers the fsync to a group-commit :meth:`sync`.
        """
        chunk = int(chunk)
        alpha = float(alpha)
        size = int(size)
        existing = self._charges.get(chunk)
        if existing is not None:
            if (
                float(existing["alpha"]) != alpha
                or int(existing["size"]) != size
                or (crc is not None and int(existing.get("crc", crc)) != int(crc))
            ):
                raise LedgerCorruptionError(
                    f"{self.path}: chunk {chunk} was charged as "
                    f"(alpha={existing['alpha']:g}, size={existing['size']}) but is "
                    f"now presented as (alpha={alpha:g}, size={size}); "
                    "the resumed run does not match the recorded one"
                )
            return False
        # The accountant's admission rule runs before the WAL append, so a
        # refusal leaves no trace, durable or otherwise.
        self.accountant.admit(alpha)
        record = {
            "type": "charge",
            "chunk": chunk,
            "alpha": alpha,
            "size": size,
            "label": label,
        }
        if crc is not None:
            record["crc"] = int(crc)
        for key, value in (extra or {}).items():
            record.setdefault(key, value)
        self._append(record, sync=sync)
        self.accountant.record(alpha, label=label)
        self._charges[chunk] = record
        return True

    def record_refusal(
        self, chunk: int, label: str = "", sync: Optional[bool] = None
    ) -> bool:
        """Durably journal an over-budget refusal at ``chunk``; idempotent.

        Nothing is spent — the record exists because the *index* is
        consumed: the daemon's per-tenant ledgers map record indices to
        substream spawns, and a refusal consumes its spawn exactly as
        in-memory serving does, so recovery must count it to land on the
        same stream position.  Returns ``False`` when the ledger already
        holds this refusal (a replayed request).
        """
        chunk = int(chunk)
        if chunk in self._refusals:
            return False
        if chunk in self._charges:
            raise LedgerError(
                f"{self.path}: chunk {chunk} is already charged; it cannot "
                "also be refused"
            )
        record = {"type": "refusal", "chunk": chunk, "label": label}
        self._append(record, sync=sync)
        self._refusals[chunk] = record
        return True

    def mark_done(
        self,
        chunk: int,
        size: int,
        records: int,
        offset: int,
        sync: Optional[bool] = None,
        defer: bool = False,
    ) -> None:
        """Record that a charged chunk's output is durably at byte ``offset``.

        ``records`` is the *cumulative* released-count total through this
        chunk — what a resumed writer needs to rebuild its length header.
        ``sync=False`` skips the fsync: losing a done mark to a crash only
        costs one redundant (bit-identical) replay, never a double charge.
        ``defer=True`` goes further and skips the append itself until the
        next :meth:`sync` (checkpoint/close): the serving daemon marks
        hundreds of requests done per second and none of those marks is
        load-bearing — recovery treats a missing done mark exactly like a
        crash between charge and response, which replays bit-identically.
        """
        chunk = int(chunk)
        if chunk not in self._charges:
            raise LedgerError(
                f"{self.path}: chunk {chunk} cannot be done before it is charged"
            )
        if chunk in self._done:
            return
        record = {
            "type": "done",
            "chunk": chunk,
            "size": int(size),
            "records": int(records),
            "offset": int(offset),
        }
        if defer:
            self._done[chunk] = record
            self._pending_done.append(record)
            return
        self._append(record, sync=sync)
        self._done[chunk] = record

    # ------------------------------------------------------------------ #
    # Introspection / resume
    # ------------------------------------------------------------------ #
    def charged(self, chunk: int) -> bool:
        """Whether the ledger holds a charge for ``chunk``."""
        return int(chunk) in self._charges

    def refused(self, chunk: int) -> bool:
        """Whether the ledger holds a refusal for ``chunk``."""
        return int(chunk) in self._refusals

    def is_done(self, chunk: int) -> bool:
        """Whether ``chunk``'s output is recorded as durable."""
        return int(chunk) in self._done

    def charge_record(self, chunk: int) -> Optional[dict]:
        """The recorded charge for ``chunk`` (``None`` when not charged)."""
        record = self._charges.get(int(chunk))
        return None if record is None else dict(record)

    def refusal_count(self) -> int:
        """How many refusals the ledger holds."""
        return len(self._refusals)

    def next_index(self) -> int:
        """One past the highest recorded charge/refusal index (0 when empty).

        The daemon assigns request indices sequentially and every consumed
        index leaves a durable record (charge or refusal), so this is the
        restart position of a tenant's substream root.
        """
        indices = self._charges.keys() | self._refusals.keys()
        return 1 + max(indices) if indices else 0

    def verify_chunk(self, chunk: int, crc: int) -> None:
        """Check a skipped chunk's input counts against the recorded checksum.

        Raises :class:`LedgerCorruptionError` when the input stream a
        resumed run is skipping over differs from the one that was charged
        — resuming would then splice together two unrelated streams.
        """
        record = self._charges.get(int(chunk))
        if record is None or "crc" not in record:
            return
        if int(record["crc"]) != int(crc):
            raise LedgerCorruptionError(
                f"{self.path}: chunk {chunk}'s input counts differ from the "
                "charged stream (checksum mismatch); refusing to resume "
                "against a diverged input"
            )

    def resume_state(self) -> ResumeState:
        """The contiguous completed prefix: where a resumed run picks up."""
        next_chunk = 0
        records = 0
        offset: Optional[int] = None
        while next_chunk in self._done:
            record = self._done[next_chunk]
            records = int(record["records"])
            offset = int(record["offset"])
            next_chunk += 1
        return ResumeState(next_chunk=next_chunk, records=records, offset=offset)

    def spent_alpha(self) -> float:
        """The wrapped accountant's composed spend (durable by construction)."""
        return self.accountant.spent_alpha()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the log file (a no-op after an injected crash)."""
        if self._closed or self._crashed:
            self._closed = True
            return
        self.sync()
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "AccountantLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Long-lived multi-tenant serving daemon with cross-tenant request coalescing.

Every CLI invocation of ``serve-batch``/``serve-stream`` pays process
startup and plan compilation before releasing a single count.  The daemon
amortises both across a process lifetime — and across *tenants*:

* **Per-tenant sessions.**  Each tenant (bound by the ``hello`` op) owns a
  :class:`~repro.privacy.PrivacyAccountant` (budget isolation: one tenant
  exhausting its budget never affects another) and a substream root from
  :func:`~repro.serving.protocol.tenant_seed_sequence`.  Request ``k`` of a
  tenant always samples from the ``k``-th spawn of that root, regardless of
  how requests are batched — the worker-invariance discipline of
  :meth:`~repro.engine.executor.StreamExecutor.stream_seeded` applied to
  tenants instead of chunks.

* **One shared plans-LRU.**  A single :class:`~repro.serving.cache
  .DesignCache` plus one compiled :class:`~repro.engine.plan.ReleasePlan`
  per distinct ``(n, alpha, properties)`` serve *all* tenants.

* **Coalescing batcher.**  In-flight requests are collected for a short
  window (``batch_window_ms``, default 2 ms) and same-plan requests from
  different tenants merge into **one** vectorised draw.  Identity is
  preserved exactly: each request's uniforms are drawn from its *own*
  substream generator, concatenated, and pushed through a single
  :meth:`~repro.engine.plan.ReleasePlan.execute_with_uniforms` call — the
  samplers are elementwise in ``(count, uniform)`` pairs, so the merged
  batch is bit-identical to serving each request alone (``batch_window_ms
  = 0``).  The window is a *cap*: a batch flushes early when every open
  connection has a request waiting or when ``max_batch`` requests are
  pending.

* **Budget shedding.**  Each batched request is charged against its
  tenant's budget *before* any sampling, in arrival order — one ``charge``
  call, whether the budget is in memory or a durable ledger.  An
  over-budget request is shed from the batch with a code-1 refusal —
  consuming its substream spawn but zero uniforms — while the rest of the
  batch proceeds untouched.

* **Durable budgets** (``state_dir``).  Each tenant's accountant is backed
  by its own :class:`~repro.engine.durability.AccountantLedger` through a
  :class:`~repro.serving.tenant_store.TenantStore`: every charge (and every
  refusal — refusals consume spawns) is group-committed to disk *before*
  the batch samples, and the ledger header pins the tenant's substream-root
  lineage.  A restarted daemon replays the ledgers, restoring each tenant's
  exact ``alpha_spent``, refusal count and stream position, so post-restart
  draws are bit-identical to an uninterrupted run.  A request that was
  charged but whose response was lost to the crash is *replayed* — client
  re-sends its ``seq``; the daemon re-derives the same substream and
  answers with the same bits, charged exactly once.  Damaged ledgers
  quarantine only their tenant; everyone else serves on.

* **Deadlines and backpressure.**  ``request_timeout`` sheds requests that
  expire before the batcher reaches them; ``max_pending``/``max_inflight``
  shed for capacity — all with retriable code-3 ``overloaded`` responses
  that consume nothing.  ``client_timeout`` bounds each response write so
  a stalled client is reaped without blocking the batcher, and
  ``max_line_bytes`` bounds request framing.

* **Graceful shutdown.**  ``stop()`` (or the ``shutdown``/``drain`` ops,
  or SIGTERM via the CLI) stops accepting connections, flushes the
  in-flight batch so every admitted request is answered, checkpoints the
  tenant ledgers, then closes.

See ``docs/architecture.md`` (daemon-durability section) for the recovery
state machine and ``benchmarks/test_bench_daemon.py`` for the
throughput/p99 harness (including the durable-mode overhead gate).
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine import faults as _faults
from repro.engine.durability import (
    AccountantLedger,
    LedgerError,
    chunk_crc,
    datasync as _datasync,
)
from repro.engine.plan import ReleasePlan
from repro.privacy import BudgetExceededError, PrivacyAccountant
from repro.serving.cache import DesignCache, design_key
from repro.serving.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    LineTooLongError,
    ProtocolError,
    ReleaseCommand,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    overloaded_response,
    parse_release,
    read_message_line,
    refusal_response,
    tenant_seed_sequence,
)
from repro.serving.stats import (
    budget_payload,
    counter_snapshot,
    health_payload,
    stats_payload,
)
from repro.serving.tenant_store import TenantStore

#: Default coalescing window in milliseconds.
DEFAULT_BATCH_WINDOW_MS = 2.0

#: Default cap on requests merged into one flush.
DEFAULT_MAX_BATCH = 256

#: Default cap on distinct tenant sessions.
DEFAULT_MAX_TENANTS = 64

#: The response a served request's connection runs after the bytes are on
#: the wire (durable daemons: the ledger's ``done`` mark).
_OnWritten = Optional[Callable[[], None]]


class TenantSession:
    """One tenant's serving state: budget, substream root, counters."""

    def __init__(
        self,
        name: str,
        root: np.random.SeedSequence,
        budget: Union[PrivacyAccountant, AccountantLedger, None],
        seed: Optional[int] = None,
        budget_alpha: Optional[float] = None,
    ) -> None:
        self.name = name
        self.root = root
        #: What every charge and refusal goes through (``None`` = unmetered).
        self.budget = budget
        #: The durable ledger, for ``seq`` replay and done marks.
        self.ledger = budget if isinstance(budget, AccountantLedger) else None
        self.accountant = budget if self.ledger is None else self.ledger.accountant
        self.seed = seed
        self.budget_alpha = budget_alpha
        self.requests = 0
        self.records = 0
        #: Releases currently admitted but unanswered (``max_inflight``).
        self.inflight = 0

    @property
    def refusals(self) -> int:
        """Over-budget refusals, restored from the ledger after a restart."""
        return 0 if self.budget is None else self.budget.refusal_count()

    def next_substream(self) -> np.random.SeedSequence:
        """The substream of this tenant's next consumed sequence number.

        Spawned in flush order == admission order, so request ``k`` is
        always the ``k``-th spawn — whether it is served alone, coalesced
        with other tenants, or shed over budget (a shed request consumes
        its spawn but zero uniforms, exactly as in per-request serving).
        On a durable daemon the spawn happens only *after* the charge or
        refusal record reached the ledger, so a failed append burns no
        sequence number and a retry converges bit-identically.
        """
        self.requests += 1
        return self.root.spawn(1)[0]

    def substream_at(self, seq: int) -> np.random.SeedSequence:
        """Re-derive the ``seq``-th spawn without advancing the root.

        This is :meth:`numpy.random.SeedSequence.spawn`'s child derivation
        applied at an explicit position — the replay path's way to re-draw
        an already-charged request's exact uniforms.
        """
        return np.random.SeedSequence(
            self.root.entropy,
            spawn_key=tuple(self.root.spawn_key) + (int(seq),),
            pool_size=self.root.pool_size,
        )

    def payload(self) -> Dict[str, Any]:
        """This tenant's slice of the ``stats`` response."""
        return {
            "tenant": self.name,
            "requests": self.requests,
            "records": self.records,
            "inflight": self.inflight,
            "durable": self.ledger is not None,
            "budget": budget_payload(self.accountant, self.refusals),
        }


@dataclass
class _PendingRequest:
    """One admitted release waiting in the batcher."""

    tenant: TenantSession
    key: str
    plan: ReleasePlan
    command: ReleaseCommand
    future: "asyncio.Future[Tuple[dict, _OnWritten]]"
    #: ``time.monotonic()`` moment after which the request is shed unserved.
    deadline: Optional[float] = None
    #: Assigned at flush time, after the durable charge/refusal record.
    seq: Optional[int] = None
    child: Optional[np.random.SeedSequence] = None


@dataclass
class DaemonStats:
    """Process-wide serving totals (see :meth:`ServingDaemon.stats_payload`)."""

    requests: int = 0
    records: int = 0
    #: Batcher flushes (each is one merged draw per distinct plan present).
    batches: int = 0
    #: Requests that were served in a flush of more than one request.
    coalesced_requests: int = 0
    max_batch: int = 0
    budget_refusals: int = 0
    protocol_errors: int = 0
    #: Code-3 sheds: queue full, per-tenant in-flight cap, expired deadline.
    overloaded: int = 0
    #: The subset of ``overloaded`` shed for an expired ``request_timeout``.
    deadline_expired: int = 0
    #: Connections aborted because a response write exceeded ``client_timeout``.
    clients_reaped: int = 0
    #: Already-charged sequence numbers re-served without re-charging.
    replays: int = 0
    #: Tolerated ledger append failures (failed charge = nothing consumed).
    ledger_errors: int = 0


class ServingDaemon:
    """The asyncio front-end over the engine (``repro-mechanisms serve``).

    Parameters
    ----------
    batch_window_ms:
        Coalescing window: how long the batcher may hold the first pending
        request while waiting for more.  ``0`` disables coalescing.
        Outputs are bit-identical either way.
    max_batch:
        Flush immediately once this many requests are pending.
    max_tenants:
        Refuse ``hello`` for new tenants beyond this many sessions.
    budget_alpha:
        Default per-tenant budget: every new tenant gets a fresh
        :class:`~repro.privacy.PrivacyAccountant` with this target unless
        its ``hello`` overrides it.  ``None`` = unmetered tenants
        (disallowed when ``state_dir`` is set — a durable daemon must have
        a budget to journal).
    seed:
        Server seed for :func:`~repro.serving.protocol.tenant_seed_sequence`
        — fixes every tenant's substream root (absent per-tenant seeds) so
        whole serving runs are reproducible.  A durable daemon pins this
        into each tenant ledger; restarting with a different seed rejects
        the affected tenants instead of silently forking their streams.
    cache / cache_dir / cache_size:
        The shared :class:`~repro.serving.cache.DesignCache` (or the
        parameters to build one).
    state_dir:
        Durable-mode root (``--state-dir``): per-tenant budget ledgers live
        under ``<state_dir>/tenants/``; construction replays them (see
        :class:`~repro.serving.tenant_store.TenantStore`).
    request_timeout:
        Seconds from admission after which an unserved request is shed with
        a retriable code-3 response, consuming nothing.
    client_timeout:
        Seconds one response write may take before the stalled client's
        connection is aborted (the batcher and other tenants never wait).
    max_pending / max_inflight:
        Admission caps: total batcher queue depth / per-tenant unanswered
        requests.  Past either, requests shed with code 3.
    max_line_bytes:
        Server-side bound on one request line (code-2 + close past it).
    fsync:
        Whether tenant ledgers fsync (tests may disable for speed; real
        durability requires it).
    """

    def __init__(
        self,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_tenants: int = DEFAULT_MAX_TENANTS,
        budget_alpha: Optional[float] = None,
        seed: Optional[int] = None,
        cache: Optional[DesignCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_size: int = 128,
        state_dir: Optional[Union[str, Path]] = None,
        request_timeout: Optional[float] = None,
        client_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        fsync: bool = True,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        if int(max_batch) != max_batch or max_batch < 1:
            raise ValueError("max_batch must be a positive integer")
        if int(max_tenants) != max_tenants or max_tenants < 1:
            raise ValueError("max_tenants must be a positive integer")
        if request_timeout is not None and not request_timeout > 0:
            raise ValueError("request_timeout must be positive (or None)")
        if client_timeout is not None and not client_timeout > 0:
            raise ValueError("client_timeout must be positive (or None)")
        if max_pending is not None and (
            int(max_pending) != max_pending or max_pending < 1
        ):
            raise ValueError("max_pending must be a positive integer (or None)")
        if max_inflight is not None and (
            int(max_inflight) != max_inflight or max_inflight < 1
        ):
            raise ValueError("max_inflight must be a positive integer (or None)")
        if int(max_line_bytes) != max_line_bytes or max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be an integer >= 1024")
        self.batch_window = float(batch_window_ms) / 1000.0
        self.max_batch = int(max_batch)
        self.max_tenants = int(max_tenants)
        self.budget_alpha = budget_alpha
        self.seed = seed
        self.request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self.client_timeout = (
            None if client_timeout is None else float(client_timeout)
        )
        self.max_pending = None if max_pending is None else int(max_pending)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.max_line_bytes = int(max_line_bytes)
        self.cache = (
            cache
            if cache is not None
            else DesignCache(capacity=cache_size, directory=cache_dir)
        )
        self.stats = DaemonStats()
        self._tenants: Dict[str, TenantSession] = {}
        self._store: Optional[TenantStore] = None
        if state_dir is not None:
            self._store = TenantStore(
                state_dir,
                server_seed=seed,
                default_budget_alpha=budget_alpha,
                fsync=fsync,
            )
            for recovered in self._store.recover().values():
                session = TenantSession(
                    recovered.name,
                    recovered.root,
                    recovered.ledger,
                    seed=recovered.tenant_seed,
                    budget_alpha=(
                        float(recovered.ledger.accountant.alpha_target)
                        if recovered.budget_source == "hello"
                        else None
                    ),
                )
                session.requests = recovered.next_seq
                self._tenants[recovered.name] = session
        #: Shared compiled plans, LRU-bounded by the cache capacity (the
        #: same knob that bounds the design cache itself).
        self._plans: "OrderedDict[str, ReleasePlan]" = OrderedDict()
        self._pending: List[_PendingRequest] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._connections = 0
        self._inflight = 0
        self._closing = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._started = counter_snapshot()
        self.address: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[Union[str, Path]] = None,
    ) -> None:
        """Bind the listening socket (unix when ``unix_path``, else TCP)."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(unix_path),
                limit=self.max_line_bytes,
            )
            self.address = str(unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=host,
                port=0 if port is None else int(port),
                limit=self.max_line_bytes,
            )
            name = self._server.sockets[0].getsockname()
            self.address = f"{name[0]}:{name[1]}"
            self.port = int(name[1])

    async def stop(self) -> None:
        """Graceful shutdown: flush, answer, checkpoint ledgers, close."""
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        # Flush whatever the batcher is holding so every admitted request
        # is answered, then give the connection handlers a chance to write
        # the resolved responses out before the loop is torn down.
        self._flush()
        for _ in range(400):
            if self._inflight == 0:
                break
            await asyncio.sleep(0.005)
        if self._server is not None:
            await self._server.wait_closed()
        if self._store is not None:
            try:
                self._store.sync_all()
                self._store.close_all()
            except OSError:  # pragma: no cover - best-effort checkpoint
                pass
        self._stopped.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` has completed."""
        await self._stopped.wait()

    @staticmethod
    def _hard_exit() -> None:
        """Simulated crash (``kill_daemon`` / torn tenant-ledger faults)."""
        os._exit(_faults.KILLED_DAEMON_EXIT)

    # ------------------------------------------------------------------ #
    # Tenants and plans
    # ------------------------------------------------------------------ #
    def _hello(self, message: dict) -> TenantSession:
        name = message.get("tenant")
        if not isinstance(name, str) or not name:
            raise ProtocolError("hello requires a non-empty 'tenant' string")
        seed = message.get("seed")
        budget = message.get("budget_alpha")
        if self._store is not None:
            reason = self._store.rejection_reason(name)
            if reason is not None:
                raise ProtocolError(
                    f"tenant {name!r} cannot be served by this daemon: {reason}"
                )
        existing = self._tenants.get(name)
        if existing is not None:
            # Reconnecting resumes the session; conflicting parameters
            # would silently fork the tenant's stream or budget, so refuse.
            if seed is not None and seed != existing.seed:
                raise ProtocolError(
                    f"tenant {name!r} already exists with a different seed"
                )
            if budget is not None and budget != existing.budget_alpha:
                raise ProtocolError(
                    f"tenant {name!r} already exists with a different budget_alpha"
                )
            return existing
        if len(self._tenants) >= self.max_tenants:
            raise ProtocolError(
                f"tenant limit reached ({self.max_tenants}); "
                "raise --max-tenants or retire a session"
            )
        effective_budget = self.budget_alpha if budget is None else float(budget)
        if self._store is not None and effective_budget is None:
            raise ProtocolError(
                "a durable daemon (--state-dir) meters every tenant: pass "
                "budget_alpha in hello or start the daemon with --budget-alpha"
            )
        root = tenant_seed_sequence(
            name,
            server_seed=self.seed,
            tenant_seed=None if seed is None else int(seed),
        )
        tenant_budget: Union[PrivacyAccountant, AccountantLedger, None] = None
        if self._store is not None:
            # The ledger (pinning the root's lineage) must exist before the
            # root spawns anything, or a crash here could lose the stream.
            try:
                tenant_budget = self._store.create(
                    name,
                    root,
                    tenant_seed=None if seed is None else int(seed),
                    budget_alpha=float(effective_budget),
                    budget_source="default" if budget is None else "hello",
                )
            except OSError as error:
                raise ProtocolError(
                    f"cannot create tenant {name!r}'s ledger: {error}"
                ) from error
        elif effective_budget is not None:
            tenant_budget = PrivacyAccountant(alpha_target=float(effective_budget))
        session = TenantSession(
            name,
            root,
            tenant_budget,
            seed=None if seed is None else int(seed),
            budget_alpha=None if budget is None else float(budget),
        )
        self._tenants[name] = session
        return session

    def _plan_for(self, command: ReleaseCommand) -> ReleasePlan:
        """The shared compiled plan for a design request (one per key)."""
        try:
            key = design_key(command.n, command.alpha, command.properties)
        except ValueError as error:  # unknown property code
            raise ProtocolError(str(error)) from error
        plan = self._plans.get(key)
        if plan is None:
            try:
                mechanism, decision = self.cache.get_or_design(
                    command.n,
                    command.alpha,
                    properties=command.properties,
                )
            except ValueError as error:
                raise ProtocolError(str(error)) from error
            plan = ReleasePlan(
                mechanism,
                decision=decision,
                alpha_cost=float(command.alpha),
                key=key,
            )
            self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.cache.capacity:
            self._plans.popitem(last=False)
        return plan

    # ------------------------------------------------------------------ #
    # The coalescing batcher
    # ------------------------------------------------------------------ #
    async def _admit(
        self, tenant: TenantSession, command: ReleaseCommand
    ) -> Tuple[dict, _OnWritten]:
        """Queue one validated release and await its ``(response, on_written)``.

        Capacity sheds (code 3) and already-charged ``seq`` replays answer
        immediately without entering the batcher; everything else waits for
        its flush.
        """
        plan = self._plan_for(command)  # ProtocolError propagates to the handler
        if (
            tenant.ledger is not None
            and command.seq is not None
            and command.seq < tenant.requests
        ):
            return self._replay(tenant, plan, command)
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self.stats.overloaded += 1
            return (
                overloaded_response(
                    f"daemon queue is full ({self.max_pending} pending "
                    "requests, --max-pending); retry shortly",
                    id=command.request_id,
                ),
                None,
            )
        if self.max_inflight is not None and tenant.inflight >= self.max_inflight:
            self.stats.overloaded += 1
            return (
                overloaded_response(
                    f"tenant {tenant.name!r} already has {tenant.inflight} "
                    f"requests in flight (--max-inflight {self.max_inflight}); "
                    "retry shortly",
                    id=command.request_id,
                ),
                None,
            )
        self.stats.requests += 1
        tenant.inflight += 1
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        future: "asyncio.Future[Tuple[dict, _OnWritten]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(
            _PendingRequest(
                tenant=tenant, key=plan.key, plan=plan,
                command=command, future=future, deadline=deadline,
            )
        )
        self._maybe_flush()
        try:
            return await future
        finally:
            tenant.inflight -= 1

    def _replay(
        self, tenant: TenantSession, plan: ReleasePlan, command: ReleaseCommand
    ) -> Tuple[dict, _OnWritten]:
        """Re-serve an already-consumed sequence number, charged exactly once.

        The crash window of a durable daemon is charged-but-not-done: the
        budget was durably spent but the response never reached the client.
        The client re-sends the request with its ``seq``; the recorded
        charge is verified against the re-sent parameters (checksum and
        design), the same substream is re-derived, and the same bits go
        out — no re-charge, no new spawn.  A recorded refusal replays as a
        refusal.
        """
        assert tenant.ledger is not None and command.seq is not None
        ledger = tenant.ledger
        seq = int(command.seq)
        self.stats.requests += 1
        if ledger.refused(seq):
            self.stats.replays += 1
            return (
                refusal_response(
                    f"replayed refusal: sequence {seq} was refused over "
                    "budget before the restart; nothing was spent",
                    id=command.request_id, seq=seq, replayed=True,
                ),
                None,
            )
        record = ledger.charge_record(seq)
        if record is None:  # pragma: no cover - defensive: indices are dense
            return (
                error_response(
                    f"sequence {seq} precedes tenant {tenant.name!r}'s next "
                    f"sequence {tenant.requests} but has no ledger record",
                    id=command.request_id,
                ),
                None,
            )
        size = int(command.counts.shape[0])
        mismatch = None
        if int(record["size"]) != size:
            mismatch = "counts size"
        elif "crc" in record and int(record["crc"]) != chunk_crc(command.counts):
            mismatch = "counts checksum"
        elif float(record["alpha"]) != float(command.alpha):
            mismatch = "alpha"
        elif "n" in record and int(record["n"]) != int(command.n):
            mismatch = "n"
        elif "properties" in record and record["properties"] != command.properties:
            mismatch = "properties"
        if mismatch is not None:
            return (
                error_response(
                    f"replay of sequence {seq} does not match the recorded "
                    f"request ({mismatch} differs); refusing to serve a "
                    "diverged replay",
                    id=command.request_id,
                ),
                None,
            )
        uniforms = np.random.default_rng(tenant.substream_at(seq)).random(size)
        try:
            released = plan.execute_with_uniforms(command.counts, uniforms)
        except Exception as error:  # pragma: no cover - defensive
            return (
                error_response(
                    f"internal error while sampling: {error}",
                    id=command.request_id,
                ),
                None,
            )
        self.stats.replays += 1
        tenant.records += size
        self.stats.records += size
        response = ok_response(
            id=command.request_id,
            released=[int(value) for value in released],
            mechanism=plan.mechanism.name,
            branch=plan.branch,
            alpha=command.alpha,
            coalesced=1,
            seq=seq,
            replayed=True,
        )
        return response, self._done_callback(ledger, seq, size)

    def _done_callback(
        self, ledger: AccountantLedger, seq: int, size: int
    ) -> Callable[[], None]:
        """The post-write ``done`` mark for one durably-charged request.

        Losing a done mark (crash, tolerated I/O error, ledger already
        checkpointed by ``stop()``) only widens the replay window by one
        bit-identical re-serve — never a double charge — so failures here
        are counted, not raised; ``defer=True`` keeps the mark out of the
        hot path entirely (appended at the next checkpoint/shutdown sync).
        """

        def _mark() -> None:
            try:
                ledger.mark_done(seq, size=size, records=size, offset=0, defer=True)
            except (LedgerError, OSError):
                self.stats.ledger_errors += 1
            except _faults.InjectedCrash:
                self._hard_exit()

        return _mark

    def _maybe_flush(self) -> None:
        """Flush now, or arm the window timer for the first pending request.

        Immediate flush when coalescing is off, the batch is full, the
        daemon is closing, or every open connection already has a request
        waiting (the protocol allows one in-flight request per connection,
        so no further request can arrive before a response goes out —
        waiting the window out would be pure added latency).
        """
        if (
            self.batch_window <= 0.0
            or self._closing
            or len(self._pending) >= self.max_batch
            or len(self._pending) >= self._connections
        ):
            self._flush()
            return
        if self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                self.batch_window, self._flush
            )

    def _flush(self) -> None:
        """Serve everything pending: charge per request, merge per plan, draw once.

        Phase 1 walks the batch in admission order: expired deadlines are
        shed first (code 3, nothing consumed), then each request is charged
        — durably, on a ledger-backed tenant, with the charge (or refusal)
        record appended *before* the sequence number's substream spawn is
        consumed, so a failed append burns nothing and a retry converges.
        A group-commit barrier then flushes the batch's ledger appends
        through the store's commit log (one ``fdatasync`` per batch): all
        charging strictly precedes all sampling, durably.  Phase 2 groups
        the survivors by plan, draws each request's uniforms from its own
        substream, and answers every group with a single merged
        ``execute_with_uniforms`` call, scattering the released slices back
        to the per-request futures.
        """
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        self.stats.batches += 1
        self.stats.max_batch = max(self.stats.max_batch, len(batch))
        if len(batch) > 1:
            self.stats.coalesced_requests += len(batch)

        now = time.monotonic()
        survivors: List[_PendingRequest] = []
        touched: Dict[int, Union[PrivacyAccountant, AccountantLedger]] = {}
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                self.stats.overloaded += 1
                self.stats.deadline_expired += 1
                self._resolve(
                    item,
                    overloaded_response(
                        "deadline expired before serving (--request-timeout); "
                        "nothing was charged or drawn",
                        id=item.command.request_id,
                    ),
                )
                continue
            tenant = item.tenant
            seq = tenant.requests
            if item.command.seq is not None and item.command.seq != seq:
                # Raced: another connection of this tenant consumed the
                # sequence first.  Re-sending either replays (seq now in
                # the past) or lands fresh — the client converges.
                self._resolve(
                    item,
                    error_response(
                        f"seq {item.command.seq} raced: tenant "
                        f"{tenant.name!r} is now at sequence {seq}; re-send",
                        id=item.command.request_id, retriable=True,
                    ),
                )
                continue
            budget = tenant.budget
            refusal: Optional[str] = None
            if budget is not None:
                size = int(item.command.counts.shape[0])
                label = (
                    f"{tenant.name}: {item.plan.mechanism.name} "
                    f"release ({size} counts)"
                )
                try:
                    try:
                        budget.charge(
                            seq,
                            alpha=float(item.command.alpha),
                            size=size,
                            label=label,
                            crc=chunk_crc(item.command.counts),
                            extra={
                                "n": int(item.command.n),
                                "properties": item.command.properties,
                            },
                            sync=False,
                        )
                    except BudgetExceededError as error:
                        refusal = str(error)
                        budget.record_refusal(seq, label=label, sync=False)
                except OSError as error:
                    # The record never reached the log: nothing durable,
                    # nothing consumed — a retry lands on this same seq.
                    self.stats.ledger_errors += 1
                    self._resolve(
                        item,
                        error_response(
                            f"tenant ledger append failed: {error}",
                            id=item.command.request_id, retriable=True,
                        ),
                    )
                    continue
                except _faults.InjectedCrash:
                    # Torn tenant-ledger append: the half-record is on disk
                    # and the process is "dead" — exit as hard as a crash
                    # would, leaving the torn tail for restart recovery.
                    self._hard_exit()
                touched[id(budget)] = budget
            item.seq = seq
            item.child = tenant.next_substream()  # a refusal consumes its spawn too
            if refusal is not None:
                self.stats.budget_refusals += 1
                self._resolve(
                    item,
                    refusal_response(refusal, id=item.command.request_id, seq=seq),
                )
                continue
            survivors.append(item)

        # Group-commit barrier: every buffered charge/refusal must be
        # durable before any *response* leaves the process.  The store
        # copies the batch's record bytes into its commit log (one file
        # regardless of how many tenants the batch touched); the single
        # device flush runs after sampling, still strictly before any
        # response reaches a socket — resolved futures cannot write until
        # this (synchronous) method returns to the event loop.  A store
        # that cannot commit can no longer promise
        # durability-before-release; crash now (crash-only design) so
        # restart recovery re-derives a consistent state from disk and
        # clients converge via seq replay.
        descriptor = None
        if touched and self._store is not None:
            try:
                descriptor = self._store.stage_commit(touched.values())
            except OSError:  # pragma: no cover - disk-level write failure
                os._exit(2)

        groups: "OrderedDict[str, List[_PendingRequest]]" = OrderedDict()
        for item in survivors:
            groups.setdefault(item.key, []).append(item)
        for items in groups.values():
            self._serve_group(items)

        if descriptor is not None:
            try:
                _datasync(descriptor)
            except OSError:  # pragma: no cover - disk-level sync failure
                os._exit(2)

        injector = _faults.get_injector()
        if injector.should_kill_daemon(self.stats.batches):
            # The batch's charges are durably on disk and its samples are
            # drawn, but no response has reached any client: every request
            # of this batch dies in the charged-but-not-done window.
            self._hard_exit()

    def _serve_group(self, items: List[_PendingRequest]) -> None:
        """One merged draw for every same-plan request in a flush.

        Each request's uniforms come from its own substream generator —
        exactly the uniforms per-request serving would draw — so the
        concatenated ``sample_with_uniforms`` call (elementwise in
        ``(count, uniform)`` pairs for every representation) releases
        bit-identical counts to serving the requests one at a time.
        """
        plan = items[0].plan
        try:
            uniforms = [
                np.random.default_rng(item.child).random(
                    item.command.counts.shape[0]
                )
                for item in items
            ]
            merged = plan.execute_with_uniforms(
                np.concatenate([item.command.counts for item in items]),
                np.concatenate(uniforms),
            )
        except Exception as error:  # pragma: no cover - defensive: keep serving
            for item in items:
                self._resolve(
                    item,
                    error_response(
                        f"internal error while sampling: {error}",
                        id=item.command.request_id,
                    ),
                )
            return
        offset = 0
        for item in items:
            size = item.command.counts.shape[0]
            released = merged[offset : offset + size]
            offset += size
            item.tenant.records += size
            self.stats.records += size
            response = ok_response(
                id=item.command.request_id,
                released=[int(value) for value in released],
                mechanism=plan.mechanism.name,
                branch=plan.branch,
                alpha=item.command.alpha,
                coalesced=len(items),
                seq=item.seq,
            )
            on_written: _OnWritten = None
            if item.tenant.ledger is not None:
                on_written = self._done_callback(
                    item.tenant.ledger, item.seq, size
                )
            self._resolve(item, response, on_written)

    @staticmethod
    def _resolve(
        item: _PendingRequest, response: dict, on_written: _OnWritten = None
    ) -> None:
        if not item.future.done():
            item.future.set_result((response, on_written))

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _drain_response(self, writer: asyncio.StreamWriter) -> None:
        """One response write's drain, bounded by ``client_timeout``.

        The injected ``client_stall`` fault sleeps here — inside the timed
        region — standing in for a peer that stopped reading (a real stall
        parks ``drain()`` on the transport's high-water mark instead).
        """
        injector = _faults.get_injector()

        async def _drain() -> None:
            if injector.should_stall_client():
                await asyncio.sleep(injector.hang_seconds)
            await writer.drain()

        if self.client_timeout is None:
            await _drain()
        else:
            await asyncio.wait_for(_drain(), timeout=self.client_timeout)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        tenant: Optional[TenantSession] = None
        try:
            while True:
                try:
                    line = await read_message_line(reader, self.max_line_bytes)
                except LineTooLongError as error:
                    # Framing is untrustworthy past an overlong line:
                    # answer once, then close instead of resyncing.
                    self.stats.protocol_errors += 1
                    writer.write(encode_message(error_response(str(error))))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                if not line:
                    break
                closing = False
                message: Any = None
                on_written: _OnWritten = None
                try:
                    message = decode_message(line)
                    op = message.get("op", "release")
                    if op == "hello":
                        tenant = self._hello(message)
                        response = ok_response(
                            tenant=tenant.name,
                            budget_alpha=(
                                None
                                if tenant.accountant is None
                                else tenant.accountant.alpha_target
                            ),
                            budget=budget_payload(
                                tenant.accountant, tenant.refusals
                            ),
                            next_seq=tenant.requests,
                            durable=tenant.ledger is not None,
                        )
                    elif op == "release":
                        if self._closing:
                            raise ProtocolError("daemon is shutting down")
                        if tenant is None:
                            raise ProtocolError("send 'hello' before 'release'")
                        command = parse_release(message)
                        self._inflight += 1
                        try:
                            response, on_written = await self._admit(
                                tenant, command
                            )
                        finally:
                            self._inflight -= 1
                    elif op == "stats":
                        response = ok_response(
                            stats=self.stats_payload(),
                            tenant=None if tenant is None else tenant.payload(),
                        )
                    elif op == "health":
                        response = ok_response(health=self.health_payload())
                    elif op == "drain":
                        response = ok_response(
                            message="draining", stats=self.stats_payload()
                        )
                        closing = True
                    elif op == "shutdown":
                        response = ok_response(message="shutting down")
                        closing = True
                    elif op in ("quit", "bye"):
                        response = ok_response(message="bye")
                        closing = True
                    else:
                        raise ProtocolError(f"unknown op {op!r}")
                except ProtocolError as error:
                    self.stats.protocol_errors += 1
                    request_id = (
                        message.get("id") if isinstance(message, dict) else None
                    )
                    response = error_response(str(error), id=request_id)
                writer.write(encode_message(response))
                try:
                    await self._drain_response(writer)
                except asyncio.TimeoutError:
                    # Slow-client protection: this peer stopped reading.
                    # Abort its transport; the batcher, the other tenants
                    # and this request's durable charge are unaffected
                    # (the skipped done-mark only means one replay).
                    self.stats.clients_reaped += 1
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    break
                if on_written is not None:
                    on_written()
                if closing:
                    if message.get("op") in ("shutdown", "drain"):
                        asyncio.get_running_loop().create_task(self.stop())
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections -= 1
            # A connection that died mid-batch changed the every-connection-
            # has-a-request-waiting arithmetic: re-check, or the survivors
            # would idle out the full window for a peer that is gone.
            if self._pending and len(self._pending) >= self._connections:
                self._maybe_flush()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def health_payload(self) -> Dict[str, Any]:
        """The ``health`` op's answer: liveness, load, durability state."""
        extras: Dict[str, Any] = {
            "overloaded": self.stats.overloaded,
            "clients_reaped": self.stats.clients_reaped,
            "replays": self.stats.replays,
            "ledger_errors": self.stats.ledger_errors,
        }
        extras.update(self._store_counts())
        return health_payload(
            draining=self._closing,
            pending=len(self._pending),
            inflight=self._inflight,
            connections=self._connections,
            tenants=len(self._tenants),
            durable=self._store is not None,
            **extras,
        )

    def stats_payload(self) -> Dict[str, Any]:
        """The daemon-wide stats object (``--stats-json`` schema)."""
        return stats_payload(
            "serve",
            records=self.stats.records,
            since=self._started,
            requests=self.stats.requests,
            batches=self.stats.batches,
            coalesced_requests=self.stats.coalesced_requests,
            max_batch=self.stats.max_batch,
            tenants=len(self._tenants),
            protocol_errors=self.stats.protocol_errors,
            batch_window_ms=round(self.batch_window * 1000.0, 3),
            overloaded=self.stats.overloaded,
            deadline_expired=self.stats.deadline_expired,
            clients_reaped=self.stats.clients_reaped,
            replays=self.stats.replays,
            ledger_errors=self.stats.ledger_errors,
            durable=self._store is not None,
            **self._store_counts(),
            cache=self.cache.stats(),
            budget_refusals=self.stats.budget_refusals,
        )

    def _store_counts(self) -> Dict[str, int]:
        """Tenant-store recovery totals (empty when the daemon is not durable)."""
        if self._store is None:
            return {}
        return {
            "recovered_tenants": len(self._store.recovered),
            "quarantined_tenants": len(self._store.quarantined),
            "config_rejected_tenants": len(self._store.config_rejected),
        }

"""Streaming execution of a :class:`~repro.engine.plan.ReleasePlan`.

A serving deployment does not hold a day of traffic in memory: counts
arrive as a stream (a socket, a file, a generator) and must be released in
bounded memory.  :class:`StreamExecutor` runs a compiled plan over an
arbitrary iterable of counts — scalars, arrays, or a mix of batches — in
fixed-size chunks, with two stream disciplines:

**Shared-stream (serial)** — :meth:`StreamExecutor.stream` /
:meth:`StreamExecutor.run` consume one shared generator.  Because a numpy
``Generator`` fills a large array with exactly the draws successive smaller
requests would produce, the chunked output is *bit-identical to the
one-shot path* (``plan.execute`` over the concatenated counts) regardless
of chunk size.  This is the default, and what the ``serve-stream`` CLI uses
when no worker fan-out is requested.

**Per-chunk substreams (seeded)** — :meth:`StreamExecutor.stream_seeded` /
:meth:`StreamExecutor.run_seeded` derive one child seed per chunk from a
root :class:`numpy.random.SeedSequence`, drawn in serial chunk order before
any sampling happens — the seed discipline of :mod:`repro.eval.sweep`.
Chunks are then independent, so they can fan out across worker processes:
the released stream is identical for every ``max_workers`` value
(including in-process), though it differs from the shared-stream discipline
(and depends on ``chunk_size``).

Both disciplines charge every chunk against an optional
:class:`~repro.privacy.PrivacyAccountant` *before* sampling it: an
over-budget chunk raises :class:`~repro.privacy.BudgetExceededError`
without consuming a single uniform from the stream, so the refused release
never happened in any observable sense.

Crash-safety (PR 7) extends the seeded discipline in two directions:

* **Durable accounting + resume** — attach an
  :class:`~repro.engine.durability.AccountantLedger` instead of a bare
  accountant and every charge is fsync'd to a write-ahead log before
  sampling; :meth:`stream_durable` then skips chunks the ledger records as
  already served (verifying the skipped input against the charged
  checksum), re-deriving the exact per-chunk substreams, so a restarted
  run continues byte-for-byte where the crashed one stopped — and a chunk
  that was charged but not served is re-served without being charged
  again.
* **Worker retry/requeue** — a dead or hung pool worker no longer aborts
  the fan-out: its uncharged-*output* chunks (their budget was already
  durably spent) are requeued to a rebuilt pool with bounded retries,
  exponential backoff and deterministic jitter derived from the chunk's
  own substream (zero draws consumed), degrading to in-process serial
  sampling when the pool is unrecoverable.  Because chunk substreams are
  independent of *where* they are sampled, none of this changes a single
  released byte — worker-count invariance extends to worker-death
  invariance.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.engine import faults as _faults
from repro.engine.durability import AccountantLedger, LedgerError, chunk_crc
from repro.engine.plan import ReleasePlan
from repro.privacy import BudgetExceededError, PrivacyAccountant

if TYPE_CHECKING:
    from repro.serving.cache import DesignCache

#: Default number of counts released per chunk.
DEFAULT_CHUNK_SIZE = 8192

CountStream = Union[Iterable[int], Iterable[np.ndarray], np.ndarray]


def iter_count_chunks(
    counts: CountStream, chunk_size: int, copy: bool = True
) -> Iterator[np.ndarray]:
    """Re-chunk an arbitrary count stream into fixed-size integer arrays.

    Accepts a numpy array (sliced without copying), an iterable of scalars,
    an iterable of array batches, or any mix of the latter two; every
    yielded chunk except possibly the last has exactly ``chunk_size``
    elements.  Memory is bounded by one chunk regardless of how the source
    batches its elements.

    With ``copy=False`` the iterable paths yield views into one
    preallocated internal buffer instead of copying it per chunk — the
    zero-copy mode the serial :class:`StreamExecutor` hot path uses.  Each
    yielded chunk is then only valid until the iterator is advanced; callers
    that retain chunks (e.g. a worker-pool submission window) must keep the
    default.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    if isinstance(counts, np.ndarray):
        flat = counts.ravel()
        for start in range(0, flat.shape[0], chunk_size):
            yield flat[start : start + chunk_size]
        return
    buffer = np.empty(chunk_size, dtype=np.int64)
    filled = 0
    for item in counts:
        batch = np.atleast_1d(np.asarray(item, dtype=np.int64)).ravel()
        offset = 0
        while batch.shape[0] - offset >= chunk_size - filled:
            take = chunk_size - filled
            buffer[filled:] = batch[offset : offset + take]
            yield buffer.copy() if copy else buffer
            filled = 0
            offset += take
        rest = batch.shape[0] - offset
        if rest:
            buffer[filled : filled + rest] = batch[offset:]
            filled += rest
    if filled:
        tail = buffer[:filled]
        yield tail.copy() if copy else tail


#: Per-worker mechanism installed by :func:`_init_chunk_worker`: the plan's
#: mechanism is pickled once per worker process (pool initializer), not once
#: per submitted chunk — a sparse/dense payload can be megabytes.
_WORKER_MECHANISM: Optional[object] = None


def _init_chunk_worker(mechanism) -> None:
    """Pool initializer: install the shared mechanism in this worker."""
    global _WORKER_MECHANISM
    _WORKER_MECHANISM = mechanism


def _sample_chunk_task(task):
    """Module-level worker for the seeded fan-out (picklable, as in sweep).

    ``task`` is ``(chunk_index, attempt, chunk, seed)``; index and attempt
    exist only for the fault injector, so chaos tests can kill or hang the
    worker holding a specific chunk on a specific attempt.  A retried
    attempt samples from the *same* child seed — where a chunk is sampled
    (which worker, which attempt) never changes what it releases.
    """
    index, attempt, chunk, seed = task
    injector = _faults.get_injector()
    if injector.should_kill_worker(index, attempt):
        import os

        os._exit(_faults.KILLED_WORKER_EXIT)
    if injector.should_hang_worker(index, attempt):
        time.sleep(injector.hang_seconds)
    return _WORKER_MECHANISM.sample_batch(chunk, rng=np.random.default_rng(seed))


@dataclass
class ExecutorStats:
    """Running totals for one :class:`StreamExecutor`."""

    chunks: int = 0
    records: int = 0
    #: Chunks skipped on resume because the ledger recorded them as served.
    resumed_chunks: int = 0
    resumed_records: int = 0
    #: Chunk submissions replayed after a worker death/hang broke the pool.
    requeues: int = 0
    pool_rebuilds: int = 0
    #: Whether the run fell back to in-process sampling (pool unrecoverable).
    degraded: bool = False
    #: Chunks refused before sampling because they would overrun the budget.
    budget_refusals: int = 0


class StreamExecutor:
    """Run a compiled plan over a count stream in fixed-size, budgeted chunks.

    Parameters
    ----------
    plan:
        The :class:`~repro.engine.plan.ReleasePlan` to execute.
    chunk_size:
        Number of counts sampled per chunk; peak incremental memory is
        ``O(chunk_size)`` in the serial discipline.
    accountant:
        Optional :class:`~repro.privacy.PrivacyAccountant`.  Every chunk is
        charged ``plan.alpha_cost`` (sequential composition — conservative:
        successive chunks are assumed to observe the same individuals)
        *before* it is sampled; an over-budget chunk raises
        :class:`~repro.privacy.BudgetExceededError` without drawing.  Note
        the unit of charging is the chunk, so the budget buys
        ``releases_supported(alpha_cost, target)`` *chunks*: halving
        ``chunk_size`` halves the counts a fixed budget covers.  Released
        values are chunking-invariant; the spend is not — pick the chunk
        size to match what one "release" means in your deployment (e.g.
        one reporting period) rather than tuning it after the accountant
        is attached.
    max_workers:
        Worker processes for the seeded discipline (``None``/1 = in
        process).  The shared-stream discipline is inherently serial and
        rejects ``max_workers > 1``.
    ledger:
        Optional :class:`~repro.engine.durability.AccountantLedger` making
        the accounting durable (mutually exclusive with ``accountant``;
        the ledger's wrapped accountant becomes :attr:`accountant`).  Only
        the seeded discipline supports a ledger — the shared-stream
        discipline's draws depend on every preceding chunk, so a partial
        run cannot be resumed without replaying it.
    chunk_timeout:
        Seconds to wait for one chunk's pool result before declaring the
        worker hung and requeueing (``None`` = wait forever).
    max_retries:
        Resubmissions allowed per chunk after pool failures before the
        executor gives up on the pool and degrades to in-process sampling.
    retry_backoff:
        Base of the exponential backoff slept before each pool rebuild;
        the jitter factor is derived deterministically from the waiting
        chunk's substream (consuming zero sampling draws).
    """

    #: Number of chunks whose uniforms the unmetered serial path draws in
    #: one ``rng.random`` call.  Batching draws across chunks is
    #: bit-identical to per-chunk draws (a numpy generator fills a large
    #: array with exactly the draws successive smaller requests would
    #: produce); the same window doubles as the preallocated zero-copy read
    #: buffer, so peak incremental memory stays
    #: ``O(UNIFORM_BATCH_CHUNKS * chunk_size)``.
    UNIFORM_BATCH_CHUNKS = 8

    def __init__(
        self,
        plan: ReleasePlan,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        accountant: Optional[PrivacyAccountant] = None,
        max_workers: Optional[int] = None,
        ledger: Optional[AccountantLedger] = None,
        chunk_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if int(chunk_size) != chunk_size or chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError("max_workers must be a positive integer (or None)")
        if ledger is not None and accountant is not None:
            raise ValueError(
                "pass either accountant or ledger, not both; the ledger "
                "already wraps an accountant"
            )
        if int(max_retries) != max_retries or max_retries < 0:
            raise ValueError("max_retries must be a non-negative integer")
        self.plan = plan
        self.chunk_size = int(chunk_size)
        self.ledger = ledger
        #: What every chunk is charged to: the durable ledger, else the
        #: in-memory accountant (``None`` = unmetered).
        self.budget = accountant if ledger is None else ledger
        self.accountant = accountant if ledger is None else ledger.accountant
        self.max_workers = None if max_workers is None else int(max_workers)
        self.chunk_timeout = chunk_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------ #
    # Shared-stream discipline (bit-identical to one-shot)
    # ------------------------------------------------------------------ #
    def stream(
        self,
        counts: CountStream,
        rng: Optional[np.random.Generator] = None,
    ) -> Iterator[np.ndarray]:
        """Yield released chunks, consuming one shared generator serially.

        The concatenation of the yielded *released counts* is bit-identical
        to ``plan.execute(all_counts, rng=rng)`` on the same generator, for
        every chunk size.  A plan's post-processing hook is applied per
        chunk, so the equivalence extends through the hook only when it is
        elementwise (a cumulative hook such as prefix sums sees one chunk
        at a time here but the whole stream in the one-shot path).  Charges
        the accountant per chunk before sampling.

        Uniforms are drawn once per window of counts: one chunk when an
        accountant is attached, so a refused chunk has consumed *nothing*
        from the generator, else :attr:`UNIFORM_BATCH_CHUNKS` chunks read
        into a preallocated zero-copy buffer (the same uniforms, the same
        order — bit-identity is unaffected).  Each window is validated, then
        charged, before any of its uniforms are drawn.
        """
        if self.max_workers is not None and self.max_workers > 1:
            raise ValueError(
                "the shared-stream discipline is serial; use stream_seeded() "
                "for process fan-out"
            )
        if self.ledger is not None:
            raise ValueError(
                "the shared-stream discipline cannot checkpoint (every draw "
                "depends on all preceding chunks); attach the ledger to the "
                "seeded discipline (stream_seeded/stream_durable) instead"
            )
        rng = rng if rng is not None else np.random.default_rng()
        # A metered chunk must not be drawn before its charge succeeds, so
        # uniforms are batched across chunks only when nothing is charged.
        # The window is a whole multiple of chunk_size, so the yielded chunk
        # boundaries (and therefore stats and per-chunk post-processing)
        # are the same in both cases.
        window = self.chunk_size * (1 if self.budget is not None else self.UNIFORM_BATCH_CHUNKS)
        for index, counts_window in enumerate(iter_count_chunks(counts, window, copy=False)):
            self._validate_chunk(counts_window)
            self._charge(index, counts_window)
            uniforms = rng.random(counts_window.shape[0])
            for start in range(0, counts_window.shape[0], self.chunk_size):
                stop = min(start + self.chunk_size, counts_window.shape[0])
                released = self.plan.execute_with_uniforms(
                    counts_window[start:stop], uniforms[start:stop]
                )
                self._count(stop - start)
                yield released

    def run(
        self,
        counts: CountStream,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Release the whole stream and return the concatenated counts."""
        chunks = list(self.stream(counts, rng=rng))
        if not chunks:
            return np.empty(0, dtype=int)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------ #
    # Seeded substream discipline (parallel == serial == resumed)
    # ------------------------------------------------------------------ #
    def stream_seeded(
        self,
        counts: CountStream,
        seed: Optional[int] = None,
    ) -> Iterator[np.ndarray]:
        """Yield released chunks, one child stream per chunk, optionally parallel.

        Child seeds are spawned from ``SeedSequence(seed)`` in serial chunk
        order before any sampling, so the output is identical for every
        ``max_workers`` value.  With ``max_workers > 1`` chunks are sampled
        in worker processes with a bounded submission window (memory stays
        ``O(max_workers * chunk_size)``); results are yielded in input
        order.  Accountant charging happens at submission time, still
        strictly before the chunk is sampled.

        Worker deaths and hangs are survived: see :meth:`stream_durable`,
        which this method wraps (dropping the chunk indices).
        """
        for _index, released in self.stream_durable(counts, seed=seed):
            yield released

    def stream_durable(
        self,
        counts: CountStream,
        seed: Optional[Union[int, np.random.SeedSequence]] = None,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(chunk_index, released)`` under the seeded discipline.

        The crash-safe entry point: with a ledger attached, chunks the log
        records as served are *skipped* (after checksum-verifying their
        input against the charged stream) and every surviving chunk is
        durably charged before sampling — so the concatenation of this
        run's output with the resumed prefix is byte-identical to an
        uninterrupted run with the same seed.  ``seed`` may be an int, a
        prebuilt :class:`~numpy.random.SeedSequence` (a resumed run passes
        the entropy recorded in the ledger header), or ``None``.
        """
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        tasks = self._seeded_tasks(counts, root)
        workers = self.max_workers if self.max_workers is not None else 1
        if workers <= 1:
            for index, chunk, child in tasks:
                yield index, self._finish(self._sample_local(chunk, child))
            return
        yield from self._stream_pool(tasks, workers)

    def run_seeded(
        self,
        counts: CountStream,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Release the whole stream under the seeded discipline."""
        chunks = list(self.stream_seeded(counts, seed=seed))
        if not chunks:
            return np.empty(0, dtype=int)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------ #
    # Seeded internals
    # ------------------------------------------------------------------ #
    def _seeded_tasks(
        self, counts: CountStream, root: np.random.SeedSequence
    ) -> Iterator[Tuple[int, np.ndarray, np.random.SeedSequence]]:
        """Validate, charge and seed every chunk that still needs serving.

        Child seeds are spawned for *every* chunk in serial order —
        including resumed ones — so chunk ``k``'s substream is always the
        ``k``-th spawn, exactly as in an uninterrupted run.  A refused
        chunk raises out of the generator (after zero draws and zero
        durable writes for that chunk).
        """
        for index, chunk in enumerate(iter_count_chunks(counts, self.chunk_size)):
            child = root.spawn(1)[0]
            if self.ledger is not None and self.ledger.is_done(index):
                self.ledger.verify_chunk(index, chunk_crc(chunk))
                self.stats.resumed_chunks += 1
                self.stats.resumed_records += int(chunk.shape[0])
                continue
            self._validate_chunk(chunk)
            self._charge(index, chunk)
            yield index, chunk, child

    def _sample_local(
        self, chunk: np.ndarray, child: np.random.SeedSequence
    ) -> np.ndarray:
        """Sample one chunk in-process from its own substream."""
        return self.plan.mechanism.sample_batch(
            chunk, rng=np.random.default_rng(child)
        )

    def _stream_pool(self, tasks, workers: int) -> Iterator[Tuple[int, np.ndarray]]:
        """Pool fan-out with bounded retry/requeue and serial degradation.

        Charged chunks always reach the caller: their budget is spent (and,
        with a ledger, durably so), so a worker death merely requeues them
        — same chunk, same substream, attempt+1 — after an exponential
        backoff whose jitter comes from the waiting chunk's seed (zero
        sampling draws).  When any chunk exhausts ``max_retries`` the pool
        is abandoned and everything still pending (plus the rest of the
        stream) is sampled in-process, preserving output exactly.
        """
        from concurrent.futures import TimeoutError as FutureTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        window = 2 * workers
        pool = self._make_pool(workers)
        #: Pending items: [index, chunk, child, attempt, future], input order.
        pending: "deque" = deque()
        refusal: Optional[BaseException] = None
        exhausted = False
        try:
            while True:
                while not exhausted and refusal is None and len(pending) < window:
                    try:
                        index, chunk, child = next(tasks)
                    except StopIteration:
                        exhausted = True
                        break
                    except (BudgetExceededError, ValueError, LedgerError) as error:
                        # Chunks already charged and submitted must still
                        # reach the caller — the budget was spent on them.
                        # Drain the window, then re-raise the refusal.
                        refusal = error
                        break
                    item = [index, chunk, child, 0, None]
                    self._submit(pool, item)
                    pending.append(item)
                if not pending:
                    break
                head = pending[0]
                try:
                    result = head[4].result(timeout=self.chunk_timeout)
                except (BrokenProcessPool, FutureTimeoutError, OSError):
                    pool = self._requeue(pool, pending, workers)
                    if pool is None:
                        # Unrecoverable: drain in-process, then keep going
                        # serially.  Same chunks, same substreams, same
                        # bytes — just no fan-out anymore.
                        self.stats.degraded = True
                        while pending:
                            index, chunk, child, _attempt, _future = pending.popleft()
                            yield index, self._finish(self._sample_local(chunk, child))
                        for index, chunk, child in tasks:
                            yield index, self._finish(self._sample_local(chunk, child))
                        if refusal is not None:
                            raise refusal
                        return
                    continue
                pending.popleft()
                yield head[0], self._finish(result)
            if refusal is not None:
                raise refusal
        finally:
            self._terminate_pool(pool)

    def _make_pool(self, workers: int):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_chunk_worker,
            initargs=(self.plan.mechanism,),
        )

    def _terminate_pool(self, pool) -> None:
        """Tear a pool down even when some workers are dead or hung.

        ``shutdown(wait=True)`` would join a hung worker forever, so kill
        the processes first (best-effort, via the executor's private
        process table) and then shut down without waiting.
        """
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _requeue(self, pool, pending: "deque", workers: int):
        """Rebuild the pool and resubmit everything pending; None if hopeless.

        Every pending chunk's charge already happened (possibly durably),
        so dropping one would lose paid-for output; resubmitting one with
        a fresh generator from the same child seed changes nothing about
        its released bytes.  Retries are bounded per chunk; backoff grows
        exponentially with the head chunk's attempt count, jittered
        deterministically from its seed lineage (spawn-key extension — the
        sampling substream itself is never touched).
        """
        self._terminate_pool(pool)
        head = pending[0]
        if head[3] + 1 > self.max_retries:
            return None
        self.stats.pool_rebuilds += 1
        delay = self.retry_backoff * (2 ** head[3])
        if delay > 0:
            jitter_source = np.random.SeedSequence(
                entropy=head[2].entropy,
                spawn_key=tuple(head[2].spawn_key) + (0xB0FF, head[3]),
            )
            jitter = jitter_source.generate_state(1, dtype=np.uint32)[0] / 2**32
            time.sleep(delay * (0.5 + float(jitter)))
        pool = self._make_pool(workers)
        for item in pending:
            item[3] += 1
            self._submit(pool, item)
            self.stats.requeues += 1
        return pool

    def _submit(self, pool, item) -> None:
        """Submit one pending item, absorbing a pool that broke mid-submit.

        A worker can die between our liveness checks; ``submit`` then
        raises.  Installing the error as the item's "result" routes the
        failure through the same head-of-queue requeue path as a death
        detected while waiting.
        """
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        try:
            item[4] = pool.submit(
                _sample_chunk_task, (item[0], item[3], item[1], item[2])
            )
        except BrokenProcessPool as error:
            placeholder: Future = Future()
            placeholder.set_exception(error)
            item[4] = placeholder

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _validate_chunk(self, chunk: np.ndarray) -> None:
        """Reject out-of-range counts *before* the chunk is charged.

        The sampler would reject them anyway, but only after
        :meth:`_charge` has recorded the release — which would burn budget
        on a chunk that releases nothing.  Validation must precede
        charging, which must precede sampling.
        """
        if chunk.size and (chunk.min() < 0 or chunk.max() > self.plan.n):
            raise ValueError(
                f"counts must lie in [0, {self.plan.n}]; "
                f"got [{chunk.min()}, {chunk.max()}]"
            )

    def _charge(self, index: int, chunk: np.ndarray) -> None:
        """Charge one chunk to :attr:`budget` before it is sampled."""
        if self.budget is None:
            return
        try:
            self.budget.charge(
                index,
                self.plan.alpha_cost,
                chunk.shape[0],
                label=f"{self.plan.mechanism.name} chunk {index} ({chunk.shape[0]} counts)",
                crc=chunk_crc(chunk),
            )
        except BudgetExceededError:
            self.stats.budget_refusals += 1
            raise

    def _count(self, size: int) -> None:
        self.stats.chunks += 1
        self.stats.records += int(size)

    def _finish(self, released: np.ndarray) -> np.ndarray:
        """Account for a seeded chunk and apply the plan's post-processing.

        The seeded path samples outside :meth:`ReleasePlan.execute` (worker
        processes must not mutate the parent's plan counters, and the
        post-processing hook need not be picklable), so the plan's
        accounting runs here in the parent.
        """
        self._count(released.shape[0])
        return self.plan.finish(released)

    def stats_payload(
        self, since: Dict[str, float], cache: Optional["DesignCache"]
    ) -> Dict[str, Any]:
        """This run's ``serve-stream`` stats object (:mod:`repro.serving.stats`).

        ``since`` is the :func:`~repro.serving.stats.counter_snapshot` taken
        before the plan was compiled; ``cache`` the design cache it came
        from (``None`` for a plan built without one).
        """
        from repro.serving.stats import stats_payload  # deferred: serving imports engine

        return stats_payload(
            "serve-stream",
            records=self.stats.records,
            since=since,
            chunk_size=self.chunk_size,
            chunks=self.stats.chunks,
            resumed_chunks=self.stats.resumed_chunks,
            resumed_records=self.stats.resumed_records,
            requeues=self.stats.requeues,
            pool_rebuilds=self.stats.pool_rebuilds,
            degraded=self.stats.degraded,
            plan=self.plan.stats(),
            cache=None if cache is None else cache.stats(),
            accountant=self.accountant,
            budget_refusals=self.stats.budget_refusals,
        )

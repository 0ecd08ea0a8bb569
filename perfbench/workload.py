"""One workload run in a fresh interpreter (started by ``perfbench/run.py``).

    python3 -m perfbench.workload --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out FILE --launched T

Sets the workload up, runs its timed phase for ``--seconds``, checks the
outputs and writes one JSON object to ``--out``.  ``--launched`` is the
parent's ``time.monotonic()`` just before it started this interpreter (the
clock is system-wide), so ``setup_s`` includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench import checks
from perfbench.spans import Tracer

# --------------------------------------------------------------------- #
# Workload parameters (perfbench/README.md says why each was chosen)
# --------------------------------------------------------------------- #
ALPHA = 0.9
#: A budget that never refuses: the budget check admits a release while
#: ``spent * alpha >= target - 1e-15``, always true for a target below that.
NEVER_REFUSING_BUDGET = 1e-300

DAEMON_N = 100_000
DAEMON_COUNTS_PER_REQUEST = 4
DAEMON_CLIENTS = 2
#: Distinct request bodies generated per client from the seed (cycled).
DAEMON_REQUEST_POOL = 4096
#: Registry reads of the served design after the daemon stops.
DAEMON_HIT_READS = 16
#: Timed requests after which ``peak_rss_mb`` is read: the daemon keeps every
#: ledger record in memory, so a read at the end of a fixed-time phase would
#: grow with throughput.  Reached within ~2 s; the phase runs on until it is.
DAEMON_RSS_REQUESTS = 4000
#: Length of one window of the timed phase (~500 requests): short enough
#: that the best window falls inside one state of the shared host.
DAEMON_WINDOW_S = 0.25

STREAM_N = 1000
STREAM_CHUNK = 1024
#: Chunks per ``serve-stream`` invocation (~0.25 s, one window); invocations
#: repeat until time is up.
STREAM_CHUNKS_PER_INVOCATION = 8
#: Invocations per registry-hit window (each invocation looks its design up once).
STREAM_HIT_WINDOW = 4

DESIGN_N = 40
DESIGN_PROPERTIES = "CM"
DESIGN_BRANCH = "WM[WH+CM]"
DESIGN_LADDER = [round(0.80 + 0.01 * k, 4) for k in range(16)]
#: Shift of successive ladders within one run, so every point stays a cold miss.
DESIGN_LADDER_SHIFT = 0.00037
#: Consecutive registry-hit reads per window.
DESIGN_HIT_WINDOW = 4


def _percentile_ms(values_s: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values_s, dtype=float), q)) * 1e3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Windows:
    """Rate, p50 and p90 per window of the timed phase, and the registry-hit p50.

    Windows of one workload do equal work.  ``run.py`` reports each figure at
    the best window of the run (the highest rate, the lowest latency): the
    shared host only ever adds time, and how much of a run it slows changes
    from run to run (see README, "Noise excluded").
    """

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {
            "throughput_per_s": [], "p50_ms": [], "tail_ms": [], "hit_p50_ms": []
        }

    def add(self, operations: float, seconds: float, latencies_s: List[float]) -> None:
        self.values["throughput_per_s"].append(operations / seconds)
        if latencies_s:
            self.values["p50_ms"].append(_percentile_ms(latencies_s, 50))
            self.values["tail_ms"].append(_percentile_ms(latencies_s, 90))

    def add_hits(self, latencies_s: List[float], size: int) -> None:
        """Registry-hit lookups in windows of ``size`` consecutive ones.

        Whole windows only, unless there are too few lookups for one.
        """
        for first in range(0, max(1, len(latencies_s) - size + 1), size):
            window = latencies_s[first:first + size]
            if window:
                self.values["hit_p50_ms"].append(_percentile_ms(window, 50))

    def add_slices(
        self, began: float, wall: float, ends: List[float], latencies_s: List[float], target_s: float
    ) -> None:
        """Cut ``wall`` seconds from ``began`` into equal slices of about ``target_s``."""
        count = max(1, int(wall / target_s))
        width = wall / count
        slices: List[List[float]] = [[] for _ in range(count)]
        for end, latency in zip(ends, latencies_s):
            slices[min(count - 1, int((end - began) / width))].append(latency)
        for latencies in slices:
            self.add(len(latencies), width, latencies)


class Context:
    """What a workload needs from the harness: parameters, tracer, clock."""

    def __init__(self, seed: int, seconds: float, work: Path, traced: bool = False) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.traced = traced
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer()
        self.ready_at: float = float("nan")
        #: Everything the output checks need (see ``checks.CHECKS``).
        self.artifacts: Dict[str, object] = {}

    def ready(self) -> None:
        """Mark the end of set-up: the first timed operation starts now."""
        self.ready_at = time.monotonic()


# --------------------------------------------------------------------- #
# Tracing: the public entry points of every layer, wrapped from outside
# --------------------------------------------------------------------- #
def install_tracing(tracer: Tracer) -> None:
    import repro.core.design as design
    import repro.serving.daemon as daemon
    from repro.core.mechanism import ClosedFormMechanism, Mechanism
    from repro.engine.durability import AccountantLedger
    from repro.engine.plan import ReleasePlan
    from repro.engine.stream_io import NpyCountWriter
    from repro.lp.model import LinearProgram
    from repro.serving.cache import DesignCache
    from repro.serving.registry import PlanRegistry
    from repro.serving.tenant_store import TenantStore

    wrap = tracer.wrap
    wrap(ReleasePlan, "execute_with_uniforms", "engine.plan.execute")
    wrap(Mechanism, "sample_batch", "core.mechanism.sample_batch")
    tracer.count(ClosedFormMechanism, "_column", "core.mechanism.column_builds")
    # The daemon's side of the codec; the client's calls stay unwrapped.
    wrap(daemon, "decode_message", "serving.protocol")
    wrap(daemon, "parse_release", "serving.protocol")
    wrap(daemon, "encode_message", "serving.protocol")
    wrap(AccountantLedger, "charge", "engine.durability.charge")
    wrap(AccountantLedger, "mark_done", "engine.durability.done")
    wrap(TenantStore, "stage_commit", "serving.tenant_store.stage_commit")
    wrap(NpyCountWriter, "write", "engine.stream_io.write")
    wrap(NpyCountWriter, "sync", "engine.stream_io.sync")
    for name in ("fsync", "fdatasync"):
        if hasattr(os, name):
            wrap(os, name, "engine.durability.flush")
    wrap(design, "build_mechanism_lp", "lp.model.build")
    wrap(LinearProgram, "to_sparse_arrays", "lp.model.build")
    wrap(design, "solve", "lp.solver.solve")
    wrap(DesignCache, "get_or_design", "serving.cache.get_or_design")
    wrap(PlanRegistry, "get", "serving.registry.get")
    wrap(PlanRegistry, "put", "serving.registry.put")
    wrap(PlanRegistry, "nearest", "serving.registry.nearest")


def _self_times(tracer: Tracer):
    summary = tracer.summary()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    attributed = sum(entry["self_s"] for entry in summary.values())
    return summary, self_s, calls, attributed


def _overhead_pct(tracer: Tracer, wall: float) -> float:
    """What recording added to the traced phase, in percent of the rest."""
    added = tracer.overhead_s()
    return added / (wall - added) * 100.0


class SkippedFlushes:
    """Stand-in for the daemon's per-batch ``fdatasync``: counts, never flushes."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, descriptor: int) -> None:
        self.calls += 1


# --------------------------------------------------------------------- #
# daemon-gm
# --------------------------------------------------------------------- #
def run_daemon_gm(ctx: Context) -> Dict[str, object]:
    import asyncio

    import repro.serving.daemon as daemon_module

    # The group commit runs in full (drain, framing, pwrite to commit.bin);
    # only its device flush is skipped, because the state dir sits on the
    # shared disk (see README, "Noise excluded").  Wrap checkpoints and
    # shutdown still flush for real.
    skipped = SkippedFlushes()
    real_datasync, daemon_module._datasync = daemon_module._datasync, skipped
    try:
        return asyncio.run(_daemon_gm(ctx, skipped))
    finally:
        daemon_module._datasync = real_datasync


async def _daemon_gm(ctx: Context, skipped: SkippedFlushes) -> Dict[str, object]:
    import asyncio

    from repro.serving import AsyncDaemonClient, DesignCache, ServingDaemon

    loop_errors: List[str] = []
    shutdown_errors: List[str] = []
    stopping = False

    def on_loop_error(loop, context) -> None:
        # Known defect: stopping an in-process daemon after its clients
        # closed logs CancelledError from _handle_connection's
        # writer.wait_closed().  Every request was answered by then, so it
        # is recorded, not counted as a failed operation.
        error = context.get("exception")
        if stopping and isinstance(error, asyncio.CancelledError):
            shutdown_errors.append(str(context.get("message")))
        else:
            loop_errors.append(f"{context.get('message')}: {error!r}")

    asyncio.get_running_loop().set_exception_handler(on_loop_error)

    state_dir = ctx.work / "state"
    cache_dir = ctx.work / "registry"
    rng = np.random.default_rng(ctx.seed)
    pools = rng.integers(
        0, DAEMON_N + 1, size=(DAEMON_CLIENTS, DAEMON_REQUEST_POOL, DAEMON_COUNTS_PER_REQUEST)
    )
    daemon = ServingDaemon(
        seed=ctx.seed,
        budget_alpha=NEVER_REFUSING_BUDGET,
        state_dir=state_dir,
        cache_dir=cache_dir,
    )
    await daemon.start(host="127.0.0.1", port=0)
    tenants = [f"tenant-{i}" for i in range(DAEMON_CLIENTS)]
    # Compact per-tenant columns, so the harness's own memory stays small
    # next to the daemon's (peak_rss_mb) however many requests a run serves.
    responses = {
        name: {key: array("q") for key in ("codes", "seqs", "counts", "released")}
        for name in tenants
    }
    clients = []
    for name in tenants:
        client = await AsyncDaemonClient.connect(host="127.0.0.1", port=daemon.port)
        hello = await client.hello(name)
        if hello["code"] != 0:
            raise RuntimeError(f"hello refused: {hello}")
        clients.append(client)

    async def release(index: int, counts: np.ndarray) -> None:
        response = await clients[index].release(counts, n=DAEMON_N, alpha=ALPHA)
        columns = responses[tenants[index]]
        columns["codes"].append(response["code"])
        columns["seqs"].append(response.get("seq", -1))
        columns["counts"].extend(counts.tolist())
        released = response.get("released") or [-1] * DAEMON_COUNTS_PER_REQUEST
        columns["released"].extend(released)

    # Untimed warm-up: plan compile, registry write, ledger creation.
    for index in range(DAEMON_CLIENTS):
        await release(index, pools[index, 0])

    latencies: List[float] = []
    ends: List[float] = []
    peak_rss: List[float] = []
    clock = time.perf_counter
    ctx.ready()
    ctx.tracer.start()
    skipped_at_start = skipped.calls
    began = clock()
    deadline = began + ctx.seconds

    async def closed_loop(index: int) -> None:
        k = 1
        while clock() < deadline or len(latencies) < DAEMON_RSS_REQUESTS:
            counts = pools[index, k % DAEMON_REQUEST_POOL]
            k += 1
            start = clock()
            await release(index, counts)
            end = clock()
            latencies.append(end - start)
            ends.append(end)
            if len(latencies) == DAEMON_RSS_REQUESTS:
                peak_rss.append(_peak_rss_mb())

    await asyncio.gather(*(closed_loop(i) for i in range(DAEMON_CLIENTS)))
    wall = clock() - began
    ctx.tracer.stop()
    skipped_flushes = skipped.calls - skipped_at_start
    stats = daemon.stats_payload()
    for client in clients:
        await client.close()
    stopping = True
    await daemon.stop()
    await asyncio.sleep(0)

    # Registry hits: a restarted daemon's plan lookup, by a fresh cache each time.
    hits: List[float] = []
    for _ in range(DAEMON_HIT_READS):
        cache = DesignCache(directory=cache_dir)
        start = clock()
        mechanism, _ = cache.get_or_design(DAEMON_N, ALPHA)
        hits.append(clock() - start)
        cache.close()
        if mechanism.metadata.get("design_cache") != "disk":
            raise RuntimeError("the daemon's design was not served from the registry")

    ctx.artifacts = {
        "responses": responses,
        "server_seed": ctx.seed,
        "state_dir": state_dir,
        "loop_errors": loop_errors,
    }
    requests = len(latencies)
    windows = Windows()
    windows.add_slices(began, wall, ends, latencies, DAEMON_WINDOW_S)
    result: Dict[str, object] = {
        "windows": windows.values,
        "attempted": sum(len(columns["codes"]) for columns in responses.values()),
        "failed": sum(code != 0 for columns in responses.values() for code in columns["codes"]),
        "hit_p50_ms": _percentile_ms(hits, 50),
        "peak_rss_mb": peak_rss[0],
        "ignored_shutdown_errors": len(shutdown_errors),
    }
    if ctx.traced:
        summary, self_s, calls, attributed = _self_times(ctx.tracer)
        executes = max(1, calls("engine.plan.execute"))
        batches = max(1, calls("serving.tenant_store.stage_commit"))
        result["layers"] = {
            "engine.plan.sample_us_per_batch": summary.get("engine.plan.execute", {}).get(
                "total_s", 0.0
            )
            / executes
            * 1e6,
            "engine.plan.counts_per_call": requests * DAEMON_COUNTS_PER_REQUEST / executes,
            "serving.protocol.us_per_req": self_s("serving.protocol") / requests * 1e6,
            "engine.durability.charge_us_per_req": self_s("engine.durability.charge")
            / requests
            * 1e6,
            "serving.tenant_store.commit_us_per_batch": self_s("serving.tenant_store.stage_commit")
            / batches
            * 1e6,
            "engine.durability.flushes_per_batch": (
                calls("engine.durability.flush") + skipped_flushes
            )
            / batches,
            "serving.daemon.batch_size": stats["requests"] / max(1, stats["batches"]),
            "serving.daemon.unattributed_us_per_req": (wall - attributed) / requests * 1e6,
            "trace.overhead_pct": _overhead_pct(ctx.tracer, wall),
        }
    return result


# --------------------------------------------------------------------- #
# stream-ledger
# --------------------------------------------------------------------- #
class StreamProbe:
    """Per-chunk charge→done latency and registry-hit plan lookups.

    Two timestamps per ~30 ms chunk and one per invocation: cheap enough to
    stay on in the untraced run, which needs them for ``p50_ms``,
    ``tail_ms`` and ``hit_p50_ms``.
    """

    def __init__(self) -> None:
        from repro.engine.durability import AccountantLedger
        from repro.serving.cache import DesignCache

        self.chunk_latencies: List[float] = []
        self.hit_latencies: List[float] = []
        self.active = False
        charged: Dict[int, float] = {}
        probe, clock = self, time.perf_counter
        charge, mark_done = AccountantLedger.charge, AccountantLedger.mark_done
        get_or_design = DesignCache.get_or_design

        def timed_charge(ledger, chunk, *args, **kwargs):
            charged[int(chunk)] = clock()
            return charge(ledger, chunk, *args, **kwargs)

        def timed_done(ledger, chunk, *args, **kwargs):
            try:
                return mark_done(ledger, chunk, *args, **kwargs)
            finally:
                started = charged.pop(int(chunk), None)
                if probe.active and started is not None:
                    probe.chunk_latencies.append(clock() - started)

        def timed_lookup(cache, *args, **kwargs):
            start = clock()
            found = get_or_design(cache, *args, **kwargs)
            if probe.active and found[0].metadata.get("design_cache") == "disk":
                probe.hit_latencies.append(clock() - start)
            return found

        AccountantLedger.charge = timed_charge
        AccountantLedger.mark_done = timed_done
        DesignCache.get_or_design = timed_lookup


def run_stream_ledger(ctx: Context) -> Dict[str, object]:
    from repro.cli import main as cli_main

    probe = StreamProbe()
    rng = np.random.default_rng(ctx.seed)
    counts = rng.integers(0, STREAM_N + 1, size=STREAM_CHUNK * STREAM_CHUNKS_PER_INVOCATION)
    counts_path = ctx.work / "counts.npy"
    np.save(counts_path, counts)
    registry = ctx.work / "registry"

    def serve(index: int, source: Path) -> dict:
        seed = int(rng.integers(0, 2**31))
        ledger = ctx.work / f"ledger-{index}.bin"
        output = ctx.work / f"released-{index}.npy"
        status = cli_main(
            [
                "serve-stream", "--n", str(STREAM_N), "--alpha", str(ALPHA),
                "--chunk-size", str(STREAM_CHUNK), "--seed", str(seed),
                "--ledger", str(ledger), "--budget-alpha", str(NEVER_REFUSING_BUDGET),
                "--counts-file", str(source), "--output", str(output),
                "--cache-dir", str(registry),
            ]
        )
        return {"status": status, "seed": seed, "ledger": ledger, "output": output}

    # Untimed warm-up: one chunk stores the design in the registry and
    # loads every lazily imported module of the path.
    warm_path = ctx.work / "warm.npy"
    np.save(warm_path, counts[:STREAM_CHUNK])
    warm = serve(-1, warm_path)
    ctx.ready()

    runs = []
    ctx.tracer.start()
    probe.active = True
    clock = time.perf_counter
    began = clock()
    deadline = began + ctx.seconds
    windows = Windows()
    while clock() < deadline:
        first, start = len(probe.chunk_latencies), clock()
        runs.append(serve(len(runs), counts_path))
        windows.add(
            STREAM_CHUNKS_PER_INVOCATION * STREAM_CHUNK,
            clock() - start,
            probe.chunk_latencies[first:],
        )
    wall = clock() - began
    probe.active = False
    ctx.tracer.stop()
    windows.add_hits(probe.hit_latencies, STREAM_HIT_WINDOW)

    ctx.artifacts = {
        "counts": counts,
        "statuses": [warm["status"]] + [run["status"] for run in runs],
        "runs": runs,
    }
    chunks = len(runs) * STREAM_CHUNKS_PER_INVOCATION
    result: Dict[str, object] = {
        "windows": windows.values,
        "attempted": chunks,
        "failed": sum(run["status"] != 0 for run in runs) * STREAM_CHUNKS_PER_INVOCATION,
    }
    if ctx.traced:
        _summary, self_s, calls, attributed = _self_times(ctx.tracer)
        result["layers"] = {
            "core.mechanism.sample_ms_per_chunk": self_s("core.mechanism.sample_batch")
            / chunks
            * 1e3,
            "core.mechanism.column_builds_per_chunk": ctx.tracer.counters[
                "core.mechanism.column_builds"
            ]
            / chunks,
            "engine.durability.charge_us_per_chunk": self_s("engine.durability.charge")
            / chunks
            * 1e6,
            "engine.durability.done_us_per_chunk": self_s("engine.durability.done")
            / chunks
            * 1e6,
            "engine.durability.flushes_per_chunk": calls("engine.durability.flush") / chunks,
            "engine.durability.flush_ms_per_chunk": self_s("engine.durability.flush")
            / chunks
            * 1e3,
            "engine.stream_io.write_us_per_chunk": (
                self_s("engine.stream_io.write") + self_s("engine.stream_io.sync")
            )
            / chunks
            * 1e6,
            "engine.executor.unattributed_ms_per_chunk": (wall - attributed) / chunks * 1e3,
            "trace.overhead_pct": _overhead_pct(ctx.tracer, wall),
        }
    return result


# --------------------------------------------------------------------- #
# design-ladder
# --------------------------------------------------------------------- #
def run_design_ladder(ctx: Context) -> Dict[str, object]:
    from repro.lp.solver import solve_call_count
    from repro.serving import DesignCache

    rng = np.random.default_rng(ctx.seed)
    jitter = float(rng.uniform(0.0, 0.004))
    registry = ctx.work / "registry"
    # The point below the ladder, so the first cold point has a neighbour too.
    cache = DesignCache(directory=registry)
    cache.get_or_design(DESIGN_N, DESIGN_LADDER[0] - 0.01 + jitter, properties=DESIGN_PROPERTIES)
    cache.close()
    ctx.ready()

    cold_latencies: List[float] = []
    hit_latencies: List[float] = []
    cold: list = []
    hits: list = []
    hit_solves = warm_hits = misses = 0
    tracer = ctx.tracer
    tracer.start()
    solves_at_start = solve_call_count()
    clock = time.perf_counter
    began = clock()
    deadline = began + ctx.seconds
    ladder = 0
    windows = Windows()
    while clock() < deadline:
        ladder_began, first = clock(), len(cold_latencies)
        alphas = [
            round(alpha + jitter + DESIGN_LADDER_SHIFT * ladder, 6) for alpha in DESIGN_LADDER
        ]
        ladder += 1
        designed = 0
        cache = DesignCache(directory=registry)
        # The hit pass: a second cache, opened before the ladder's points
        # exist, reads each point back right after it is designed, so the
        # registry reads are spread over the phase like the cold designs.
        reader = DesignCache(directory=registry)
        for alpha in alphas:
            if designed and clock() >= deadline:
                break
            with tracer.span("bench.cold_design"):
                start = clock()
                mechanism, decision = cache.get_or_design(
                    DESIGN_N, alpha, properties=DESIGN_PROPERTIES
                )
                cold_latencies.append(clock() - start)
            cold.append((alpha, mechanism, decision))
            solves_before = solve_call_count()
            with tracer.span("bench.hit_read"):
                start = clock()
                mechanism, decision = reader.get_or_design(
                    DESIGN_N, alpha, properties=DESIGN_PROPERTIES
                )
                hit_latencies.append(clock() - start)
            hit_solves += solve_call_count() - solves_before
            hits.append((alpha, mechanism, decision))
            designed += 1
        # Known defect: DesignCache.stats() raises after close(); read first.
        stats = cache.stats()
        warm_hits += stats.warm_hits
        misses += stats.misses
        cache.close()
        reader.close()
        # A window is one whole ladder; the part-ladder cut by the deadline
        # only counts when the run is too short for a whole one.
        if designed == len(alphas) or not windows.values["throughput_per_s"]:
            windows.add(designed, clock() - ladder_began, cold_latencies[first:])
    wall = clock() - began
    tracer.stop()
    solves = solve_call_count() - solves_at_start
    windows.add_hits(hit_latencies, DESIGN_HIT_WINDOW)

    ctx.artifacts = {"cold": cold, "hits": hits, "hit_solves": hit_solves}
    designs = len(cold)
    result: Dict[str, object] = {
        "windows": windows.values,
        "attempted": designs + len(hits),
        "failed": 0,
    }
    if ctx.traced:
        summary, self_s, _calls, _attributed = _self_times(tracer)
        hit_pass = tracer.summary(root_filter=lambda root: root == "bench.hit_read")

        def mean_ms(table, name: str) -> float:
            entry = table.get(name)
            return entry["self_s"] / entry["calls"] * 1e3 if entry else 0.0

        result["layers"] = {
            "lp.model.build_ms_per_design": self_s("lp.model.build") / designs * 1e3,
            "lp.solver.solve_ms_per_design": self_s("lp.solver.solve") / designs * 1e3,
            "lp.solver.solves_per_design": solves / designs,
            "serving.cache.warm_hit_ratio": warm_hits / max(1, misses),
            "serving.registry.put_ms": mean_ms(summary, "serving.registry.put"),
            "serving.registry.nearest_ms": mean_ms(summary, "serving.registry.nearest"),
            "serving.registry.get_ms": mean_ms(hit_pass, "serving.registry.get"),
            "trace.overhead_pct": _overhead_pct(tracer, wall),
        }
    return result


WORKLOADS = {
    "daemon-gm": run_daemon_gm,
    "stream-ledger": run_stream_ledger,
    "design-ladder": run_design_ladder,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)

    ctx = Context(args.seed, args.seconds, Path(args.work), traced=bool(args.trace))
    import repro.cli  # noqa: F401 - the CLI's import cost is part of set-up

    if ctx.traced:
        install_tracing(ctx.tracer)
    result = WORKLOADS[args.workload](ctx)
    # Read before the checks, whose recomputations are not the program's memory.
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    checked_at = time.monotonic()
    found = checks.CHECKS[args.workload](ctx.artifacts)
    result["check_s"] = time.monotonic() - checked_at
    result.update(
        {
            "setup_s": ctx.ready_at - args.launched,
            "checks": [list(check) for check in found],
        }
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the three benchmark workloads.

Every check recomputes the expected output through a path independent of
the one being measured and returns ``(name, ok, detail)``; an exception
inside a check is a failed check, never a crashed run.
"""

from __future__ import annotations

import functools
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

Check = Tuple[str, bool, str]


def _guarded(name: str, body: Callable[[], str]) -> Check:
    """Run ``body``; an ``AssertionError`` or any other exception fails the check."""
    try:
        return name, True, body()
    except Exception as error:  # noqa: BLE001 - a check reports, never raises
        detail = f"{type(error).__name__}: {error}"
        if not isinstance(error, AssertionError):
            detail += "\n" + traceback.format_exc(limit=3)
        return name, False, detail


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# --------------------------------------------------------------------- #
# daemon-gm
# --------------------------------------------------------------------- #
def daemon_codes(responses: Dict[str, dict]) -> Check:
    """Every response of every tenant has code 0."""

    def body() -> str:
        for tenant, columns in responses.items():
            codes = np.asarray(columns["codes"])
            bad = np.flatnonzero(codes != 0)
            _expect(bad.size == 0, f"{tenant}: {bad.size} responses with non-zero code")
        return f"{sum(len(c['codes']) for c in responses.values())} responses, all code 0"

    return _guarded("daemon.codes", body)


def daemon_released(
    responses: Dict[str, dict], server_seed: int, n: int, alpha: float
) -> Check:
    """Released counts equal a recomputation from each tenant's substreams.

    Request ``seq`` of a tenant samples the ``seq``-th spawn of its root;
    the daemon's coalesced draws are elementwise in ``(count, uniform)``,
    so one ``execute_with_uniforms`` call over every request recomputes them.
    """

    def body() -> str:
        from repro.engine.plan import ReleasePlan
        from repro.serving.daemon import TenantSession
        from repro.serving.protocol import tenant_seed_sequence

        plan = ReleasePlan.compile(n, alpha)
        checked = 0
        for tenant, columns in responses.items():
            session = TenantSession(
                tenant, tenant_seed_sequence(tenant, server_seed=server_seed), None
            )
            seqs = list(columns["seqs"])
            _expect(seqs == list(range(len(seqs))), f"{tenant}: seqs are not 0..{len(seqs) - 1}")
            counts = np.asarray(columns["counts"])
            released = np.asarray(columns["released"])
            per_request = counts.size // max(1, len(seqs))
            uniforms = np.concatenate(
                [np.random.default_rng(session.substream_at(seq)).random(per_request) for seq in seqs]
            )
            expected = plan.execute_with_uniforms(counts, uniforms)
            mismatch = np.flatnonzero(expected != released)
            _expect(
                mismatch.size == 0,
                f"{tenant}: {mismatch.size} released counts differ "
                f"(first at position {mismatch[:1].tolist()})",
            )
            checked += released.size
        return f"{checked} released counts recomputed"

    return _guarded("daemon.released", body)


def daemon_ledgers(state_dir: Path, served: Dict[str, int]) -> Check:
    """Each tenant's durable ledger holds one charge per served request."""

    def body() -> str:
        from repro.engine.durability import AccountantLedger
        from repro.serving.tenant_store import tenant_slug

        for tenant, count in served.items():
            path = Path(state_dir) / "tenants" / tenant_slug(tenant) / "ledger.bin"
            ledger = AccountantLedger.open(path)
            try:
                charges = sum(ledger.charged(k) for k in range(ledger.next_index()))
                _expect(
                    charges == count,
                    f"{tenant}: ledger holds {charges} charges for {count} served requests",
                )
                _expect(ledger.refusal_count() == 0, f"{tenant}: ledger holds refusals")
            finally:
                ledger.close()
        return ", ".join(f"{t}={c}" for t, c in served.items()) + " charges"

    return _guarded("daemon.ledger", body)


# --------------------------------------------------------------------- #
# stream-ledger
# --------------------------------------------------------------------- #
def stream_status(statuses: Sequence[int]) -> Check:
    def body() -> str:
        bad = [status for status in statuses if status != 0]
        _expect(not bad, f"serve-stream exit statuses {bad}")
        return f"{len(statuses)} invocations, exit status 0"

    return _guarded("stream.status", body)


@functools.lru_cache(maxsize=None)
def _dense_gm(n: int, alpha: float):
    """GM's dense matrix as a ``Mechanism``, built once for every invocation."""
    from repro.core.mechanism import Mechanism
    from repro.mechanisms.geometric import geometric_mechanism

    return Mechanism(geometric_mechanism(n, alpha).matrix)


def stream_output(
    counts: np.ndarray, output: Path, seed: int, chunk_size: int, n: int, alpha: float
) -> Check:
    """The released ``.npy`` equals a per-chunk recomputation.

    Chunk ``k`` samples from the ``k``-th spawn of ``SeedSequence(seed)``.
    The recomputation runs through GM's dense matrix rather than the closed
    form the CLI serves, which the library keeps bit-identical.
    """

    def body() -> str:
        released = np.load(output)
        _expect(released.shape == counts.shape, f"{output.name}: shape {released.shape} != {counts.shape}")
        dense = _dense_gm(n, alpha)
        starts = range(0, counts.shape[0], chunk_size)
        children = np.random.SeedSequence(seed).spawn(len(starts))
        uniforms = np.concatenate(
            [
                np.random.default_rng(child).random(min(chunk_size, counts.shape[0] - start))
                for child, start in zip(children, starts)
            ]
        )
        expected = dense.sample_with_uniforms(counts, uniforms)
        mismatch = np.flatnonzero(expected != released)
        _expect(
            mismatch.size == 0,
            f"{output.name}: {mismatch.size} released counts differ "
            f"(first at position {mismatch[:1].tolist()})",
        )
        return f"{released.size} released counts recomputed"

    return _guarded("stream.output", body)


def stream_ledger(path: Path, chunks: int) -> Check:
    """Charges == done marks == chunks in the run's ledger."""

    def body() -> str:
        from repro.engine.durability import AccountantLedger

        ledger = AccountantLedger.open(path)
        try:
            span = range(max(ledger.next_index(), chunks))
            charges = sum(ledger.charged(k) for k in span)
            done = sum(ledger.is_done(k) for k in span)
        finally:
            ledger.close()
        _expect(
            charges == done == chunks,
            f"{Path(path).name}: {charges} charges, {done} done marks, {chunks} chunks",
        )
        return f"{chunks} chunks charged and done"

    return _guarded("stream.ledger", body)


# --------------------------------------------------------------------- #
# design-ladder
# --------------------------------------------------------------------- #
#: LP optima are feasible to the solver's tolerance (HiGHS: 1e-7), so
#: structural checks of designed mechanisms allow 1e-6, as the test suite does.
DESIGN_TOLERANCE = 1e-6


def design_points(
    points: Sequence[Tuple[float, object, object]], properties: str, branch: str
) -> Check:
    """Each cold design: expected branch, column-stochastic, properties, DP."""

    def body() -> str:
        from repro.core.properties import satisfies_all, satisfies_differential_privacy

        for alpha, mechanism, decision in points:
            _expect(decision.branch == branch, f"alpha={alpha}: branch {decision.branch}")
            matrix = np.asarray(mechanism.matrix)
            _expect(bool((matrix >= -1e-12).all()), f"alpha={alpha}: negative entries")
            sums = matrix.sum(axis=0)
            _expect(
                bool(np.allclose(sums, 1.0, atol=1e-7)),
                f"alpha={alpha}: columns sum to [{sums.min()}, {sums.max()}]",
            )
            _expect(
                satisfies_all(mechanism, properties, tolerance=DESIGN_TOLERANCE),
                f"alpha={alpha}: violates {properties}",
            )
            _expect(
                satisfies_differential_privacy(mechanism, alpha, tolerance=DESIGN_TOLERANCE),
                f"alpha={alpha}: not {alpha}-DP",
            )
        return f"{len(points)} designs take {branch} and satisfy {properties}"

    return _guarded("design.points", body)


def design_hits(
    cold: Sequence[Tuple[float, object, object]],
    hits: Sequence[Tuple[float, object, object]],
    solves: int,
) -> Check:
    """The hit pass returns the same mechanisms with zero LP solves."""

    def body() -> str:
        _expect(solves == 0, f"hit pass ran {solves} LP solves")
        _expect(len(cold) == len(hits), f"{len(hits)} hits for {len(cold)} cold designs")
        for (alpha, mechanism, _), (hit_alpha, hit, _) in zip(cold, hits):
            _expect(alpha == hit_alpha, f"hit order differs at alpha={alpha}")
            _expect(
                hit.metadata.get("design_cache") == "disk",
                f"alpha={alpha}: served from {hit.metadata.get('design_cache')}",
            )
            _expect(
                np.array_equal(np.asarray(mechanism.matrix), np.asarray(hit.matrix)),
                f"alpha={alpha}: registry returned a different mechanism",
            )
        return f"{len(hits)} registry hits identical, 0 solves"

    return _guarded("design.hits", body)


# --------------------------------------------------------------------- #
# Per-workload check sets over a run's artifacts
# --------------------------------------------------------------------- #
def check_daemon_gm(artifacts: dict) -> List[Check]:
    from perfbench.workload import ALPHA, DAEMON_N

    responses = artifacts["responses"]
    served = {tenant: len(columns["codes"]) for tenant, columns in responses.items()}
    loop_errors = artifacts["loop_errors"]
    return [
        daemon_codes(responses),
        daemon_released(responses, artifacts["server_seed"], DAEMON_N, ALPHA),
        daemon_ledgers(artifacts["state_dir"], served),
        ("daemon.loop", not loop_errors, "; ".join(loop_errors) or "no event-loop errors"),
    ]


def check_stream_ledger(artifacts: dict) -> List[Check]:
    from perfbench.workload import ALPHA, STREAM_CHUNK, STREAM_CHUNKS_PER_INVOCATION, STREAM_N

    found = [stream_status(artifacts["statuses"])]
    for run in artifacts["runs"]:
        found.append(
            stream_output(
                artifacts["counts"], run["output"], run["seed"], STREAM_CHUNK, STREAM_N, ALPHA
            )
        )
        found.append(stream_ledger(run["ledger"], STREAM_CHUNKS_PER_INVOCATION))
    return found


def check_design_ladder(artifacts: dict) -> List[Check]:
    from perfbench.workload import DESIGN_BRANCH, DESIGN_PROPERTIES

    return [
        design_points(artifacts["cold"], DESIGN_PROPERTIES, DESIGN_BRANCH),
        design_hits(artifacts["cold"], artifacts["hits"], artifacts["hit_solves"]),
    ]


CHECKS = {
    "daemon-gm": check_daemon_gm,
    "stream-ledger": check_stream_ledger,
    "design-ladder": check_design_ladder,
}

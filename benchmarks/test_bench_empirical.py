"""Benchmarks for the vectorised empirical evaluation pipeline.

Three guarantees of the evaluation rework are asserted here, not just
timed, at the acceptance operating point ``(n = 32, num_groups = 10^4,
repetitions = 50)``:

* ``evaluate_mechanism`` (one tiled sample + matrix metric kernels) is at
  least **10x faster** than the sequential scalar reference — the
  paper-faithful loop that releases one group at a time and computes each
  metric per repetition (measured ~1000x on the reference machine) — and at
  least **2x faster** than the batched repetition loop kept as
  ``evaluate_loop`` in ``tests/_reference.py`` (measured ~4-6x);
* the per-repetition metric values of all three paths are **bit-identical**
  (same uniform stream, same exact inverse-CDF sampler, exact integer
  reductions);
* a parallel sweep (``max_workers = 4``) reproduces the serial sweep's rows
  **exactly**, row for row.

``REPRO_BENCH_TINY=1`` (the CI smoke job) runs the same code paths at toy
sizes with the wall-clock assertions disabled.
"""

from __future__ import annotations

import time

import numpy as np
from _reference import evaluate_loop
from _tiny import TINY

from repro.core.mechanism import DenseMechanism
from repro.eval import metrics as metrics_module
from repro.eval.empirical import DEFAULT_METRICS, evaluate_mechanism
from repro.eval.sweep import sweep
from repro.mechanisms.geometric import geometric_matrix, geometric_mechanism

#: The acceptance operating point for the evaluation speedup.
N = 8 if TINY else 32
NUM_GROUPS = 500 if TINY else 10_000
REPETITIONS = 5 if TINY else 50

#: Repetitions actually timed for the scalar reference (it is ~1000x slower
#: than the vectorised path; its per-repetition cost is measured on a few
#: repetitions and scaled).
SCALAR_REPETITIONS = 2 if TINY else 2


def _scalar_reference(mechanism, counts, repetitions, seed):
    """The paper-faithful sequential path: one scalar draw per group.

    Releases every group with an individual ``mechanism.sample`` call and
    computes every metric with one Python call per repetition.  Consumes
    one uniform per group in the same stream order as the batch and tiled
    samplers, so its metric values are bit-identical to theirs.
    """
    rng = np.random.default_rng(seed)
    per_repetition = {name: [] for name in DEFAULT_METRICS}
    for _ in range(repetitions):
        released = np.array([mechanism.sample(int(count), rng=rng) for count in counts])
        for name, function in DEFAULT_METRICS.items():
            per_repetition[name].append(function(counts, released))
    return {name: np.asarray(values) for name, values in per_repetition.items()}


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_vectorized_evaluation_speedup_and_bit_identity(rng):
    """The headline guarantee: >=10x over the scalar path, >=2x over the loop."""
    counts = rng.integers(0, N + 1, size=NUM_GROUPS)
    mechanism = geometric_mechanism(N, 0.9)
    evaluate_mechanism(mechanism, counts, group_size=N, repetitions=2, seed=0)  # warm

    vectorized, vectorized_seconds = _best_of(
        lambda: evaluate_mechanism(
            mechanism, counts, group_size=N, repetitions=REPETITIONS, seed=1
        )
    )
    loop, loop_seconds = _best_of(
        lambda: evaluate_loop(
            mechanism, counts, group_size=N, repetitions=REPETITIONS, seed=1
        )
    )
    start = time.perf_counter()
    scalar = _scalar_reference(mechanism, counts, SCALAR_REPETITIONS, seed=1)
    scalar_seconds = (time.perf_counter() - start) * REPETITIONS / SCALAR_REPETITIONS

    # Bit-identical per-repetition metric values across all three paths.
    assert vectorized.metrics() == loop.metrics()
    for name in vectorized.metrics():
        assert np.array_equal(vectorized.per_repetition[name], loop.per_repetition[name]), name
        assert np.array_equal(
            vectorized.per_repetition[name][:SCALAR_REPETITIONS], scalar[name]
        ), name

    scalar_speedup = scalar_seconds / vectorized_seconds
    loop_speedup = loop_seconds / vectorized_seconds
    if not TINY:
        assert scalar_speedup >= 10.0, (
            f"vectorized evaluation only {scalar_speedup:.1f}x faster than the "
            f"scalar sequential reference ({vectorized_seconds * 1e3:.1f} ms vs "
            f"~{scalar_seconds * 1e3:.0f} ms)"
        )
        assert loop_speedup >= 2.0, (
            f"vectorized evaluation only {loop_speedup:.1f}x faster than the "
            f"batched repetition loop ({vectorized_seconds * 1e3:.1f} ms vs "
            f"{loop_seconds * 1e3:.1f} ms)"
        )


def test_dense_representation_matches_and_speeds_up(rng):
    """The tiled guide path serves the dense backend too, bit-identically."""
    counts = rng.integers(0, N + 1, size=NUM_GROUPS)
    dense = DenseMechanism(geometric_matrix(N, 0.9), name="GM", alpha=0.9)
    closed = geometric_mechanism(N, 0.9)
    dense_result = evaluate_mechanism(
        dense, counts, group_size=N, repetitions=REPETITIONS, seed=3
    )
    closed_result = evaluate_mechanism(
        closed, counts, group_size=N, repetitions=REPETITIONS, seed=3
    )
    for name in dense_result.metrics():
        assert np.array_equal(
            dense_result.per_repetition[name], closed_result.per_repetition[name]
        ), name


def test_distance_profile_single_pass(rng):
    """The Figure-12 d-sweep: every threshold from one histogram pass."""
    counts = rng.integers(0, N + 1, size=NUM_GROUPS)
    mechanism = geometric_mechanism(N, 0.67)
    family = metrics_module.distance_metrics(range(8))
    vectorized, vectorized_seconds = _best_of(
        lambda: evaluate_mechanism(
            mechanism, counts, group_size=N, repetitions=REPETITIONS,
            metrics=family, seed=5,
        )
    )
    loop, loop_seconds = _best_of(
        lambda: evaluate_loop(
            mechanism, counts, group_size=N, repetitions=REPETITIONS,
            metrics=family, seed=5,
        )
    )
    for name in family:
        assert np.array_equal(vectorized.per_repetition[name], loop.per_repetition[name])
    if not TINY:
        assert loop_seconds / vectorized_seconds >= 2.0, (
            f"multi-threshold profile only {loop_seconds / vectorized_seconds:.1f}x "
            "faster than per-threshold metric calls"
        )


def test_parallel_sweep_reproduces_serial_rows():
    """max_workers=4 must change wall-clock only, never a row."""
    kwargs = dict(
        alphas=[0.67, 0.91],
        group_sizes=[4, 8],
        probabilities=[0.3, 0.5],
        mechanisms=("GM", "WM", "EM", "UM"),
        repetitions=3 if TINY else 10,
        num_groups=100 if TINY else 2_000,
        seed=2018,
    )
    serial = sweep(**kwargs)
    parallel = sweep(max_workers=4, **kwargs)
    assert len(serial.rows) == len(parallel.rows) == 2 * 2 * 2 * 4
    assert serial.rows == parallel.rows

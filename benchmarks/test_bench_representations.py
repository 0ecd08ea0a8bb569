"""Benchmarks for the representation-polymorphic mechanism core.

Two guarantees of the refactor are asserted here, not just timed:

* a closed-form GM serves a 10^5-count batch at ``n = 10^4`` at least
  **10x faster** than the dense matrix path and with at least **100x less
  peak memory** (measured ~280x and ~480x on the reference machine — the
  dense path must build and CDF-precompute an ``(n + 1)^2`` matrix, the
  closed form inverts its analytic CDF in O(batch) memory);
* the serving layer releases 10^6 mixed GM/EM requests at ``n = 10^5``
  end-to-end **without materialising a single dense matrix**, verified by
  the :attr:`~repro.core.mechanism.Mechanism.densifications` counter;
* rebuilding GM at ``n = 10^5`` from its descriptor (a registry hit) is at
  least **5x faster** than validating the pow-based reference's three
  columns alone (measured ~20x: the power table stops at its first zero).

``REPRO_BENCH_TINY=1`` (the CI smoke job) runs the same code paths at toy
sizes with the wall-clock/memory assertions disabled.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from _reference import reference_closed_form
from _tiny import TINY

import repro
from repro.core.mechanism import ClosedFormMechanism, DenseMechanism, Mechanism
from repro.mechanisms.geometric import geometric_matrix, geometric_mechanism

#: Group size / batch size for the closed-form vs dense comparison.
N_COMPARE = 256 if TINY else 10_000
BATCH_COMPARE = 5_000 if TINY else 100_000

#: Group size / request volume for the end-to-end serving run.
N_SERVE = 512 if TINY else 100_000
REQUESTS_SERVE = 10_000 if TINY else 1_000_000


def _traced(fn):
    """Run ``fn`` returning (result, seconds, peak_traced_bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_closed_form_gm_vs_dense_speed_and_memory(rng):
    """The headline representation guarantee: >=10x faster, >=100x less memory."""
    n, alpha = N_COMPARE, 0.9
    counts = rng.integers(0, n + 1, size=BATCH_COMPARE)

    def closed_form_serve():
        mechanism = geometric_mechanism(n, alpha)
        return mechanism.sample_batch(counts, rng=np.random.default_rng(0))

    def dense_serve():
        mechanism = DenseMechanism(geometric_matrix(n, alpha), name="GM", alpha=alpha)
        return mechanism.sample_batch(counts, rng=np.random.default_rng(0))

    closed_released, closed_seconds, closed_peak = _traced(closed_form_serve)
    dense_released, dense_seconds, dense_peak = _traced(dense_serve)
    assert closed_released.shape == dense_released.shape == counts.shape

    speedup = dense_seconds / closed_seconds
    memory_reduction = dense_peak / closed_peak
    if not TINY:
        assert speedup >= 10.0, (
            f"closed-form GM speedup {speedup:.1f}x below the 10x guarantee "
            f"({closed_seconds * 1e3:.0f} ms vs dense {dense_seconds * 1e3:.0f} ms)"
        )
        assert memory_reduction >= 100.0, (
            f"closed-form GM memory reduction {memory_reduction:.0f}x below the "
            f"100x guarantee ({closed_peak / 1e6:.1f} MB vs dense "
            f"{dense_peak / 1e6:.1f} MB)"
        )

    # Same distribution: compare the released-count histograms coarsely.
    edges = np.linspace(0, n + 1, 9)
    closed_hist = np.histogram(closed_released, bins=edges)[0] / counts.size
    dense_hist = np.histogram(dense_released, bins=edges)[0] / counts.size
    assert np.allclose(closed_hist, dense_hist, atol=0.02)


def test_closed_form_sampling_is_exactly_dense_below_the_switch(rng):
    """At n <= EXACT_SAMPLING_LIMIT the two representations are bit-identical."""
    n = min(N_COMPARE, ClosedFormMechanism.EXACT_SAMPLING_LIMIT)
    counts = rng.integers(0, n + 1, size=5_000)
    closed = geometric_mechanism(n, 0.9)
    dense = DenseMechanism(geometric_matrix(n, 0.9), name="GM", alpha=0.9)
    assert np.array_equal(
        closed.sample_batch(counts, rng=np.random.default_rng(4)),
        dense.sample_batch(counts, rng=np.random.default_rng(4)),
    )


def test_serving_million_mixed_requests_without_densification(rng):
    """10^6 mixed GM/EM requests at n = 10^5: seconds, O(batch) memory, 0 matrices."""
    n = N_SERVE
    session = repro.BatchReleaseSession(rng=np.random.default_rng(7))
    densifications_before = Mechanism.densifications

    def serve():
        total = 0
        for properties in ("", "F"):  # Figure-5 GM and EM branches
            counts = rng.integers(0, n + 1, size=REQUESTS_SERVE // 2)
            total += session.release_counts(
                counts, n=n, alpha=0.9, properties=properties
            ).size
        return total

    total, elapsed, peak = _traced(serve)
    assert total == 2 * (REQUESTS_SERVE // 2)
    assert Mechanism.densifications == densifications_before, (
        "serving materialised a dense (n+1)^2 matrix"
    )
    if not TINY:
        assert elapsed < 60.0, f"serving 10^6 requests took {elapsed:.1f}s"
        # O(batch) memory: far below the ~80 GB a dense matrix would need.
        assert peak < 500e6, f"serving peak memory {peak / 1e6:.0f} MB"
    assert session.stats.records == total
    assert session.stats.distinct_designs == 2


def test_gm_registry_hit_5x_faster_than_pow_validate():
    """``from_dict`` of a GM descriptor against the pow reference's validate."""
    descriptor = geometric_mechanism(N_SERVE, 0.9).to_dict()
    reference = reference_closed_form(Mechanism.from_dict(descriptor))
    table_seconds = pow_seconds = float("inf")
    for _ in range(5):  # interleaved best-of-5
        start = time.perf_counter()
        Mechanism.from_dict(descriptor)
        table_seconds = min(table_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        reference.validate()
        pow_seconds = min(pow_seconds, time.perf_counter() - start)
    speedup = pow_seconds / table_seconds
    if not TINY:
        assert speedup >= 5.0, (
            f"GM registry hit {speedup:.1f}x below the 5x guarantee "
            f"({table_seconds * 1e3:.2f} ms vs pow validate {pow_seconds * 1e3:.2f} ms)"
        )


@pytest.mark.benchmark(group="representations")
def test_closed_form_gm_large_n_throughput(benchmark, rng):
    """Timed: analytic inverse-CDF sampling at the serving group size."""
    mechanism = geometric_mechanism(N_SERVE, 0.9)
    counts = rng.integers(0, N_SERVE + 1, size=BATCH_COMPARE)

    released = benchmark(
        lambda: mechanism.sample_batch(counts, rng=np.random.default_rng(0))
    )
    assert released.shape == counts.shape


@pytest.mark.benchmark(group="representations")
def test_sparse_wm_sampling_throughput(benchmark, rng):
    """Timed: column-exact sampling from CSC storage (LP-designed WM)."""
    mechanism = repro.design_mechanism(
        64, 0.9, properties="WH+CM+S", representation="sparse"
    )
    counts = rng.integers(0, 65, size=BATCH_COMPARE)

    released = benchmark(
        lambda: mechanism.sample_batch(counts, rng=np.random.default_rng(0))
    )
    assert released.shape == counts.shape

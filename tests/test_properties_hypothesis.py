"""Property-based sampling invariants across all three representations.

``tests/test_property_based.py`` covers the paper's *mathematical* claims;
this module covers the *sampling contract* the engine relies on, for random
``(n, alpha)`` and all three representations of the same mechanism (dense
matrix, closed form, sparse):

* every column is a valid probability distribution,
* the per-column sampling CDFs are monotone and end at 1,
* batch samples always land in the support ``{0, …, n}``,
* ``sample_tiled`` is bit-identical to sequential ``sample_batch`` calls on
  a shared uniform stream, and ``sample_with_uniforms`` (the executor's
  batched-RNG entry point) is bit-identical to ``sample_batch``.

These are the invariants the guide-table kernel, the batched-RNG executor
and the ``.npy`` serving path all assume; hypothesis hunts the corners the
fixed-seed tests miss.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mechanism import Mechanism, SparseMechanism
from repro.mechanisms.geometric import geometric_mechanism

group_sizes = st.integers(min_value=1, max_value=16)
alphas = st.floats(min_value=0.05, max_value=0.99, allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

RELAXED = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def representations(n: int, alpha: float):
    """The same GM mechanism in its dense, closed-form and sparse clothes."""
    closed = geometric_mechanism(n, alpha)
    dense = Mechanism(closed.matrix, name="gm-dense", alpha=alpha)
    sparse = SparseMechanism(closed.matrix, name="gm-sparse", alpha=alpha)
    return {"dense": dense, "closed-form": closed, "sparse": sparse}


@RELAXED
@given(n=group_sizes, alpha=alphas)
def test_columns_are_distributions(n, alpha):
    for label, mechanism in representations(n, alpha).items():
        for j in range(n + 1):
            column = mechanism.column(j)
            assert column.shape == (n + 1,), label
            assert np.all(column >= -1e-12), label
            np.testing.assert_allclose(np.sum(column), 1.0, atol=1e-9)


@RELAXED
@given(n=group_sizes, alpha=alphas)
def test_sampling_cdfs_monotone_and_normalised(n, alpha):
    for label, mechanism in representations(n, alpha).items():
        for j in range(n + 1):
            cdf = mechanism.column_cdfs()[j]
            assert cdf.shape == (n + 1,), label
            assert np.all(np.diff(cdf) >= -1e-15), f"{label}: CDF not monotone"
            assert np.all(cdf >= -1e-12) and np.all(cdf <= 1.0 + 1e-9), label
            np.testing.assert_allclose(cdf[-1], 1.0, atol=1e-9)


@RELAXED
@given(n=group_sizes, alpha=alphas, seed=seeds)
def test_samples_stay_in_support(n, alpha, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, n + 1, size=32)
    for label, mechanism in representations(n, alpha).items():
        released = mechanism.sample_batch(counts, rng=np.random.default_rng(seed))
        assert released.shape == counts.shape, label
        assert released.min() >= 0 and released.max() <= n, label


@RELAXED
@given(n=group_sizes, alpha=alphas, seed=seeds, repetitions=st.integers(1, 4))
def test_tiled_equals_sequential_batches_on_shared_stream(n, alpha, seed, repetitions):
    base = np.random.default_rng(seed)
    counts = base.integers(0, n + 1, size=17)
    for label, mechanism in representations(n, alpha).items():
        tiled = mechanism.sample_tiled(
            counts, repetitions, rng=np.random.default_rng(seed + 1)
        )
        sequential_rng = np.random.default_rng(seed + 1)
        sequential = np.vstack(
            [mechanism.sample_batch(counts, rng=sequential_rng) for _ in range(repetitions)]
        )
        assert np.array_equal(tiled, sequential), (
            f"{label}: tiled release deviates from sequential batches"
        )


@RELAXED
@given(n=group_sizes, alpha=alphas, seed=seeds)
def test_sample_with_uniforms_equals_sample_batch(n, alpha, seed):
    base = np.random.default_rng(seed)
    counts = base.integers(0, n + 1, size=23)
    for label, mechanism in representations(n, alpha).items():
        batch = mechanism.sample_batch(counts, rng=np.random.default_rng(seed + 2))
        uniforms = np.random.default_rng(seed + 2).random(counts.shape[0])
        explicit = mechanism.sample_with_uniforms(counts, uniforms)
        assert np.array_equal(batch, explicit), (
            f"{label}: sample_with_uniforms deviates from sample_batch"
        )


@RELAXED
@given(n=group_sizes, alpha=alphas, seed=seeds)
def test_representations_agree_on_a_shared_stream(n, alpha, seed):
    """All three representations release identical counts from one stream."""
    base = np.random.default_rng(seed)
    counts = base.integers(0, n + 1, size=29)
    releases = {
        label: mechanism.sample_batch(counts, rng=np.random.default_rng(seed + 3))
        for label, mechanism in representations(n, alpha).items()
    }
    reference = releases["dense"]
    for label, released in releases.items():
        assert np.array_equal(released, reference), (
            f"{label} deviates from dense on a shared uniform stream"
        )

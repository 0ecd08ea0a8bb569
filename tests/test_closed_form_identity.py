"""Release identity of every closed form against its pow-based reference.

GM, EM and STAIRCASE read integer powers of α from a power table; the
references in ``tests/_reference.py`` compute the same powers with array pow.
Each case runs both through every sampling entry point on the same seeds and
asserts equal releases and equal generator states afterwards.  The check is
in-process on purpose: vectorised pow bits can differ between CPUs and numpy
builds, so a stored digest of releases would fail on a different machine.

The grid: GM, UM, NRR, STAIRCASE, EM (and EM by its ``FAIR`` alias) at
``n`` in {1, 2, 5, 40, 257, 1000, 2048} and five alphas, dense and sparse GM
twins at ``n <= 257``, and the bisection regime at ``n = 10^5`` for the three
closed forms that use the table.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference import (
    _fair_cdf,
    _geometric_cdf,
    em_diagonal,
    fair_matrix,
    geometric_matrix,
    reference_closed_form,
)
from scipy import sparse

from repro.core.mechanism import ClosedFormMechanism, DenseMechanism, SparseMechanism
from repro.mechanisms import fair, geometric
from repro.mechanisms.registry import create_mechanism

NAMES = ["GM", "UM", "NRR", "STAIRCASE", "EM", "FAIR"]
SIZES = [1, 2, 5, 40, 257, 1000, 2048]
ALPHAS = [0.05, 0.3, 0.5, 0.9, 0.999]
LARGE_N = 100_000

EDGE_UNIFORMS = np.array([0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0)])


def _requests(n: int, seed: int):
    """Random counts and uniforms, then every count against two edge uniforms."""
    rng = np.random.default_rng(seed)
    every = np.arange(n + 1)
    counts = np.concatenate([rng.integers(0, n + 1, size=500), np.repeat(every, 2)])
    uniforms = np.concatenate([rng.random(500), np.tile(EDGE_UNIFORMS[[0, 3]], n + 1)])
    return counts, uniforms


def _releases(mechanism, seed: int) -> list:
    """Everything ``mechanism`` releases through each entry point, in order."""
    n = mechanism.n
    counts, uniforms = _requests(n, seed)
    rng = np.random.default_rng(seed)
    released = [
        mechanism.sample_with_uniforms(counts, uniforms),
        mechanism.sample_batch(counts, rng=rng),
        mechanism.sample_tiled(counts, 3, rng=rng),
    ]
    if mechanism.size <= mechanism.GUIDE_SIZE_LIMIT:
        repetitions = mechanism.size * mechanism.GUIDE_BINS // 4 // counts.shape[0] + 1
        assert mechanism._use_guide(repetitions * counts.shape[0])
        released.append(mechanism.sample_tiled(counts, repetitions, rng=rng))
    for j in (0, n // 2, n):
        released.append(np.array([mechanism.sample(j, rng=rng)]))
        released.append(mechanism.sample(j, rng=rng, size=20))
    released.append(rng.random(4))  # the generator state after all draws
    return released


def _assert_same_releases(mechanism, reference, seed: int) -> None:
    ours, theirs = _releases(mechanism, seed), _releases(reference, seed)
    assert len(ours) == len(theirs)
    for step, (a, b) in enumerate(zip(ours, theirs)):
        assert np.array_equal(a, b), f"release {step} differs"


def _closed_form(name: str, n: int, alpha: float) -> ClosedFormMechanism:
    if name == "FAIR":
        mechanism = fair.explicit_fair_mechanism(n, alpha)
    else:
        mechanism = create_mechanism(name, n, alpha)
    assert isinstance(mechanism, ClosedFormMechanism)
    return mechanism


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", NAMES)
def test_closed_form_releases(name, n, alpha):
    mechanism = _closed_form(name, n, alpha)
    reference = reference_closed_form(mechanism)
    for j in sorted({0, 1, n // 2, n - 1, n}):
        assert np.array_equal(mechanism._column(j), reference._column(j)), f"column {j}"
    _assert_same_releases(mechanism, reference, seed=n)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [size for size in SIZES if size <= 257])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_dense_and_sparse_twins(kind, n, alpha):
    ours = geometric.geometric_matrix(n, alpha)
    theirs = geometric_matrix(n, alpha)
    assert np.array_equal(ours, theirs)
    if kind == "dense":
        mechanism = DenseMechanism(ours, alpha=alpha)
        reference = DenseMechanism(theirs, alpha=alpha)
    else:
        mechanism = SparseMechanism(sparse.csc_matrix(ours), alpha=alpha)
        reference = SparseMechanism(sparse.csc_matrix(theirs), alpha=alpha)
    _assert_same_releases(mechanism, reference, seed=n + 1)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("name", ["GM", "EM", "STAIRCASE"])
def test_bisection_regime(name, alpha, monkeypatch):
    # STAIRCASE's factory streams every column pair for max_alpha, which is
    # O(n^2) near α = 1; sampling never reads it, so skip it here.
    monkeypatch.setattr(ClosedFormMechanism, "_max_alpha_streaming", lambda self: alpha)
    mechanism = create_mechanism(name, LARGE_N, alpha)
    reference = reference_closed_form(mechanism)
    assert not mechanism._inverts_column_cdfs()
    n = LARGE_N
    for j in (0, 1, 620, 7073, 7074, n // 2, n - 7074, n - 1, n):
        assert np.array_equal(mechanism._column(j), reference._column(j)), f"column {j}"
    rng = np.random.default_rng(3)
    i, j = rng.integers(-1, n + 1, size=4096), rng.integers(0, n + 1, size=4096)
    assert np.array_equal(mechanism.spec.cdf_fn(i, j), reference.spec.cdf_fn(i, j))

    counts = np.concatenate([rng.integers(0, n + 1, size=2000), np.repeat([0, 1, n - 1, n], 4)])
    uniforms = np.concatenate([rng.random(2000), np.tile(EDGE_UNIFORMS, 4)])
    assert np.array_equal(
        mechanism.sample_with_uniforms(counts, uniforms),
        reference.sample_with_uniforms(counts, uniforms),
    )
    assert np.array_equal(
        mechanism.sample_batch(counts, rng=np.random.default_rng(4)),
        reference.sample_batch(counts, rng=np.random.default_rng(4)),
    )


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_degenerate_alphas(n, alpha):
    """GM and EM branch on α ∈ {0, 1} before reading any power."""
    assert np.array_equal(geometric.geometric_matrix(n, alpha), geometric_matrix(n, alpha))
    assert np.array_equal(fair.fair_matrix(n, alpha), fair_matrix(n, alpha))
    i, j = np.meshgrid(np.arange(-1, n + 1), np.arange(n + 1))
    gm = create_mechanism("GM", n, alpha)
    assert np.array_equal(gm.spec.cdf_fn(i, j), _geometric_cdf(n, alpha, i, j))
    em = create_mechanism("EM", n, alpha)
    assert np.array_equal(em.spec.cdf_fn(i, j), _fair_cdf(n, alpha, em_diagonal(n, alpha), i, j))

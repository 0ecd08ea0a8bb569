"""The column-CDF table: one exact sampler for every representation.

Within ``EXACT_SAMPLING_LIMIT``, ``Mechanism.column_cdfs`` is the one
sampling structure: ``_inverse_sample`` answers a batch with one vectorised
search over it, filling the rows the batch needs on first use, and the
guide-table sampler reads the same array.  Above the limit, mechanisms
without an analytic CDF build the rows a batch needs, a block at a time.
These tests pin

* bit-identity with the samplers it replaced (``tests/_reference.py``): the
  per-column LRU of the closed-form and sparse backends and the dense
  backend's bulk-built table with its offset ``searchsorted``, through
  ``sample``, ``sample_with_uniforms``, ``sample_batch`` and
  ``sample_tiled`` (guide path included), on random and edge uniforms;
* that a plan builds each column's CDF at most once, only for the columns
  its traffic touches, and that design-only paths never reserve a table;
* that there is one ``size^2`` array per mechanism, and none above the
  limit.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference import ColumnLRUSampler, bulk_column_cdfs, reference_inverse_sample
from scipy import sparse

from repro.core import mechanism as mechanism_module
from repro.core.mechanism import ClosedFormMechanism, DenseMechanism, Mechanism, SparseMechanism
from repro.engine.plan import ReleasePlan
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.registry import create_mechanism
from repro.serving.cache import DesignCache

#: Uniforms at the edges of [0, 1): zero, a subnormal-adjacent tiny value,
#: an exact half and the largest double below one.
EDGE_UNIFORMS = np.array([0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0)])

CLOSED_FORMS = ["GM", "UM", "NRR", "STAIRCASE", "FAIR"]
ALPHAS = [0.3, 0.9]


def _closed_form(name: str, n: int, alpha: float) -> ClosedFormMechanism:
    if name == "FAIR":
        mechanism = explicit_fair_mechanism(n, alpha)
    else:
        mechanism = create_mechanism(name, n, alpha)
    assert isinstance(mechanism, ClosedFormMechanism)
    return mechanism


def _twin(kind: str, n: int, alpha: float):
    matrix = create_mechanism("GM", n, alpha).matrix.copy()
    if kind == "dense":
        return DenseMechanism(matrix, alpha=alpha)
    return SparseMechanism(sparse.csc_matrix(matrix), alpha=alpha)


def _banded_sparse(n: int) -> SparseMechanism:
    """A tridiagonal sparse mechanism: O(n) storage at any ``n``."""
    main = np.full(n + 1, 0.5)
    main[[0, n]] = 0.75
    matrix = sparse.diags([np.full(n, 0.25), main, np.full(n, 0.25)], [-1, 0, 1])
    return SparseMechanism(matrix.tocsc(), alpha=0.5)


def _batch(n: int, seed: int, size: int = 2000):
    """Random counts and uniforms, then every count against every edge uniform."""
    rng = np.random.default_rng(seed)
    every = np.arange(n + 1)
    counts = np.concatenate([rng.integers(0, n + 1, size=size), np.repeat(every, 4)])
    uniforms = np.concatenate([rng.random(size), np.tile(EDGE_UNIFORMS, n + 1)])
    return counts, uniforms


def _guide_repetitions(mechanism, batch: int) -> int:
    """Repetitions that make ``sample_tiled`` take the guide path."""
    return mechanism.size * mechanism.GUIDE_BINS // 4 // batch + 1


def _assert_identical(mechanism, seed: int) -> None:
    n = mechanism.n
    counts, uniforms = _batch(n, seed)
    expected = reference_inverse_sample(mechanism, counts, uniforms)
    assert np.array_equal(mechanism.sample_with_uniforms(counts, uniforms), expected)

    batch = mechanism.sample_batch(counts, rng=np.random.default_rng(seed))
    drawn = np.random.default_rng(seed).random(counts.shape[0])
    assert np.array_equal(batch, reference_inverse_sample(mechanism, counts, drawn))

    repetitions = 3
    if mechanism.size <= mechanism.GUIDE_SIZE_LIMIT:
        repetitions = _guide_repetitions(mechanism, counts.shape[0])
    tiled = mechanism.sample_tiled(counts, repetitions, rng=np.random.default_rng(seed + 1))
    drawn = np.random.default_rng(seed + 1).random(repetitions * counts.shape[0])
    expected = reference_inverse_sample(mechanism, np.tile(counts, repetitions), drawn)
    assert np.array_equal(tiled.ravel(), expected)

    for j in (0, n // 2, n):
        scalar = mechanism.sample(j, rng=np.random.default_rng(seed + 2), size=50)
        drawn = np.random.default_rng(seed + 2).random(50)
        assert np.array_equal(scalar, reference_inverse_sample(mechanism, np.full(50, j), drawn))


class TestIdentityWithReferences:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [1, 2, 40, 1000, 2048])
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_closed_forms(self, name, n, alpha):
        mechanism = _closed_form(name, n, alpha)
        assert n <= ClosedFormMechanism.EXACT_SAMPLING_LIMIT
        _assert_identical(mechanism, seed=n)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [1, 2, 40, 257])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_dense_and_sparse_twins(self, kind, n, alpha):
        mechanism = _twin(kind, n, alpha)
        _assert_identical(mechanism, seed=n + 1)

    @pytest.mark.parametrize("n", [40, 257])
    def test_guide_path_is_taken(self, n):
        for mechanism in (_closed_form("GM", n, 0.9), _twin("sparse", n, 0.9)):
            batch = _batch(n, seed=0)[0].shape[0]
            assert mechanism._use_guide(_guide_repetitions(mechanism, batch) * batch)

    @pytest.mark.parametrize("kind", ["closed-form", "dense", "sparse"])
    def test_table_rows_are_the_per_column_cdfs(self, kind):
        if kind == "closed-form":
            mechanism = _closed_form("GM", 40, 0.62)
        else:
            mechanism = _twin(kind, 40, 0.62)
        reference = ColumnLRUSampler(mechanism)
        table = mechanism.column_cdfs()
        assert table.shape == (41, 41) and table.flags.c_contiguous
        for j in range(41):
            assert np.array_equal(table[j], reference.column_cdf(j)), f"row {j}"
            assert table[j, -1] == 1.0
        assert np.array_equal(table, bulk_column_cdfs(mechanism.matrix))

    @pytest.mark.parametrize("n", [2049, 5000])
    def test_sparse_above_the_limit(self, n, monkeypatch):
        mechanism = _banded_sparse(n)
        assert n > mechanism.EXACT_SAMPLING_LIMIT
        widths = []
        cdf_rows = Mechanism._cdf_rows

        def recording(self, columns):
            widths.append(columns.shape[0])
            return cdf_rows(self, columns)

        monkeypatch.setattr(Mechanism, "_cdf_rows", recording)
        _assert_identical(mechanism, seed=n)
        assert "_cdf_table" not in mechanism.__dict__
        assert max(widths) <= mechanism.BLOCK_COLUMNS


def _count_column_builds(monkeypatch) -> list:
    calls = []
    column = ClosedFormMechanism._column

    def counted(self, j):
        calls.append(j)
        return column(self, j)

    monkeypatch.setattr(ClosedFormMechanism, "_column", counted)
    return calls


class TestOneTableBuiltOnce:
    def test_plan_builds_each_touched_column_once(self, monkeypatch):
        calls = _count_column_builds(monkeypatch)
        plan = ReleasePlan.compile(1000, 0.9)
        mechanism = plan.mechanism
        assert isinstance(mechanism, ClosedFormMechanism) and mechanism.n == 1000
        assert calls == []  # compiling reserves the table and builds no column
        rng = np.random.default_rng(5)
        served = set()
        for _ in range(8):
            counts = rng.integers(0, 1001, size=1024)
            served.update(counts.tolist())
            plan.execute_with_uniforms(counts, rng.random(1024))
            assert sorted(calls) == sorted(served)
        assert len(calls) == 1001

    def test_plan_builds_only_the_columns_its_traffic_touches(self, monkeypatch):
        calls = _count_column_builds(monkeypatch)
        plan = ReleasePlan.compile(2048, 0.9)
        counts = np.array([3, 70, 70, 3, 2000] * 100)
        for seed in range(4):
            plan.execute(counts, rng=np.random.default_rng(seed))
        assert sorted(calls) == [3, 70, 2000]

    def test_first_scalar_draw_builds_one_column(self, monkeypatch):
        calls = _count_column_builds(monkeypatch)
        mechanism = create_mechanism("GM", 1000, 0.9)
        mechanism.sample(3, rng=np.random.default_rng(0))
        mechanism.sample(3, rng=np.random.default_rng(1), size=10)
        assert calls == [3]

    @pytest.mark.parametrize("kind", ["closed-form", "sparse"])
    def test_guide_kernel_reads_the_table_itself(self, kind, monkeypatch):
        mechanism = _closed_form("GM", 40, 0.9) if kind == "closed-form" else _twin(kind, 40, 0.9)
        seen = []
        search_rows = mechanism_module._search_rows

        def recording_search(table, rows, uniforms):
            seen.append(table)
            return search_rows(table, rows, uniforms)

        monkeypatch.setattr(mechanism_module, "_search_rows", recording_search)
        counts = np.random.default_rng(1).integers(0, 41, size=1000)
        mechanism.sample_tiled(counts, 50, rng=np.random.default_rng(2))
        # The guide answered the batch, and its bin-boundary fallback
        # searched the same table the guide was built from.
        assert "_guide" in mechanism.__dict__
        assert len(seen) == 1
        assert seen[0] is mechanism.column_cdfs()

    def test_bisection_regime_builds_no_table(self):
        mechanism = create_mechanism("GM", 2 * ClosedFormMechanism.EXACT_SAMPLING_LIMIT, 0.9)
        plan = ReleasePlan.from_mechanism(mechanism)
        plan.execute(np.arange(0, mechanism.n, 97), rng=np.random.default_rng(0))
        assert "_cdf_table" not in mechanism.__dict__

    def test_design_only_paths_build_no_table(self):
        for properties in ((), ("WH", "CM")):
            mechanism, _ = DesignCache().get_or_design(12, 0.9, properties=properties)
            assert "_cdf_table" not in mechanism.__dict__

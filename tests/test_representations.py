"""Representation-equivalence tests: dense vs closed-form vs sparse.

The refactor's contract is that a mechanism's representation is an
implementation detail: property verdicts, privacy level, losses and — most
strictly — *sampled outputs on a shared uniform stream* must be identical
across the dense, closed-form and sparse backends.  This module proves that
contract over a grid of (n, α) settings for every registry mechanism.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from _reference import max_alpha_loop
from scipy import sparse

import repro
from repro.core.constraints import build_mechanism_lp
from repro.core.design import design_mechanism, solve_mechanism_lp
from repro.core.losses import Objective, l0_score, l1_score, objective_value, per_input_loss
from repro.core.mechanism import (
    ClosedFormMechanism,
    DenseMechanism,
    Mechanism,
    SparseMechanism,
)
from repro.core.properties import check_all_properties, satisfies_differential_privacy
from repro.core.selector import choose_mechanism
from repro.lp.solver import solve
from repro.mechanisms.registry import (
    CLOSED_FORM_MECHANISMS,
    available_mechanisms,
    create_mechanism,
    is_closed_form,
)

#: (n, alpha) grid for the parity tests: odd/even n, tiny groups, the
#: lemma thresholds (α = 0.5), strong/weak privacy and both degenerations.
PARITY_GRID = [
    (1, 0.0), (1, 0.5), (1, 0.9), (1, 1.0),
    (2, 0.3), (2, 0.62), (2, 1.0),
    (3, 0.5), (3, 0.51), (3, 0.9),
    (4, 0.0), (4, 0.9),
    (7, 0.25), (7, 0.62), (7, 0.99),
    (8, 0.5), (8, 0.91),
    (12, 0.67), (15, 0.99), (16, 0.05),
]

#: Settings where every factory (including LAPLACE/STAIRCASE, which reject
#: α ∈ {0, 1}) can be built.
INTERIOR_GRID = [(n, a) for n, a in PARITY_GRID if 0.0 < a < 1.0]


def _dense_twin(mechanism: Mechanism) -> Mechanism:
    """A dense mechanism with bit-identical columns to the given one."""
    return DenseMechanism(
        mechanism.matrix.copy(), name=mechanism.name, alpha=mechanism.alpha
    )


def _sparse_twin(mechanism: Mechanism) -> SparseMechanism:
    """A CSC mechanism with bit-identical non-zero columns to the given one."""
    return SparseMechanism(
        sparse.csc_matrix(mechanism.matrix), name=mechanism.name, alpha=mechanism.alpha
    )


class TestClosedFormFactories:
    def test_registry_marks_closed_forms(self):
        assert set(CLOSED_FORM_MECHANISMS) == {"GM", "EM", "UM", "NRR", "STAIRCASE"}
        for name in available_mechanisms():
            assert is_closed_form(name) == (name in CLOSED_FORM_MECHANISMS)

    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR"])
    def test_factories_return_closed_form_without_densifying(self, name):
        before = Mechanism.densifications
        mechanism = create_mechanism(name, 64, 0.9)
        assert isinstance(mechanism, ClosedFormMechanism)
        assert mechanism.representation == "closed-form"
        assert not mechanism.is_dense
        assert mechanism.storage_bytes() == 0
        assert Mechanism.densifications == before
        # Touching .matrix is the only thing that materialises it.
        _ = mechanism.matrix
        assert Mechanism.densifications == before + 1
        assert mechanism.storage_bytes() > 0

    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR", "STAIRCASE"])
    @pytest.mark.parametrize("n,alpha", [(5, 0.3), (8, 0.9)])
    def test_interface_matches_matrix(self, name, n, alpha):
        mechanism = create_mechanism(name, n, alpha)
        matrix = mechanism.matrix
        for j in range(n + 1):
            assert np.array_equal(mechanism.column(j), matrix[:, j])
        assert np.array_equal(mechanism.diagonal, np.diag(matrix))
        assert mechanism.prob(0, n) == matrix[0, n]
        assert mechanism.trace == pytest.approx(float(np.trace(matrix)))


class TestPropertyParity:
    """All 7 structural properties agree across representations (satellite)."""

    @pytest.mark.parametrize("n,alpha", PARITY_GRID)
    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR"])
    def test_closed_form_and_sparse_agree_with_dense(self, name, n, alpha):
        mechanism = create_mechanism(name, n, alpha)
        dense = _dense_twin(mechanism)
        sparse_twin = _sparse_twin(mechanism)
        expected = check_all_properties(dense)
        assert check_all_properties(mechanism) == expected, (name, n, alpha)
        assert check_all_properties(sparse_twin) == expected, (name, n, alpha)

    @pytest.mark.parametrize("n,alpha", INTERIOR_GRID)
    @pytest.mark.parametrize("name", ["STAIRCASE", "EXP", "LAPLACE"])
    def test_remaining_registry_mechanisms_agree(self, name, n, alpha):
        mechanism = create_mechanism(name, n, alpha)
        dense = _dense_twin(mechanism)
        expected = check_all_properties(dense)
        assert check_all_properties(mechanism) == expected, (name, n, alpha)
        assert check_all_properties(_sparse_twin(mechanism)) == expected, (name, n, alpha)

    @pytest.mark.parametrize("n,alpha", [(6, 0.9), (8, 0.76)])
    def test_wm_sparse_agrees_with_dense(self, n, alpha):
        lp = build_mechanism_lp(
            n=n, alpha=alpha, properties=repro.parse_properties("WH+CM+RM+S"),
            objective=Objective.l0(),
        )
        solution = solve(lp.program)
        dense = Mechanism(lp.matrix_from_values(solution.values), name="WM")
        sparse_wm = SparseMechanism(lp.sparse_matrix_from_values(solution.values), name="WM")
        assert sparse_wm.nnz <= (n + 1) ** 2
        assert np.allclose(sparse_wm.matrix, dense.matrix, atol=1e-12)
        assert check_all_properties(sparse_wm) == check_all_properties(dense)

    def test_unconstrained_optimum_is_genuinely_sparse(self):
        # The Figure-1 unconstrained L1 design has gaps (zero rows) and
        # spikes: most of the matrix is structurally zero, which is exactly
        # what CSC storage exploits.
        objective = Objective.l1()
        mechanism = design_mechanism(
            8, 0.9, properties=(), objective=objective, representation="sparse"
        )
        assert isinstance(mechanism, SparseMechanism)
        assert mechanism.nnz < 0.5 * mechanism.size**2
        dense = design_mechanism(8, 0.9, properties=(), objective=objective)
        assert mechanism.allclose(dense, tolerance=1e-12)

    @pytest.mark.parametrize("n,alpha", PARITY_GRID)
    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR"])
    def test_max_alpha_and_dp_parity(self, name, n, alpha):
        mechanism = create_mechanism(name, n, alpha)
        dense = _dense_twin(mechanism)
        assert mechanism.max_alpha() == pytest.approx(dense.max_alpha(), abs=1e-12)
        probe = min(1.0, mechanism.max_alpha())
        assert satisfies_differential_privacy(mechanism, probe) == (
            satisfies_differential_privacy(dense, probe)
        )


class TestSamplingIdentity:
    """Bit-identical samples on a shared uniform stream (satellite)."""

    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR", "STAIRCASE"])
    @pytest.mark.parametrize("n,alpha", [(12, 0.9), (64, 0.62), (130, 0.3)])
    def test_closed_form_matches_dense_stream(self, name, n, alpha):
        mechanism = create_mechanism(name, n, alpha)
        dense = _dense_twin(mechanism)
        counts = np.random.default_rng(3).integers(0, n + 1, size=20_000)
        ours = mechanism.sample_batch(counts, rng=np.random.default_rng(7))
        theirs = dense.sample_batch(counts, rng=np.random.default_rng(7))
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("name", ["GM", "EM"])
    def test_closed_form_matches_dense_stream_n512(self, name):
        n = 512
        mechanism = create_mechanism(name, n, 0.95)
        dense = _dense_twin(mechanism)
        counts = np.random.default_rng(1).integers(0, n + 1, size=50_000)
        ours = mechanism.sample_batch(counts, rng=np.random.default_rng(2018))
        theirs = dense.sample_batch(counts, rng=np.random.default_rng(2018))
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("n,alpha", [(9, 0.8), (40, 0.95)])
    def test_sparse_matches_dense_stream(self, n, alpha):
        wm = design_mechanism(n, alpha, properties="WH+CM+S", representation="sparse")
        dense = _dense_twin(wm)
        counts = np.random.default_rng(5).integers(0, n + 1, size=20_000)
        assert np.array_equal(
            wm.sample_batch(counts, rng=np.random.default_rng(11)),
            dense.sample_batch(counts, rng=np.random.default_rng(11)),
        )

    @pytest.mark.parametrize("name", ["GM", "EM", "NRR"])
    def test_scalar_and_batch_interchangeable(self, name):
        mechanism = create_mechanism(name, 17, 0.85)
        counts = np.random.default_rng(0).integers(0, 18, size=500)
        batch = mechanism.sample_batch(counts, rng=np.random.default_rng(42))
        rng = np.random.default_rng(42)
        scalar = np.array([mechanism.sample(int(c), rng=rng) for c in counts])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR", "STAIRCASE"])
    def test_analytic_inversion_matches_exact_columns(self, name, monkeypatch):
        """The large-n analytic sampler equals the exact column sampler."""
        n, alpha = 600, 0.97
        mechanism = create_mechanism(name, n, alpha)
        counts = np.random.default_rng(8).integers(0, n + 1, size=30_000)
        exact = mechanism.sample_batch(counts, rng=np.random.default_rng(13))
        monkeypatch.setattr(ClosedFormMechanism, "EXACT_SAMPLING_LIMIT", 16)
        analytic = create_mechanism(name, n, alpha).sample_batch(counts, rng=np.random.default_rng(13))
        assert np.array_equal(exact, analytic)

    def test_large_n_sampling_distribution(self):
        n = 50_000
        gm = repro.geometric_mechanism(n, 0.9)
        before = Mechanism.densifications
        draws = gm.sample_batch(np.full(200_000, n // 2), rng=np.random.default_rng(0))
        assert Mechanism.densifications == before  # no matrix was built
        # Two-sided geometric noise around the true count.
        offsets = draws - n // 2
        assert abs(float(np.mean(offsets))) < 0.1
        expected_zero = (1 - 0.9) / (1 + 0.9)
        assert np.mean(offsets == 0) == pytest.approx(expected_zero, abs=5e-3)


class TestMaxAlphaVectorisation:
    """Satellite: the vectorised max_alpha equals the per-entry loop."""

    def test_matches_loop_on_named_mechanisms(self):
        for name in ("GM", "EM", "UM", "NRR", "EXP", "LAPLACE"):
            mechanism = create_mechanism(name, 9, 0.8)
            assert DenseMechanism(mechanism.matrix.copy()).max_alpha() == pytest.approx(
                max_alpha_loop(mechanism.matrix), abs=0
            ), name

    def test_matches_loop_on_random_and_degenerate_matrices(self):
        rng = np.random.default_rng(2018)
        for trial in range(25):
            raw = rng.random((6, 6)) + 0.01
            if trial % 3 == 0:  # plant zeros to exercise the 0/0 and x/0 branches
                raw[rng.integers(0, 6, size=4), rng.integers(0, 6, size=4)] = 0.0
            matrix = raw / raw.sum(axis=0, keepdims=True)
            mechanism = Mechanism(matrix)
            assert mechanism.max_alpha() == max_alpha_loop(matrix), trial
        assert Mechanism(np.eye(4)).max_alpha() == max_alpha_loop(np.eye(4)) == 0.0

    def test_streaming_matches_loop(self):
        wm = design_mechanism(10, 0.9, properties="WH+CM", representation="sparse")
        assert wm.max_alpha() == pytest.approx(max_alpha_loop(wm.matrix), abs=1e-15)


class TestLossParity:
    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR"])
    def test_losses_never_densify_and_match_dense(self, name):
        mechanism = create_mechanism(name, 40, 0.88)
        dense = _dense_twin(mechanism)
        before = Mechanism.densifications
        assert l0_score(mechanism) == pytest.approx(l0_score(dense), abs=1e-12)
        assert l1_score(mechanism) == pytest.approx(l1_score(dense), abs=1e-10)
        assert objective_value(mechanism, Objective.minimax(2.0)) == pytest.approx(
            objective_value(dense, Objective.minimax(2.0)), abs=1e-10
        )
        assert np.allclose(
            per_input_loss(mechanism, Objective.l1()),
            per_input_loss(dense, Objective.l1()),
            atol=1e-10,
        )
        assert Mechanism.densifications == before

    def test_moments_match_dense(self):
        mechanism = repro.explicit_fair_mechanism(33, 0.7)
        dense = _dense_twin(mechanism)
        before = Mechanism.densifications
        assert np.allclose(mechanism.expected_output(), dense.expected_output())
        assert np.allclose(mechanism.output_variance(), dense.output_variance())
        assert np.allclose(mechanism.bias(), dense.bias())
        assert mechanism.truth_probability() == pytest.approx(dense.truth_probability())
        assert Mechanism.densifications == before


class TestSerialisationDescriptors:
    @pytest.mark.parametrize("name", ["GM", "EM", "UM", "NRR", "STAIRCASE"])
    def test_closed_form_round_trip(self, name):
        mechanism = create_mechanism(name, 200, 0.9)
        payload = mechanism.to_dict()
        assert payload["representation"] == "closed-form"
        assert "matrix" not in payload
        assert len(mechanism.to_json()) < 2_000  # descriptor, not a dense blob
        clone = Mechanism.from_dict(payload)
        assert isinstance(clone, ClosedFormMechanism)
        assert clone.name == mechanism.name
        assert clone.alpha == mechanism.alpha
        counts = np.arange(0, 201, 7)
        assert np.array_equal(
            clone.sample_batch(counts, rng=np.random.default_rng(3)),
            mechanism.sample_batch(counts, rng=np.random.default_rng(3)),
        )

    def test_sparse_round_trip(self):
        wm = design_mechanism(8, 0.9, properties="WH+CM+S", representation="sparse")
        payload = wm.to_dict()
        assert payload["representation"] == "sparse"
        assert "matrix" not in payload
        clone = Mechanism.from_json(wm.to_json())
        assert isinstance(clone, SparseMechanism)
        assert clone.nnz == wm.nnz
        assert clone.allclose(wm, tolerance=0)

    def test_dense_payloads_still_load(self):
        gm = repro.geometric_mechanism(5, 0.8)
        dense_payload = _dense_twin(gm).to_dict()
        clone = Mechanism.from_dict(dense_payload)
        assert clone.is_dense
        assert clone.allclose(gm)

    def test_closed_form_pickles_via_descriptor(self):
        import pickle

        mechanism = repro.nary_randomized_response(30, 0.7)
        clone = pickle.loads(pickle.dumps(mechanism))
        assert isinstance(clone, ClosedFormMechanism)
        assert clone.allclose(mechanism)


class TestSelectorAndCacheRepresentations:
    def test_selector_explicit_branches_never_build_a_matrix(self):
        before = Mechanism.densifications
        gm, gm_decision = choose_mechanism(4096, 0.9, properties="RM")
        em, em_decision = choose_mechanism(4096, 0.9, properties="F")
        assert (gm_decision.branch, em_decision.branch) == ("GM", "EM")
        assert isinstance(gm, ClosedFormMechanism)
        assert isinstance(em, ClosedFormMechanism)
        assert Mechanism.densifications == before

    def test_selector_wm_branch_returns_sparse(self):
        wm, decision = choose_mechanism(6, 0.9, properties="WH+CM")
        assert decision.branch == "WM[WH+CM]"
        assert isinstance(wm, SparseMechanism)
        assert wm.metadata["representation"] == "sparse"
        dense_wm, _ = choose_mechanism(6, 0.9, properties="WH+CM", representation="dense")
        assert dense_wm.is_dense
        assert wm.allclose(dense_wm, tolerance=1e-12)

    def test_cache_stores_descriptors_not_dense_blobs(self, tmp_path):
        cache = repro.DesignCache(directory=tmp_path)
        cache.get_or_design(500, 0.9, properties="F")
        cache.get_or_design(6, 0.9, properties="WH+CM")
        for path in tmp_path.glob("design-*.json"):
            entry = path.read_text()
            assert len(entry) < 50_000
            assert '"matrix"' not in entry
        # A cold cache rebuilds the right representations from disk.
        cold = repro.DesignCache(directory=tmp_path)
        em, _ = cold.get_or_design(500, 0.9, properties="F")
        wm, _ = cold.get_or_design(6, 0.9, properties="WH+CM")
        assert isinstance(em, ClosedFormMechanism)
        assert isinstance(wm, SparseMechanism)

    def test_session_serves_closed_forms_without_densifying(self):
        session = repro.BatchReleaseSession(rng=np.random.default_rng(0))
        before = Mechanism.densifications
        released = session.release_counts(
            np.random.default_rng(1).integers(0, 5001, size=10_000),
            n=5000,
            alpha=0.9,
            properties="F",
        )
        assert released.shape == (10_000,)
        assert Mechanism.densifications == before


class TestCacheCorruptionRecovery:
    """Satellite: a corrupt registry row is a miss, not an error."""

    def _only_key(self, tmp_path):
        from repro.serving import PlanRegistry

        with_registry = PlanRegistry(tmp_path)
        (key,) = with_registry.keys()
        with_registry.close()
        return key

    def test_corrupted_row_resolves_and_overwrites(self, tmp_path):
        cache = repro.DesignCache(directory=tmp_path)
        cache.get_or_design(4, 0.9, properties="F")
        key = self._only_key(tmp_path)
        cache.registry.corrupt_row(key)  # deliberately bad checksum
        cache.close()

        fresh = repro.DesignCache(directory=tmp_path)
        mechanism, decision = fresh.get_or_design(4, 0.9, properties="F")
        assert mechanism.metadata["design_cache"] == "solve"
        assert decision.branch == "EM"
        assert fresh.stats().misses == 1 and fresh.stats().disk_hits == 0
        assert fresh.stats().corrupt_rows == 1
        fresh.close()
        # The bad row was overwritten: the next cold cache loads it cleanly.
        reloaded, _ = repro.DesignCache(directory=tmp_path).get_or_design(
            4, 0.9, properties="F"
        )
        assert reloaded.metadata["design_cache"] == "disk"

    def test_valid_json_with_broken_schema_is_a_miss(self, tmp_path):
        cache = repro.DesignCache(directory=tmp_path)
        cache.get_or_design(4, 0.9, properties="F")
        key = self._only_key(tmp_path)
        cache.registry.put(key, {"key": key, "mechanism": {"bogus": True}})
        cache.clear()  # drop the memory tier so the bad row is read back
        mechanism, _ = cache.get_or_design(4, 0.9, properties="F")
        assert mechanism.metadata["design_cache"] == "solve"

    def test_unmaterialisable_payload_is_dropped_and_resolved(self, tmp_path):
        cache = repro.DesignCache(directory=tmp_path)
        cache.get_or_design(4, 0.9, properties="F")
        key = self._only_key(tmp_path)
        payload = cache.registry.get(key)
        payload["mechanism"] = {"representation": "closed-form", "factory": "GM"}  # no n
        cache.registry.put(key, payload)
        cache.clear()
        mechanism, _ = cache.get_or_design(4, 0.9, properties="F")
        assert mechanism.metadata["design_cache"] == "solve"
        assert mechanism.name == "EM"

"""Tests for post-processing transformations (repro.core.transformations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.losses import Objective, l0_score, l1_score, objective_value
from repro.core.theory import gupte_sundararajan_derivable
from repro.core.transformations import derive_from_geometric, optimal_remap, post_process
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.uniform import uniform_mechanism


class TestPostProcess:
    def test_identity_remap_is_a_no_op(self, gm_small):
        processed = post_process(gm_small, np.eye(gm_small.size))
        assert processed.allclose(gm_small)
        assert processed.metadata["post_processed_from"] == "GM"

    def test_constant_remap_destroys_information_but_not_privacy(self, gm_small):
        # Map every base output to a uniform release: the composite is UM.
        remap = np.full((gm_small.size, gm_small.size), 1.0 / gm_small.size)
        processed = post_process(gm_small, remap)
        assert processed.allclose(uniform_mechanism(gm_small.n))
        assert processed.max_alpha() == pytest.approx(1.0)

    def test_post_processing_never_weakens_privacy(self, rng):
        gm = geometric_mechanism(5, 0.8)
        # Random column-stochastic remap.
        raw = rng.random((6, 6)) + 0.01
        remap = raw / raw.sum(axis=0, keepdims=True)
        processed = post_process(gm, remap)
        assert processed.max_alpha() >= gm.max_alpha() - 1e-9

    def test_remap_validation(self, gm_small):
        with pytest.raises(ValueError):
            post_process(gm_small, np.ones((2, gm_small.size)))  # wrong output range
        bad_columns = np.eye(gm_small.size) * 0.5
        with pytest.raises(ValueError):
            post_process(gm_small, bad_columns)  # columns do not sum to one
        negative = np.eye(gm_small.size)
        negative[0, 1] = -0.5
        negative[1, 1] = 1.5
        with pytest.raises(ValueError):
            post_process(gm_small, negative)


class TestOptimalRemap:
    def test_uniform_prior_l0_keeps_gm_optimal(self):
        # Theorem 3: GM is already optimal, so the best remap cannot improve it
        # and the derived mechanism has the same L0 score.
        n, alpha = 5, 0.7
        derived = derive_from_geometric(n, alpha)
        assert l0_score(derived) == pytest.approx(l0_score(geometric_mechanism(n, alpha)), abs=1e-7)

    def test_skewed_prior_improves_expected_loss(self):
        n, alpha = 6, 0.8
        prior = np.array([0.7, 0.1, 0.05, 0.05, 0.05, 0.03, 0.02])
        objective = Objective(p=0, weights=prior)
        gm = geometric_mechanism(n, alpha)
        derived = derive_from_geometric(n, alpha, objective=objective)
        assert objective_value(derived, objective) <= objective_value(gm, objective) + 1e-9

    def test_derived_mechanism_is_dp_and_gs_derivable(self):
        n, alpha = 5, 0.8
        prior = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
        derived = derive_from_geometric(n, alpha, objective=Objective(p=1, weights=prior))
        assert derived.max_alpha() >= alpha - 1e-9
        assert gupte_sundararajan_derivable(derived, alpha, tolerance=1e-7)

    def test_em_is_not_reachable_by_remapping_gm(self):
        # The best remap of GM towards EM's own objective still cannot be EM
        # (Section IV-D): EM fails the derivability test, the remap passes it.
        n, alpha = 4, 0.9
        em = explicit_fair_mechanism(n, alpha)
        derived = derive_from_geometric(n, alpha)
        assert not em.allclose(derived)
        assert not gupte_sundararajan_derivable(em, alpha)

    def test_remap_is_column_stochastic(self):
        remap = optimal_remap(geometric_mechanism(4, 0.6), objective=Objective.l1())
        assert remap.shape == (5, 5)
        assert np.allclose(remap.sum(axis=0), 1.0)
        assert remap.min() >= 0.0

    def test_l1_remap_with_point_prior_collapses_to_map_estimate(self):
        # With all prior mass on input 0 the optimal remap releases the value
        # that minimises expected |k - 0| under GM's column 0 - i.e. it pulls
        # everything towards 0, and the composite has tiny L1 loss at j = 0.
        n, alpha = 5, 0.6
        prior = np.zeros(n + 1)
        prior[0] = 1.0
        derived = derive_from_geometric(n, alpha, objective=Objective(p=1, weights=prior))
        per_input = (np.abs(np.arange(n + 1)[:, None] - np.arange(n + 1)[None, :]) * derived.matrix).sum(axis=0)
        assert per_input[0] <= l1_score(geometric_mechanism(n, alpha)) + 1e-9

    def test_minimax_objective_rejected(self):
        with pytest.raises(ValueError):
            optimal_remap(geometric_mechanism(3, 0.5), objective=Objective.minimax())


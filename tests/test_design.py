"""Tests for LP-based mechanism design (repro.core.design).

These cover the paper's structural theorems: the unconstrained L0 optimum is
GM (Theorem 3), the fair optimum matches EM's cost (Theorem 4 / Lemma 4),
constrained optima always satisfy their constraints, and weakly honest
optima lie between GM's and EM's closed-form costs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_mechanism, design_mechanisms, optimal_objective_value
from repro.core.losses import Objective, l0_score, l1_score
from repro.core.properties import (
    ALL_PROPERTIES,
    check_all_properties,
    parse_properties,
    satisfies_all,
)
from repro.core.theory import em_l0_score, gm_l0_score, wm_l0_bounds
from repro.mechanisms.geometric import geometric_mechanism


class TestUnconstrainedDesign:
    @pytest.mark.parametrize("n,alpha", [(3, 0.5), (5, 0.62), (7, 0.62), (4, 0.9)])
    def test_theorem3_unconstrained_l0_optimum_is_gm(self, n, alpha):
        mechanism = design_mechanism(n=n, alpha=alpha, properties=())
        assert l0_score(mechanism) == pytest.approx(gm_l0_score(alpha), abs=1e-7)
        # The optimum is unique (Theorem 3), so the matrix itself matches GM.
        assert np.allclose(mechanism.matrix, geometric_mechanism(n, alpha).matrix, atol=1e-6)

    def test_unconstrained_l1_beats_constrained_l1(self):
        unconstrained = design_mechanism(5, 0.62, properties=(), objective=Objective.l1())
        constrained = design_mechanism(5, 0.62, properties="all", objective=Objective.l1())
        assert l1_score(unconstrained) <= l1_score(constrained) + 1e-9

    def test_metadata_records_provenance(self):
        mechanism = design_mechanism(3, 0.7, properties="WH")
        assert mechanism.metadata["source"] == "lp"
        assert mechanism.metadata["properties"] == ["WH"]
        assert mechanism.metadata["objective"] == "L0 (sum)"
        assert mechanism.metadata["lp_variables"] == 16


class TestConstrainedDesign:
    def test_all_properties_yields_em_cost(self):
        for n, alpha in [(4, 0.9), (7, 0.62), (6, 0.8)]:
            mechanism = design_mechanism(n=n, alpha=alpha, properties="all")
            assert l0_score(mechanism) == pytest.approx(em_l0_score(n, alpha), abs=1e-7)
            assert all(check_all_properties(mechanism, tolerance=1e-6).values())

    def test_fairness_alone_yields_em_cost(self):
        # Theorem 4: the fair optimum achieves the Lemma-4 bound, i.e. EM's cost.
        mechanism = design_mechanism(n=6, alpha=0.85, properties="F")
        assert l0_score(mechanism) == pytest.approx(em_l0_score(6, 0.85), abs=1e-7)

    @pytest.mark.parametrize("properties", ["WH", "WH+CM", "F+S", "RM+CH", "all"])
    def test_requested_properties_always_satisfied(self, properties):
        mechanism = design_mechanism(n=5, alpha=0.88, properties=properties)
        assert satisfies_all(mechanism, parse_properties(properties), tolerance=1e-6)
        assert mechanism.max_alpha() >= 0.88 - 1e-6

    def test_costs_are_monotone_in_constraint_set(self):
        # Adding constraints can only increase the optimal objective value.
        base = optimal_objective_value(5, 0.9, properties="WH")
        more = optimal_objective_value(5, 0.9, properties="WH+CM")
        most = optimal_objective_value(5, 0.9, properties="all")
        assert base <= more + 1e-9 <= most + 2e-9

    def test_constrained_l2_is_not_degenerate(self):
        # Figure 1 vs Figure 2: the unconstrained L2 optimum ignores its input;
        # the constrained one must not (its diagonal is strictly above zero).
        constrained = design_mechanism(7, 0.62, properties="all", objective=Objective.l2())
        assert constrained.diagonal.min() > 0.01


class TestClosedFormOptima:
    @pytest.mark.parametrize("properties", ["WH", "WH+CM"])
    def test_weakly_honest_optimum_between_gm_and_em(self, properties):
        # Section IV-D's sandwich L0(GM) <= L0(LP[WH]) <= L0(EM).
        n, alpha = 4, 0.75
        low, high = wm_l0_bounds(n, alpha)
        value = l0_score(design_mechanism(n, alpha, properties=properties))
        assert low - 1e-7 <= value <= high + 1e-7

    def test_fully_constrained_design_is_valid(self):
        mechanism = design_mechanism(3, 0.9, properties="all")
        assert all(check_all_properties(mechanism, tolerance=1e-6).values())
        assert mechanism.max_alpha() >= 0.9 - 1e-6


class TestWeightedAndMinimaxObjectives:
    def test_point_prior_concentrates_design_effort(self):
        # With all the weight on input 0, the optimal unconstrained mechanism
        # reports 0 for input 0 as often as DP allows - more often than the
        # uniform-prior optimum does.
        weighted = design_mechanism(
            4, 0.7, properties=(), objective=Objective(p=0, weights=[1, 0, 0, 0, 0])
        )
        uniform = design_mechanism(4, 0.7, properties=())
        assert weighted.matrix[0, 0] >= uniform.matrix[0, 0] - 1e-9

    def test_minimax_design_bounds_every_column(self):
        from repro.core.losses import per_input_loss

        mechanism = design_mechanism(4, 0.7, objective=Objective.minimax(p=1))
        losses = per_input_loss(mechanism, Objective.l1())
        assert losses.max() == pytest.approx(
            mechanism.metadata["objective_value"], abs=1e-6
        )

    def test_fair_mechanism_cost_is_prior_independent(self):
        # Lemma 1: under fairness the L0 objective value does not depend on the prior.
        uniform_cost = optimal_objective_value(5, 0.8, properties="F")
        skewed_cost = optimal_objective_value(
            5, 0.8, properties="F", objective=Objective(p=0, weights=[5, 1, 1, 1, 1, 1])
        )
        assert uniform_cost == pytest.approx(skewed_cost, abs=1e-7)


class TestSolveProvenance:
    def test_metadata_records_lp_size_and_timings(self):
        mechanism = design_mechanism(6, 0.8, properties="all")
        metadata = mechanism.metadata
        assert metadata["lp_nonzeros"] > 0
        assert metadata["lp_nonzeros"] >= metadata["lp_constraints"]
        assert metadata["lp_build_seconds"] >= 0.0
        assert metadata["lp_solve_seconds"] >= 0.0

    def test_solve_mechanism_lp_without_build_time_omits_key(self):
        from repro.core.constraints import build_mechanism_lp
        from repro.core.design import solve_mechanism_lp

        mechanism = solve_mechanism_lp(build_mechanism_lp(4, 0.7))
        assert "lp_build_seconds" not in mechanism.metadata
        assert mechanism.metadata["lp_solve_seconds"] >= 0.0


class TestDesignMechanismsBatch:
    SPECS = [
        {"n": 3, "alpha": 0.6},
        {"n": 4, "alpha": 0.8, "properties": "all"},
        {"n": 5, "alpha": 0.7, "properties": "WH+CM"},
    ]

    def test_results_in_input_order(self):
        mechanisms = design_mechanisms(self.SPECS)
        assert [m.n for m in mechanisms] == [3, 4, 5]

    def test_parallel_matches_serial(self):
        serial = design_mechanisms(self.SPECS)
        parallel = design_mechanisms(self.SPECS, max_workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.name == b.name

"""Tests for the LP constraint builder (repro.core.constraints)."""

from __future__ import annotations

import numpy as np
import pytest

from _reference import build_loop_mechanism_lp

from repro.core.constraints import MechanismLPBuilder, build_mechanism_lp
from repro.core.losses import Objective
from repro.core.properties import ALL_PROPERTIES, StructuralProperty, check_all_properties
from repro.core.design import solve_mechanism_lp
from repro.lp.model import ConstraintSense
from repro.lp.solver import solve


class TestBuilderStructure:
    def test_variable_grid_size(self):
        builder = MechanismLPBuilder(n=4, alpha=0.7)
        assert builder.program.num_variables == 25
        assert len(builder.variables) == 5
        assert all(len(row) == 5 for row in builder.variables)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MechanismLPBuilder(n=0, alpha=0.5)
        with pytest.raises(ValueError):
            MechanismLPBuilder(n=4, alpha=1.5)

    def test_basic_dp_constraint_counts(self):
        n = 4
        builder = MechanismLPBuilder(n=n, alpha=0.7)
        builder.add_basic_dp()
        size = n + 1
        # column sums + two DP inequalities per (row, adjacent column pair)
        expected = size + 2 * size * n
        assert builder.program.num_constraints == expected

    def test_basic_dp_added_once(self):
        builder = MechanismLPBuilder(n=3, alpha=0.5)
        builder.add_basic_dp()
        count = builder.program.num_constraints
        builder.add_basic_dp()
        assert builder.program.num_constraints == count

    def test_property_added_once(self):
        builder = MechanismLPBuilder(n=3, alpha=0.5)
        builder.add_property("WH")
        count = builder.program.num_constraints
        builder.add_property(StructuralProperty.WEAK_HONESTY)
        assert builder.program.num_constraints == count

    def test_symmetry_constraints_are_equalities(self):
        builder = MechanismLPBuilder(n=3, alpha=0.5)
        builder.add_property("S")
        senses = {c.sense for c in builder.program.constraints if c.name.startswith("symmetry")}
        assert senses == {ConstraintSense.EQ}

    def test_build_installs_defaults(self):
        mechanism_lp = MechanismLPBuilder(n=3, alpha=0.5).build()
        assert mechanism_lp.objective.describe() == "L0 (sum)"
        assert mechanism_lp.program.num_constraints > 0

    def test_minimax_objective_adds_auxiliary_variable(self):
        builder = MechanismLPBuilder(n=3, alpha=0.5)
        builder.add_basic_dp()
        builder.set_objective(Objective.minimax(p=1))
        mechanism_lp = builder.build()
        assert mechanism_lp.auxiliary is not None
        assert mechanism_lp.program.num_variables == 16 + 1


class TestSolvedConstraints:
    @pytest.mark.parametrize("prop", [p.value for p in ALL_PROPERTIES])
    def test_each_property_is_enforced_by_its_constraints(self, prop):
        mechanism_lp = build_mechanism_lp(n=4, alpha=0.8, properties=[prop])
        mechanism = solve_mechanism_lp(mechanism_lp)
        report = check_all_properties(mechanism, tolerance=1e-6)
        assert report[StructuralProperty.coerce(prop)], prop

    def test_dp_enforced_on_solution(self):
        mechanism_lp = build_mechanism_lp(n=5, alpha=0.77)
        mechanism = solve_mechanism_lp(mechanism_lp)
        assert mechanism.max_alpha() >= 0.77 - 1e-7

    def test_matrix_from_values_is_column_stochastic(self):
        mechanism_lp = build_mechanism_lp(n=4, alpha=0.6, properties="WH")
        solution = solve(mechanism_lp.program)
        matrix = mechanism_lp.matrix_from_values(solution.values)
        assert np.allclose(matrix.sum(axis=0), 1.0)
        assert matrix.min() >= 0.0

    def test_minimax_l1_no_worse_than_expected_l1_optimum(self):
        # The minimax optimum bounds every column's loss, so its worst column
        # is no worse than the worst column of the expectation-optimal design.
        from repro.core.losses import worst_case_loss

        expectation_lp = build_mechanism_lp(n=4, alpha=0.7, objective=Objective.l1())
        minimax_lp = build_mechanism_lp(n=4, alpha=0.7, objective=Objective.minimax(p=1))
        expectation_mechanism = solve_mechanism_lp(expectation_lp)
        minimax_mechanism = solve_mechanism_lp(minimax_lp)
        assert worst_case_loss(minimax_mechanism, p=1) <= worst_case_loss(
            expectation_mechanism, p=1
        ) + 1e-7


# --------------------------------------------------------------------- #
# Vectorized emitters versus the loop-based reference
# --------------------------------------------------------------------- #
def _assert_same_program(vectorized, loop_based):
    """Both builders must emit the identical constraint system.

    Identical means: same constraint order, names, senses, right-hand sides
    and per-row coefficient dictionaries, plus the same objective vector.
    """
    program_v, program_l = vectorized.program, loop_based.program
    assert program_v.num_variables == program_l.num_variables
    assert program_v.num_constraints == program_l.num_constraints
    for got, expected in zip(program_v.constraints, program_l.constraints):
        assert got.name == expected.name
        assert got.sense is expected.sense
        assert got.rhs == expected.rhs
        assert got.coefficients == expected.coefficients, got.name
    assert np.array_equal(program_v.objective_vector(), program_l.objective_vector())
    assert program_v.objective_sense is program_l.objective_sense


def _property_combinations():
    import itertools

    codes = [prop.value for prop in ALL_PROPERTIES]
    for r in range(len(codes) + 1):
        yield from itertools.combinations(codes, r)


class TestVectorizedEmitterEquivalence:
    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_every_property_combination_matches_loop_builder(self, n):
        """Property-style exhaustive check over all 2^7 property subsets."""
        for combo in _property_combinations():
            vectorized = build_mechanism_lp(n, 0.73, properties=combo)
            loop_based = build_loop_mechanism_lp(n, 0.73, properties=combo)
            _assert_same_program(vectorized, loop_based)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_alpha_edge_cases_match(self, alpha):
        # alpha = 0 exercises the zero-coefficient dropping path.
        vectorized = build_mechanism_lp(4, alpha, properties="all")
        loop_based = build_loop_mechanism_lp(4, alpha, properties="all")
        _assert_same_program(vectorized, loop_based)

    @pytest.mark.parametrize(
        "objective",
        [Objective.l1(), Objective.l2(), Objective.l0d(2), Objective.minimax(p=1)],
        ids=["l1", "l2", "l0d2", "minimax"],
    )
    def test_objectives_match(self, objective):
        vectorized = build_mechanism_lp(5, 0.8, objective=objective)
        loop_based = build_loop_mechanism_lp(5, 0.8, objective=objective)
        _assert_same_program(vectorized, loop_based)

    def test_weighted_objective_matches(self):
        weights = [1.0, 2.0, 3.0, 2.0, 1.0, 0.5]
        vectorized = build_mechanism_lp(5, 0.8, objective=Objective.l0(weights=weights))
        loop_based = build_loop_mechanism_lp(5, 0.8, objective=Objective.l0(weights=weights))
        _assert_same_program(vectorized, loop_based)

    @pytest.mark.parametrize("output_alpha", [0.0, 0.6])
    def test_output_dp_matches(self, output_alpha):
        vectorized = build_mechanism_lp(4, 0.8, properties="all", output_alpha=output_alpha)
        loop_based = build_loop_mechanism_lp(
            4, 0.8, properties="all", output_alpha=output_alpha
        )
        _assert_same_program(vectorized, loop_based)

    def test_solutions_identical_across_builders(self):
        vectorized = build_mechanism_lp(6, 0.85, properties="all")
        loop_based = build_loop_mechanism_lp(6, 0.85, properties="all")
        solution_v = solve(vectorized.program)
        solution_l = solve(loop_based.program)
        assert np.array_equal(solution_v.values, solution_l.values)


class TestMatrixFromValues:
    def test_matches_explicit_double_loop(self):
        mechanism_lp = build_mechanism_lp(n=5, alpha=0.7, properties="WH+CM")
        solution = solve(mechanism_lp.program)
        fast = mechanism_lp.matrix_from_values(solution.values)
        size = mechanism_lp.n + 1
        slow = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                slow[i, j] = float(solution.values[mechanism_lp.variables[i][j].index])
        slow = np.clip(slow, 0.0, 1.0)
        slow /= slow.sum(axis=0, keepdims=True)
        assert np.array_equal(fast, slow)

    def test_zero_column_raises_instead_of_dividing(self):
        mechanism_lp = build_mechanism_lp(n=2, alpha=0.5)
        values = np.zeros(mechanism_lp.program.num_variables)
        values[mechanism_lp.variables[0][0].index] = 1.0  # only column 0 nonzero
        with pytest.raises(ValueError, match="sum to zero"):
            mechanism_lp.matrix_from_values(values)

    def test_ignores_trailing_auxiliary_variables(self):
        mechanism_lp = build_mechanism_lp(n=3, alpha=0.6, objective=Objective.minimax(p=1))
        solution = solve(mechanism_lp.program)
        matrix = mechanism_lp.matrix_from_values(solution.values)
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix.sum(axis=0), 1.0)


# --------------------------------------------------------------------- #
# Canonical constraint order
# --------------------------------------------------------------------- #
_BLOCK_PREFIXES = {
    "row_honesty": StructuralProperty.ROW_HONESTY,
    "row_monotone": StructuralProperty.ROW_MONOTONE,
    "column_honesty": StructuralProperty.COLUMN_HONESTY,
    "column_monotone": StructuralProperty.COLUMN_MONOTONE,
    "fairness": StructuralProperty.FAIRNESS,
    "weak_honesty": StructuralProperty.WEAK_HONESTY,
    "symmetry": StructuralProperty.SYMMETRY,
}

#: Designs every (n, spec) pair below at alpha = 0.9 and prints the sha256 of
#: each design matrix.  These points are degenerate: HiGHS has several optimal
#: vertices to choose from, so they expose any change in constraint order.
_DIGEST_SCRIPT = """
import hashlib, json
from repro.core.design import design_mechanism
digests = {}
for n in (10, 16, 24):
    for spec in ("all", "CH+RH", "WH+CM"):
        matrix = design_mechanism(n, 0.9, properties=spec).matrix
        digests[f"{n}/{spec}"] = hashlib.sha256(matrix.tobytes()).hexdigest()
print(json.dumps(digests))
"""


class TestCanonicalConstraintOrder:
    @pytest.mark.parametrize("spec", ["all", "CH+RH", "WH+CM"])
    def test_property_blocks_follow_the_paper_order(self, spec):
        program = build_mechanism_lp(4, 0.8, properties=spec).program
        blocks = []
        for constraint in program.constraints:
            for prefix, prop in _BLOCK_PREFIXES.items():
                if constraint.name.startswith(prefix) and prop not in blocks:
                    blocks.append(prop)
        assert blocks == [prop for prop in ALL_PROPERTIES if prop in blocks]

    def test_designs_identical_across_hash_seeds(self):
        """The same key designs the same matrix whatever ``PYTHONHASHSEED`` is."""
        import json
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        runs = {}
        for hash_seed in ("0", "7", "13"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            output = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            runs[hash_seed] = json.loads(output)
        assert len(runs["0"]) == 9
        assert runs["7"] == runs["0"]
        assert runs["13"] == runs["0"]

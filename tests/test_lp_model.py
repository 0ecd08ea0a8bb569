"""Unit tests for the LP modelling layer (repro.lp.model)."""

from __future__ import annotations

import numpy as np
import pytest
from _reference import dense_arrays

from repro.lp.model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    ConstraintSense,
    LinearProgram,
    ObjectiveSense,
    Variable,
    combination,
)


class TestConstraintSense:
    def test_coerce_from_strings(self):
        assert ConstraintSense.coerce("<=") is ConstraintSense.LE
        assert ConstraintSense.coerce(">=") is ConstraintSense.GE
        assert ConstraintSense.coerce("==") is ConstraintSense.EQ
        assert ConstraintSense.coerce("=") is ConstraintSense.EQ

    def test_coerce_passthrough(self):
        assert ConstraintSense.coerce(ConstraintSense.LE) is ConstraintSense.LE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            ConstraintSense.coerce("!=")


class TestObjectiveSense:
    def test_coerce_synonyms(self):
        assert ObjectiveSense.coerce("min") is ObjectiveSense.MIN
        assert ObjectiveSense.coerce("minimize") is ObjectiveSense.MIN
        assert ObjectiveSense.coerce("MAXIMISE") is ObjectiveSense.MAX

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            ObjectiveSense.coerce("optimise")


class TestVariables:
    def test_add_variable_assigns_indices_in_order(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        assert (x.index, y.index) == (0, 1)
        assert lp.num_variables == 2

    def test_auto_generated_names_are_unique(self):
        lp = LinearProgram()
        created = lp.add_variables(5)
        assert len({var.name for var in created}) == 5

    def test_add_variables_names_are_sequential(self):
        # Regression: the generated names used to skip every other index
        # (x0, x2, x4, …) because the count was re-read while it grew.
        lp = LinearProgram()
        created = lp.add_variables(5)
        assert [var.name for var in created] == ["x0", "x1", "x2", "x3", "x4"]

    def test_add_variables_numbering_continues_without_collision(self):
        lp = LinearProgram()
        lp.add_variables(3, prefix="y")
        more = lp.add_variables(2, prefix="y")
        assert [var.name for var in more] == ["y3", "y4"]

    def test_duplicate_name_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_variable("x")

    def test_inconsistent_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("x", lower=2.0, upper=1.0)

    def test_variable_lookup_by_name(self):
        lp = LinearProgram()
        x = lp.add_variable("count")
        assert lp.variable_by_name("count") == x
        with pytest.raises(KeyError):
            lp.variable_by_name("missing")

    def test_variables_hash_by_index(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        assert len({x, y}) == 2
        assert x != y
        assert x == Variable(index=0, name="other-name")


class TestConstraints:
    def test_add_constraint_resolves_variable_keys(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        constraint = lp.add_constraint({x: 1.0, y: 2.0}, "<=", 4.0)
        assert constraint.coefficients == {0: 1.0, 1: 2.0}
        assert constraint.sense is ConstraintSense.LE
        assert constraint.rhs == 4.0

    def test_add_constraint_accepts_integer_indices(self):
        lp = LinearProgram()
        lp.add_variables(2)
        constraint = lp.add_constraint({0: 1.0, 1: -1.0}, ">=", 0.0)
        assert constraint.coefficients == {0: 1.0, 1: -1.0}

    def test_zero_coefficients_are_dropped(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        constraint = lp.add_constraint({x: 0.0, y: 3.0}, "==", 3.0)
        assert constraint.coefficients == {1: 3.0}

    def test_repeated_variables_sum_coefficients(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        constraint = lp.add_constraint(combination([(x, 1.0), (x, 2.0)]), "<=", 5.0)
        assert constraint.coefficients == {0: 3.0}

    def test_unknown_variable_index_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(IndexError):
            lp.add_constraint({5: 1.0}, "<=", 1.0)

    def test_constraint_violation_measure(self):
        constraint = Constraint({0: 1.0}, ConstraintSense.LE, 1.0)
        assert constraint.violation([0.5]) == 0.0
        assert constraint.violation([1.5]) == pytest.approx(0.5)
        eq = Constraint({0: 1.0}, ConstraintSense.EQ, 1.0)
        assert eq.violation([0.0]) == pytest.approx(1.0)


class TestObjective:
    def test_objective_vector_and_value(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.set_objective({x: 2.0, y: -1.0}, sense="max", constant=3.0)
        assert np.allclose(lp.objective_vector(), [2.0, -1.0])
        assert lp.objective_value([1.0, 2.0]) == pytest.approx(2.0 - 2.0 + 3.0)

    def test_objective_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(IndexError):
            lp.set_objective({3: 1.0})

    def test_max_objective_negated_in_standard_arrays(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: 5.0}, sense="max")
        arrays = dense_arrays(lp)
        assert np.allclose(arrays["c"], [-5.0])


class TestExportAndFeasibility:
    def _toy_program(self) -> LinearProgram:
        lp = LinearProgram("toy")
        x = lp.add_variable("x", lower=0.0)
        y = lp.add_variable("y", lower=0.0, upper=3.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "<=", 4.0, name="cap")
        lp.add_constraint({x: 1.0, y: -1.0}, ">=", -1.0, name="diff")
        lp.add_constraint({x: 2.0, y: 1.0}, "==", 3.0, name="fix")
        lp.set_objective({x: 1.0, y: 1.0}, sense="min")
        return lp

    def test_standard_arrays_shapes(self):
        arrays = dense_arrays(self._toy_program())
        assert arrays["A_ub"].shape == (2, 2)
        assert arrays["A_eq"].shape == (1, 2)
        assert arrays["lower"].tolist() == [0.0, 0.0]
        assert arrays["upper"][1] == 3.0
        assert np.isinf(arrays["upper"][0])

    def test_ge_constraints_negated(self):
        arrays = dense_arrays(self._toy_program())
        # The GE row x - y >= -1 becomes -x + y <= 1.
        assert np.allclose(arrays["A_ub"][1], [-1.0, 1.0])
        assert arrays["b_ub"][1] == pytest.approx(1.0)

    def test_check_feasible_accepts_valid_point(self):
        lp = self._toy_program()
        assert lp.check_feasible([1.0, 1.0])

    def test_violated_constraints_reported_by_name(self):
        lp = self._toy_program()
        violated = lp.violated_constraints([5.0, 5.0])
        assert "cap" in violated
        assert "fix" in violated
        assert "bound:y:upper" in violated

    def test_violated_constraints_requires_full_assignment(self):
        lp = self._toy_program()
        with pytest.raises(ValueError):
            lp.violated_constraints([1.0])

    def test_summary_mentions_sizes(self):
        text = self._toy_program().summary()
        assert "2 variables" in text
        assert "1 equalities" in text


class TestTripletConstraints:
    def _block_program(self) -> LinearProgram:
        lp = LinearProgram("block")
        lp.add_variables(3)
        # Rows: x0 + 2 x1 <= 4;  x1 - x2 >= 0;  x0 + x2 == 3.
        lp.add_constraints_from_triplets(
            rows=[0, 0, 1, 1, 2, 2],
            cols=[0, 1, 1, 2, 0, 2],
            vals=[1.0, 2.0, 1.0, -1.0, 1.0, 1.0],
            senses=["<=", ">=", "=="],
            rhs=[4.0, 0.0, 3.0],
            names=["cap", "order", "fix"],
        )
        return lp

    def test_block_rows_count_and_names(self):
        lp = self._block_program()
        assert lp.num_constraints == 3
        assert [c.name for c in lp.constraints] == ["cap", "order", "fix"]
        assert lp.constraint_name(1) == "order"

    def test_block_materializes_like_scalar_constraints(self):
        lp = self._block_program()
        cap, order, fix = lp.constraints
        assert cap.coefficients == {0: 1.0, 1: 2.0}
        assert cap.sense is ConstraintSense.LE and cap.rhs == 4.0
        assert order.coefficients == {1: 1.0, 2: -1.0}
        assert order.sense is ConstraintSense.GE
        assert fix.sense is ConstraintSense.EQ and fix.rhs == 3.0

    def test_scalar_sense_broadcasts(self):
        lp = LinearProgram()
        lp.add_variables(2)
        block = lp.add_constraints_from_triplets(
            rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0], senses=">=", rhs=[0.0, 0.0]
        )
        assert list(block.senses) == [SENSE_GE, SENSE_GE]

    def test_sense_code_array_accepted(self):
        lp = LinearProgram()
        lp.add_variables(2)
        block = lp.add_constraints_from_triplets(
            rows=[0, 1],
            cols=[0, 1],
            vals=[1.0, 1.0],
            senses=np.array([SENSE_LE, SENSE_EQ], dtype=np.int8),
            rhs=[1.0, 1.0],
        )
        senses = [c.sense for c in lp.constraints]
        assert senses == [ConstraintSense.LE, ConstraintSense.EQ]
        assert block.num_rows == 2

    def test_zero_coefficients_dropped_from_blocks(self):
        lp = LinearProgram()
        lp.add_variables(2)
        lp.add_constraints_from_triplets(
            rows=[0, 0], cols=[0, 1], vals=[1.0, 0.0], senses="<=", rhs=[2.0]
        )
        assert lp.num_nonzeros() == 1
        assert lp.constraints[0].coefficients == {0: 1.0}

    def test_duplicate_entries_summed(self):
        lp = LinearProgram()
        lp.add_variables(1)
        lp.add_constraints_from_triplets(
            rows=[0, 0], cols=[0, 0], vals=[1.0, 2.0], senses="<=", rhs=[5.0]
        )
        assert lp.constraints[0].coefficients == {0: 3.0}
        arrays = dense_arrays(lp)
        assert arrays["A_ub"][0, 0] == 3.0

    def test_callable_names_are_lazy(self):
        lp = LinearProgram()
        lp.add_variables(2)
        lp.add_constraints_from_triplets(
            rows=[0, 1],
            cols=[0, 1],
            vals=[1.0, 1.0],
            senses="<=",
            rhs=[1.0, 1.0],
            names=lambda k: f"lazy_{k}",
        )
        assert lp.constraint_name(0) == "lazy_0"
        assert [c.name for c in lp.constraints] == ["lazy_0", "lazy_1"]

    def test_default_names_continue_global_numbering(self):
        lp = LinearProgram()
        x = lp.add_variables(2)
        lp.add_constraint({x[0]: 1.0}, "<=", 1.0)
        lp.add_constraints_from_triplets(
            rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0], senses="<=", rhs=[1.0, 1.0]
        )
        assert [c.name for c in lp.constraints] == ["c0", "c1", "c2"]

    def test_invalid_blocks_rejected(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(IndexError):
            lp.add_constraints_from_triplets([0], [7], [1.0], "<=", [1.0])
        with pytest.raises(IndexError):
            lp.add_constraints_from_triplets([3], [0], [1.0], "<=", [1.0])
        with pytest.raises(ValueError):
            lp.add_constraints_from_triplets([0], [0, 1], [1.0], "<=", [1.0])
        with pytest.raises(ValueError):
            lp.add_constraints_from_triplets([0], [0], [1.0], "<=", [1.0], names=["a", "b"])
        with pytest.raises(ValueError):
            lp.add_constraints_from_triplets([0], [0], [1.0], ["<=", ">="], [1.0])

    def test_violated_constraints_cover_blocks(self):
        lp = self._block_program()
        # x = (4, 0, 1): cap = 4 <= 4 ok; order = -1 < 0 violated; fix = 5 != 3.
        violated = lp.violated_constraints([4.0, 0.0, 1.0])
        assert violated == ["order", "fix"]

    def test_mixed_scalar_and_block_row_order(self):
        lp = LinearProgram()
        x = lp.add_variables(2)
        lp.add_constraint({x[0]: 1.0}, "<=", 1.0, name="first")
        lp.add_constraints_from_triplets(
            rows=[0, 1], cols=[0, 1], vals=[1.0, 1.0],
            senses=["<=", "=="], rhs=[2.0, 3.0], names=["second", "third"],
        )
        lp.add_constraint({x[1]: 1.0}, ">=", 0.5, name="fourth")
        arrays = dense_arrays(lp)
        # A_ub rows follow insertion order: first, second, then negated fourth.
        assert np.allclose(arrays["A_ub"], [[1.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(arrays["b_ub"], [1.0, 2.0, -0.5])
        assert np.allclose(arrays["A_eq"], [[0.0, 1.0]])


class TestSparseExport:
    def _random_program(self, rng: np.random.Generator) -> LinearProgram:
        lp = LinearProgram("random")
        num_vars = int(rng.integers(2, 9))
        for index in range(num_vars):
            lower = None if rng.random() < 0.2 else float(rng.normal())
            upper = None if rng.random() < 0.6 else (lower or 0.0) + float(rng.random()) + 1.0
            lp.add_variable(f"v{index}", lower=lower, upper=upper)
        senses = ["<=", ">=", "=="]
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.5:
                coefficients = {
                    int(i): float(rng.normal())
                    for i in rng.choice(num_vars, size=int(rng.integers(1, num_vars + 1)), replace=False)
                }
                lp.add_constraint(coefficients, senses[int(rng.integers(3))], float(rng.normal()))
            else:
                num_rows = int(rng.integers(1, 5))
                nnz = int(rng.integers(1, 3 * num_rows + 1))
                lp.add_constraints_from_triplets(
                    rows=rng.integers(0, num_rows, size=nnz),
                    cols=rng.integers(0, num_vars, size=nnz),
                    vals=rng.normal(size=nnz),
                    senses=[senses[int(s)] for s in rng.integers(0, 3, size=num_rows)],
                    rhs=rng.normal(size=num_rows),
                )
        if rng.random() < 0.8:
            lp.set_objective(
                {int(i): float(rng.normal()) for i in range(num_vars)},
                sense="max" if rng.random() < 0.5 else "min",
            )
        return lp

    def test_sparse_and_dense_exports_agree_on_randomized_programs(self):
        """Property-style check: both exports describe the same standard form."""
        rng = np.random.default_rng(20180411)
        for _ in range(50):
            lp = self._random_program(rng)
            dense = dense_arrays(lp)
            sparse = lp.to_sparse_arrays()
            assert sparse["A_ub"].shape == dense["A_ub"].shape
            assert sparse["A_eq"].shape == dense["A_eq"].shape
            assert np.array_equal(sparse["A_ub"].toarray(), dense["A_ub"])
            assert np.array_equal(sparse["A_eq"].toarray(), dense["A_eq"])
            for key in ("c", "b_ub", "b_eq", "lower", "upper"):
                assert np.array_equal(sparse[key], dense[key]), key

    def test_sparse_export_empty_program(self):
        lp = LinearProgram()
        lp.add_variable("x")
        sparse = lp.to_sparse_arrays()
        assert sparse["A_ub"].shape == (0, 1)
        assert sparse["A_eq"].shape == (0, 1)

    def test_num_nonzeros_counts_both_representations(self):
        lp = LinearProgram()
        x = lp.add_variables(3)
        lp.add_constraint({x[0]: 1.0, x[1]: 2.0}, "<=", 1.0)
        lp.add_constraints_from_triplets(
            rows=[0, 0, 1], cols=[0, 1, 2], vals=[1.0, 1.0, 1.0], senses="==", rhs=[1.0, 2.0]
        )
        assert lp.num_nonzeros() == 5

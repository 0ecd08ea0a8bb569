"""Tests for the LP solver layer (repro.lp.solver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import scipy_backend
from repro.lp.model import LinearProgram
from repro.lp.solver import (
    LPError,
    LPInfeasibleError,
    LPSolution,
    LPStatus,
    LPUnboundedError,
    reset_solve_call_count,
    solve,
    solve_call_count,
)


def _knapsack_lp() -> LinearProgram:
    """max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 (optimum 36)."""
    lp = LinearProgram("knapsack")
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    lp.add_constraint({x: 1.0}, "<=", 4.0)
    lp.add_constraint({y: 2.0}, "<=", 12.0)
    lp.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
    lp.set_objective({x: 3.0, y: 5.0}, sense="max")
    return lp


class TestSolve:
    def test_maximisation_reported_in_original_sense(self):
        solution = solve(_knapsack_lp())
        assert solution.status is LPStatus.OPTIMAL
        assert solution.objective == pytest.approx(36.0)

    def test_solution_lookup_by_name_and_variable(self):
        lp = _knapsack_lp()
        solution = solve(lp)
        assert solution["x"] == pytest.approx(2.0, abs=1e-7)
        assert solution.value_of(lp.variable_by_name("y")) == pytest.approx(6.0, abs=1e-7)

    def test_objective_constant_included(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.set_objective({x: 1.0}, sense="max", constant=10.0)
        solution = solve(lp)
        assert solution.objective == pytest.approx(11.0)

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint({x: 1.0}, "<=", 1.0)
        lp.add_constraint({x: 1.0}, ">=", 2.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(LPInfeasibleError):
            solve(lp)

    def test_unbounded_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: 1.0}, sense="max")
        with pytest.raises(LPUnboundedError):
            solve(lp)

    def test_equality_problem_optimum(self):
        # x + y = 1.2 with both in [0, 1]: put all the slack on the cheap x.
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        y = lp.add_variable("y", upper=1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "==", 1.2)
        lp.set_objective({x: 1.0, y: 3.0}, sense="min")
        assert solve(lp).objective == pytest.approx(1.0 + 3 * 0.2, abs=1e-8)

    def test_feasibility_check_runs(self):
        # The returned point of a healthy solve always passes the check.
        solution = solve(_knapsack_lp(), check=True)
        assert isinstance(solution, LPSolution)
        assert solution.values.shape == (2,)
        assert np.all(solution.values >= -1e-9)

    def test_iteration_limit_raises_lp_error(self):
        with pytest.raises(LPError, match="iteration_limit"):
            solve(_knapsack_lp(), max_iterations=0)

    def test_solve_call_count_counts_each_solve(self):
        before = solve_call_count()
        solve(_knapsack_lp())
        solve(_knapsack_lp(), sparse=False)
        assert solve_call_count() == before + 2
        assert reset_solve_call_count() == before + 2
        assert solve_call_count() == 0


def _empty(num_vars: int):
    return np.zeros((0, num_vars)), np.zeros(0)


class TestGeneralForm:
    """``scipy_backend.solve_general_form``: the array-level entry under ``solve``."""

    def test_textbook_lp(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36 at (2, 6).
        c = np.array([-3.0, -5.0])
        A_ub = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b_ub = np.array([4.0, 12.0, 18.0])
        result = scipy_backend.solve_general_form(
            c, A_ub, b_ub, *_empty(2), lower=np.zeros(2), upper=np.full(2, np.inf)
        )
        assert result["status"] == "optimal"
        assert result["objective"] == pytest.approx(-36.0)
        np.testing.assert_allclose(result["x"], [2.0, 6.0], atol=1e-8)

    def test_unbounded_detected(self):
        result = scipy_backend.solve_general_form(
            np.array([-1.0]), *_empty(1), *_empty(1),
            lower=np.zeros(1), upper=np.full(1, np.inf),
        )
        assert result["status"] == "unbounded"
        assert result["x"] is None and result["objective"] is None

    def test_infeasible_detected(self):
        A_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])  # x <= 1 and x >= 3
        result = scipy_backend.solve_general_form(
            np.array([1.0]), A_ub, b_ub, *_empty(1),
            lower=np.zeros(1), upper=np.full(1, np.inf),
        )
        assert result["status"] == "infeasible"
        assert result["x"] is None

    def test_equality_constraints_and_bounds(self):
        # min x + 2y s.t. x + y = 3, 0 <= x <= 1, y >= 0  -> x = 1, y = 2.
        result = scipy_backend.solve_general_form(
            np.array([1.0, 2.0]), *_empty(2), np.array([[1.0, 1.0]]), np.array([3.0]),
            lower=np.zeros(2), upper=np.array([1.0, np.inf]),
        )
        assert result["status"] == "optimal"
        np.testing.assert_allclose(result["x"], [1.0, 2.0], atol=1e-8)
        assert result["objective"] == pytest.approx(5.0)

    def test_lower_bounds_and_free_variables(self):
        # min x - y s.t. x - y >= -5, x >= 2, y free  -> objective -5 with x at 2.
        result = scipy_backend.solve_general_form(
            np.array([1.0, -1.0]), np.array([[-1.0, 1.0]]), np.array([5.0]), *_empty(2),
            lower=np.array([2.0, -np.inf]), upper=np.array([np.inf, np.inf]),
        )
        assert result["status"] == "optimal"
        assert result["objective"] == pytest.approx(-5.0)
        assert result["x"][0] >= 2.0 - 1e-9
        assert result["x"][0] - result["x"][1] == pytest.approx(-5.0)

    def test_degenerate_problem_terminates(self):
        # Redundant rows make the optimal vertex degenerate.
        A_ub = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b_ub = np.array([2.0, 2.0, 1.0])
        result = scipy_backend.solve_general_form(
            np.array([-1.0, -1.0]), A_ub, b_ub, *_empty(2),
            lower=np.zeros(2), upper=np.full(2, np.inf),
        )
        assert result["status"] == "optimal"
        assert result["objective"] == pytest.approx(-2.0)

    def test_iteration_limit_reported(self):
        c = np.array([-3.0, -5.0])
        A_ub = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b_ub = np.array([4.0, 12.0, 18.0])
        result = scipy_backend.solve_general_form(
            c, A_ub, b_ub, *_empty(2), lower=np.zeros(2), upper=np.full(2, np.inf),
            max_iterations=0,
        )
        assert result["status"] == "iteration_limit"
        assert result["x"] is None

    def test_sparse_and_dense_inputs_agree_on_random_problems(self, rng):
        from scipy import sparse

        for _ in range(10):
            num_vars = int(rng.integers(2, 5))
            num_rows = int(rng.integers(1, 4))
            c = rng.normal(size=num_vars)
            A_ub = rng.normal(size=(num_rows, num_vars))
            # Bounded and non-empty: x in [0, 2]^d with the all-ones point inside.
            b_ub = A_ub @ np.ones(num_vars) + np.abs(rng.normal(size=num_rows)) + 0.1
            bounds = (np.zeros(num_vars), np.full(num_vars, 2.0))
            dense = scipy_backend.solve_general_form(c, A_ub, b_ub, *_empty(num_vars), *bounds)
            sparse_result = scipy_backend.solve_general_form(
                c, sparse.csr_matrix(A_ub), b_ub, *_empty(num_vars), *bounds
            )
            assert dense["status"] == sparse_result["status"] == "optimal"
            assert sparse_result["objective"] == pytest.approx(dense["objective"], abs=1e-9)
            assert np.all(A_ub @ dense["x"] <= b_ub + 1e-9)


class TestDenseExport:
    """``to_standard_arrays``: the dense reference for the sparse export."""

    def _mixed_lp(self) -> LinearProgram:
        lp = LinearProgram("mixed")
        x = lp.add_variable("x", lower=1.0, upper=4.0)
        y = lp.add_variable("y", lower=None)
        z = lp.add_variable("z")
        lp.add_constraint({x: 1.0, y: 2.0}, "<=", 7.0)
        lp.add_constraint({y: 1.0, z: -1.0}, ">=", -3.0)
        lp.add_constraint({x: 1.0, z: 1.0}, "==", 5.0)
        lp.add_constraint({y: 1.0}, "==", 0.5)
        lp.set_objective({x: 1.0, z: 2.0}, sense="max")
        return lp

    def test_ge_rows_are_negated_into_le_form(self):
        arrays = self._mixed_lp().to_standard_arrays()
        np.testing.assert_array_equal(arrays["A_ub"], [[1.0, 2.0, 0.0], [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(arrays["b_ub"], [7.0, 3.0])

    def test_equality_rows_keep_insertion_order(self):
        arrays = self._mixed_lp().to_standard_arrays()
        np.testing.assert_array_equal(arrays["A_eq"], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(arrays["b_eq"], [5.0, 0.5])

    def test_maximisation_objective_is_negated(self):
        arrays = self._mixed_lp().to_standard_arrays()
        np.testing.assert_array_equal(arrays["c"], [-1.0, 0.0, -2.0])

    def test_bounds_are_exported(self):
        arrays = self._mixed_lp().to_standard_arrays()
        np.testing.assert_array_equal(arrays["lower"], [1.0, -np.inf, 0.0])
        np.testing.assert_array_equal(arrays["upper"], [4.0, np.inf, np.inf])

    def test_sparse_export_densifies_to_the_dense_export(self):
        from repro.core.constraints import build_mechanism_lp

        mechanism_lp = build_mechanism_lp(n=4, alpha=0.9, properties="all").program
        for program in (self._mixed_lp(), mechanism_lp):
            dense = program.to_standard_arrays()
            sparse_arrays = program.to_sparse_arrays()
            for key in ("A_ub", "A_eq"):
                np.testing.assert_array_equal(sparse_arrays[key].toarray(), dense[key])
            for key in ("c", "b_ub", "b_eq", "lower", "upper"):
                np.testing.assert_array_equal(sparse_arrays[key], dense[key])


class TestSparseSolvePath:
    def _program(self):
        from repro.core.constraints import build_mechanism_lp

        return build_mechanism_lp(n=6, alpha=0.8, properties="all").program

    def test_sparse_and_dense_exports_reach_identical_solutions(self):
        program = self._program()
        sparse_solution = solve(program, sparse=True)
        dense_solution = solve(program, sparse=False)
        assert np.array_equal(sparse_solution.values, dense_solution.values)
        assert sparse_solution.objective == pytest.approx(dense_solution.objective)

    def test_by_name_is_lazy_but_complete(self):
        program = self._program()
        solution = solve(program)
        assert solution._by_name_cache is None  # not materialised by solving
        assert solution["rho_0_0"] == pytest.approx(solution.values[0])
        assert len(solution.by_name) == program.num_variables

    def test_serialisation_round_trip_preserves_by_name(self):
        import json

        program = self._program()
        solution = solve(program)
        payload = json.loads(json.dumps(solution.to_dict()))
        restored = LPSolution.from_dict(payload)
        assert restored.by_name == pytest.approx(solution.by_name)


    def test_older_payloads_still_load(self):
        # Payloads written when a second solver existed carry a backend tag
        # and, from that solver, a basis and a warm-start flag.
        solution = solve(_knapsack_lp())
        payload = dict(
            solution.to_dict(), backend="simplex", basis=[0, 1, 2], warm_started=True
        )
        restored = LPSolution.from_dict(payload)
        np.testing.assert_array_equal(restored.values, solution.values)
        assert restored.objective == solution.objective
        assert restored.to_dict() == solution.to_dict()


def test_no_function_takes_a_solver_choice():
    """HiGHS is the only solver: nothing in the package selects or seeds one."""
    import importlib
    import inspect
    import pkgutil

    import repro

    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            candidates = [obj]
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        candidates.append(member)
            for candidate in candidates:
                if not callable(candidate):
                    continue
                try:
                    parameters = inspect.signature(candidate).parameters
                except (TypeError, ValueError):
                    continue
                if {"backend", "warm_start"} & set(parameters):
                    offenders.append(f"{module.__name__}.{getattr(candidate, '__qualname__', name)}")
    assert offenders == []

"""Reference implementations the fast paths of ``repro`` are proven against.

Each reference is the original, straightforward implementation that a
vectorized path in the package replaced.  The logic is kept unchanged, so
tests and benchmarks can assert that the package is bit-identical to it:

* :class:`LoopMechanismLPBuilder` and :func:`build_loop_mechanism_lp` emit
  one Python dict per constraint.  They are the reference for the COO
  triplet emitters of :class:`repro.core.constraints.MechanismLPBuilder`.
* :func:`dense_arrays` is the dense export of a
  :class:`~repro.lp.model.LinearProgram`, the reference for
  ``LinearProgram.to_sparse_arrays``.  :func:`solve_dense` is
  :func:`repro.lp.solver.solve` run on that export.
* :func:`max_alpha_loop` is the per-entry ratio loop behind
  ``Mechanism.max_alpha``.
* :func:`evaluate_loop` is the sequential repetition loop behind
  :func:`repro.eval.empirical.evaluate_mechanism`.
* :func:`release_many_loop` is the sequential ``release`` loop behind
  ``HistogramRelease.release_many``.
* :class:`ColumnLRUSampler` and :func:`offset_search_sample` are the
  per-column LRU sampler and the dense offset-``searchsorted`` sampler
  that ``Mechanism._inverse_sample`` replaced with one search over
  column-CDF rows; :func:`bulk_column_cdfs` is the dense backend's
  whole-matrix build of those rows, and :func:`reference_inverse_sample`
  picks the sampler a representation used.

None of them is meant for large inputs.  The module is imported by both
``tests/`` and ``benchmarks/``; ``benchmarks/conftest.py`` puts this
directory on ``sys.path`` so either suite runs on its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.constraints import MechanismLP, MechanismLPBuilder
from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty
from repro.data.groups import GroupedCounts
from repro.engine.plan import ReleasePlan
from repro.eval.empirical import EmpiricalResult, MetricFunction, _prepare_evaluation
from repro.histogram.release import HistogramRelease
from repro.lp import scipy_backend
from repro.lp.model import SENSE_EQ, SENSE_GE, LinearProgram, ObjectiveSense, Variable
from repro.lp.solver import LPError, LPSolution, LPStatus


# ---------------------------------------------------------------------- #
# LP construction: one dict per constraint
# ---------------------------------------------------------------------- #
class LoopMechanismLPBuilder(MechanismLPBuilder):
    """:class:`MechanismLPBuilder` with the loop-based constraint emitters.

    Builds the same program as the parent, constraint by constraint, in the
    same order and with the same names, senses, right-hand sides and
    coefficients.
    """

    def add_basic_dp(self) -> None:
        if self._basic_dp_added:
            return
        for j in range(self.size):
            self.program.add_constraint(
                {self.variables[i][j]: 1.0 for i in range(self.size)},
                "==",
                1.0,
                name=f"column_sum_{j}",
            )
        for i in range(self.size):
            for j in range(self.size - 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i][j + 1]: -self.alpha},
                    ">=",
                    0.0,
                    name=f"dp_forward_{i}_{j}",
                )
                self.program.add_constraint(
                    {self.variables[i][j + 1]: 1.0, self.variables[i][j]: -self.alpha},
                    ">=",
                    0.0,
                    name=f"dp_backward_{i}_{j}",
                )
        self._basic_dp_added = True

    def add_output_dp(self, beta: Optional[float] = None) -> None:
        beta = self.alpha if beta is None else float(beta)
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        for j in range(self.size):
            for i in range(self.size - 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i + 1][j]: -beta},
                    ">=",
                    0.0,
                    name=f"output_dp_down_{i}_{j}",
                )
                self.program.add_constraint(
                    {self.variables[i + 1][j]: 1.0, self.variables[i][j]: -beta},
                    ">=",
                    0.0,
                    name=f"output_dp_up_{i}_{j}",
                )

    def _add_row_honesty(self) -> None:
        size = self.size
        for i in range(size):
            for j in range(size):
                if i == j:
                    continue
                self.program.add_constraint(
                    {self.variables[i][i]: 1.0, self.variables[i][j]: -1.0},
                    ">=",
                    0.0,
                    name=f"row_honesty_{i}_{j}",
                )

    def _add_row_monotonicity(self) -> None:
        size = self.size
        for i in range(size):
            for j in range(1, i + 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i][j - 1]: -1.0},
                    ">=",
                    0.0,
                    name=f"row_monotone_left_{i}_{j}",
                )
            for j in range(i, size - 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i][j + 1]: -1.0},
                    ">=",
                    0.0,
                    name=f"row_monotone_right_{i}_{j}",
                )

    def _add_column_honesty(self) -> None:
        size = self.size
        for j in range(size):
            for i in range(size):
                if i == j:
                    continue
                self.program.add_constraint(
                    {self.variables[j][j]: 1.0, self.variables[i][j]: -1.0},
                    ">=",
                    0.0,
                    name=f"column_honesty_{i}_{j}",
                )

    def _add_column_monotonicity(self) -> None:
        size = self.size
        for j in range(size):
            for i in range(1, j + 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i - 1][j]: -1.0},
                    ">=",
                    0.0,
                    name=f"column_monotone_up_{i}_{j}",
                )
            for i in range(j, size - 1):
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[i + 1][j]: -1.0},
                    ">=",
                    0.0,
                    name=f"column_monotone_down_{i}_{j}",
                )

    def _add_fairness(self) -> None:
        for i in range(1, self.size):
            self.program.add_constraint(
                {self.variables[i][i]: 1.0, self.variables[0][0]: -1.0},
                "==",
                0.0,
                name=f"fairness_{i}",
            )

    def _add_weak_honesty(self) -> None:
        threshold = 1.0 / self.size
        for i in range(self.size):
            self.program.add_constraint(
                {self.variables[i][i]: 1.0},
                ">=",
                threshold,
                name=f"weak_honesty_{i}",
            )

    def _add_symmetry(self) -> None:
        size = self.size
        seen = set()
        for i in range(size):
            for j in range(size):
                mirror = (self.n - i, self.n - j)
                if (i, j) == mirror or ((i, j) in seen) or (mirror in seen):
                    continue
                seen.add((i, j))
                self.program.add_constraint(
                    {self.variables[i][j]: 1.0, self.variables[mirror[0]][mirror[1]]: -1.0},
                    "==",
                    0.0,
                    name=f"symmetry_{i}_{j}",
                )

    def set_objective(self, objective: Objective) -> None:
        self._objective = objective
        penalties = objective.penalties(self.size)
        weights = objective.prior(self.size)
        if objective.aggregator == "sum":
            coefficients: Dict[Variable, float] = {}
            for j in range(self.size):
                for i in range(self.size):
                    coeff = weights[j] * penalties[i, j]
                    if coeff != 0.0:
                        coefficients[self.variables[i][j]] = coeff
            self.program.set_objective(coefficients, sense="min")
            return
        # Minimax: minimise t subject to per-input loss <= t.
        self._auxiliary = self.program.add_variable("minimax_bound", lower=0.0)
        for j in range(self.size):
            row: Dict[Variable, float] = {self._auxiliary: -1.0}
            for i in range(self.size):
                coeff = penalties[i, j]
                if coeff != 0.0:
                    row[self.variables[i][j]] = coeff
            self.program.add_constraint(row, "<=", 0.0, name=f"minimax_bound_{j}")
        self.program.set_objective({self._auxiliary: 1.0}, sense="min")


def build_loop_mechanism_lp(
    n: int,
    alpha: float,
    properties: Iterable[Union[str, StructuralProperty]] = (),
    objective: Optional[Objective] = None,
    output_alpha: Optional[float] = None,
) -> MechanismLP:
    """:func:`repro.core.constraints.build_mechanism_lp` with the loop emitters."""
    builder = LoopMechanismLPBuilder(n=n, alpha=alpha)
    builder.add_basic_dp()
    if output_alpha is not None:
        builder.add_output_dp(output_alpha)
    builder.add_properties(properties)
    builder.set_objective(objective if objective is not None else Objective.l0())
    return builder.build()


# ---------------------------------------------------------------------- #
# LP export and solve: dense arrays
# ---------------------------------------------------------------------- #
def dense_arrays(program: LinearProgram) -> Dict[str, np.ndarray]:
    """Export ``program`` to dense arrays, with the keys and row order of the CSR export.

    Returns a dict with keys ``c`` (minimisation objective), ``A_ub``,
    ``b_ub``, ``A_eq``, ``b_eq``, ``lower``, ``upper``.  ``>=`` constraints
    are negated into ``<=`` form.  Maximisation objectives are negated so
    that the solver always minimises.
    """
    num_vars = program.num_variables
    c = program.objective_vector()
    if program.objective_sense is ObjectiveSense.MAX:
        c = -c

    rows, cols, vals, senses, rhs = program._gather_triplets()
    eq_row_mask = senses == SENSE_EQ
    ub_row_mask = ~eq_row_mask
    num_ub = int(ub_row_mask.sum())
    num_eq = int(eq_row_mask.sum())
    # Map each global row to its position inside A_ub / A_eq, preserving
    # the relative insertion order within each family.
    ub_position = np.cumsum(ub_row_mask) - 1
    eq_position = np.cumsum(eq_row_mask) - 1
    row_sign = np.where(senses == SENSE_GE, -1.0, 1.0)

    A_ub = np.zeros((num_ub, num_vars), dtype=float)
    A_eq = np.zeros((num_eq, num_vars), dtype=float)
    if rows.size:
        nz_is_eq = eq_row_mask[rows]
        ub_nz = ~nz_is_eq
        np.add.at(
            A_ub,
            (ub_position[rows[ub_nz]], cols[ub_nz]),
            vals[ub_nz] * row_sign[rows[ub_nz]],
        )
        np.add.at(A_eq, (eq_position[rows[nz_is_eq]], cols[nz_is_eq]), vals[nz_is_eq])
    b_ub = (rhs * row_sign)[ub_row_mask]
    b_eq = rhs[eq_row_mask]

    lower, upper = program._bound_arrays()
    return {
        "c": c,
        "A_ub": A_ub,
        "b_ub": b_ub,
        "A_eq": A_eq,
        "b_eq": b_eq,
        "lower": lower,
        "upper": upper,
    }


def solve_dense(program: LinearProgram, tolerance: float = 1e-9) -> LPSolution:
    """:func:`repro.lp.solver.solve` with :func:`dense_arrays` as the export.

    The same HiGHS call and the same post-solve feasibility check; any
    non-optimal status raises :class:`~repro.lp.solver.LPError`.
    """
    arrays = dense_arrays(program)
    raw = scipy_backend.solve_general_form(
        arrays["c"],
        arrays["A_ub"],
        arrays["b_ub"],
        arrays["A_eq"],
        arrays["b_eq"],
        arrays["lower"],
        arrays["upper"],
    )
    if raw["status"] != "optimal" or raw["x"] is None:
        raise LPError(f"{program.summary()}: solver failed with status {raw['status']}")
    values = np.asarray(raw["x"], dtype=float)
    violations = program.violated_constraints(values, tolerance=max(1e-6, 100 * tolerance))
    if violations:
        raise LPError(f"{program.summary()}: infeasible point; violated: {violations[:5]}")
    return LPSolution(
        status=LPStatus.OPTIMAL,
        values=values,
        objective=program.objective_value(values),
        iterations=int(raw["iterations"]),
        message=str(raw["message"]),
        variable_names=program.variable_names(),
    )


# ---------------------------------------------------------------------- #
# Mechanisms, evaluation and histograms: sequential loops
# ---------------------------------------------------------------------- #
def max_alpha_loop(matrix: np.ndarray) -> float:
    """``Mechanism.max_alpha`` as a per-entry loop over neighbouring columns."""
    size = matrix.shape[0]
    best = 1.0
    for j in range(size - 1):
        left = matrix[:, j]
        right = matrix[:, j + 1]
        for i in range(size):
            a, b = left[i], right[i]
            if a == 0.0 and b == 0.0:
                continue
            if a == 0.0 or b == 0.0:
                return 0.0
            ratio = min(a / b, b / a)
            best = min(best, ratio)
    return float(best)


def evaluate_loop(
    mechanism: Union[Mechanism, ReleasePlan],
    data: Union[GroupedCounts, Sequence[int], np.ndarray],
    group_size: Optional[int] = None,
    repetitions: int = 30,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> EmpiricalResult:
    """:func:`~repro.eval.empirical.evaluate_mechanism` as the original repetition loop.

    One ``mechanism.apply`` call and one Python metric call per
    (repetition, metric).  A :class:`ReleasePlan` is unwrapped to its
    mechanism.
    """
    if isinstance(mechanism, ReleasePlan):
        mechanism = mechanism.mechanism
    counts, size, metric_functions, rng = _prepare_evaluation(
        mechanism, data, group_size, repetitions, metrics, rng, seed
    )
    per_repetition: Dict[str, List[float]] = {name: [] for name in metric_functions}
    for _ in range(repetitions):
        released = mechanism.apply(counts, rng=rng)
        for name, function in metric_functions.items():
            per_repetition[name].append(function(counts, released))
    return EmpiricalResult(
        mechanism_name=mechanism.name,
        group_size=size,
        num_groups=int(counts.shape[0]),
        repetitions=repetitions,
        per_repetition={name: np.asarray(values) for name, values in per_repetition.items()},
    )


def release_many_loop(
    release: HistogramRelease,
    true_counts: Sequence[int],
    repetitions: int,
    capacity: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """``HistogramRelease.release_many`` as ``repetitions`` sequential ``release`` calls."""
    rows = [
        release.release(true_counts, capacity=capacity, rng=rng).released_counts
        for _ in range(int(repetitions))
    ]
    return np.stack(rows)


# ---------------------------------------------------------------------- #
# Sampling: per-column CDFs and the offset search
# ---------------------------------------------------------------------- #
class ColumnLRUSampler:
    """The column-exact sampler the non-dense backends used.

    Builds each column's CDF with the scalar path's float operations, keeps
    the ``capacity`` most recently used ones, and answers a batch group by
    group with one ``searchsorted`` per distinct count.
    """

    def __init__(self, mechanism: Mechanism, capacity: int = 512) -> None:
        self.mechanism = mechanism
        self.capacity = capacity
        self.cache: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def column_cdf(self, j: int) -> np.ndarray:
        cdf = self.cache.get(j)
        if cdf is None:
            column = np.clip(self.mechanism._column(j), 0.0, None)
            column = column / column.sum()
            cdf = np.cumsum(column)
            cdf /= cdf[-1]
            self.cache[j] = cdf
            while len(self.cache) > self.capacity:
                self.cache.popitem(last=False)
        else:
            self.cache.move_to_end(j)
        return cdf

    def sample(self, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        order = np.argsort(counts, kind="stable")
        sorted_counts = counts[order]
        boundaries = np.flatnonzero(np.diff(sorted_counts)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [counts.shape[0]]))
        released = np.empty(counts.shape[0], dtype=np.int64)
        for start, end in zip(starts, ends):
            j = int(sorted_counts[start])
            indices = order[start:end]
            cdf = self.column_cdf(j)
            released[indices] = np.searchsorted(cdf, uniforms[indices], side="right")
        return released


def bulk_column_cdfs(matrix: np.ndarray) -> np.ndarray:
    """The dense backend's column-CDF table, built from the whole matrix at once."""
    # C-contiguous rows so the row reductions below use the same
    # pairwise-summation order as the 1-D scalar sampling path.
    columns = np.ascontiguousarray(np.clip(matrix.T, 0.0, None))
    columns = columns / columns.sum(axis=1, keepdims=True)
    cdfs = np.cumsum(columns, axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs


def offset_search_sample(
    cdfs: np.ndarray, counts: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """The dense backend's sampler: one ``searchsorted`` over column-offset CDFs.

    Offsetting row ``j`` by ``+j`` makes the flattened table non-decreasing;
    the walk-back undoes the overshoot that rounding ``count + u`` can cause.
    """
    size = cdfs.shape[0]
    flat = (cdfs + np.arange(size)[:, None]).ravel()
    positions = np.searchsorted(flat, counts + uniforms, side="right")
    released = np.minimum(positions - counts * size, size - 1)
    while True:
        overshoot = (released > 0) & (cdfs[counts, released - 1] > uniforms)
        if not overshoot.any():
            break
        released[overshoot] -= 1
    return released


def reference_inverse_sample(
    mechanism: Mechanism, counts: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Exact inverse-CDF sampling as each representation did it before the table.

    Dense mechanisms searched their :func:`bulk_column_cdfs` table with
    :func:`offset_search_sample`; closed forms at ``n <=
    EXACT_SAMPLING_LIMIT`` and sparse mechanisms used a fresh
    :class:`ColumnLRUSampler`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    uniforms = np.asarray(uniforms, dtype=float)
    if mechanism.is_dense:
        return offset_search_sample(bulk_column_cdfs(mechanism.matrix), counts, uniforms)
    return ColumnLRUSampler(mechanism).sample(counts, uniforms)

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
* :func:`geometric_column`, :func:`fair_column`, :func:`staircase_column`,
  their ``*_matrix`` stacks and CDFs compute integer powers of α with
  array pow, as GM, EM and STAIRCASE did before they read them from
  :func:`repro.mechanisms.powers.power_table`;
  :func:`reference_closed_form` rebuilds a closed-form mechanism on them.
* :func:`em_diagonal_loop` sums every ``alpha ** k`` of an EM column, the
  sum :func:`repro.core.theory.em_diagonal` stops at the first power that
  underflows to 0.0.

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
from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.core.properties import StructuralProperty
from repro.core.theory import em_diagonal
from repro.data.groups import GroupedCounts
from repro.engine.plan import ReleasePlan
from repro.eval.empirical import EmpiricalResult, MetricFunction, _prepare_evaluation
from repro.histogram.release import HistogramRelease
from repro.lp import scipy_backend
from repro.lp.model import SENSE_EQ, SENSE_GE, LinearProgram, ObjectiveSense, Variable
from repro.lp.solver import LPError, LPSolution, LPStatus
from repro.mechanisms.fair import fair_exponent_matrix
from repro.mechanisms.geometric import _check_parameters
from repro.mechanisms.staircase import _check_parameters as _check_staircase_parameters
from repro.mechanisms.staircase import _unnormalised_upper_tail


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


# ---------------------------------------------------------------------- #
# Closed forms: integer powers of alpha by array pow
# ---------------------------------------------------------------------- #
def geometric_column(n: int, alpha: float, j: int) -> np.ndarray:
    """Column ``j`` of GM's matrix (Figure 3), evaluated directly.

    This single function backs both representations: the dense
    :func:`geometric_matrix` stacks it and the closed-form mechanism
    evaluates it on demand, which is what makes the two bit-identical.
    """
    size = n + 1
    if alpha == 0.0:
        # Noise collapses onto zero: the identity (truthful) mechanism.
        column = np.zeros(size)
        column[j] = 1.0
        return column
    if alpha == 1.0:
        # The two-sided geometric distribution degenerates; all mass is
        # pushed to the clamping rows.
        column = np.zeros(size)
        column[0] = 0.5
        column[n] = 0.5
        return column
    x = 1.0 / (1.0 + alpha)
    y = (1.0 - alpha) / (1.0 + alpha)
    exponents = np.abs(np.arange(size) - j).astype(float)
    column = y * alpha**exponents
    column[0] = x * alpha ** float(j)
    column[n] = x * alpha ** float(n - j)
    return column


def geometric_matrix(n: int, alpha: float) -> np.ndarray:
    """Exact probability matrix of GM (Figure 3).

    For ``α = 0`` the noise distribution collapses onto zero and GM becomes
    the identity (truthful) mechanism; for ``α = 1`` the two-sided geometric
    distribution degenerates and all mass is pushed to the clamping rows, so
    the limit matrix splits each column evenly between outputs 0 and n.
    """
    _check_parameters(n, alpha)
    return np.column_stack([geometric_column(n, alpha, j) for j in range(n + 1)])


def _geometric_cdf(n: int, alpha: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic column CDF ``F(i | j)`` of GM, vectorised over (i, j) arrays.

    The two-sided geometric tails sum in closed form:
    ``F(i | j) = x α^{j−i}`` for ``i < j`` and ``1 − x α^{i−j+1}`` for
    ``i >= j`` (with ``F(-1) = 0`` and ``F(n) = 1`` exactly).
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        cdf = (i >= j).astype(float)
    elif alpha == 1.0:
        cdf = np.full(np.broadcast(i, j).shape, 0.5)
    else:
        x = 1.0 / (1.0 + alpha)
        # Clamp exponents at zero so the branch not selected by `where`
        # cannot overflow (alpha ** -large).
        below = x * alpha ** np.maximum(j - i, 0).astype(float)
        above = 1.0 - x * alpha ** np.maximum(i - j + 1, 0).astype(float)
        cdf = np.where(i < j, below, above)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def fair_exponent_column(n: int, j: int) -> np.ndarray:
    """Column ``j`` of the Equation-16 exponent pattern (integer array)."""
    distance = np.abs(np.arange(n + 1) - j)
    edge_distance = min(j, n - j)
    return np.where(distance < edge_distance, distance, (distance + edge_distance + 1) // 2)


def fair_column(n: int, alpha: float, j: int) -> np.ndarray:
    """Column ``j`` of EM's matrix, evaluated directly from Equation 16.

    Backs both the dense :func:`fair_matrix` and the closed-form mechanism;
    the elementwise power/scale operations match the full-matrix build
    bit-for-bit.
    """
    _check_parameters(n, alpha)
    if alpha == 0.0:
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    return _fair_column(n, alpha, em_diagonal(n, alpha), j)


def _fair_column(n: int, alpha: float, y: float, j: int) -> np.ndarray:
    """:func:`fair_column` with the normaliser ``y`` precomputed by the caller."""
    if alpha == 0.0:
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    exponents = fair_exponent_column(n, j).astype(float)
    return y * alpha**exponents


def fair_matrix(n: int, alpha: float) -> np.ndarray:
    """Exact probability matrix of EM.

    For ``α = 0`` the construction degenerates to the identity mechanism
    (only the zero exponent survives); for ``α = 1`` every power equals one
    and EM coincides with the uniform mechanism.
    """
    _check_parameters(n, alpha)
    size = n + 1
    if alpha == 0.0:
        return np.eye(size)
    exponents = fair_exponent_matrix(n)
    unnormalised = alpha ** exponents.astype(float)
    diagonal_value = em_diagonal(n, alpha)
    matrix = diagonal_value * unnormalised
    return matrix


def _geometric_sum(alpha: float, terms: np.ndarray) -> np.ndarray:
    """``1 + α + … + α^{t−1}`` for a non-negative integer array ``t`` (α < 1)."""
    return (1.0 - alpha ** np.maximum(terms, 0).astype(float)) / (1.0 - alpha)


def _fair_tail_sum(alpha: float, r: np.ndarray) -> np.ndarray:
    """``Σ_{s=0}^{r} α^{ceil(s/2)}`` for a non-negative integer array ``r``.

    The exponents pair up (1, α, α, α², α², …): ``r = 2q`` gives
    ``1 + 2 α (1 + … + α^{q−1})`` and an odd remainder adds ``α^{q+1}``.
    """
    r = np.maximum(r, 0)
    q = r // 2
    total = 1.0 + 2.0 * alpha * _geometric_sum(alpha, q)
    return total + np.where(r % 2 == 1, alpha ** (q + 1.0), 0.0)


def _fair_cdf_left(n: int, alpha: float, y: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic ``F(i | j)`` for columns in the left half (``j <= n − j``).

    The Equation-16 column splits into the clamped entry at 0 (exponent
    ``j``), the two-sided geometric interior ``k ∈ [1, 2j − 1]`` (exponent
    ``|k − j|``) and the paired tail ``k ∈ [max(2j, 1), n]`` (exponent
    ``ceil(k/2)``); each piece has a geometric closed form.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    # Entry k = 0 carries exponent j (for j = 0 this is the tail's r = 0 term).
    head = alpha ** j.astype(float)
    # Interior k in [1, min(i, 2j - 1)] — empty when j == 0 or i < 1.
    interior_top = np.minimum(i, 2 * j - 1)
    rising = alpha ** np.maximum(j - interior_top, 0).astype(float) * _geometric_sum(
        alpha, interior_top
    )
    falling = _geometric_sum(alpha, j) + alpha * _geometric_sum(alpha, interior_top - j)
    interior = np.where(interior_top <= j, rising, falling)
    interior = np.where(interior_top < 1, 0.0, interior)
    # Tail k in [max(2j, 1), i]: exponent ceil(k/2) = j + ceil(r/2) with
    # k = 2j + r.  For j = 0 the r = 0 term is the head entry, so drop it.
    tail_terms = _fair_tail_sum(alpha, i - 2 * j)
    tail_terms = np.where(j == 0, tail_terms - 1.0, tail_terms)
    tail = alpha ** j.astype(float) * tail_terms
    tail = np.where(i < np.maximum(2 * j, 1), 0.0, tail)
    cdf = y * (head + interior + tail)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _fair_cdf(n: int, alpha: float, y: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Analytic column CDF of EM, vectorised over (i, j) arrays.

    Right-half columns reduce to left-half ones through EM's
    centro-symmetry: ``F(i | j) = 1 − F(n − i − 1 | n − j)``.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        return (i >= j).astype(float)
    if alpha == 1.0:
        cdf = (i + 1.0) / (n + 1.0)
        cdf = np.where(i >= n, 1.0, cdf)
        return np.where(i < 0, 0.0, cdf)
    flip = j > n - j
    jj = np.where(flip, n - j, j)
    ii = np.where(flip, n - i - 1, i)
    left = _fair_cdf_left(n, alpha, y, ii, jj)
    cdf = np.where(flip, 1.0 - left, left)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _upper_tail_array(thresholds: np.ndarray, alpha: float, width: int) -> np.ndarray:
    """Vectorised :func:`_unnormalised_upper_tail` over a threshold array (>= 1)."""
    thresholds = np.asarray(thresholds, dtype=np.int64)
    level = thresholds // width
    next_boundary = (level + 1) * width
    partial_plateau = (next_boundary - thresholds) * alpha ** level.astype(float)
    remaining_plateaus = width * alpha ** (level + 1.0) / (1.0 - alpha)
    return partial_plateau + remaining_plateaus


def staircase_noise_pmf(alpha: float, width: int, support: int) -> np.ndarray:
    """PMF of staircase noise on ``{-support, …, +support}``, renormalised.

    Intended for inspection and plotting; :func:`staircase_matrix` folds the
    infinite tails exactly rather than truncating them.
    """
    _check_staircase_parameters(1, alpha, width)
    if support < 0:
        raise ValueError("support must be non-negative")
    offsets = np.arange(-support, support + 1)
    weights = alpha ** (np.abs(offsets) // width)
    return weights / weights.sum()


def staircase_column(n: int, alpha: float, width: int, j: int) -> np.ndarray:
    """Column ``j`` of the truncated staircase matrix, evaluated directly.

    Interior outputs carry the plateau weight of their offset from the true
    count; the clamping outputs 0 and ``n`` absorb the exact mass of the two
    infinite tails, so each column sums to one with no truncation error.
    This one function backs both the dense matrix and the closed form.
    """
    size = n + 1
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    column = np.zeros(size)
    interior = np.arange(1, size - 1)
    column[1 : size - 1] = alpha ** (np.abs(interior - j) // width).astype(float)
    # Output 0 absorbs all noise <= -j; by symmetry of the noise this is
    # the upper tail at threshold j (plus the point mass at 0 when j = 0).
    if j == 0:
        column[0] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[0] = _unnormalised_upper_tail(j, alpha, width)
    # Output n absorbs all noise >= n - j.
    if j == n:
        column[n] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[n] = _unnormalised_upper_tail(n - j, alpha, width)
    return column / normaliser


def staircase_matrix(n: int, alpha: float, width: int = 1) -> np.ndarray:
    """Transition matrix of the truncated discrete staircase mechanism."""
    _check_staircase_parameters(n, alpha, width)
    return np.column_stack([staircase_column(n, alpha, width, j) for j in range(n + 1)])


def _staircase_cdf(
    n: int, alpha: float, width: int, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic column CDF of the truncated staircase mechanism.

    Clamping makes the CDF a pure tail expression of the additive noise:
    ``F(i | j) = tail(j − i) / Z`` below the true count and
    ``1 − tail(i − j + 1) / Z`` at or above it.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    below = _upper_tail_array(np.maximum(j - i, 1), alpha, width) / normaliser
    above = 1.0 - _upper_tail_array(np.maximum(i - j + 1, 1), alpha, width) / normaliser
    cdf = np.where(i < j, below, above)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def reference_closed_form(mechanism: ClosedFormMechanism) -> ClosedFormMechanism:
    """``mechanism`` rebuilt on the pow-based column and CDF functions above.

    GM, EM and STAIRCASE get the columns and CDFs their factories used
    before the power table; every other closed form keeps its own, so a
    test can run one grid over all of them.
    """
    spec = mechanism.spec
    n = mechanism.n
    alpha = spec.params.get("alpha")
    column_fn, cdf_fn = spec.column_fn, spec.cdf_fn
    if spec.factory == "GM":
        column_fn = lambda j: geometric_column(n, alpha, j)
        cdf_fn = lambda i, j: _geometric_cdf(n, alpha, i, j)
    elif spec.factory == "EM":
        y = em_diagonal(n, alpha)
        column_fn = lambda j: _fair_column(n, alpha, y, j)
        cdf_fn = lambda i, j: _fair_cdf(n, alpha, y, i, j)
    elif spec.factory == "STAIRCASE":
        width = spec.params["width"]
        column_fn = lambda j: staircase_column(n, alpha, width, j)
        cdf_fn = lambda i, j: _staircase_cdf(n, alpha, width, i, j)
    reference_spec = ClosedFormSpec(
        factory=spec.factory,
        params=spec.params,
        column_fn=column_fn,
        cdf_fn=cdf_fn,
        diagonal_fn=spec.diagonal_fn,
        max_alpha_fn=spec.max_alpha_fn,
        properties_fn=spec.properties_fn,
    )
    return ClosedFormMechanism(
        n=n,
        spec=reference_spec,
        name=mechanism.name,
        alpha=mechanism.alpha,
        metadata=dict(mechanism.metadata),
    )


def em_diagonal_loop(n: int, alpha: float) -> float:
    """EM's diagonal ``y``: the reciprocal of a column sum of powers of α.

    Every ``alpha ** k`` up to ``n // 2``, summed left to right by ``+=``
    (the order Python's ``sum()`` used before 3.12), with no early stop.
    """
    if alpha == 1.0:
        return 1.0 / (n + 1)
    half = n // 2
    total = 0.0
    for k in range(1, half + 1):
        total += alpha**k
    column_sum = 1.0 + 2.0 * total
    if n % 2:
        column_sum += alpha ** (half + 1)
    return 1.0 / column_sum

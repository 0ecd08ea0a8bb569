"""Translation of BASICDP and the structural properties into LP constraints.

Section III of the paper writes the unconstrained design problem as a linear
program over variables ``ρ_{i,j} = Pr[i | j]`` (constraints 3–6); Theorem 2
observes that each of the seven structural properties of Section IV-A is
itself a set of linear constraints, so any subset can be added to the same
program.  This module performs that translation on top of the
:class:`~repro.lp.model.LinearProgram` substrate.

The central class is :class:`MechanismLPBuilder`: it creates the variable
grid, installs BASICDP, adds any requested structural properties, installs
the objective (including the minimax variant via an auxiliary variable) and
hands back the finished program together with the variable grid so the
caller can reconstruct the mechanism matrix from a solution.

Constraints are emitted as vectorized COO triplet blocks
(:meth:`~repro.lp.model.LinearProgram.add_constraints_from_triplets`) built
with NumPy index arithmetic, so assembling the LP costs ``O(nonzeros)``
instead of one Python dict per constraint.  The test-suite keeps a
loop-based reference builder (one dict per constraint) and verifies that
both emit the identical constraint system (same names, senses, right-hand
sides and coefficients, in the same order) for every property combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.losses import Objective
from repro.core.properties import ALL_PROPERTIES, StructuralProperty, parse_properties
from repro.lp.model import LinearProgram, Variable


@dataclass
class MechanismLP:
    """A finished mechanism-design LP plus the bookkeeping to read it back.

    ``variables[i][j]`` is the LP variable for ``Pr[i | j]``.
    """

    program: LinearProgram
    variables: List[List[Variable]]
    n: int
    alpha: float
    objective: Objective
    properties: FrozenSet[StructuralProperty]
    auxiliary: Optional[Variable] = None

    def _index_grid(self) -> np.ndarray:
        """Variable indices of the ρ grid as an ``(n+1, n+1)`` int array."""
        cached = self.__dict__.get("_index_grid_cache")
        if cached is None:
            cached = np.array(
                [[variable.index for variable in row] for row in self.variables],
                dtype=np.int64,
            )
            self.__dict__["_index_grid_cache"] = cached
        return cached

    def matrix_from_values(self, values: Sequence[float]) -> np.ndarray:
        """Assemble the mechanism matrix from a raw LP solution vector.

        A single fancy-index gathers the ``(n + 1)^2`` grid entries; tiny
        numerical noise from the solver is clipped and columns renormalised.
        """
        values = np.asarray(values, dtype=float)
        matrix = np.clip(values[self._index_grid()], 0.0, 1.0)
        column_sums = matrix.sum(axis=0, keepdims=True)
        if np.any(column_sums <= 0.0):
            bad = np.nonzero(column_sums.ravel() <= 0.0)[0]
            raise ValueError(
                f"solution column(s) {bad.tolist()} sum to zero after clipping; "
                "the LP solution does not describe a mechanism"
            )
        matrix /= column_sums
        return matrix

    def sparse_matrix_from_values(self, values: Sequence[float]):
        """Assemble the mechanism as a CSC sparse matrix from a solution vector.

        Same clipping/renormalisation semantics as :meth:`matrix_from_values`
        but only the strictly positive entries are kept, so the result is
        O(nnz) — LP optima are sparse/banded, and this is what lets
        :mod:`repro.core.design` hand the serving layer a
        :class:`~repro.core.mechanism.SparseMechanism` without ever storing
        the dense ``(n + 1)^2`` matrix.
        """
        from scipy import sparse

        values = np.asarray(values, dtype=float)
        size = self.n + 1
        # Cell value per (column, row) pair, column-major so the kept
        # entries drop straight into CSC order.
        cells = np.clip(values[self._index_grid().T.ravel()], 0.0, 1.0)
        column_sums = cells.reshape(size, size).sum(axis=1)
        if np.any(column_sums <= 0.0):
            bad = np.nonzero(column_sums <= 0.0)[0]
            raise ValueError(
                f"solution column(s) {bad.tolist()} sum to zero after clipping; "
                "the LP solution does not describe a mechanism"
            )
        keep = cells > 0.0
        per_column = keep.reshape(size, size).sum(axis=1)
        indptr = np.concatenate(([0], np.cumsum(per_column)))
        indices = np.nonzero(keep.reshape(size, size))[1].astype(np.int32)
        data = cells[keep] / np.repeat(column_sums, per_column)
        return sparse.csc_matrix(
            (data, indices, indptr.astype(np.int32)), shape=(size, size)
        )


class MechanismLPBuilder:
    """Builds the constrained mechanism-design LP of Sections III–IV.

    Typical usage::

        builder = MechanismLPBuilder(n=7, alpha=0.62)
        builder.add_basic_dp()
        builder.add_properties(["WH", "CM"])
        builder.set_objective(Objective.l0())
        mechanism_lp = builder.build()

    Every constraint family has one emitter, which adds its rows as one
    COO triplet block.  :meth:`add_properties` emits the property blocks in
    the paper's order (:data:`~repro.core.properties.ALL_PROPERTIES`), so a
    given specification always yields the same program.
    """

    def __init__(
        self,
        n: int,
        alpha: float,
        name: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise ValueError("group size n must be at least 1")
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        self.n = int(n)
        self.alpha = float(alpha)
        self.size = self.n + 1
        self.program = LinearProgram(name=name or f"mechanism(n={n}, alpha={alpha:.4g})")
        # Constraint 4: every entry is a probability in [0, 1].
        self.variables: List[List[Variable]] = [
            [
                self.program.add_variable(f"rho_{i}_{j}", lower=0.0, upper=1.0)
                for j in range(self.size)
            ]
            for i in range(self.size)
        ]
        self._auxiliary: Optional[Variable] = None
        self._objective: Optional[Objective] = None
        self._properties: set = set()
        self._basic_dp_added = False

    # ------------------------------------------------------------------ #
    # BASICDP (constraints 4–6)
    # ------------------------------------------------------------------ #
    def add_basic_dp(self) -> None:
        """Install the stochasticity and differential-privacy constraints.

        Constraint 5: each column sums to one.  Constraint 6: for every row
        ``i`` and neighbouring inputs ``j, j + 1``,
        ``ρ_{i,j} >= α ρ_{i,j+1}`` and ``ρ_{i,j+1} >= α ρ_{i,j}``.
        """
        if self._basic_dp_added:
            return
        size = self.size
        # Column sums: row j covers ρ_{0,j} … ρ_{n,j}.
        j = np.arange(size)
        self.program.add_constraints_from_triplets(
            rows=np.repeat(j, size),
            # Row j touches the flat indices i * size + j for every output i.
            cols=(np.arange(size)[None, :] * size + j[:, None]).ravel(),
            vals=np.ones(size * size),
            senses="==",
            rhs=np.ones(size),
            names=lambda k: f"column_sum_{k}",
        )
        # DP ratio pairs, interleaved forward/backward: pair k = i * n + j
        # gives rows 2k (forward) and 2k+1 (backward).
        num_pairs = size * (size - 1)
        i_idx = np.repeat(np.arange(size), size - 1)
        j_idx = np.tile(np.arange(size - 1), size)
        left = i_idx * size + j_idx  # ρ_{i,j}
        right = left + 1  # ρ_{i,j+1}
        k = np.arange(num_pairs)
        ones = np.ones(num_pairs)
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([2 * k, 2 * k, 2 * k + 1, 2 * k + 1]),
            cols=np.concatenate([left, right, right, left]),
            vals=np.concatenate([ones, -self.alpha * ones, ones, -self.alpha * ones]),
            senses=">=",
            rhs=np.zeros(2 * num_pairs),
            names=self._dp_name,
        )
        self._basic_dp_added = True

    def _dp_name(self, k: int) -> str:
        pair, backward = divmod(k, 2)
        i, j = divmod(pair, self.size - 1)
        return f"dp_{'backward' if backward else 'forward'}_{i}_{j}"

    def add_output_dp(self, beta: Optional[float] = None) -> None:
        """Install the output-side DP constraints (the Section-VI extension).

        For every input ``j`` and neighbouring outputs ``i, i + 1``,
        ``ρ_{i,j} >= β ρ_{i+1,j}`` and ``ρ_{i+1,j} >= β ρ_{i,j}``.  ``beta``
        defaults to the mechanism's α, the symmetric requirement the paper
        suggests in its concluding remarks.
        """
        beta = self.alpha if beta is None else float(beta)
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        size = self.size
        num_pairs = size * (size - 1)
        j_idx = np.repeat(np.arange(size), size - 1)
        i_idx = np.tile(np.arange(size - 1), size)
        upper = i_idx * size + j_idx  # ρ_{i,j}
        lower = upper + size  # ρ_{i+1,j}
        k = np.arange(num_pairs)
        ones = np.ones(num_pairs)
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([2 * k, 2 * k, 2 * k + 1, 2 * k + 1]),
            cols=np.concatenate([upper, lower, lower, upper]),
            vals=np.concatenate([ones, -beta * ones, ones, -beta * ones]),
            senses=">=",
            rhs=np.zeros(2 * num_pairs),
            names=self._output_dp_name,
        )

    def _output_dp_name(self, k: int) -> str:
        pair, up = divmod(k, 2)
        j, i = divmod(pair, self.size - 1)
        return f"output_dp_{'up' if up else 'down'}_{i}_{j}"

    # ------------------------------------------------------------------ #
    # Structural properties (Section IV-A)
    # ------------------------------------------------------------------ #
    def add_properties(
        self, properties: Iterable[Union[str, StructuralProperty]]
    ) -> FrozenSet[StructuralProperty]:
        """Add every property in the given specification; returns the parsed set."""
        props = parse_properties(properties)
        # Paper order, not set order: a frozenset of str-enum members
        # iterates by string hash, which changes with PYTHONHASHSEED, and a
        # degenerate LP solved from reordered rows can return another vertex.
        for prop in ALL_PROPERTIES:
            if prop in props:
                self.add_property(prop)
        return props

    def add_property(self, prop: Union[str, StructuralProperty]) -> None:
        """Add the linear constraints for a single structural property."""
        prop = StructuralProperty.coerce(prop)
        if prop in self._properties:
            return
        dispatch = {
            StructuralProperty.ROW_HONESTY: self._add_row_honesty,
            StructuralProperty.ROW_MONOTONE: self._add_row_monotonicity,
            StructuralProperty.COLUMN_HONESTY: self._add_column_honesty,
            StructuralProperty.COLUMN_MONOTONE: self._add_column_monotonicity,
            StructuralProperty.FAIRNESS: self._add_fairness,
            StructuralProperty.WEAK_HONESTY: self._add_weak_honesty,
            StructuralProperty.SYMMETRY: self._add_symmetry,
        }
        dispatch[prop]()
        self._properties.add(prop)

    def _pairwise_block(self, plus, minus, sense, rhs, names) -> None:
        """Batch of two-term constraints ``ρ[plus_k] - ρ[minus_k] sense rhs``."""
        count = plus.shape[0]
        rows = np.arange(count)
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([rows, rows]),
            cols=np.concatenate([plus, minus]),
            vals=np.concatenate([np.ones(count), -np.ones(count)]),
            senses=sense,
            rhs=np.full(count, float(rhs)),
            names=names,
        )

    def _add_row_honesty(self) -> None:
        """RH (Eq. 7): ``ρ_{i,i} >= ρ_{i,j}``."""
        size = self.size
        i_idx = np.repeat(np.arange(size), size)
        j_idx = np.tile(np.arange(size), size)
        off = i_idx != j_idx
        i_idx, j_idx = i_idx[off], j_idx[off]
        self._pairwise_block(
            plus=i_idx * size + i_idx,
            minus=i_idx * size + j_idx,
            sense=">=",
            rhs=0.0,
            names=lambda k, i=i_idx, j=j_idx: f"row_honesty_{i[k]}_{j[k]}",
        )

    def _add_row_monotonicity(self) -> None:
        """RM (Eq. 8): row entries decay away from the diagonal."""
        size = self.size
        # Each row i emits: left pairs for j = 1 … i, then right pairs for
        # j = i … size-2 (size-1 constraints per row).  The local slot of a
        # left pair is base + j - 1 and of a right pair base + j, which
        # interleaves them in row-by-row loop order.
        i_grid = np.repeat(np.arange(size), size)
        j_grid = np.tile(np.arange(size), size)
        base = i_grid * (size - 1)
        left = (j_grid >= 1) & (j_grid <= i_grid)
        right = (j_grid >= i_grid) & (j_grid <= size - 2)
        li, lj = i_grid[left], j_grid[left]
        ri, rj = i_grid[right], j_grid[right]
        rows = np.concatenate([base[left] + lj - 1, base[right] + rj])
        num = size * (size - 1)
        plus = np.concatenate([li * size + lj, ri * size + rj])
        minus = np.concatenate([li * size + lj - 1, ri * size + rj + 1])
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([rows, rows]),
            cols=np.concatenate([plus, minus]),
            vals=np.concatenate([np.ones(num), -np.ones(num)]),
            senses=">=",
            rhs=np.zeros(num),
            names=self._row_monotone_name,
        )

    def _row_monotone_name(self, k: int) -> str:
        i, slot = divmod(k, self.size - 1)
        j = slot + 1 if slot < i else slot
        side = "left" if slot < i else "right"
        return f"row_monotone_{side}_{i}_{j}"

    def _add_column_honesty(self) -> None:
        """CH (Eq. 9): ``ρ_{j,j} >= ρ_{i,j}``."""
        size = self.size
        j_idx = np.repeat(np.arange(size), size)
        i_idx = np.tile(np.arange(size), size)
        off = i_idx != j_idx
        i_idx, j_idx = i_idx[off], j_idx[off]
        self._pairwise_block(
            plus=j_idx * size + j_idx,
            minus=i_idx * size + j_idx,
            sense=">=",
            rhs=0.0,
            names=lambda k, i=i_idx, j=j_idx: f"column_honesty_{i[k]}_{j[k]}",
        )

    def _add_column_monotonicity(self) -> None:
        """CM (Eq. 10): column entries decay away from the diagonal."""
        size = self.size
        # Mirror of row monotonicity with the roles of i and j swapped.
        j_grid = np.repeat(np.arange(size), size)
        i_grid = np.tile(np.arange(size), size)
        base = j_grid * (size - 1)
        up = (i_grid >= 1) & (i_grid <= j_grid)
        down = (i_grid >= j_grid) & (i_grid <= size - 2)
        ui, uj = i_grid[up], j_grid[up]
        di, dj = i_grid[down], j_grid[down]
        rows = np.concatenate([base[up] + ui - 1, base[down] + di])
        num = size * (size - 1)
        plus = np.concatenate([ui * size + uj, di * size + dj])
        minus = np.concatenate([(ui - 1) * size + uj, (di + 1) * size + dj])
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([rows, rows]),
            cols=np.concatenate([plus, minus]),
            vals=np.concatenate([np.ones(num), -np.ones(num)]),
            senses=">=",
            rhs=np.zeros(num),
            names=self._column_monotone_name,
        )

    def _column_monotone_name(self, k: int) -> str:
        j, slot = divmod(k, self.size - 1)
        i = slot + 1 if slot < j else slot
        side = "up" if slot < j else "down"
        return f"column_monotone_{side}_{i}_{j}"

    def _add_fairness(self) -> None:
        """F (Eq. 11): every diagonal entry equals ``ρ_{0,0}``."""
        size = self.size
        i_idx = np.arange(1, size)
        self._pairwise_block(
            plus=i_idx * size + i_idx,
            minus=np.zeros(size - 1, dtype=np.int64),
            sense="==",
            rhs=0.0,
            names=lambda k: f"fairness_{k + 1}",
        )

    def _add_weak_honesty(self) -> None:
        """WH (Eq. 13): ``ρ_{i,i} >= 1 / (n + 1)``."""
        size = self.size
        threshold = 1.0 / size
        i_idx = np.arange(size)
        self.program.add_constraints_from_triplets(
            rows=i_idx,
            cols=i_idx * size + i_idx,
            vals=np.ones(size),
            senses=">=",
            rhs=np.full(size, threshold),
            names=lambda k: f"weak_honesty_{k}",
        )

    def _add_symmetry(self) -> None:
        """S (Eq. 14): centro-symmetry ``ρ_{i,j} = ρ_{n-i,n-j}``."""
        size = self.size
        # In flat (row-major) indexing the mirror of f is size^2 - 1 - f, so
        # keeping the first visit of each mirror pair keeps exactly the
        # cells in the strict first half of the grid.
        flat = np.arange(size * size)
        keep = flat[2 * flat < size * size - 1]
        self._pairwise_block(
            plus=keep,
            minus=size * size - 1 - keep,
            sense="==",
            rhs=0.0,
            names=lambda k, f=keep: f"symmetry_{f[k] // self.size}_{f[k] % self.size}",
        )

    # ------------------------------------------------------------------ #
    # Objective (constraint 3)
    # ------------------------------------------------------------------ #
    def set_objective(self, objective: Objective) -> None:
        """Install the loss function as the LP objective.

        For the expectation aggregator the objective is the linear form
        ``Σ_j w_j Σ_i penalty(i, j) ρ_{i,j}``.  For the minimax aggregator an
        auxiliary variable ``t`` bounds each per-input loss from above and is
        itself minimised.
        """
        self._objective = objective
        penalties = objective.penalties(self.size)
        weights = objective.prior(self.size)
        if objective.aggregator == "sum":
            self.program.set_objective_from_array(
                (penalties * weights[None, :]).ravel(), sense="min"
            )
            return
        # Minimax: minimise t subject to per-input loss <= t.
        self._auxiliary = self.program.add_variable("minimax_bound", lower=0.0)
        size = self.size
        j_idx = np.repeat(np.arange(size), size)
        i_idx = np.tile(np.arange(size), size)
        self.program.add_constraints_from_triplets(
            rows=np.concatenate([np.arange(size), j_idx]),
            cols=np.concatenate([np.full(size, self._auxiliary.index), i_idx * size + j_idx]),
            vals=np.concatenate([-np.ones(size), penalties[i_idx, j_idx]]),
            senses="<=",
            rhs=np.zeros(size),
            names=lambda k: f"minimax_bound_{k}",
        )
        self.program.set_objective({self._auxiliary: 1.0}, sense="min")

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def build(self) -> MechanismLP:
        """Return the finished :class:`MechanismLP` (BASICDP added if missing)."""
        if not self._basic_dp_added:
            self.add_basic_dp()
        if self._objective is None:
            self.set_objective(Objective.l0())
        return MechanismLP(
            program=self.program,
            variables=self.variables,
            n=self.n,
            alpha=self.alpha,
            objective=self._objective,
            properties=frozenset(self._properties),
            auxiliary=self._auxiliary,
        )


def build_mechanism_lp(
    n: int,
    alpha: float,
    properties: Iterable[Union[str, StructuralProperty]] = (),
    objective: Optional[Objective] = None,
    output_alpha: Optional[float] = None,
) -> MechanismLP:
    """Convenience wrapper assembling BASICDP + properties + objective.

    ``output_alpha`` additionally installs the output-side DP constraints of
    the Section-VI extension at the given level (pass ``alpha`` itself for
    the symmetric requirement).
    """
    builder = MechanismLPBuilder(n=n, alpha=alpha)
    builder.add_basic_dp()
    if output_alpha is not None:
        builder.add_output_dp(output_alpha)
    builder.add_properties(properties)
    builder.set_objective(objective if objective is not None else Objective.l0())
    return builder.build()

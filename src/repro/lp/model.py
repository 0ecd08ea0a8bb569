"""Linear-program modelling layer.

This module defines a small, explicit API for building linear programs:

>>> lp = LinearProgram(name="toy")
>>> x = lp.add_variable("x", lower=0.0)
>>> y = lp.add_variable("y", lower=0.0)
>>> lp.add_constraint({x: 1.0, y: 2.0}, "<=", 4.0)
>>> lp.add_constraint({x: 1.0, y: -1.0}, ">=", -1.0)
>>> lp.set_objective({x: 1.0, y: 1.0}, sense="max")

The resulting :class:`LinearProgram` is solver-agnostic; it is exported to
SciPy CSR form (:meth:`LinearProgram.to_sparse_arrays`), which
:func:`repro.lp.solver.solve` hands to HiGHS.

Constraints can be added one at a time (:meth:`LinearProgram.add_constraint`,
convenient for small models) or in vectorized batches of COO triplets
(:meth:`LinearProgram.add_constraints_from_triplets`).  The batched form is
what makes the mechanism-design pipeline scale: the paper's LP has
``(n + 1)^2`` variables but only a handful of nonzeros per row, so building
and exporting it sparsely turns an ``O(n^4)``-memory dense assembly into an
``O(n^2)`` one.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

Number = Union[int, float, np.floating, np.integer]


class ConstraintSense(str, enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="

    @classmethod
    def coerce(cls, value: Union["ConstraintSense", str]) -> "ConstraintSense":
        """Accept either an enum member or one of ``<=``, ``>=``, ``==``, ``=``."""
        if isinstance(value, ConstraintSense):
            return value
        text = str(value).strip()
        if text in ("<=", "<"):
            return cls.LE
        if text in (">=", ">"):
            return cls.GE
        if text in ("==", "="):
            return cls.EQ
        raise ValueError(f"unknown constraint sense: {value!r}")


#: Integer sense codes used in the vectorized batch representation.
SENSE_LE, SENSE_GE, SENSE_EQ = 0, 1, 2

_SENSE_TO_CODE = {ConstraintSense.LE: SENSE_LE, ConstraintSense.GE: SENSE_GE, ConstraintSense.EQ: SENSE_EQ}
_CODE_TO_SENSE = {SENSE_LE: ConstraintSense.LE, SENSE_GE: ConstraintSense.GE, SENSE_EQ: ConstraintSense.EQ}


def _coerce_sense_codes(senses, num_rows: int) -> np.ndarray:
    """Normalise a scalar or per-row sense specification to an int8 code array."""
    if isinstance(senses, (str, ConstraintSense)):
        return np.full(num_rows, _SENSE_TO_CODE[ConstraintSense.coerce(senses)], dtype=np.int8)
    if isinstance(senses, (int, np.integer)):
        if int(senses) not in _CODE_TO_SENSE:
            raise ValueError(f"unknown sense code: {senses!r}")
        return np.full(num_rows, int(senses), dtype=np.int8)
    array = np.asarray(senses)
    if array.dtype.kind in ("i", "u", "b"):
        codes = array.astype(np.int8)
        if codes.size and (codes.min() < SENSE_LE or codes.max() > SENSE_EQ):
            raise ValueError("sense codes must be SENSE_LE, SENSE_GE or SENSE_EQ")
    else:
        codes = np.fromiter(
            (_SENSE_TO_CODE[ConstraintSense.coerce(s)] for s in senses),
            dtype=np.int8,
            count=len(senses),
        )
    if codes.shape != (num_rows,):
        raise ValueError(f"senses has shape {codes.shape}, expected ({num_rows},)")
    return codes


class ObjectiveSense(str, enum.Enum):
    """Whether the objective is minimised or maximised."""

    MIN = "min"
    MAX = "max"

    @classmethod
    def coerce(cls, value: Union["ObjectiveSense", str]) -> "ObjectiveSense":
        if isinstance(value, ObjectiveSense):
            return value
        text = str(value).strip().lower()
        if text in ("min", "minimize", "minimise"):
            return cls.MIN
        if text in ("max", "maximize", "maximise"):
            return cls.MAX
        raise ValueError(f"unknown objective sense: {value!r}")


@dataclass(frozen=True)
class Variable:
    """A decision variable in a :class:`LinearProgram`.

    Variables compare by index so they can be used as dictionary keys in
    coefficient mappings.
    """

    index: int
    name: str
    lower: Optional[float] = 0.0
    upper: Optional[float] = None

    def __hash__(self) -> int:
        return hash(self.index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return self.index == other.index
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.index}, {self.name!r})"


@dataclass
class Constraint:
    """A single linear constraint ``sum(coeff * var) sense rhs``."""

    coefficients: Dict[int, float]
    sense: ConstraintSense
    rhs: float
    name: str = ""

    def evaluate(self, values: Sequence[float]) -> float:
        """Return the left-hand-side value under a candidate assignment."""
        return float(sum(coeff * values[idx] for idx, coeff in self.coefficients.items()))

    def violation(self, values: Sequence[float]) -> float:
        """Return how far the constraint is from being satisfied (0 if satisfied)."""
        lhs = self.evaluate(values)
        if self.sense is ConstraintSense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is ConstraintSense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


#: Per-row names for a constraint block: an explicit sequence, a callable
#: mapping the local row index to a name, or ``None`` for auto ``c{k}`` names.
BlockNames = Union[None, Sequence[str], Callable[[int], str]]


@dataclass
class ConstraintBlock:
    """A batch of constraints stored as COO triplets plus per-row sense/rhs.

    ``rows`` holds *local* row indices in ``[0, num_rows)``; the block's rows
    occupy consecutive global constraint slots starting at ``start_index``.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    names: BlockNames = None
    start_index: int = 0

    @property
    def num_rows(self) -> int:
        return int(self.rhs.shape[0])

    @property
    def num_nonzeros(self) -> int:
        return int(self.vals.shape[0])

    def name_of(self, local_row: int) -> str:
        """Name of one row (auto-generated ``c{global_index}`` by default)."""
        if self.names is None:
            return f"c{self.start_index + local_row}"
        if callable(self.names):
            return self.names(local_row)
        return self.names[local_row]

    def materialize(self) -> List[Constraint]:
        """Expand the block into per-row :class:`Constraint` objects.

        Intended for inspection and testing; duplicate ``(row, col)`` entries
        are summed, matching the batched export semantics.
        """
        coefficient_maps: List[Dict[int, float]] = [dict() for _ in range(self.num_rows)]
        for row, col, val in zip(self.rows, self.cols, self.vals):
            mapping = coefficient_maps[int(row)]
            col = int(col)
            mapping[col] = mapping.get(col, 0.0) + float(val)
        return [
            Constraint(
                coefficients=coefficient_maps[k],
                sense=_CODE_TO_SENSE[int(self.senses[k])],
                rhs=float(self.rhs[k]),
                name=self.name_of(k),
            )
            for k in range(self.num_rows)
        ]


class LinearProgram:
    """A linear program with named variables and constraints.

    The class intentionally keeps the interface small and explicit: variables
    are created with :meth:`add_variable`, constraints with
    :meth:`add_constraint` (one at a time) or
    :meth:`add_constraints_from_triplets` (vectorized batches), and the
    objective with :meth:`set_objective` or :meth:`set_objective_from_array`.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._names: Dict[str, int] = {}
        # Mixed, insertion-ordered storage: scalar Constraint objects and
        # batched ConstraintBlock objects.
        self._items: List[Union[Constraint, ConstraintBlock]] = []
        self._num_rows = 0
        self._objective: Dict[int, float] = {}
        self._objective_dense: Optional[np.ndarray] = None
        self._objective_sense: ObjectiveSense = ObjectiveSense.MIN
        self._objective_constant: float = 0.0
        # Caches invalidated whenever variables or constraints change.
        self._gather_cache = None
        self._offsets_cache: Optional[List[int]] = None

    def _invalidate(self) -> None:
        self._gather_cache = None
        self._offsets_cache = None

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables in creation order."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    def variable_names(self) -> Tuple[str, ...]:
        """All variable names in index order."""
        return tuple(self._names)

    def add_variable(
        self,
        name: Optional[str] = None,
        lower: Optional[Number] = 0.0,
        upper: Optional[Number] = None,
    ) -> Variable:
        """Create a new variable and return its handle.

        Parameters
        ----------
        name:
            Optional human-readable name; auto-generated when omitted.  Names
            must be unique within a program.
        lower, upper:
            Simple bounds.  ``None`` means unbounded in that direction.
        """
        index = len(self._variables)
        if name is None:
            name = f"x{index}"
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name!r}")
        if lower is not None and upper is not None and float(lower) > float(upper):
            raise ValueError(f"variable {name!r} has lower bound above upper bound")
        var = Variable(
            index=index,
            name=name,
            lower=None if lower is None else float(lower),
            upper=None if upper is None else float(upper),
        )
        self._variables.append(var)
        self._names[name] = index
        self._invalidate()
        return var

    def add_variables(
        self,
        count: int,
        prefix: str = "x",
        lower: Optional[Number] = 0.0,
        upper: Optional[Number] = None,
    ) -> List[Variable]:
        """Create ``count`` variables named ``prefix0 … prefix(count-1)``.

        When the program already holds variables, numbering continues from
        the current variable count so repeated calls never collide.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self.num_variables
        return [
            self.add_variable(f"{prefix}{start + i}", lower=lower, upper=upper)
            for i in range(count)
        ]

    def variable_by_name(self, name: str) -> Variable:
        """Look up a variable handle by its name."""
        try:
            return self._variables[self._names[name]]
        except KeyError as exc:
            raise KeyError(f"no variable named {name!r}") from exc

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """Every constraint as a :class:`Constraint` object, in insertion order.

        Batched blocks are materialized on demand; prefer the vectorized
        exports (:meth:`to_sparse_arrays`) on large programs.
        """
        flat: List[Constraint] = []
        for item in self._items:
            if isinstance(item, Constraint):
                flat.append(item)
            else:
                flat.extend(item.materialize())
        return tuple(flat)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def add_constraint(
        self,
        coefficients: Mapping[Union[Variable, int], Number],
        sense: Union[ConstraintSense, str],
        rhs: Number,
        name: str = "",
    ) -> Constraint:
        """Add a constraint ``sum(coeff * var) sense rhs``.

        ``coefficients`` maps variables (or their indices) to coefficients.
        Zero coefficients are dropped; an empty constraint is rejected unless
        it is trivially satisfiable, in which case it is recorded as-is so the
        caller can detect modelling mistakes.
        """
        resolved: Dict[int, float] = {}
        for key, coeff in coefficients.items():
            index = key.index if isinstance(key, Variable) else int(key)
            if index < 0 or index >= self.num_variables:
                raise IndexError(f"constraint references unknown variable index {index}")
            value = float(coeff)
            if value != 0.0:
                resolved[index] = resolved.get(index, 0.0) + value
        constraint = Constraint(
            coefficients=resolved,
            sense=ConstraintSense.coerce(sense),
            rhs=float(rhs),
            name=name or f"c{self._num_rows}",
        )
        self._items.append(constraint)
        self._num_rows += 1
        self._invalidate()
        return constraint

    def add_constraints_from_triplets(
        self,
        rows,
        cols,
        vals,
        senses,
        rhs,
        names: BlockNames = None,
    ) -> ConstraintBlock:
        """Add a batch of constraints given as COO triplets.

        Parameters
        ----------
        rows, cols, vals:
            Parallel arrays of nonzero entries: constraint ``rows[k]`` (local
            to this batch, in ``[0, len(rhs))``) has coefficient ``vals[k]``
            on variable ``cols[k]``.  Duplicate ``(row, col)`` pairs are
            summed; exact zeros are dropped, matching
            :meth:`add_constraint`.
        senses:
            Either one sense for the whole batch (``"<="``/``">="``/``"=="``
            or a :class:`ConstraintSense`) or a per-row sequence / int8 code
            array (:data:`SENSE_LE`, :data:`SENSE_GE`, :data:`SENSE_EQ`).
        rhs:
            Per-row right-hand sides; its length defines the number of rows.
        names:
            Optional per-row names: a sequence, or a callable mapping the
            local row index to a name (evaluated lazily, which keeps huge
            batches cheap), or ``None`` for auto ``c{index}`` names.

        Returns the stored :class:`ConstraintBlock`.
        """
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if rhs.ndim != 1:
            raise ValueError("rhs must be one-dimensional")
        num_rows = rhs.shape[0]
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and vals must be one-dimensional and equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= num_rows:
                raise IndexError("constraint block references a row outside [0, len(rhs))")
            if cols.min() < 0 or cols.max() >= self.num_variables:
                raise IndexError("constraint block references an unknown variable index")
        codes = _coerce_sense_codes(senses, num_rows)
        if names is not None and not callable(names) and len(names) != num_rows:
            raise ValueError(f"names has length {len(names)}, expected {num_rows}")
        # Drop exact zeros so the stored system matches add_constraint().
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        block = ConstraintBlock(
            rows=rows,
            cols=cols,
            vals=vals,
            senses=codes,
            rhs=rhs,
            names=names,
            start_index=self._num_rows,
        )
        self._items.append(block)
        self._num_rows += num_rows
        self._invalidate()
        return block

    def constraint_name(self, index: int) -> str:
        """Name of the constraint at a global row index."""
        if index < 0 or index >= self._num_rows:
            raise IndexError(f"constraint index {index} out of range")
        offsets = self._item_offsets()
        item_pos = bisect.bisect_right(offsets, index) - 1
        item = self._items[item_pos]
        if isinstance(item, Constraint):
            return item.name
        return item.name_of(index - offsets[item_pos])

    def _item_offsets(self) -> List[int]:
        if self._offsets_cache is None:
            offsets: List[int] = []
            total = 0
            for item in self._items:
                offsets.append(total)
                total += 1 if isinstance(item, Constraint) else item.num_rows
            self._offsets_cache = offsets
        return self._offsets_cache

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #
    @property
    def objective_sense(self) -> ObjectiveSense:
        return self._objective_sense

    @property
    def objective_constant(self) -> float:
        return self._objective_constant

    def set_objective(
        self,
        coefficients: Mapping[Union[Variable, int], Number],
        sense: Union[ObjectiveSense, str] = ObjectiveSense.MIN,
        constant: Number = 0.0,
    ) -> None:
        """Set the linear objective ``sense sum(coeff * var) + constant``."""
        resolved: Dict[int, float] = {}
        for key, coeff in coefficients.items():
            index = key.index if isinstance(key, Variable) else int(key)
            if index < 0 or index >= self.num_variables:
                raise IndexError(f"objective references unknown variable index {index}")
            value = float(coeff)
            if value != 0.0:
                resolved[index] = resolved.get(index, 0.0) + value
        self._objective = resolved
        self._objective_dense = None
        self._objective_sense = ObjectiveSense.coerce(sense)
        self._objective_constant = float(constant)

    def set_objective_from_array(
        self,
        coefficients: np.ndarray,
        sense: Union[ObjectiveSense, str] = ObjectiveSense.MIN,
        constant: Number = 0.0,
    ) -> None:
        """Vectorized objective: coefficient ``coefficients[i]`` on variable ``i``.

        The array may be shorter than the variable count (missing entries are
        zero), which lets callers set the objective before auxiliary
        variables exist.
        """
        array = np.asarray(coefficients, dtype=float).ravel()
        if array.shape[0] > self.num_variables:
            raise IndexError(
                f"objective has {array.shape[0]} coefficients for {self.num_variables} variables"
            )
        self._objective_dense = array
        self._objective = {}
        self._objective_sense = ObjectiveSense.coerce(sense)
        self._objective_constant = float(constant)

    def objective_vector(self) -> np.ndarray:
        """Return the objective coefficients as a dense vector (min sense sign)."""
        c = np.zeros(self.num_variables, dtype=float)
        if self._objective_dense is not None:
            c[: self._objective_dense.shape[0]] = self._objective_dense
        else:
            for index, coeff in self._objective.items():
                c[index] = coeff
        return c

    def objective_value(self, values: Sequence[float]) -> float:
        """Evaluate the objective (with constant) at a candidate assignment."""
        if self._objective_dense is not None:
            values = np.asarray(values, dtype=float)
            dense = self._objective_dense
            return float(dense @ values[: dense.shape[0]] + self._objective_constant)
        total = self._objective_constant
        for index, coeff in self._objective.items():
            total += coeff * float(values[index])
        return float(total)

    # ------------------------------------------------------------------ #
    # Export and diagnostics
    # ------------------------------------------------------------------ #
    def bounds(self) -> List[Tuple[Optional[float], Optional[float]]]:
        """Per-variable (lower, upper) bounds in index order."""
        return [(var.lower, var.upper) for var in self._variables]

    def _bound_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        lower = np.array(
            [(-np.inf if var.lower is None else var.lower) for var in self._variables],
            dtype=float,
        )
        upper = np.array(
            [(np.inf if var.upper is None else var.upper) for var in self._variables],
            dtype=float,
        )
        return lower, upper

    def _gather_triplets(self):
        """All constraints as global COO triplets plus per-row sense/rhs arrays.

        Returns ``(rows, cols, vals, senses, rhs)`` where ``rows`` indexes the
        global constraint order.  Cached until the program changes.
        """
        if self._gather_cache is None:
            rows_parts: List[np.ndarray] = []
            cols_parts: List[np.ndarray] = []
            vals_parts: List[np.ndarray] = []
            senses = np.empty(self._num_rows, dtype=np.int8)
            rhs = np.empty(self._num_rows, dtype=float)
            offset = 0
            for item in self._items:
                if isinstance(item, Constraint):
                    count = len(item.coefficients)
                    if count:
                        rows_parts.append(np.full(count, offset, dtype=np.int64))
                        cols_parts.append(
                            np.fromiter(item.coefficients.keys(), dtype=np.int64, count=count)
                        )
                        vals_parts.append(
                            np.fromiter(item.coefficients.values(), dtype=float, count=count)
                        )
                    senses[offset] = _SENSE_TO_CODE[item.sense]
                    rhs[offset] = item.rhs
                    offset += 1
                else:
                    if item.num_nonzeros:
                        rows_parts.append(item.rows + offset)
                        cols_parts.append(item.cols)
                        vals_parts.append(item.vals)
                    senses[offset : offset + item.num_rows] = item.senses
                    rhs[offset : offset + item.num_rows] = item.rhs
                    offset += item.num_rows
            rows = np.concatenate(rows_parts) if rows_parts else np.zeros(0, dtype=np.int64)
            cols = np.concatenate(cols_parts) if cols_parts else np.zeros(0, dtype=np.int64)
            vals = np.concatenate(vals_parts) if vals_parts else np.zeros(0, dtype=float)
            self._gather_cache = (rows, cols, vals, senses, rhs)
        return self._gather_cache

    def num_nonzeros(self) -> int:
        """Number of stored nonzero constraint coefficients."""
        return int(self._gather_triplets()[2].shape[0])

    def to_sparse_arrays(self) -> Dict[str, object]:
        """Export to SciPy CSR form, the form HiGHS is given.

        Returns a dict with keys ``c`` (minimisation objective), ``A_ub``,
        ``b_ub``, ``A_eq``, ``b_eq``, ``lower``, ``upper``.  ``>=``
        constraints are negated into ``<=`` form and maximisation objectives
        are negated, so the solver always minimises; each matrix keeps the
        insertion order of its rows.  ``A_ub`` and ``A_eq`` are
        ``scipy.sparse.csr_matrix`` instances, so memory and build time scale
        with the number of nonzeros instead of ``rows x columns``.
        """
        from scipy import sparse

        num_vars = self.num_variables
        c = self.objective_vector()
        if self._objective_sense is ObjectiveSense.MAX:
            c = -c

        rows, cols, vals, senses, rhs = self._gather_triplets()
        eq_row_mask = senses == SENSE_EQ
        ub_row_mask = ~eq_row_mask
        num_ub = int(ub_row_mask.sum())
        num_eq = int(eq_row_mask.sum())
        ub_position = np.cumsum(ub_row_mask) - 1
        eq_position = np.cumsum(eq_row_mask) - 1
        row_sign = np.where(senses == SENSE_GE, -1.0, 1.0)

        if rows.size:
            nz_is_eq = eq_row_mask[rows]
            ub_nz = ~nz_is_eq
            A_ub = sparse.coo_matrix(
                (
                    vals[ub_nz] * row_sign[rows[ub_nz]],
                    (ub_position[rows[ub_nz]], cols[ub_nz]),
                ),
                shape=(num_ub, num_vars),
            ).tocsr()
            A_eq = sparse.coo_matrix(
                (vals[nz_is_eq], (eq_position[rows[nz_is_eq]], cols[nz_is_eq])),
                shape=(num_eq, num_vars),
            ).tocsr()
        else:
            A_ub = sparse.csr_matrix((num_ub, num_vars), dtype=float)
            A_eq = sparse.csr_matrix((num_eq, num_vars), dtype=float)
        b_ub = (rhs * row_sign)[ub_row_mask]
        b_eq = rhs[eq_row_mask]

        lower, upper = self._bound_arrays()
        return {
            "c": c,
            "A_ub": A_ub,
            "b_ub": b_ub,
            "A_eq": A_eq,
            "b_eq": b_eq,
            "lower": lower,
            "upper": upper,
        }

    def check_feasible(self, values: Sequence[float], tolerance: float = 1e-7) -> bool:
        """Check whether an assignment satisfies every constraint and bound."""
        return not self.violated_constraints(values, tolerance=tolerance)

    def violated_constraints(
        self, values: Sequence[float], tolerance: float = 1e-7
    ) -> List[str]:
        """Return the names of constraints/bounds violated by an assignment.

        The check is vectorized: one scatter-accumulated matvec over the
        constraint nonzeros plus elementwise comparisons, so it costs
        ``O(nonzeros)`` rather than a Python loop over constraints.
        """
        if len(values) != self.num_variables:
            raise ValueError(
                f"assignment has {len(values)} values, expected {self.num_variables}"
            )
        values = np.asarray(values, dtype=float)
        violations: List[str] = []
        lower, upper = self._bound_arrays()
        below = values < lower - tolerance
        above = values > upper + tolerance
        for index in np.nonzero(below | above)[0]:
            name = self._variables[index].name
            if below[index]:
                violations.append(f"bound:{name}:lower")
            if above[index]:
                violations.append(f"bound:{name}:upper")

        rows, cols, vals, senses, rhs = self._gather_triplets()
        if self._num_rows:
            lhs = np.bincount(rows, weights=vals * values[cols], minlength=self._num_rows)
            residual = np.where(
                senses == SENSE_LE,
                lhs - rhs,
                np.where(senses == SENSE_GE, rhs - lhs, np.abs(lhs - rhs)),
            )
            for index in np.nonzero(residual > tolerance)[0]:
                violations.append(self.constraint_name(int(index)))
        return violations

    def summary(self) -> str:
        """One-line human-readable description of the program size."""
        num_eq = 0
        for item in self._items:
            if isinstance(item, Constraint):
                num_eq += item.sense is ConstraintSense.EQ
            else:
                num_eq += int((item.senses == SENSE_EQ).sum())
        num_ineq = self.num_constraints - num_eq
        return (
            f"LinearProgram({self.name!r}: {self.num_variables} variables, "
            f"{num_ineq} inequalities, {num_eq} equalities, "
            f"objective={self._objective_sense.value})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.summary()


def combination(
    terms: Iterable[Tuple[Variable, Number]],
) -> Dict[Variable, float]:
    """Helper to build a coefficient mapping from (variable, coefficient) pairs.

    Repeated variables have their coefficients summed, which is convenient
    when assembling constraints programmatically.
    """
    result: Dict[Variable, float] = {}
    for var, coeff in terms:
        result[var] = result.get(var, 0.0) + float(coeff)
    return result

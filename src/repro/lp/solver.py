"""Solving :class:`~repro.lp.model.LinearProgram` objects with SciPy/HiGHS."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.lp import scipy_backend
from repro.lp.model import LinearProgram

#: Number of times :func:`solve` has run in this process.  The serving
#: layer's :class:`~repro.serving.cache.DesignCache` tests use this counter
#: to prove cache hits perform no LP work; it is a plain diagnostic, not a
#: thread-safe metric.
_SOLVE_CALLS = 0


def solve_call_count() -> int:
    """How many LP solves have run in this process."""
    return _SOLVE_CALLS


def reset_solve_call_count() -> int:
    """Reset the solve counter to zero and return the previous value."""
    global _SOLVE_CALLS
    previous = _SOLVE_CALLS
    _SOLVE_CALLS = 0
    return previous


class LPError(RuntimeError):
    """Base class for LP solver failures."""


class LPInfeasibleError(LPError):
    """Raised when the program has no feasible solution."""


class LPUnboundedError(LPError):
    """Raised when the program is unbounded in the optimisation direction."""


class LPStatus(str, enum.Enum):
    """Termination status of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class LPSolution:
    """Result of solving a :class:`LinearProgram`.

    ``objective`` is reported in the *original* sense of the program (so a
    maximisation problem reports the maximum, not its negation) and includes
    the objective constant.

    The name-to-value view :attr:`by_name` is materialised lazily from
    ``variable_names`` on first access: a mechanism-design LP has
    ``(n + 1)^2`` variables, and most callers only ever read the raw
    ``values`` vector.
    """

    status: LPStatus
    values: np.ndarray
    objective: float
    iterations: int = 0
    message: str = ""
    variable_names: Optional[Tuple[str, ...]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._by_name_cache: Optional[Dict[str, float]] = None

    @property
    def by_name(self) -> Dict[str, float]:
        """Solution values keyed by variable name (built on first access)."""
        if self._by_name_cache is None:
            names = self.variable_names or ()
            self._by_name_cache = {
                name: float(value) for name, value in zip(names, self.values)
            }
        return self._by_name_cache

    def __getitem__(self, name: str) -> float:
        return self.by_name[name]

    def value_of(self, variable) -> float:
        """Value of a :class:`~repro.lp.model.Variable` handle."""
        return float(self.values[variable.index])

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the solution.

        Variable names are stored once (in index order) rather than as a
        duplicate name-to-value mapping, so the payload carries each solution
        value exactly once.
        """
        return {
            "status": self.status.value,
            "values": [float(v) for v in self.values],
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "message": self.message,
            "variable_names": list(self.variable_names or ()),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LPSolution":
        """Inverse of :meth:`to_dict`.

        Also reads older payloads: the legacy ``by_name`` form, and the
        ``backend``/``basis``/``warm_started`` keys, which are ignored.
        """
        solution = cls(
            status=LPStatus(str(payload["status"])),
            values=np.asarray(payload["values"], dtype=float),
            objective=float(payload["objective"]),  # type: ignore[arg-type]
            iterations=int(payload.get("iterations", 0)),  # type: ignore[arg-type]
            message=str(payload.get("message", "")),
            variable_names=tuple(str(name) for name in payload.get("variable_names", ())) or None,
        )
        if solution.variable_names is None and "by_name" in payload:
            solution._by_name_cache = {
                str(k): float(v) for k, v in dict(payload["by_name"]).items()
            }
            solution.variable_names = tuple(solution._by_name_cache)
        return solution


def solve(
    program: LinearProgram,
    tolerance: float = 1e-9,
    max_iterations: Optional[int] = None,
    check: bool = True,
) -> LPSolution:
    """Solve a linear program with SciPy/HiGHS and return an :class:`LPSolution`.

    The program goes to HiGHS in SciPy CSR form
    (:meth:`~repro.lp.model.LinearProgram.to_sparse_arrays`), which HiGHS
    consumes natively.

    Parameters
    ----------
    program:
        The program to solve.
    tolerance:
        Numerical tolerance of the optional feasibility check.
    max_iterations:
        Optional iteration cap for HiGHS.
    check:
        When true (default), verify that the returned point satisfies every
        constraint of the original program to within ``100 * tolerance`` and
        raise :class:`LPError` otherwise.

    Raises
    ------
    LPInfeasibleError, LPUnboundedError, LPError
        On the corresponding failure modes.
    """
    global _SOLVE_CALLS
    _SOLVE_CALLS += 1
    arrays = program.to_sparse_arrays()
    raw = scipy_backend.solve_general_form(
        arrays["c"],
        arrays["A_ub"],
        arrays["b_ub"],
        arrays["A_eq"],
        arrays["b_eq"],
        arrays["lower"],
        arrays["upper"],
        max_iterations=max_iterations,
    )
    status_text = str(raw["status"])
    x = raw["x"]
    message = str(raw["message"])

    if status_text == "infeasible":
        raise LPInfeasibleError(f"{program.summary()}: infeasible ({message})")
    if status_text == "unbounded":
        raise LPUnboundedError(f"{program.summary()}: unbounded ({message})")
    if status_text != "optimal" or x is None:
        raise LPError(f"{program.summary()}: solver failed with status {status_text} ({message})")

    values = np.asarray(x, dtype=float)
    if check:
        violations = program.violated_constraints(values, tolerance=max(1e-6, 100 * tolerance))
        if violations:
            raise LPError(
                f"{program.summary()}: HiGHS returned an infeasible point; "
                f"violated: {violations[:5]}"
            )

    objective = program.objective_value(values)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        values=values,
        objective=objective,
        iterations=int(raw["iterations"]),  # type: ignore[arg-type]
        message=message,
        variable_names=program.variable_names(),
    )

"""Self-contained linear-programming substrate.

The paper obtains constrained mechanisms by solving linear programs with
PyLPSolve (a wrapper around ``lp_solve``).  That dependency is not available
here, so this package provides an equivalent substrate:

* :mod:`repro.lp.model` — a small modelling layer (:class:`LinearProgram`)
  for declaring variables, linear constraints and a linear objective, with
  sparse (CSR) and dense array exports.
* :mod:`repro.lp.scipy_backend` — the solver: ``scipy.optimize.linprog``
  with HiGHS, fed the sparse export directly.
* :mod:`repro.lp.solver` — :func:`solve` plus the :class:`LPSolution`
  result type and the post-solve feasibility check.

The test-suite checks the optima against the paper's closed forms.
"""

from repro.lp.model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    ConstraintBlock,
    ConstraintSense,
    LinearProgram,
    ObjectiveSense,
    Variable,
)
from repro.lp.solver import (
    LPError,
    LPInfeasibleError,
    LPSolution,
    LPStatus,
    LPUnboundedError,
    solve,
)

__all__ = [
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
    "Constraint",
    "ConstraintBlock",
    "ConstraintSense",
    "LinearProgram",
    "ObjectiveSense",
    "Variable",
    "LPError",
    "LPInfeasibleError",
    "LPSolution",
    "LPStatus",
    "LPUnboundedError",
    "solve",
]

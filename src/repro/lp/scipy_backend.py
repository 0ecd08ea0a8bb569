"""SciPy (HiGHS) solver for the LP substrate.

Every LP in the package is solved here, by ``scipy.optimize.linprog`` with
the HiGHS solvers.

``A_ub`` and ``A_eq`` may be dense NumPy arrays or ``scipy.sparse`` matrices;
sparse inputs are forwarded to HiGHS as-is, which is what lets the
mechanism-design pipeline scale to group sizes in the hundreds without ever
materialising an ``O(n^4)`` dense constraint matrix.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy import optimize, sparse

#: scipy status codes mapped onto our status vocabulary.
_SCIPY_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical_error",
}


def _prepare_matrix(matrix) -> Optional[object]:
    """Pass sparse matrices through untouched; densify/validate anything else."""
    if matrix is None:
        return None
    if sparse.issparse(matrix):
        return matrix if matrix.shape[0] else None
    matrix = np.asarray(matrix, dtype=float)
    return matrix if matrix.size else None


def solve_general_form(
    c: np.ndarray,
    A_ub,
    b_ub: np.ndarray,
    A_eq,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iterations: Optional[int] = None,
) -> Dict[str, object]:
    """Solve a general-form LP with ``scipy.optimize.linprog`` (HiGHS).

    ``A_ub``/``A_eq`` may be dense arrays or ``scipy.sparse`` matrices.
    Returns a dict with keys ``status``, ``x``, ``objective``, ``iterations``
    and ``message``, with ``status`` in the vocabulary of
    :class:`repro.lp.solver.LPStatus`.
    """
    bounds = list(zip(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)))
    bounds = [
        (None if not np.isfinite(lo) else float(lo), None if not np.isfinite(hi) else float(hi))
        for lo, hi in bounds
    ]
    options: Dict[str, object] = {"presolve": True}
    if max_iterations is not None:
        options["maxiter"] = int(max_iterations)

    A_ub = _prepare_matrix(A_ub)
    A_eq = _prepare_matrix(A_eq)
    result = optimize.linprog(
        c=np.asarray(c, dtype=float),
        A_ub=A_ub,
        b_ub=np.asarray(b_ub, dtype=float) if A_ub is not None else None,
        A_eq=A_eq,
        b_eq=np.asarray(b_eq, dtype=float) if A_eq is not None else None,
        bounds=bounds,
        method="highs",
        options=options,
    )
    status = _SCIPY_STATUS.get(int(result.status), "numerical_error")
    iterations = int(getattr(result, "nit", 0) or 0)
    if status != "optimal" or result.x is None:
        return {
            "status": status,
            "x": None,
            "objective": None,
            "iterations": iterations,
            "message": str(result.message),
        }
    return {
        "status": "optimal",
        "x": np.asarray(result.x, dtype=float),
        "objective": float(result.fun),
        "iterations": iterations,
        "message": str(result.message),
    }

"""The weakly honest mechanism WM (Sections IV-D and V-A).

WM is not an explicit construction: it is the solution of the constrained LP
with the weak-honesty property (plus, in the paper's final usage, row and
column monotonicity — "From now on, we use WM to refer to the mechanism with
WH, RM and CM properties").  Its ``L0`` cost is sandwiched between GM's and
EM's, and it coincides with GM whenever GM itself is weakly honest
(``n >= 2α / (1 − α)``, Lemma 2).

Two variants are exposed, matching the two LP-solved boxes of the Figure-5
flowchart:

* ``weakly_honest_mechanism(..., column_monotone=False)`` — WH only;
* ``weakly_honest_mechanism(..., column_monotone=True)`` — WH + CM (+ RM),
  the default and the paper's WM.
"""

from __future__ import annotations

from typing import Optional

from repro.core.design import design_mechanism
from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty


def weakly_honest_mechanism(
    n: int,
    alpha: float,
    column_monotone: bool = True,
    row_monotone: bool = True,
    symmetric: bool = True,
    objective: Optional[Objective] = None,
    representation: str = "dense",
) -> Mechanism:
    """Solve the LP for the weakly honest mechanism WM.

    Parameters
    ----------
    n, alpha:
        Group size and privacy parameter.
    column_monotone:
        Include the CM property (the paper's WM does; the "WH only" branch of
        Figure 5 does not).
    row_monotone:
        Include RM.  The paper notes RM (and S) come "for free" — including
        them does not change the optimal cost — but they pin down a unique,
        well-structured solution among the optima.
    symmetric:
        Include S, for the same reason.
    objective:
        Loss to minimise; defaults to ``L0``.
    representation:
        ``"dense"`` or ``"sparse"`` (WM solutions are banded; the serving
        layer requests sparse storage).
    """
    properties = {StructuralProperty.WEAK_HONESTY}
    if column_monotone:
        properties.add(StructuralProperty.COLUMN_MONOTONE)
    if row_monotone:
        properties.add(StructuralProperty.ROW_MONOTONE)
    if symmetric:
        properties.add(StructuralProperty.SYMMETRY)
    mechanism = design_mechanism(
        n=n,
        alpha=alpha,
        properties=properties,
        objective=objective,
        name="WM" if column_monotone else "WM[WH]",
        representation=representation,
    )
    mechanism.metadata["definition"] = (
        "weakly honest mechanism (LP with WH"
        + (", CM" if column_monotone else "")
        + (", RM" if row_monotone else "")
        + (", S" if symmetric else "")
        + ")"
    )
    return mechanism

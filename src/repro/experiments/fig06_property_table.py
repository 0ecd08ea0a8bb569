"""Figure 6 — properties and L0 scores of the named mechanisms GM, WM, EM, UM.

The paper's Figure 6 is a table: for each of the four named mechanisms it
records whether symmetry, row monotonicity, column monotonicity, fairness
and weak honesty hold (with "—" where the answer depends on n and α), and
the ``L0`` score (``2α/(1+α)`` for GM, about ``(n+1)/n`` times that for EM,
in between for WM, and exactly 1 for UM).

``run()`` instantiates the four mechanisms for a concrete ``(n, α)``, checks
every property on the actual matrices, and reports both the measured ``L0``
and the closed-form prediction so the two can be compared row by row.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.losses import l0_score
from repro.core.mechanism import Mechanism
from repro.core.properties import ALL_PROPERTIES, check_all_properties
from repro.core.theory import em_l0_score, gm_l0_score, um_l0_score, wm_l0_bounds
from repro.experiments.base import ExperimentResult
from repro.mechanisms.registry import paper_mechanisms

#: Default setting: a moderate group size and the strong privacy level used
#: in the paper's Figure 7 discussion.
DEFAULT_GROUP_SIZE = 8
DEFAULT_ALPHA = 0.9


def _closed_form_l0(name: str, n: int, alpha: float) -> Optional[float]:
    if name == "GM":
        return gm_l0_score(alpha)
    if name == "EM":
        return em_l0_score(n, alpha)
    if name == "UM":
        return um_l0_score(n)
    return None  # WM has no closed form; it is bounded by GM and EM.


def run(
    n: int = DEFAULT_GROUP_SIZE,
    alpha: float = DEFAULT_ALPHA,
    mechanisms: Optional[Sequence[Mechanism]] = None,
) -> ExperimentResult:
    """Build GM, WM, EM, UM for (n, α) and tabulate properties and L0 scores."""
    result = ExperimentResult(
        experiment="figure-6",
        description="properties and L0 scores of the named mechanisms",
        parameters={"n": n, "alpha": alpha},
    )
    built = list(mechanisms) if mechanisms is not None else paper_mechanisms(n, alpha)
    gm_score, em_score = wm_l0_bounds(n, alpha)
    for mechanism in built:
        properties = check_all_properties(mechanism)
        closed_form = _closed_form_l0(mechanism.name, n, alpha)
        measured = l0_score(mechanism)
        row = {
            "mechanism": mechanism.name,
            "l0_measured": measured,
            "l0_closed_form": closed_form if closed_form is not None else "-",
            "l0_lower_bound_gm": gm_score,
            "l0_upper_bound_em": em_score,
        }
        for prop in ALL_PROPERTIES:
            row[prop.value] = properties[prop]
        result.rows.append(row)
    result.artefacts["mechanisms"] = {mechanism.name: mechanism for mechanism in built}
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

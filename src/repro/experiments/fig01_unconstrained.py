"""Figure 1 — heatmaps of *unconstrained* LP-optimal mechanisms (α = 0.62).

The paper's Figure 1 shows four mechanisms obtained by solving the BASICDP
linear program of Section III with no structural constraints, for different
group sizes and objectives, and points out their pathological behaviour:

* minimising ``L1`` for n = 5 and n = 7 produces mechanisms with *gaps*
  (outputs that are never reported) and *spikes* (a few outputs reported
  with very high probability regardless of the input);
* minimising ``L2`` for n = 7 produces the degenerate "always report 2"
  mechanism;
* minimising ``L0`` with distance threshold d = 1 for n = 5 concentrates
  over 90% of the mass on two outputs.

``run()`` regenerates those four mechanisms and reports, for each, the
number of gap rows, the spike ratio, and the probability mass on the most
popular output — the quantitative signature of the pathologies the figure
displays visually.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.design import design_mechanism
from repro.core.losses import Objective, l0_score, objective_value
from repro.core.mechanism import Mechanism
from repro.core.properties import has_gap, parse_properties, spike_ratio
from repro.eval.reporting import ascii_heatmap
from repro.experiments.base import ExperimentResult

#: Privacy parameter used by Figure 1.
FIGURE_ALPHA = 0.62

#: The four panels of Figure 1: (label, group size, objective).
FIGURE_CASES: Tuple[Tuple[str, int, Objective], ...] = (
    ("L1, n=5", 5, Objective.l1()),
    ("L1, n=7", 7, Objective.l1()),
    ("L2, n=7", 7, Objective.l2()),
    ("L0 d=1, n=5", 5, Objective.l0d(1)),
)


def gap_rows(mechanism: Mechanism, tolerance: float = 1e-7) -> List[int]:
    """Outputs that are (numerically) never reported for any input."""
    return [int(i) for i in np.nonzero(mechanism.matrix.max(axis=1) <= tolerance)[0]]


def most_popular_output_mass(mechanism: Mechanism) -> Tuple[int, float]:
    """The single output carrying the most probability under a uniform prior."""
    row_mass = mechanism.matrix.mean(axis=1)
    index = int(np.argmax(row_mass))
    return index, float(row_mass[index])


def run(
    alpha: float = FIGURE_ALPHA,
    cases: Optional[Sequence[Tuple[str, int, Objective]]] = None,
    properties: Sequence[str] = (),
    include_heatmaps: bool = True,
) -> ExperimentResult:
    """Solve the Figure-1 LPs and report their pathology diagnostics.

    ``properties`` is exposed so Figure 2 (the constrained counterpart) can
    reuse the same driver with ``properties="all"``.
    """
    cases = tuple(cases) if cases is not None else FIGURE_CASES
    result = ExperimentResult(
        experiment="figure-1" if not properties else "figure-2",
        description=(
            "unconstrained LP-optimal mechanisms and their pathologies"
            if not properties
            else "constrained LP-optimal mechanisms (all structural properties)"
        ),
        parameters={
            "alpha": alpha,
            "properties": sorted(prop.value for prop in parse_properties(properties)),
        },
    )
    for label, n, objective in cases:
        mechanism = design_mechanism(
            n=n,
            alpha=alpha,
            properties=properties,
            objective=objective,
            name=f"LP[{label}]",
        )
        popular_output, popular_mass = most_popular_output_mass(mechanism)
        gaps = gap_rows(mechanism)
        result.rows.append(
            {
                "case": label,
                "group_size": n,
                "objective": objective.describe(),
                "objective_value": objective_value(mechanism, objective),
                "l0_score": l0_score(mechanism),
                "num_gap_outputs": len(gaps),
                "gap_outputs": ",".join(str(i) for i in gaps) if gaps else "-",
                "spike_ratio": spike_ratio(mechanism),
                "most_popular_output": popular_output,
                "most_popular_mass": popular_mass,
                "has_gap": has_gap(mechanism),
            }
        )
        result.artefacts[f"mechanism:{label}"] = mechanism
        if include_heatmaps:
            result.artefacts[f"heatmap:{label}"] = ascii_heatmap(
                mechanism, title=f"{result.experiment} {label} (alpha={alpha})"
            )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Extension experiment — constrained mechanism design under L1 and L2.

The paper's concluding remarks name "a deeper study of mechanisms with
various properties using L1 or L2 as objective function" as the next logical
direction.  This experiment carries out that study with the machinery the
reproduction already has:

for each objective in {L1, L2} and each property set in a ladder from
unconstrained to fully constrained, solve the design LP and record

* the optimal objective value (how much the constraints cost under the new
  loss);
* whether the optimum is degenerate (gaps / a dominant output), i.e. whether
  the Figure-1 pathologies appear under that loss and disappear once the
  constraints are added;
* the truth-reporting probability, to compare against the L0-optimal designs.

The qualitative outcome extends the paper's message to the other losses: the
unconstrained L1/L2 optima are exactly the pathological mechanisms of
Figure 1, the fully constrained optima are well-behaved, and the additional
cost of the constraints stays a small constant factor.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.design import design_mechanism
from repro.core.losses import Objective, l0_score, objective_value, truth_probability
from repro.core.properties import has_gap, spike_ratio
from repro.experiments.base import ExperimentResult

DEFAULT_ALPHA = 0.62
DEFAULT_GROUP_SIZES = (5, 7)

#: The ladder of property sets studied, from nothing to everything.
PROPERTY_LADDER: Tuple[Tuple[str, str], ...] = (
    ("unconstrained", ""),
    ("weak honesty", "WH"),
    ("weak honesty + monotone", "WH+RM+CM"),
    ("fairness", "F"),
    ("all seven", "all"),
)


def run(
    alpha: float = DEFAULT_ALPHA,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    objectives: Sequence[Objective] = (Objective.l1(), Objective.l2()),
) -> ExperimentResult:
    """Solve the L1/L2 design LPs across the property ladder."""
    result = ExperimentResult(
        experiment="extension-l1-l2",
        description="constrained mechanism design under the L1 and L2 objectives",
        parameters={
            "alpha": alpha,
            "group_sizes": list(group_sizes),
            "objectives": [objective.describe() for objective in objectives],
        },
    )
    for n in group_sizes:
        for objective in objectives:
            baseline_value = None
            for label, properties in PROPERTY_LADDER:
                mechanism = design_mechanism(
                    n=n, alpha=alpha, properties=properties, objective=objective
                )
                value = objective_value(mechanism, objective)
                if baseline_value is None:
                    baseline_value = value
                result.rows.append(
                    {
                        "objective": objective.describe(),
                        "group_size": n,
                        "alpha": alpha,
                        "properties": label,
                        "objective_value": value,
                        "relative_to_unconstrained": value / baseline_value
                        if baseline_value
                        else 1.0,
                        "l0_score": l0_score(mechanism),
                        "truth_probability": truth_probability(mechanism),
                        "has_gap": has_gap(mechanism),
                        "spike_ratio": spike_ratio(mechanism),
                    }
                )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

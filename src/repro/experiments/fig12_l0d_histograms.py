"""Figure 12 — histograms of L0,d against d on Binomial data (n = 8).

For a fixed group size the paper sweeps the distance threshold ``d`` and
plots, per mechanism, the fraction of groups whose released count is more
than ``d`` away from the truth — i.e. the tail mass of the error
distribution.  Two input regimes are compared (a balanced ``p`` and a skewed
``p``) at two privacy levels:

* with balanced inputs EM beats everything, with the margin over GM growing
  as ``d`` grows (GM's tail is fat because of its preference for the
  extremes);
* with skewed inputs GM recovers, but EM does not fall far behind;
* at high α GM can be worse than uniform guessing across most of the range.

``run()`` reproduces both the empirical tail rates and the exact analytic
tails (:func:`repro.core.losses.tail_distribution` under the Binomial prior)
so users can see the sampling noise separately from the mechanism behaviour.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.losses import l0d_score
from repro.data.groups import GroupedCounts
from repro.data.synthetic import DEFAULT_POPULATION, binomial_group_counts
from repro.eval.empirical import evaluate_mechanism
from repro.eval.metrics import distance_metrics
from repro.experiments.base import ExperimentResult
from repro.mechanisms.registry import paper_mechanisms

DEFAULT_ALPHAS = (0.91, 0.67)
DEFAULT_GROUP_SIZE = 8
#: Balanced ("proportionate") and skewed input regimes, matching the two rows
#: of the paper's Figure 12.
DEFAULT_PROBABILITIES = (0.5, 0.1)
DEFAULT_REPETITIONS = 30


def binomial_prior(n: int, p: float) -> np.ndarray:
    """The Binomial(n, p) prior over true counts used for the analytic tails."""
    from scipy import stats

    return stats.binom.pmf(np.arange(n + 1), n, p)


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    group_size: int = DEFAULT_GROUP_SIZE,
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    distances: Optional[Sequence[int]] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    population: int = DEFAULT_POPULATION,
    seed: Optional[int] = 2018,
) -> ExperimentResult:
    """Sweep d for every (α, p) cell and record empirical and analytic tails."""
    distances = list(distances) if distances is not None else list(range(group_size))
    num_groups = max(1, population // group_size)
    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        experiment="figure-12",
        description="tail error rates L0,d versus d on Binomial data",
        parameters={
            "alphas": [float(a) for a in alphas],
            "group_size": group_size,
            "probabilities": list(probabilities),
            "distances": distances,
            "repetitions": repetitions,
            "num_groups": num_groups,
        },
    )
    # The whole d-sweep is one metric family: evaluate_mechanism answers
    # every threshold from a single histogram pass over the shared |diff|
    # matrix instead of one metric call per (repetition, d).
    metrics = distance_metrics(distances)
    for alpha in alphas:
        mechanisms = paper_mechanisms(group_size, alpha)
        for probability in probabilities:
            counts = binomial_group_counts(num_groups, group_size, probability, rng=rng)
            workload = GroupedCounts(counts=counts, group_size=group_size, label=f"p={probability}")
            prior = binomial_prior(group_size, probability)
            for mechanism in mechanisms:
                evaluation = evaluate_mechanism(
                    mechanism, workload, repetitions=repetitions, metrics=metrics, rng=rng
                )
                for d in distances:
                    result.rows.append(
                        {
                            "mechanism": mechanism.name,
                            "alpha": float(alpha),
                            "probability": float(probability),
                            "group_size": group_size,
                            "d": int(d),
                            "empirical_rate": evaluation.mean(f"exceeds_{d}_rate"),
                            "empirical_std": evaluation.std(f"exceeds_{d}_rate"),
                            # Analytic rescaled tail under the Binomial prior,
                            # de-rescaled to a plain probability for comparison.
                            "analytic_rate": l0d_score(mechanism, d, weights=prior)
                            * group_size
                            / (group_size + 1),
                        }
                    )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

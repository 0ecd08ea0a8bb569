"""Figure 13 — root-mean-square error on Binomial data.

The final experiment measures the RMSE of the released counts — a spread
measure none of the mechanisms is designed to optimise — across the same
(p, n, α) grid as Figure 11.  The paper's observations:

* balanced inputs (p near 0.5) are easier for most mechanisms, although GM
  can struggle there;
* RMSE grows with the group size, since the constraints force some
  probability onto every output of a wider range;
* at strong privacy (α = 0.91) GM is frequently worse than uniform guessing,
  and EM gives the lowest error across group sizes and input distributions.

``run()`` reproduces the grid, reporting the empirical RMSE with standard
deviations over repetitions, plus the analytic RMSE of each mechanism under
the matching Binomial prior.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.losses import mechanism_rmse
from repro.data.synthetic import DEFAULT_POPULATION, skewed_probabilities
from repro.eval.metrics import root_mean_square_error
from repro.eval.sweep import sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.fig12_l0d_histograms import binomial_prior
from repro.mechanisms.registry import paper_mechanisms

DEFAULT_ALPHAS = (0.91, 0.67)
DEFAULT_GROUP_SIZES = (4, 8, 12)
DEFAULT_REPETITIONS = 30


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    probabilities: Optional[Sequence[float]] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    population: int = DEFAULT_POPULATION,
    mechanisms: Sequence[str] = ("GM", "WM", "EM", "UM"),
    seed: Optional[int] = 2018,
) -> ExperimentResult:
    """Sweep the Figure-13 grid and collect empirical and analytic RMSE."""
    probabilities = list(probabilities) if probabilities is not None else skewed_probabilities(9)
    result = ExperimentResult(
        experiment="figure-13",
        description="RMSE of released counts on Binomial data",
        parameters={
            "alphas": [float(a) for a in alphas],
            "group_sizes": list(group_sizes),
            "probabilities": probabilities,
            "repetitions": repetitions,
            "population": population,
        },
    )
    for group_size in group_sizes:
        num_groups = max(1, population // group_size)
        swept = sweep(
            alphas=alphas,
            group_sizes=[group_size],
            probabilities=probabilities,
            mechanisms=mechanisms,
            repetitions=repetitions,
            num_groups=num_groups,
            # Matrix-kernel metric: one tiled sample and a single reduction
            # per cell, parallelisable via --max-workers.
            metrics={"rmse": root_mean_square_error},
            seed=seed,
        )
        result.rows.extend(swept.rows)

    # Attach the analytic RMSE under the Binomial prior for every cell, so
    # the empirical numbers can be sanity-checked against the exact values.
    analytic = {}
    for alpha in alphas:
        for group_size in group_sizes:
            built = {m.name: m for m in paper_mechanisms(group_size, alpha)}
            for probability in probabilities:
                prior = binomial_prior(group_size, probability)
                for name, mechanism in built.items():
                    analytic[(name, float(alpha), group_size, float(probability))] = mechanism_rmse(
                        mechanism, weights=prior
                    )
    for row in result.rows:
        key = (
            str(row["mechanism"]),
            float(row["alpha"]),
            int(row["group_size"]),
            float(row["probability"]),
        )
        if key in analytic:
            row["analytic_rmse"] = analytic[key]
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

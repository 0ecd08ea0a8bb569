"""Figure 10 — empirical wrong-answer probability on the Adult dataset (α = 0.9).

The paper groups the 32K Adult records arbitrarily into groups of a chosen
size, releases each group's count of three sensitive binary attributes
(young, gender, income) through GM, WM, EM and UM, and measures the fraction
of groups whose released count differs from the truth, averaged over 50
repetitions with one-standard-error bars.  Its findings:

* UM's error is data-independent at ``1 − 1/(n+1)``;
* GM does *worse* than UM because Adult group counts concentrate near the
  middle of the range, where GM rarely reports the truth;
* WM tracks UM closely; EM (fairness) gives the best truth-reporting rate.

``run()`` reproduces the pipeline on the synthetic Adult-like dataset (or on
the real CSV if a path is supplied) and reports the same series.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.data.adult import ADULT_TARGETS, AdultDataset, generate_adult_like, load_adult_csv
from repro.data.groups import group_counts
from repro.eval.empirical import evaluate_mechanism
from repro.eval.metrics import error_rate
from repro.experiments.base import ExperimentResult
from repro.mechanisms.registry import paper_mechanisms

DEFAULT_ALPHA = 0.9
DEFAULT_GROUP_SIZES = (2, 4, 6, 8, 10, 12, 16, 20)
DEFAULT_REPETITIONS = 50


def run(
    alpha: float = DEFAULT_ALPHA,
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES,
    targets: Sequence[str] = ADULT_TARGETS,
    repetitions: int = DEFAULT_REPETITIONS,
    num_records: Optional[int] = None,
    dataset: Optional[AdultDataset] = None,
    adult_csv_path: Optional[str] = None,
    seed: Optional[int] = 2018,
) -> ExperimentResult:
    """Reproduce the Figure-10 pipeline on Adult-like data.

    Parameters
    ----------
    dataset:
        Optional pre-built :class:`AdultDataset`; by default a synthetic
        Adult-like dataset is generated (see ``repro.data.adult``).
    adult_csv_path:
        Path to the real ``adult.data`` file; takes precedence over the
        synthetic generator when provided.
    num_records:
        Optionally truncate the dataset (useful for fast runs).
    """
    rng = np.random.default_rng(seed)
    if dataset is None:
        if adult_csv_path is not None:
            dataset = load_adult_csv(adult_csv_path)
        else:
            dataset = generate_adult_like(rng=rng)
    if num_records is not None and num_records < dataset.num_records:
        dataset = dataset.subset(num_records, rng=rng)

    result = ExperimentResult(
        experiment="figure-10",
        description="empirical wrong-answer probability on Adult-like data",
        parameters={
            "alpha": alpha,
            "group_sizes": list(group_sizes),
            "targets": list(targets),
            "repetitions": repetitions,
            "num_records": dataset.num_records,
            "data_source": dataset.source,
        },
    )
    result.artefacts["target_rates"] = dataset.target_rates()

    for group_size in group_sizes:
        mechanisms = paper_mechanisms(group_size, alpha)
        for target in targets:
            bits = dataset.target(target)
            workload = group_counts(bits, group_size, label=target, shuffle=True, rng=rng)
            for mechanism in mechanisms:
                evaluation = evaluate_mechanism(
                    mechanism,
                    workload,
                    repetitions=repetitions,
                    metrics={"error_rate": error_rate},
                    rng=rng,
                )
                result.rows.append(
                    {
                        "mechanism": mechanism.name,
                        "target": target,
                        "group_size": group_size,
                        "alpha": alpha,
                        "error_rate": evaluation.mean("error_rate"),
                        "error_rate_stderr": evaluation.standard_error("error_rate"),
                        "num_groups": evaluation.num_groups,
                        "um_reference": 1.0 - 1.0 / (group_size + 1),
                    }
                )
    return result


def mechanism_ranking(result: ExperimentResult, target: str, group_size: int) -> Dict[str, float]:
    """Error rate per mechanism for one (target, group size) cell, sorted ascending."""
    rows = result.filter_rows(target=target, group_size=group_size)
    ranking = {str(row["mechanism"]): float(row["error_rate"]) for row in rows}
    return dict(sorted(ranking.items(), key=lambda item: item[1]))


def main() -> None:  # pragma: no cover - convenience entry point
    print(run().summary())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Running mechanisms over grouped data and summarising the results.

The paper's empirical methodology (Sections V-B and V-C) is: take the true
count of every group, release a noisy count through the mechanism, compute
an error metric over all groups, repeat the whole process 30–50 times and
report the mean with one standard error / standard deviation.

This module implements that methodology *without* the loop: all
``repetitions × num_groups`` releases are drawn in one
:meth:`~repro.core.mechanism.Mechanism.sample_tiled` call, and every metric
that advertises a matrix kernel (a ``diff_kernel`` attribute, see
:mod:`repro.eval.metrics`) is reduced from the shared ``released − true``
difference matrix in a single pass.  The results are bit-identical to the
original repetition loop — the exact sampler consumes uniforms in the same
stream order either way — which the test-suite proves against a copy of
that loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.mechanism import Mechanism
from repro.data.groups import GroupedCounts
from repro.engine.plan import ReleasePlan
from repro.eval import metrics as metrics_module

MetricFunction = Callable[[Sequence[int], Sequence[int]], float]

MechanismOrPlan = Union[Mechanism, ReleasePlan]


def _as_plan(mechanism: MechanismOrPlan) -> ReleasePlan:
    """Normalise the evaluator's input to a compiled release plan.

    Passing a plan reuses its prepared sampling state (and counts the
    evaluation in its stats); passing a bare mechanism compiles a throwaway
    plan around it — the evaluator draws through the engine either way.
    """
    if isinstance(mechanism, ReleasePlan):
        return mechanism
    return ReleasePlan.from_mechanism(mechanism)

#: Metrics computed by default in every empirical run.
DEFAULT_METRICS: Dict[str, MetricFunction] = {
    "error_rate": metrics_module.error_rate,
    "exceeds_1_rate": metrics_module.distance_metric(1),
    "mae": metrics_module.mean_absolute_error,
    "rmse": metrics_module.root_mean_square_error,
}


@dataclass
class EmpiricalResult:
    """Summary of repeated empirical evaluation of one mechanism on one workload.

    ``per_repetition[metric]`` holds the metric value of every repetition;
    ``mean``/``std``/``standard_error`` summarise them.
    """

    mechanism_name: str
    group_size: int
    num_groups: int
    repetitions: int
    per_repetition: Dict[str, np.ndarray] = field(default_factory=dict)

    def mean(self, metric: str) -> float:
        """Mean of a metric over repetitions."""
        return float(np.mean(self._values(metric)))

    def std(self, metric: str) -> float:
        """Standard deviation of a metric over repetitions."""
        return float(np.std(self._values(metric), ddof=1)) if self.repetitions > 1 else 0.0

    def standard_error(self, metric: str) -> float:
        """Standard error of the mean (the paper's Figure-10 error bars)."""
        if self.repetitions <= 1:
            return 0.0
        return self.std(metric) / float(np.sqrt(self.repetitions))

    def metrics(self) -> List[str]:
        """Names of the metrics recorded in this result."""
        return sorted(self.per_repetition)

    def as_row(self) -> Dict[str, float]:
        """Flatten to a single dict row (mean and std of every metric)."""
        row: Dict[str, Union[str, float, int]] = {
            "mechanism": self.mechanism_name,
            "group_size": self.group_size,
            "num_groups": self.num_groups,
            "repetitions": self.repetitions,
        }
        for metric in self.metrics():
            row[metric] = self.mean(metric)
            row[f"{metric}_std"] = self.std(metric)
        return row

    def _values(self, metric: str) -> np.ndarray:
        try:
            return self.per_repetition[metric]
        except KeyError as exc:
            raise KeyError(
                f"metric {metric!r} was not recorded; available: {self.metrics()}"
            ) from exc


def _resolve_counts(data: Union[GroupedCounts, Sequence[int], np.ndarray], group_size: Optional[int]):
    if isinstance(data, GroupedCounts):
        return data.counts, data.group_size
    counts = np.asarray(data, dtype=int)
    if group_size is None:
        raise ValueError("group_size is required when passing raw counts")
    return counts, int(group_size)


def _prepare_evaluation(
    mechanism: MechanismOrPlan,
    data: Union[GroupedCounts, Sequence[int], np.ndarray],
    group_size: Optional[int],
    repetitions: int,
    metrics: Optional[Mapping[str, MetricFunction]],
    rng: Optional[np.random.Generator],
    seed: Optional[int],
):
    """Validate and normalise the evaluator's inputs."""
    counts, size = _resolve_counts(data, group_size)
    if isinstance(mechanism, ReleasePlan):
        mechanism = mechanism.mechanism
    if mechanism.n != size:
        raise ValueError(
            f"mechanism covers groups of size {mechanism.n} but data has group size {size}"
        )
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if counts.size == 0:
        raise ValueError("no groups to evaluate")
    if rng is None:
        rng = np.random.default_rng(seed)
    elif seed is not None:
        raise ValueError("pass either rng or seed, not both")
    metric_functions = dict(DEFAULT_METRICS if metrics is None else metrics)
    return counts, size, metric_functions, rng


def _metric_matrix(
    counts: np.ndarray,
    released: np.ndarray,
    metric_functions: Mapping[str, MetricFunction],
) -> Dict[str, np.ndarray]:
    """Per-repetition metric vectors from the ``(repetitions, groups)`` releases.

    Metrics advertising a matrix kernel (``diff_kernel``) are reduced from
    the shared ``released − true`` difference matrix in one pass each;
    several :class:`~repro.eval.metrics.ExceedsDistanceRate` thresholds are
    additionally answered together from a single histogram pass
    (:func:`~repro.eval.metrics.exceeds_rate_profile`).  Metrics without a
    kernel fall back to one scalar call per repetition — still on the
    one-sample release matrix.
    """
    diff = metrics_module.signed_differences(counts, released)
    per_repetition: Dict[str, np.ndarray] = {}
    # The Figure-12 case: many exceeds-d thresholds answered in one pass.
    exceed_group = {
        name: function
        for name, function in metric_functions.items()
        if isinstance(function, metrics_module.ExceedsDistanceRate)
    }
    if len(exceed_group) > 1:
        names = list(exceed_group)
        profile = metrics_module.exceeds_rate_profile(
            diff, [exceed_group[name].d for name in names]
        )
        exceed_values = {name: profile[k] for k, name in enumerate(names)}
    else:
        exceed_values = {}
    for name, function in metric_functions.items():
        if name in exceed_values:
            values = exceed_values[name]
        else:
            kernel = getattr(function, "diff_kernel", None)
            if kernel is not None:
                values = np.asarray(kernel(diff), dtype=float)
            else:
                values = np.asarray(
                    [function(counts, released[r]) for r in range(released.shape[0])]
                )
        per_repetition[name] = np.atleast_1d(values)
    return per_repetition


def evaluate_mechanism(
    mechanism: MechanismOrPlan,
    data: Union[GroupedCounts, Sequence[int], np.ndarray],
    group_size: Optional[int] = None,
    repetitions: int = 30,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> EmpiricalResult:
    """Apply a mechanism to every group's true count, repeatedly, and summarise.

    The evaluator is an adapter over the release engine: all repetitions
    are drawn in one vectorised
    :meth:`~repro.engine.plan.ReleasePlan.execute_tiled` call and the
    metrics reduced from one shared difference matrix; the numbers are
    bit-identical to a sequential loop of one ``mechanism.apply`` and one
    metric call per repetition on the same generator.

    Parameters
    ----------
    mechanism:
        The mechanism under test — a bare
        :class:`~repro.core.mechanism.Mechanism` or a compiled
        :class:`~repro.engine.plan.ReleasePlan`; its size must match
        ``group_size``.
    data:
        Either a :class:`~repro.data.groups.GroupedCounts` or a raw sequence
        of per-group true counts (in which case ``group_size`` is required).
    repetitions:
        Number of independent releases of the whole dataset (30 in the
        synthetic experiments, 50 for Adult).
    metrics:
        Mapping from metric name to ``f(true, released) -> float``; defaults
        to error rate, miss-by-more-than-1 rate, MAE and RMSE.  Metrics with
        a ``diff_kernel`` attribute (everything in
        :mod:`repro.eval.metrics`) are computed matrix-at-a-time; plain
        functions are called once per repetition.
    rng, seed:
        Randomness control; pass one or neither.
    """
    plan = _as_plan(mechanism)
    counts, size, metric_functions, rng = _prepare_evaluation(
        plan, data, group_size, repetitions, metrics, rng, seed
    )
    released = plan.execute_tiled(counts, repetitions, rng=rng)
    return EmpiricalResult(
        mechanism_name=plan.mechanism.name,
        group_size=size,
        num_groups=int(counts.shape[0]),
        repetitions=repetitions,
        per_repetition=_metric_matrix(counts, released, metric_functions),
    )


def evaluate_mechanisms(
    mechanisms: Iterable[Mechanism],
    data: Union[GroupedCounts, Sequence[int], np.ndarray],
    group_size: Optional[int] = None,
    repetitions: int = 30,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    seed: Optional[int] = None,
) -> Dict[str, EmpiricalResult]:
    """Evaluate several mechanisms on the same workload with a shared seed.

    Each mechanism receives its own random stream derived from ``seed`` so
    results are reproducible and adding a mechanism does not change the
    numbers of the others.
    """
    results: Dict[str, EmpiricalResult] = {}
    seed_sequence = np.random.SeedSequence(seed)
    mechanisms = list(mechanisms)
    children = seed_sequence.spawn(len(mechanisms))
    for mechanism, child in zip(mechanisms, children):
        results[mechanism.name] = evaluate_mechanism(
            mechanism,
            data,
            group_size=group_size,
            repetitions=repetitions,
            metrics=metrics,
            rng=np.random.default_rng(child),
        )
    return results

"""Parameter sweeps over privacy level, group size and data skew.

The paper's evaluation repeatedly runs the same experiment over grids of
``(α, n, p)``; this module provides a small generic sweep driver used by the
figure-specific experiment modules and directly usable from user code:

>>> from repro.eval.sweep import sweep
>>> result = sweep(alphas=[0.67, 0.91], group_sizes=[4, 8], probabilities=[0.5],
...                mechanisms=("GM", "EM", "UM"), repetitions=5, num_groups=200, seed=1)
>>> len(result.rows) > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mechanism import Mechanism
from repro.data.groups import GroupedCounts
from repro.data.synthetic import binomial_group_counts
from repro.engine.plan import ReleasePlan
from repro.eval.empirical import DEFAULT_METRICS, MetricFunction, evaluate_mechanism
from repro.eval.reporting import format_table, rows_to_csv
from repro.mechanisms.registry import create_mechanism


@dataclass
class SweepResult:
    """Tabular result of a sweep: one row per (mechanism, parameter point)."""

    rows: List[Dict[str, Union[str, float, int]]] = field(default_factory=list)

    def filter(self, **criteria) -> "SweepResult":
        """Rows matching every key=value criterion (values compared with ==)."""
        selected = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return SweepResult(rows=selected)

    def column(self, name: str) -> List[Union[str, float, int]]:
        """Extract one column across all rows."""
        return [row[name] for row in self.rows]

    def series(
        self, x: str, y: str, group_by: str = "mechanism"
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Group rows into (x, y) series keyed by ``group_by`` — plot-ready."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.rows:
            series.setdefault(str(row[group_by]), []).append((row[x], row[y]))
        for values in series.values():
            values.sort()
        return series

    def to_table(self, columns: Optional[Sequence[str]] = None, title: Optional[str] = None) -> str:
        """Render as an aligned text table."""
        return format_table(self.rows, columns=columns, title=title)

    def to_csv(self, path=None, columns: Optional[Sequence[str]] = None) -> str:
        """Serialise to CSV text (optionally written to ``path``)."""
        return rows_to_csv(self.rows, path=path, columns=columns)

    def extend(self, other: "SweepResult") -> None:
        """Append another sweep's rows in place."""
        self.rows.extend(other.rows)


#: Process-level default for the parallel design + evaluation stages;
#: ``None`` means run in-process.  Set via :func:`set_default_max_workers`
#: (the experiment runner's ``--max-workers`` flag threads through here) so
#: every sweep in a run picks up the setting without each call site growing
#: a parameter.
DEFAULT_MAX_WORKERS: Optional[int] = None


def set_default_max_workers(max_workers: Optional[int]) -> Optional[int]:
    """Set the default worker count for sweep design/evaluation; returns the old value."""
    global DEFAULT_MAX_WORKERS
    previous = DEFAULT_MAX_WORKERS
    DEFAULT_MAX_WORKERS = None if max_workers is None else int(max_workers)
    return previous


def _resolve_mechanism(
    name_or_mechanism: Union[str, Mechanism], n: int, alpha: float
) -> Mechanism:
    if isinstance(name_or_mechanism, Mechanism):
        return name_or_mechanism
    return create_mechanism(str(name_or_mechanism), n=n, alpha=alpha)


def _resolve_mechanism_task(task) -> Mechanism:
    """Module-level worker so the parallel design stage can pickle its jobs."""
    return _resolve_mechanism(*task)


def _build_mechanism_grid(
    alphas: Sequence[float],
    group_sizes: Sequence[int],
    mechanisms: Sequence[Union[str, Mechanism]],
    max_workers: Optional[int],
) -> Dict[Tuple[float, int], List[Mechanism]]:
    """Build every ``(alpha, n)`` mechanism list, optionally across processes.

    Mechanism design depends only on ``(n, alpha)``, not on the random
    streams, so this stage can fan out to worker processes without touching
    reproducibility: results are keyed and ordered deterministically, and the
    data/evaluation seeds are drawn later exactly as in the serial path.
    """
    pairs = [(float(alpha), int(size)) for alpha in alphas for size in group_sizes]
    built: Dict[Tuple[float, int], List[Mechanism]] = {pair: [] for pair in pairs}
    if max_workers is not None and int(max_workers) > 1:
        jobs = []
        for pair in pairs:
            for mechanism in mechanisms:
                if not isinstance(mechanism, Mechanism):
                    jobs.append((str(mechanism), pair[1], pair[0]))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=int(max_workers)) as pool:
            resolved = iter(list(pool.map(_resolve_mechanism_task, jobs)))
        for pair in pairs:
            built[pair] = [
                mechanism if isinstance(mechanism, Mechanism) else next(resolved)
                for mechanism in mechanisms
            ]
    else:
        for alpha, group_size in pairs:
            built[(alpha, group_size)] = [
                _resolve_mechanism(mechanism, group_size, alpha)
                for mechanism in mechanisms
            ]
    return built


def sweep(
    alphas: Sequence[float],
    group_sizes: Sequence[int],
    probabilities: Sequence[float],
    mechanisms: Sequence[Union[str, Mechanism]] = ("GM", "WM", "EM", "UM"),
    repetitions: int = 30,
    num_groups: int = 1000,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    seed: Optional[int] = None,
    data: Optional[Mapping[Tuple[int, float], GroupedCounts]] = None,
    max_workers: Optional[int] = None,
) -> SweepResult:
    """Run every mechanism over the grid of (α, n, p) and collect metric rows.

    Parameters
    ----------
    alphas, group_sizes, probabilities:
        The parameter grid.  ``probabilities`` controls the Binomial data
        model; it is ignored for any ``(n, p)`` pair supplied in ``data``.
    mechanisms:
        Mechanism names (resolved through the registry; ``"WM"`` triggers an
        LP solve) or pre-built :class:`Mechanism` objects.
    repetitions, num_groups:
        Empirical evaluation parameters.
    metrics:
        Metric functions; default set from :mod:`repro.eval.empirical`.
    seed:
        Root seed; every grid point / mechanism combination receives an
        independent child stream.
    data:
        Optional pre-computed workloads keyed by ``(group_size, probability)``
        overriding the Binomial generator (used by the Adult experiments).
    max_workers:
        Opt-in process parallelism for the design *and* evaluation stages:
        when > 1, the mechanisms for every ``(alpha, n)`` grid point are
        designed concurrently in worker processes, and the per-(grid point,
        mechanism) empirical evaluations are then fanned out across the same
        worker count.  Results are identical to the serial path row-for-row:
        design is deterministic, every evaluation receives the same
        independent child seed it would serially (the seeds are drawn in
        serial order *before* the fan-out), and rows are collected in task
        order.  Metrics, mechanisms and workloads must be picklable to
        ship to the workers (everything this library produces is); sweeps
        with unpicklable custom state (e.g. lambda metrics) fall back to
        serial evaluation.  Defaults to the module-level
        :data:`DEFAULT_MAX_WORKERS`.
    """
    metric_functions = dict(DEFAULT_METRICS if metrics is None else metrics)
    seed_sequence = np.random.SeedSequence(seed)
    if max_workers is None:
        max_workers = DEFAULT_MAX_WORKERS
    # Mechanisms depend only on (n, alpha): build them once per pair, in
    # parallel when requested.
    mechanism_grid = _build_mechanism_grid(alphas, group_sizes, mechanisms, max_workers)
    # Walk the grid in serial order, drawing every data/evaluation seed
    # exactly as the serial path would, yielding the (independent)
    # evaluation tasks lazily.  The serial path keeps only one workload
    # alive at a time; the parallel path submits every task up front
    # (Executor.map consumes the generator eagerly), an accepted
    # O(grid cells) memory cost of opting into worker processes.
    def tasks() -> Iterable[Tuple]:
        sequence = seed_sequence
        for alpha in alphas:
            for group_size in group_sizes:
                built = mechanism_grid[(float(alpha), int(group_size))]
                for probability in probabilities:
                    if data is not None and (group_size, probability) in data:
                        workload = data[(group_size, probability)]
                    else:
                        data_seed, sequence = _split_seed(sequence)
                        workload = GroupedCounts(
                            counts=binomial_group_counts(
                                num_groups,
                                group_size,
                                probability,
                                rng=np.random.default_rng(data_seed),
                            ),
                            group_size=group_size,
                            label=f"binomial(p={probability})",
                        )
                    for mechanism in built:
                        eval_seed, sequence = _split_seed(sequence)
                        base_row: Dict[str, Union[str, float, int]] = {
                            "mechanism": mechanism.name,
                            "alpha": float(alpha),
                            "group_size": int(group_size),
                            "probability": float(probability),
                        }
                        yield (
                            mechanism, workload, repetitions, metric_functions,
                            eval_seed, base_row,
                        )

    grid_cells = len(alphas) * len(group_sizes) * len(probabilities)
    if (
        max_workers is not None
        and int(max_workers) > 1
        and grid_cells * len(mechanisms) > 1
        and _picklable((metric_functions, mechanism_grid, data))
    ):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=int(max_workers)) as pool:
            rows = list(pool.map(_evaluate_sweep_task, tasks()))
    else:
        rows = [_evaluate_sweep_task(task) for task in tasks()]
    return SweepResult(rows=rows)


def _picklable(payload) -> bool:
    """Whether the evaluation tasks' shared state can ship to workers.

    Everything this library produces pickles (module-level metric
    functions, :class:`~repro.eval.metrics.ExceedsDistanceRate` instances,
    all three mechanism representations, array workloads), but a
    caller-supplied lambda metric — or a mechanism carrying unpicklable
    metadata — does not; those sweeps silently fall back to serial
    evaluation rather than crash mid-run — the rows are identical either
    way.
    """
    import pickle

    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _evaluate_sweep_task(task) -> Dict[str, Union[str, float, int]]:
    """Run one (grid point, mechanism) evaluation and build its result row.

    Module-level so the parallel evaluation stage can pickle its jobs; the
    serial path runs the very same function in-process, which is what makes
    the two paths identical row-for-row.
    """
    mechanism, workload, repetitions, metric_functions, eval_seed, base_row = task
    # Compile the mechanism into a release plan locally (in the worker, for
    # the parallel path): the evaluator draws through the engine, and the
    # plan's sampling warm-up runs once per task instead of per repetition.
    plan = ReleasePlan.from_mechanism(mechanism)
    evaluation = evaluate_mechanism(
        plan,
        workload,
        repetitions=repetitions,
        metrics=metric_functions,
        rng=np.random.default_rng(eval_seed),
    )
    row = dict(base_row)
    row["num_groups"] = evaluation.num_groups
    row["repetitions"] = repetitions
    for metric in evaluation.metrics():
        row[metric] = evaluation.mean(metric)
        row[f"{metric}_std"] = evaluation.std(metric)
    return row


def _split_seed(seed_sequence: np.random.SeedSequence):
    """Return (child, advanced parent) so successive calls yield fresh streams."""
    child, replacement = seed_sequence.spawn(2)
    return child, replacement

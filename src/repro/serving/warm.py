"""Offline grid precompilation: fill the plan registry before serving.

``repro-mechanisms warm --cache-dir DIR --grid n=... alpha=... props=...``
solves every design point of a grid and stores the results in the
directory's :class:`~repro.serving.registry.PlanRegistry`, so a freshly
started daemon (or any later process pointed at the same ``--cache-dir``)
serves the whole grid with **zero LP solves**.

The grid fans out process-parallel with the same worker discipline as the
figure sweeps: one task per ``(n, properties)`` group.  Workers return
plain entry dicts; the parent process is the registry's single writer.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.losses import Objective
from repro.serving.cache import _decision_to_dict, design_key
from repro.serving.registry import PlanRegistry


class GridError(ValueError):
    """A ``--grid`` specification that cannot be parsed."""


def parse_grid(tokens: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse ``--grid`` tokens (``key=v1,v2,...``) into axis lists.

    Recognised axes: ``n`` (ints), ``alpha`` (floats), ``props`` (property
    strings such as ``WH+CM``; ``none`` for the unconstrained LP).

    >>> parse_grid(["n=8,16", "alpha=0.9,0.95", "props=WH+CM"])
    {'n': [8, 16], 'alpha': [0.9, 0.95], 'props': ['WH+CM']}
    """
    axes: Dict[str, List[Any]] = {}
    for token in tokens:
        name, sep, value = token.partition("=")
        if not sep or not value:
            raise GridError(f"grid token {token!r} is not of the form key=v1,v2,...")
        values = [item for item in value.split(",") if item]
        if name == "n":
            try:
                axes["n"] = [int(item) for item in values]
            except ValueError as exc:
                raise GridError(f"grid axis n: {exc}") from None
        elif name == "alpha":
            try:
                axes["alpha"] = [float(item) for item in values]
            except ValueError as exc:
                raise GridError(f"grid axis alpha: {exc}") from None
        elif name == "props":
            axes["props"] = values
        else:
            raise GridError(f"unknown grid axis {name!r} (expected n, alpha or props)")
    for required in ("n", "alpha"):
        if required not in axes:
            raise GridError(f"grid is missing the {required}= axis")
    axes.setdefault("props", ["WH+CM"])
    return axes


def _warm_group_task(task: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Solve one ``(n, props)`` group's alphas.

    Module-level so :func:`warm_grid` tasks can pickle.  Returns the entry
    dicts in alpha order; the parent writes them into the registry.
    """
    from repro.core.selector import choose_mechanism

    n = int(task["n"])
    props = task["props"]
    objective = task["objective"]
    skip = set(task["skip"])
    entries: List[Dict[str, Any]] = []
    for alpha in sorted(task["alphas"]):
        key = design_key(n, alpha, props, objective)
        if key in skip:
            continue
        mechanism, decision = choose_mechanism(
            n,
            alpha,
            properties=None if props == "none" else props,
            objective=objective,
        )
        entries.append(
            {
                "key": key,
                "mechanism": mechanism.to_dict(),
                "decision": _decision_to_dict(decision),
            }
        )
    return entries


def warm_grid(
    directory: Union[str, Any],
    ns: Iterable[int],
    alphas: Iterable[float],
    props_list: Iterable[str] = ("WH+CM",),
    objective: Optional[Objective] = None,
    max_workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Precompile a design grid into ``directory``'s plan registry.

    Points already present in the registry are skipped (warming is
    idempotent and incremental).  With ``max_workers`` unset or <= 1 every
    group solves in-process; otherwise ``(n, props)`` groups fan out across
    worker processes.  Returns a summary dict: total grid points, how many
    were solved vs already present, and the wall time.
    """
    ns = sorted({int(n) for n in ns})
    alphas = sorted({float(a) for a in alphas})
    props_list = list(dict.fromkeys(props_list))
    started = time.perf_counter()
    with PlanRegistry(directory) as registry:
        tasks = []
        total = 0
        skipped = 0
        for n in ns:
            for props in props_list:
                group_skip = []
                for alpha in alphas:
                    total += 1
                    key = design_key(n, alpha, props, objective)
                    if key in registry:
                        skipped += 1
                        group_skip.append(key)
                if len(group_skip) == len(alphas):
                    continue
                tasks.append(
                    {
                        "n": n,
                        "props": props,
                        "alphas": alphas,
                        "objective": objective,
                        "skip": group_skip,
                    }
                )
        if max_workers is None or int(max_workers) <= 1 or len(tasks) <= 1:
            results = [_warm_group_task(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=int(max_workers)) as pool:
                results = list(pool.map(_warm_group_task, tasks))
        solved = 0
        for entries in results:
            for entry in entries:
                registry.put(entry["key"], entry)
                solved += 1
        stored = len(registry)
    return {
        "grid_points": total,
        "solved": solved,
        "skipped": skipped,
        "registry_entries": stored,
        "seconds": time.perf_counter() - started,
    }

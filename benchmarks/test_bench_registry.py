"""Benchmarks for the plan registry.

Two guarantees from the registry layer are asserted here, not just timed:

* **registry-hit serving** — a design point solved once and persisted in the
  sqlite plan registry is served to a fresh process at least **5x** faster
  than the cold LP solve it replaces, at ``n >= 200`` (in practice the gap
  is three orders of magnitude), and the registry-loaded mechanism is
  bit-identical to the cold one;
* **zero-solve grid serving** — after ``repro-mechanisms warm`` fills a
  registry, a freshly constructed cache (the daemon-restart shape) compiles
  every grid point into a :class:`~repro.engine.plan.ReleasePlan` with
  **zero** LP solves, measured through the solver call counter.

Solve times land in ``BENCH_registry.json`` via :mod:`_metrics` as
lower-is-better ``*_s`` seconds metrics (plus higher-is-better
``speedup_x``), gated by ``scripts/check_bench_regression.py``.

Set ``REPRO_BENCH_TINY=1`` (the CI registry-smoke job does) to run the same
code at toy sizes with the wall-clock assertions disabled.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _metrics import record_case_metrics
from _tiny import TINY

from repro.engine.plan import ReleasePlan
from repro.lp.solver import solve_call_count
from repro.serving import DesignCache, warm_grid

#: Registry-hit case: the acceptance gate is "n >= 200", where a cold
#: scipy/HiGHS solve of the WH+CM design costs seconds and a registry load
#: costs milliseconds.  TINY keeps the identical code path at a toy size.
N_REGISTRY = 16 if TINY else 220
ALPHA = 0.9
#: The registry serving advantage the headline gate requires.
MIN_SPEEDUP = 5.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _assert_feasible(matrix: np.ndarray) -> None:
    """A mechanism matrix is column-stochastic and non-negative."""
    assert matrix.min() >= -1e-12
    np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-9)


def test_registry_hit_5x_faster_than_cold_solve(tmp_path):
    """The headline serving gate: persisted plans beat re-solving by >= 5x."""
    cold_cache = DesignCache(directory=tmp_path)
    (cold_mech, _), cold_seconds = _timed(
        lambda: cold_cache.get_or_design(N_REGISTRY, ALPHA, properties="WH+CM")
    )
    assert cold_mech.metadata["design_cache"] == "solve"
    cold_cache.close()

    # A fresh cache over the same directory is the daemon-restart shape:
    # empty memory tier, every hit comes off the sqlite registry.
    warm_cache = DesignCache(directory=tmp_path)
    (warm_mech, _), hit_seconds = _timed(
        lambda: warm_cache.get_or_design(N_REGISTRY, ALPHA, properties="WH+CM")
    )
    assert warm_mech.metadata["design_cache"] == "disk"
    assert warm_cache.stats().tiers == {"memory": 0, "registry": 1, "solve": 0}
    warm_cache.close()

    # The registry round trip preserves the plan bit-for-bit.
    assert np.array_equal(warm_mech.matrix, cold_mech.matrix)
    _assert_feasible(warm_mech.matrix)

    speedup = cold_seconds / hit_seconds
    record_case_metrics(
        "test_registry_hit_5x_faster_than_cold_solve",
        cold_solve_s=cold_seconds,
        registry_hit_s=hit_seconds,
        speedup_x=speedup,
    )
    if not TINY:
        assert N_REGISTRY >= 200
        assert speedup >= MIN_SPEEDUP, (
            f"registry hit only {speedup:.1f}x faster than the cold solve "
            f"({hit_seconds:.3f}s vs {cold_seconds:.3f}s)"
        )


def test_warmed_registry_restart_serves_grid_with_zero_lp_solves(tmp_path):
    """``repro warm`` then restart: every grid point compiles solve-free."""
    ns = [6] if TINY else [12, 16]
    alphas = [0.9, 0.95]
    summary = warm_grid(tmp_path, ns, alphas, props_list=("WH+CM",))
    assert summary["solved"] == len(ns) * len(alphas)

    # Fresh cache over the warmed directory = the restarted daemon.
    cache = DesignCache(directory=tmp_path)
    solves_before = solve_call_count()
    start = time.perf_counter()
    for n in ns:
        for alpha in alphas:
            plan = ReleasePlan.compile(n, alpha, properties="WH+CM", cache=cache)
            assert plan.mechanism.metadata["design_cache"] == "disk"
            _assert_feasible(plan.mechanism.matrix)
    serve_seconds = time.perf_counter() - start
    lp_solves = solve_call_count() - solves_before
    assert lp_solves == 0, f"restarted registry still paid {lp_solves} LP solves"
    assert cache.stats().tiers["registry"] == len(ns) * len(alphas)
    cache.close()

    record_case_metrics(
        "test_warmed_registry_restart_serves_grid_with_zero_lp_solves",
        grid_points=len(ns) * len(alphas),
        grid_serve_s=serve_seconds,
        lp_solves=lp_solves,
    )

"""Shared configuration for the benchmark suite + the perf-trajectory recorder.

Every module in this directory regenerates one of the paper's figures (or an
ablation called out in DESIGN.md) under pytest-benchmark timing, using
reduced workloads so the whole suite completes in a few minutes, and asserts
the *shape* of the result — who wins, by roughly what factor, and where the
crossovers fall — matches the paper.

Run with::

    pytest benchmarks/ --benchmark-only

Perf trajectory
---------------
Every run of a ``test_bench_*`` module additionally records a
``BENCH_<suite>.json`` artifact (one per module, written to
``benchmarks/artifacts/`` or ``$REPRO_BENCH_DIR``): per-case wall time,
process-memory high-watermark and outcome, plus the git sha, machine info
and the active sampling kernel.  The committed reference runs live under
``benchmarks/baselines/`` and ``scripts/check_bench_regression.py`` gates
the current artifacts against them — the perf trajectory of this repository
is data, not anecdote.  See ``docs/performance.md`` for the schema.

The recorder is deliberately passive: wall time is pytest's own call-phase
duration and memory is the ``ru_maxrss`` watermark after the case, so the
perf-gated assertions inside the benchmarks (which manage ``tracemalloc``
themselves) are never perturbed by the measurement.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _metrics import pop_case_metrics
from _tiny import TINY

# The reference implementations the benchmarks time against live in
# tests/_reference.py; make them importable when this suite runs alone.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Version of the BENCH_*.json schema (bump on incompatible changes).
BENCH_SCHEMA_VERSION = 1

#: Where the artifacts land; override with ``REPRO_BENCH_DIR``.
BENCH_DIR = Path(os.environ.get("REPRO_BENCH_DIR", Path(__file__).parent / "artifacts"))

#: Per-suite case records accumulated over the session, keyed by suite name
#: (module stem minus the ``test_bench_`` prefix).
_RECORDS: dict = {}


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator so benchmark workloads are identical across runs."""
    return np.random.default_rng(2018)


def _suite_for(nodeid: str):
    """Map a nodeid to its benchmark suite name, or None for non-bench items."""
    module = Path(nodeid.split("::", 1)[0]).name
    if not (module.startswith("test_bench_") and module.endswith(".py")):
        return None
    return module[len("test_bench_") : -len(".py")]


def _max_rss_mb() -> float:
    """Process memory high-watermark in MB (monotone over the session)."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    scale = 1e3 if sys.platform != "darwin" else 1.0
    return round(rss * scale / 1e6, 3)


def _git_sha():
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or None
        )
    except Exception:  # pragma: no cover - git absent
        return None


def _machine_info() -> dict:
    import scipy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def pytest_runtest_logreport(report):
    """Record wall/memory/outcome for every benchmark case."""
    suite = _suite_for(report.nodeid)
    if suite is None:
        return
    case = report.nodeid.split("::", 1)[1] if "::" in report.nodeid else report.nodeid
    cases = _RECORDS.setdefault(suite, {})
    if report.when == "call":
        cases[case] = {
            "wall_s": round(report.duration, 6),
            "max_rss_mb": _max_rss_mb(),
            "outcome": report.outcome,
        }
        # Structured metrics the case measured itself (req/s, latency
        # percentiles, ...) ride along under a "metrics" key; see
        # benchmarks/_metrics.py.
        extra = pop_case_metrics(case)
        if extra:
            cases[case]["metrics"] = extra
    elif report.when == "setup" and report.outcome in ("skipped", "failed"):
        # Skipped (or setup-errored) cases never reach the call phase but
        # must still appear in the artifact, so coverage loss is visible to
        # the regression gate.
        cases.setdefault(
            case,
            {
                "wall_s": 0.0,
                "max_rss_mb": _max_rss_mb(),
                "outcome": "skipped" if report.outcome == "skipped" else "error",
            },
        )


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<suite>.json`` artifact per benchmark module run."""
    if not _RECORDS:
        return
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    sha = _git_sha()
    machine = _machine_info()
    created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    for suite, cases in sorted(_RECORDS.items()):
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "suite": suite,
            "created": created,
            "git_sha": sha,
            "tiny": TINY,
            "machine": machine,
            "cases": dict(sorted(cases.items())),
        }
        path = BENCH_DIR / f"BENCH_{suite}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:  # pragma: no branch - present in normal runs
        reporter.write_line(
            f"perf trajectory: wrote {len(_RECORDS)} BENCH_*.json artifact(s) "
            f"to {BENCH_DIR}"
        )
    _RECORDS.clear()

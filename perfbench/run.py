"""End-to-end benchmark: daemon-gm, stream-ledger and design-ladder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload run happens in a fresh
interpreter (``perfbench/workload.py``) that imports the program from
``src/``.  With ``--trace 0`` the command makes ``PROCESSES`` runs of
``--seconds / PROCESSES`` each, checks their outputs and prints each
end-to-end metric: rates and latencies at the best window of the timed
phases (see ``workload.Windows``), the rest as the median over the
interpreters.  With ``--trace 1`` it makes one
traced run of ``--seconds``, checks it, and prints the per-layer metrics,
the tracing overhead among them.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Measured interpreters per untraced run, each timing ``seconds / PROCESSES``,
#: so set-up is measured several times and one interpreter's luck (memory
#: layout, a noisy neighbour's burst) does not decide a run.
PROCESSES = 3
#: Seconds one child may take beyond its measured time (set-up, checks).
CHILD_GRACE_S = 60.0

#: Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
HIGHER_IS_BETTER = {metric["name"] for metric in SPEC["end_to_end"] if metric["better"] == "higher"}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """One fresh interpreter; returns its result object."""
    child_work = work / f"run-{trace}-{time.monotonic_ns()}"
    out = child_work.with_suffix(".json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One thread per BLAS library: an idle helper thread spinning on the
    # other core would slow the measured one.  A fixed hash seed gives every
    # interpreter the same dict and set layouts.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    launched = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.workload",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--work", str(child_work),
        "--out", str(out), "--launched", repr(launched),
    ]
    # Children write diagnostics to stderr only: the result line owns stdout.
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        status = process.wait(timeout=seconds + CHILD_GRACE_S)
    except BaseException as error:  # timeout, interrupt, SIGTERM: never orphan the child
        process.kill()
        process.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            raise ChildFailed(f"{workload} run timed out") from error
        raise
    finally:
        shutil.rmtree(child_work, ignore_errors=True)
    if status != 0 or not out.exists():
        raise ChildFailed(f"{workload} run exited with status {status}")
    result = json.loads(out.read_text())
    summary = {
        key: value for key, value in result.items() if key not in ("checks", "layers", "windows")
    }
    summary["elapsed_s"] = time.monotonic() - launched
    print(f"{workload} trace={trace}: {json.dumps(summary)}", file=sys.stderr)
    return result


def _run_value(name: str, runs: list) -> float:
    windows = [value for run in runs for value in run["windows"].get(name, [])]
    if not windows:
        return statistics.median(run[name] for run in runs)
    # The best window of every interpreter's phase.
    return max(windows) if name in HIGHER_IS_BETTER else min(windows)


def _failed_checks(result: dict) -> list:
    return [f"{name}: {detail}" for name, ok, detail in result["checks"] if not ok]


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    if trace:
        traced = run_child(workload, seed, seconds, 1, work)
        runs = [traced]
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(traced["layers"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        runs = [run_child(workload, seed, seconds / PROCESSES, 0, work) for _ in range(PROCESSES)]
        metrics = {
            name: {"value": _run_value(name, runs), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    failures = [failure for run in runs for failure in _failed_checks(run)]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(int(run["attempted"]) for run in runs),
        "failed": sum(int(run["failed"]) for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

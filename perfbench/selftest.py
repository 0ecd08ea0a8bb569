"""Self-tests of the benchmark (not part of the program's test suite).

    python3 perfbench/selftest.py

1. A tiny run of every workload through ``perfbench/run.py``, untraced and
   traced: the run is correct and every metric ``BENCHMARK.json`` names
   appears with its unit.
2. Every output check passes on real outputs and trips on a deliberately
   corrupted copy: one flipped released count, one dropped ledger record
   (and, for design-ladder, a wrong mechanism); the traced workloads
   together report every per-layer metric.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks, workload  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

TINY_SECONDS = 1.0
_RECORD_HEAD = struct.Struct("<II")  # ledger framing: payload length, crc32

failures: list = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in spec[group]}
        for entry in spec["workloads"]:
            name = entry["name"]
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
                 "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=300,
            )
            label = f"tiny {name} trace={trace}"
            expect(completed.returncode == 0, f"{label}: exit status {completed.returncode}")
            if completed.returncode != 0:
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["attempted"] >= 1, f"{label}: correct")
            found = {key: value["unit"] for key, value in result["metrics"].items()}
            expect(found == expected, f"{label}: every {group} metric with its unit")


def drop_last_record(path: Path, kind: str) -> None:
    """Rewrite a ledger without its last record of type ``kind``."""
    data = path.read_bytes()
    records, offset = [], 0
    while offset < len(data):
        length, _crc = _RECORD_HEAD.unpack_from(data, offset)
        end = offset + _RECORD_HEAD.size + length
        records.append((json.loads(data[offset + _RECORD_HEAD.size:end]), data[offset:end]))
        offset = end
    last = max(i for i, (record, _) in enumerate(records) if record["type"] == kind)
    path.write_bytes(b"".join(blob for i, (_, blob) in enumerate(records) if i != last))


def all_pass(found) -> bool:
    return all(ok for _name, ok, _detail in found)


def trips(found, name: str) -> bool:
    return any(check == name and not ok for check, ok, _detail in found)


def corrupted_outputs(work: Path) -> None:
    """Checks pass on real outputs, trip on corrupted ones; layers are covered."""
    tracer = Tracer()
    workload.install_tracing(tracer)
    layers: set = set()

    def traced_run(function, name: str, seconds: float) -> dict:
        ctx = workload.Context(5, seconds, work / name, traced=True)
        ctx.tracer = tracer
        layers.update(function(ctx)["layers"])
        return ctx.artifacts

    # daemon-gm
    artifacts = traced_run(workload.run_daemon_gm, "daemon", 0.3)
    expect(all_pass(checks.check_daemon_gm(artifacts)), "daemon-gm checks pass on real output")
    flipped = copy.deepcopy(artifacts)
    released = flipped["responses"]["tenant-0"]["released"]
    released[-1] = (released[-1] + 1) % (workload.DAEMON_N + 1)
    expect(trips(checks.check_daemon_gm(flipped), "daemon.released"), "daemon-gm: flipped count trips")
    ledger = Path(artifacts["state_dir"]) / "tenants"
    drop_last_record(next(ledger.glob("tenant-0-*")) / "ledger.bin", "charge")
    expect(trips(checks.check_daemon_gm(artifacts), "daemon.ledger"), "daemon-gm: dropped record trips")

    # stream-ledger
    artifacts = traced_run(workload.run_stream_ledger, "stream", 0.3)
    run = artifacts["runs"][0]
    expect(all_pass(checks.check_stream_ledger(artifacts)), "stream-ledger checks pass on real output")
    released = np.load(run["output"])
    released[7] = (released[7] + 1) % (workload.STREAM_N + 1)
    np.save(run["output"], released)
    expect(trips(checks.check_stream_ledger(artifacts), "stream.output"), "stream-ledger: flipped count trips")
    drop_last_record(run["ledger"], "done")
    expect(trips(checks.check_stream_ledger(artifacts), "stream.ledger"), "stream-ledger: dropped record trips")

    # design-ladder
    artifacts = traced_run(workload.run_design_ladder, "design", 1.0)
    expect(all_pass(checks.check_design_ladder(artifacts)), "design-ladder checks pass on real output")
    (alpha, _hit, decision), (_, other, _) = artifacts["hits"][:2]
    swapped = dict(artifacts, hits=[(alpha, other, decision)] + artifacts["hits"][1:])
    expect(trips(checks.check_design_ladder(swapped), "design.hits"), "design-ladder: wrong hit trips")
    from repro.mechanisms.geometric import geometric_mechanism

    alpha, _mechanism, decision = artifacts["cold"][0]
    wrong = dict(artifacts, cold=[(alpha, geometric_mechanism(workload.DESIGN_N, alpha), decision)])
    expect(trips(checks.check_design_ladder(wrong), "design.points"), "design-ladder: non-CM design trips")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {metric["name"] for metric in spec["per_layer"]}
    expect(layers == named, f"traced workloads report every per-layer metric {sorted(named ^ layers)}")


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corrupted_outputs(work)
        tiny_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

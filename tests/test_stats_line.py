"""The ``--stats`` line is the ``--stats-json`` object, rendered.

Every serving command prints both forms from one stats object.  Each case
runs a command with ``--stats --stats-json`` and checks that the parsed
``key=value`` line equals the JSON object with its nested objects spread
into dotted keys.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.serving import AsyncDaemonClient

REPO = Path(__file__).resolve().parents[1]
FIELD = re.compile(r'([^\s=]+)=("(?:[^"\\]|\\.)*"|\S+)')


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _parse_line(line: str) -> dict:
    command, _, fields = line.partition(": ")
    parsed = {"command": command}
    for key, value in FIELD.findall(fields):
        parsed[key] = json.loads(value)
    return parsed


def _counts_file(tmp_path: Path, size: int) -> Path:
    path = tmp_path / "counts.txt"
    path.write_text("".join(f"{i % 9}\n" for i in range(size)))
    return path


def _stream_args(tmp_path: Path, *extra: str) -> list:
    return [
        "serve-stream", "--n", "8", "--alpha", "0.9",
        "--counts-file", str(_counts_file(tmp_path, 3000)), "--chunk-size", "500",
        "--seed", "3", "--output", str(tmp_path / "released.txt"),
        "--stats", "--stats-json", *extra,
    ]


def _batch_counts(tmp_path, capsys):
    assert main([
        "serve-batch", "--n", "8", "--alpha", "0.9", "--counts", "1", "5", "7",
        "--seed", "0", "--budget-alpha", "0.5", "--stats", "--stats-json",
    ]) == 0
    captured = capsys.readouterr()
    return captured.out.splitlines()[-1], captured.err


def _batch_requests(tmp_path, capsys):
    requests = tmp_path / "requests.csv"
    requests.write_text(
        "group,count,n,alpha,properties\n"
        "a,3,8,0.9,F\nb,1,8,0.9,F\nc,4,6,0.8,\n"
    )
    assert main([
        "serve-batch", "--requests-file", str(requests), "--seed", "0",
        "--cache-dir", str(tmp_path / "designs"), "--stats", "--stats-json",
    ]) == 0
    captured = capsys.readouterr()
    return captured.out.splitlines()[-1], captured.err


def _stream(*extra):
    def run(tmp_path, capsys):
        assert main(_stream_args(tmp_path, *extra)) == 0
        line, payload = capsys.readouterr().err.splitlines()[-2:]
        return line, payload

    return run


def _stream_resumed(tmp_path, capsys):
    ledger = ["--ledger", "run.ledger", "--budget-alpha", "0.1"]
    assert main(_stream_args(tmp_path, *ledger)) == 0
    capsys.readouterr()
    assert main(_stream_args(tmp_path, *ledger, "--resume")) == 0
    line, payload = capsys.readouterr().err.splitlines()[-2:]
    resumed = json.loads(payload)
    assert (resumed["records"], resumed["resumed_records"]) == (0, 3000)
    return line, payload


def _daemon(tmp_path, capsys):
    socket_path = tmp_path / "repro.sock"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--unix-socket", str(socket_path), "--seed", "7",
            "--state-dir", str(tmp_path / "state"), "--budget-alpha", "0.1",
            "--stats", "--stats-json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    try:
        assert "serving on" in process.stdout.readline()

        async def drive():
            client = await AsyncDaemonClient.connect(path=socket_path)
            await client.hello("tenant")
            await client.release([2, 6], n=8, alpha=0.8)
            await client.release([1], n=8, alpha=0.8)
            await client.shutdown()
            await client.close()

        asyncio.run(drive())
        out, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait()
    assert process.returncode == 0, err
    return out.splitlines()[-1], err.splitlines()[-1]


CASES = {
    "serve-batch-counts": _batch_counts,
    "serve-batch-requests-file": _batch_requests,
    "serve-stream": _stream(),
    "serve-stream-ledger": _stream("--ledger", "run.ledger", "--budget-alpha", "0.1"),
    "serve-stream-ledger-resume": _stream_resumed,
    "serve-stream-max-workers": _stream("--max-workers", "2"),
    "serve": _daemon,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_line_is_the_flattened_stats_json(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative --ledger paths land in tmp_path
    line, payload = CASES[case](tmp_path, capsys)
    payload = json.loads(payload)
    assert line.startswith(f"{payload['command']}: ")
    assert _parse_line(line) == _flatten(payload)

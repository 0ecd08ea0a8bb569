"""Daemon-level chaos: kill, restart, reconnect — and prove nobody noticed.

The durability claims of ``--state-dir`` are only worth anything under a
real process death.  These tests run the daemon as a subprocess with
``REPRO_FAULTS`` faults armed, let it die mid-workload (exit code 44,
:data:`repro.engine.faults.KILLED_DAEMON_EXIT`), restart it over the same
state dir, reconnect the tenants and assert the two invariants end to end:

* **spend is charged exactly once** — the restarted daemon's recovered
  ``alpha_spent`` plus the resumed requests compose to exactly what an
  uninterrupted run would have spent;
* **outputs are byte-identical** — every released count (including the
  in-doubt request replayed by ``seq``) equals the serial engine reference
  for that tenant's stream position.

The matrix covers closed-form and sparse plans, an LP design rebuilt by
each daemon under its own ``PYTHONHASHSEED``, and 1/4/16 tenants (the
dense-plan restart identity runs in-process in
``test_daemon_durability.py`` — dense plans are injected into the plans
LRU, which a subprocess cannot reach).
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine.faults import KILLED_DAEMON_EXIT
from repro.engine import faults
from repro.engine.plan import ReleasePlan
from repro.serving import AsyncDaemonClient, ServingDaemon
from repro.serving.protocol import OK, tenant_seed_sequence

SEED = 20180416
REPO_ROOT = Path(__file__).resolve().parent.parent
PER_TENANT = 3


def run(coroutine):
    return asyncio.run(coroutine)


def _spawn_daemon(socket_path, state_dir, budget, fault_spec="", extra=(),
                  hash_seed=None):
    """Start ``repro-mechanisms serve`` as a subprocess; wait for the handshake."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--unix-socket", str(socket_path),
            "--state-dir", str(state_dir),
            "--seed", str(SEED),
            "--budget-alpha", str(budget),
            "--batch-window-ms", "0",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    line = process.stdout.readline()
    assert "serving on" in line, (
        f"daemon failed to start: {line!r}\n{process.stderr.read()}"
    )
    return process


def _counts(tenant: str, i: int, n: int):
    """Deterministic per-(tenant, request) input counts."""
    base = sum(tenant.encode())
    return [(base + i) % (n + 1), (base + 3 * i + 1) % (n + 1)]


def _engine_reference(tenant, counts, n, alpha, properties, requests_before=0):
    plan = ReleasePlan.compile(n, alpha, properties=properties)
    root = tenant_seed_sequence(tenant, server_seed=SEED)
    child = root.spawn(requests_before + 1)[requests_before]
    return [
        int(v)
        for v in plan.execute(np.asarray(counts), rng=np.random.default_rng(child))
    ]


class TestKillRestartReconnect:
    """The full crash drill: serve, die at exit 44, restart, converge."""

    # (workload branch, tenant count): closed-form and sparse plans, small
    # and wide tenant fleets.  (properties, n, alpha, budget) per branch.
    # The "lp" branch is a CH+RH request, which the selector answers with
    # an LP design; with no --cache-dir each daemon process solves it anew.
    MATRIX = {
        ("closed", 1): ("", 40, 0.5, 0.1),
        ("closed", 4): ("", 40, 0.5, 0.1),
        ("sparse", 4): ("WH+CM", 12, 0.9, 0.5),
        ("lp", 1): ("CH+RH", 12, 0.9, 0.5),
        ("closed", 16): ("", 40, 0.5, 0.1),
    }

    @pytest.mark.parametrize("branch,tenant_count", sorted(MATRIX))
    def test_spend_once_bits_identical(self, branch, tenant_count, tmp_path):
        properties, n, alpha, budget = self.MATRIX[(branch, tenant_count)]
        if branch == "lp":
            assert ReleasePlan.compile(n, alpha, properties=properties).branch.startswith("WM")
        tenants = [f"t{i}" for i in range(tenant_count)]
        socket_path = tmp_path / "repro.sock"
        state_dir = tmp_path / "state"
        # Kill mid-run: after this many single-request batches the daemon
        # hard-exits with that batch charged+sampled but unanswered.
        kill_after = max(2, (PER_TENANT * tenant_count) // 2)

        async def drive_until_crash():
            clients = {}
            responses = {t: [] for t in tenants}
            try:
                for t in tenants:
                    client = await AsyncDaemonClient.connect(path=socket_path)
                    await client.hello(t)
                    clients[t] = client
                for i in range(PER_TENANT):
                    for t in tenants:
                        r = await clients[t].release(
                            _counts(t, i, n), n=n, alpha=alpha,
                            properties=properties, seq=i,
                        )
                        assert r["code"] == OK, r
                        responses[t].append(r)
            except (ConnectionError, OSError):
                pass  # the injected kill landed
            finally:
                for client in clients.values():
                    await client.close()
            return responses

        async def drive_recovery(responses):
            recovered = {}
            for t in tenants:
                client = await AsyncDaemonClient.connect(path=socket_path)
                hello = await client.hello(t)
                served = list(responses[t])
                k = len(served)
                next_seq = hello["next_seq"]
                # Recovered spend is exactly the pre-crash charges — the
                # crash itself never double-charges or forgets a charge.
                assert hello["budget"]["alpha_spent"] == pytest.approx(
                    alpha ** next_seq
                )
                assert next_seq in (k, k + 1), (t, k, next_seq)
                if next_seq == k + 1:
                    # The in-doubt request: charged, sampled, unanswered.
                    # Replay it by seq — same bits, no second charge.
                    replay = await client.release(
                        _counts(t, k, n), n=n, alpha=alpha,
                        properties=properties, seq=k,
                    )
                    assert replay["code"] == OK and replay["replayed"] is True
                    served.append(replay)
                for i in range(len(served), PER_TENANT):
                    r = await client.release(
                        _counts(t, i, n), n=n, alpha=alpha,
                        properties=properties, seq=i,
                    )
                    assert r["code"] == OK, r
                    served.append(r)
                stats = await client.stats()
                recovered[t] = (served, stats["tenant"]["budget"]["alpha_spent"])
                await client.close()
            shutdown_client = await AsyncDaemonClient.connect(path=socket_path)
            await shutdown_client.shutdown()
            await shutdown_client.close()
            return recovered

        # The two daemons (and this process) run under different hash
        # seeds: set iteration order must not reach a design or a draw.
        crashed = _spawn_daemon(
            socket_path, state_dir, budget,
            fault_spec=f"kill_daemon:{kill_after}", hash_seed="1",
        )
        try:
            responses = run(drive_until_crash())
            assert crashed.wait(timeout=30) == KILLED_DAEMON_EXIT
        finally:
            if crashed.poll() is None:  # pragma: no cover - cleanup on failure
                crashed.kill()
                crashed.wait()
        # Some tenant must actually have lived through the crash window.
        assert sum(len(r) for r in responses.values()) < PER_TENANT * tenant_count

        socket_path.unlink(missing_ok=True)
        restarted = _spawn_daemon(socket_path, state_dir, budget, hash_seed="2")
        try:
            recovered = run(drive_recovery(responses))
            assert restarted.wait(timeout=30) == 0
        finally:
            if restarted.poll() is None:  # pragma: no cover - cleanup on failure
                restarted.kill()
                restarted.wait()

        for t in tenants:
            served, spent = recovered[t]
            assert len(served) == PER_TENANT
            # Exactly-once spend: the full run composes to alpha^PER_TENANT.
            assert spent == pytest.approx(alpha ** PER_TENANT)
            # Byte-identity: every response — served before the crash,
            # replayed across it, or resumed after it — matches the serial
            # engine reference at its stream position.
            for i, response in enumerate(served):
                assert response["released"] == _engine_reference(
                    t, _counts(t, i, n), n, alpha, properties,
                    requests_before=i,
                ), (t, i)


class TestTornTenantLedgerCrash:
    def test_torn_append_kills_daemon_and_restart_truncates(self, tmp_path):
        """A crash mid-ledger-append: torn tail on disk, exit 44, clean resume."""
        socket_path = tmp_path / "repro.sock"
        state_dir = tmp_path / "state"
        n, alpha = 8, 0.8

        async def crash_drive():
            client = await AsyncDaemonClient.connect(path=socket_path)
            await client.hello("t")
            first = await client.release(_counts("t", 0, n), n=n, alpha=alpha)
            died = None
            try:
                # Appends so far: charge 0 (done marks are deferred to the
                # checkpoint sync and skip fault injection) — the second
                # append (this request's charge) tears mid-record and
                # kills the daemon.
                await client.release(_counts("t", 1, n), n=n, alpha=alpha)
            except (ConnectionError, OSError) as error:
                died = error
            await client.close()
            return first, died

        async def recovery_drive():
            client = await AsyncDaemonClient.connect(path=socket_path)
            hello = await client.hello("t")
            second = await client.release(
                _counts("t", 1, n), n=n, alpha=alpha, seq=1
            )
            stats = await client.stats()
            await client.shutdown()
            await client.close()
            return hello, second, stats

        crashed = _spawn_daemon(
            socket_path, state_dir, 0.5, fault_spec="torn_tenant_ledger:1"
        )
        try:
            first, died = run(crash_drive())
            assert crashed.wait(timeout=30) == KILLED_DAEMON_EXIT
        finally:
            if crashed.poll() is None:  # pragma: no cover - cleanup on failure
                crashed.kill()
                crashed.wait()
        assert first["code"] == OK and died is not None

        socket_path.unlink(missing_ok=True)
        restarted = _spawn_daemon(socket_path, state_dir, 0.5)
        try:
            hello, second, stats = run(recovery_drive())
            assert restarted.wait(timeout=30) == 0
        finally:
            if restarted.poll() is None:  # pragma: no cover - cleanup on failure
                restarted.kill()
                restarted.wait()

        # The torn charge was truncated away: only request 0 is durable,
        # and the re-sent request 1 serves fresh from spawn #1.
        assert hello["next_seq"] == 1
        assert hello["budget"]["alpha_spent"] == pytest.approx(alpha)
        assert second["code"] == OK and "replayed" not in second
        assert second["released"] == _engine_reference(
            "t", _counts("t", 1, n), n, alpha, "", requests_before=1
        )
        assert stats["tenant"]["budget"]["alpha_spent"] == pytest.approx(
            alpha * alpha
        )


class TestClientStallSubprocess:
    def test_stalled_client_reaped_while_daemon_serves_on(self, tmp_path):
        socket_path = tmp_path / "repro.sock"
        state_dir = tmp_path / "state"
        n, alpha = 8, 0.8

        async def drive():
            stalled = await AsyncDaemonClient.connect(path=socket_path)
            await stalled.hello("stalled")          # response write #0
            first = await stalled.release(          # write #1: stalls
                _counts("stalled", 0, n), n=n, alpha=alpha
            )
            healthy = await AsyncDaemonClient.connect(path=socket_path)
            await healthy.hello("fine")
            served = await healthy.release(
                _counts("fine", 0, n), n=n, alpha=alpha
            )
            deadline = time.monotonic() + 10.0
            reaped = 0
            while time.monotonic() < deadline:
                health = (await healthy.health())["health"]
                reaped = health["clients_reaped"]
                if reaped:
                    break
                await asyncio.sleep(0.05)
            # The reaped connection is dead for the stalled client too.
            stalled_dead = False
            try:
                await stalled.release(_counts("stalled", 1, n), n=n, alpha=alpha)
            except (ConnectionError, OSError):
                stalled_dead = True
            await stalled.close()
            await healthy.shutdown()
            await healthy.close()
            return first, served, reaped, stalled_dead

        process = _spawn_daemon(
            socket_path, state_dir, 0.3,
            fault_spec="client_stall:1",
            extra=("--client-timeout", "0.3"),
        )
        try:
            first, served, reaped, stalled_dead = run(drive())
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait()

        assert first["code"] == OK  # the bytes were flushed before the stall
        assert served["code"] == OK  # the batcher never waited on the staller
        assert served["released"] == _engine_reference(
            "fine", _counts("fine", 0, n), n, alpha, ""
        )
        assert reaped == 1
        assert stalled_dead


class TestAmbientIoErrors:
    def test_io_error_storm_converges_bit_identically(self, tmp_path):
        """Random ledger-append failures: retries converge, charged once each.

        ``io_error:0.3`` fails ~30% of tenant-ledger appends with an
        ``OSError`` *before* anything reaches the log — the daemon answers
        a retriable code-2 and consumes nothing, so re-sending the same
        ``seq`` eventually lands every request with exactly the bits and
        spend of a fault-free run.
        """
        n, alpha, requests = 8, 0.8, 6

        async def scenario():
            daemon = ServingDaemon(
                batch_window_ms=0.0, seed=SEED,
                state_dir=tmp_path / "state", budget_alpha=0.25,
            )
            await daemon.start(port=0)
            client = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            await client.hello("t")
            served = []
            retries = 0
            for i in range(requests):
                while True:
                    r = await client.release(
                        _counts("t", i, n), n=n, alpha=alpha, seq=i
                    )
                    if r["code"] == OK:
                        served.append(r)
                        break
                    assert r.get("retriable") is True, r
                    retries += 1
                    assert retries < 200, "io_error storm never converged"
            spent = daemon._tenants["t"].accountant.spent_alpha()
            stats = daemon.stats_payload()
            await client.close()
            await daemon.stop()
            return served, spent, retries, stats

        with faults.injected("io_error:0.3"):
            served, spent, retries, stats = run(scenario())

        assert retries > 0, "the storm injected no failures at rate 0.3"
        assert stats["ledger_errors"] >= retries
        assert spent == pytest.approx(alpha ** requests)
        for i, response in enumerate(served):
            assert response["released"] == _engine_reference(
                "t", _counts("t", i, n), n, alpha, "", requests_before=i
            )

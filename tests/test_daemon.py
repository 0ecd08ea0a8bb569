"""The serving daemon: coalescing identity, budget shedding, lifecycle.

The load-bearing claims of the daemon (see ``src/repro/serving/daemon.py``):

* a coalesced batch — same-plan requests from *different tenants* merged
  into one vectorised draw — releases counts **bit-identical** to serving
  each request alone on the same stream, for every mechanism
  representation (dense, closed-form, sparse);
* an over-budget tenant is shed from the batch *before* any sampling
  (consuming its substream spawn but zero uniforms) and never perturbs the
  other tenants' outputs;
* per-tenant spend is charged exactly once per served request, no matter
  how requests interleave across connections;
* graceful shutdown answers every admitted request before the process
  exits.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.selector import choose_mechanism
from repro.engine.plan import ReleasePlan
from repro.serving import AsyncDaemonClient, ServingDaemon
from repro.serving.cache import design_key
from repro.serving.protocol import (
    ERROR,
    OK,
    REFUSED,
    ProtocolError,
    decode_message,
    encode_message,
    parse_release,
    tenant_seed_sequence,
)

SEED = 20180416


def run(coroutine):
    """Tests drive asyncio directly (pytest-asyncio is not a dependency)."""
    return asyncio.run(coroutine)


async def _start_daemon(**kwargs) -> ServingDaemon:
    kwargs.setdefault("seed", SEED)
    daemon = ServingDaemon(**kwargs)
    await daemon.start(port=0)
    return daemon


async def _one_release(daemon, tenant, counts, n, alpha, properties="", **hello):
    client = await AsyncDaemonClient.connect(host="127.0.0.1", port=daemon.port)
    try:
        await client.hello(tenant, **hello)
        return await client.release(counts, n=n, alpha=alpha, properties=properties)
    finally:
        await client.close()


async def _serve_workload(workload, batch_window_ms, *, daemon_kwargs=None, plans=None):
    """Serve one release per tenant concurrently; returns {tenant: response}.

    ``plans`` optionally pre-seeds the daemon's shared plans-LRU (used to
    route requests through a specific mechanism representation).
    """
    daemon = await _start_daemon(
        batch_window_ms=batch_window_ms, **(daemon_kwargs or {})
    )
    if plans:
        daemon._plans.update(plans)
    responses = {}

    async def drive(tenant, counts, n, alpha, properties):
        responses[tenant] = await _one_release(
            daemon, tenant, counts, n, alpha, properties
        )

    try:
        await asyncio.gather(*(drive(*item) for item in workload))
    finally:
        await daemon.stop()
    return responses, daemon


def _engine_reference(tenant, counts, n, alpha, properties, requests_before=0):
    """What serial per-request serving must release for this tenant.

    The tenant's ``k``-th request samples from the ``k``-th spawn of its
    substream root — the daemon's admission-order discipline.
    """
    plan = ReleasePlan.compile(n, alpha, properties=properties)
    root = tenant_seed_sequence(tenant, server_seed=SEED)
    child = root.spawn(requests_before + 1)[requests_before]
    return [
        int(v)
        for v in plan.execute(np.asarray(counts), rng=np.random.default_rng(child))
    ]


class TestCoalescingIdentity:
    """Coalesced == serial == engine, bit for bit, per representation."""

    WORKLOADS = {
        # branch -> (properties, n, alpha); GM/EM resolve to closed-form
        # mechanisms, WM to sparse CSC storage (representation="auto").
        "closed": ("", 40, 0.5),
        "sparse": ("WH+CM", 12, 0.9),
    }

    @pytest.mark.parametrize("branch", sorted(WORKLOADS))
    def test_coalesced_matches_serial_and_engine(self, branch):
        properties, n, alpha = self.WORKLOADS[branch]
        rng = np.random.default_rng(7)
        workload = [
            (f"tenant-{i}", [int(c) for c in rng.integers(0, n + 1, size=3 + i)],
             n, alpha, properties)
            for i in range(4)
        ]
        coalesced, daemon = run(_serve_workload(workload, batch_window_ms=200.0))
        serial, _ = run(_serve_workload(workload, batch_window_ms=0.0))

        expected_repr = {"closed": "closed-form", "sparse": "sparse"}[branch]
        (plan,) = daemon._plans.values()
        assert plan.mechanism.representation == expected_repr

        # At least one flush actually merged multiple tenants.
        assert daemon.stats.coalesced_requests > 0
        for tenant, counts, n_, alpha_, props in workload:
            assert coalesced[tenant]["code"] == OK
            assert (
                coalesced[tenant]["released"] == serial[tenant]["released"]
            ), f"{tenant}: coalesced differs from per-request serving"
            assert coalesced[tenant]["released"] == _engine_reference(
                tenant, counts, n_, alpha_, props
            ), f"{tenant}: daemon differs from the engine on the same stream"

    def test_dense_plan_identity(self):
        """Dense mechanisms coalesce identically (plan injected into the LRU).

        ``representation="auto"`` stores LP designs sparsely, so the dense
        path is exercised by pre-seeding the daemon's shared plans-LRU with
        a dense-wrapped WM — exactly what a cache warmed by an older dense
        artifact would hold.
        """
        n, alpha, properties = 10, 0.9, "WH+CM"
        mechanism, decision = choose_mechanism(
            n, alpha, properties=properties, representation="dense"
        )
        key = design_key(n, alpha, properties)
        assert mechanism.representation == "dense"

        def plans():
            return {
                key: ReleasePlan(
                    mechanism, decision=decision, alpha_cost=alpha, key=key
                )
            }

        workload = [
            ("dense-a", [0, 3, 10], n, alpha, properties),
            ("dense-b", [5, 5], n, alpha, properties),
            ("dense-c", [7], n, alpha, properties),
        ]
        coalesced, daemon = run(
            _serve_workload(workload, batch_window_ms=200.0, plans=plans())
        )
        serial, _ = run(
            _serve_workload(workload, batch_window_ms=0.0, plans=plans())
        )
        (plan,) = daemon._plans.values()
        assert plan.mechanism.representation == "dense"
        assert daemon.stats.coalesced_requests > 0
        for tenant, counts, *_ in workload:
            assert coalesced[tenant]["code"] == OK
            assert coalesced[tenant]["released"] == serial[tenant]["released"]

    def test_multiple_requests_per_tenant_keep_arrival_order(self):
        """Request k of a tenant samples from spawn k, batched or not."""

        async def scenario(window):
            daemon = await _start_daemon(batch_window_ms=window)
            client = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            await client.hello("repeat")
            first = await client.release([1, 2], n=8, alpha=0.8)
            second = await client.release([3, 4], n=8, alpha=0.8)
            await client.close()
            await daemon.stop()
            return first["released"], second["released"]

        batched = run(scenario(50.0))
        serial = run(scenario(0.0))
        assert batched == serial
        assert batched[0] == _engine_reference("repeat", [1, 2], 8, 0.8, "")
        assert batched[1] == _engine_reference(
            "repeat", [3, 4], 8, 0.8, "", requests_before=1
        )


class TestBudgetShedding:
    def test_over_budget_tenant_shed_before_sampling(self):
        """A shed tenant gets code 1, spends nothing and perturbs nobody.

        The rng-probe: the surviving tenant's output in the *same coalesced
        batch* as the refusal must equal the engine reference on its own
        stream — possible only if the refused request consumed zero
        uniforms before being shed.
        """
        n, alpha = 16, 0.9
        workload = [
            # budget 0.95 cannot cover even one alpha=0.9 release.
            ("broke", [1, 2, 3], n, alpha, ""),
            ("solvent", [4, 5, 6, 7], n, alpha, ""),
        ]

        async def scenario():
            daemon = await _start_daemon(batch_window_ms=200.0)
            responses = {}

            async def drive(tenant, counts, budget):
                responses[tenant] = await _one_release(
                    daemon, tenant, counts, n, alpha, budget_alpha=budget
                )

            await asyncio.gather(
                drive("broke", [1, 2, 3], 0.95), drive("solvent", [4, 5, 6, 7], 0.5)
            )
            stats = daemon.stats_payload()
            tenants = {
                name: session.payload() for name, session in daemon._tenants.items()
            }
            await daemon.stop()
            return responses, stats, tenants

        responses, stats, tenants = run(scenario())
        assert responses["broke"]["code"] == REFUSED
        assert "released" not in responses["broke"]
        assert responses["solvent"]["code"] == OK
        # Bit-identity across the shed: the survivor's draw is untouched.
        assert responses["solvent"]["released"] == _engine_reference(
            "solvent", [4, 5, 6, 7], n, alpha, ""
        )
        assert stats["budget"]["budget_refusals"] == 1
        assert tenants["broke"]["budget"]["alpha_spent"] == 1.0  # nothing charged
        assert tenants["broke"]["budget"]["releases"] == 0
        assert tenants["broke"]["budget"]["budget_refusals"] == 1
        assert tenants["solvent"]["budget"]["alpha_spent"] == pytest.approx(alpha)

    def test_refused_request_consumes_spawn_but_no_uniforms(self):
        """Spend pattern ok/refused/ok: the refusal burns spawn #2 only."""

        async def scenario():
            daemon = await _start_daemon(batch_window_ms=0.0)
            client = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            await client.hello("meter", budget_alpha=0.5)
            first = await client.release([1], n=8, alpha=0.6)
            second = await client.release([2], n=8, alpha=0.7)  # 0.6*0.7 < 0.5
            third = await client.release([3], n=8, alpha=0.9)  # 0.6*0.9 >= 0.5
            await client.close()
            await daemon.stop()
            return first, second, third

        first, second, third = run(scenario())
        assert (first["code"], second["code"], third["code"]) == (OK, REFUSED, OK)
        assert first["released"] == _engine_reference("meter", [1], 8, 0.6, "")
        # The refused request consumed spawn #2, so the third request must
        # sample from spawn #3 — exactly as serial serving would.
        assert third["released"] == _engine_reference(
            "meter", [3], 8, 0.9, "", requests_before=2
        )

    def test_spend_charged_exactly_once_under_concurrency(self):
        """K concurrent connections of one tenant: exactly K charges."""
        n, alpha, connections = 8, 0.9, 5

        async def scenario():
            daemon = await _start_daemon(
                batch_window_ms=100.0, budget_alpha=0.5
            )

            async def drive(i):
                return await _one_release(daemon, "shared", [i], n, alpha)

            responses = await asyncio.gather(
                *(drive(i) for i in range(connections))
            )
            session = daemon._tenants["shared"]
            spent = session.accountant.spent_alpha()
            releases = len(session.accountant.history())
            await daemon.stop()
            return responses, spent, releases

        responses, spent, releases = run(scenario())
        assert all(r["code"] == OK for r in responses)
        assert releases == connections
        assert spent == pytest.approx(alpha**connections)


class TestLifecycle:
    def test_graceful_shutdown_flushes_inflight_requests(self):
        """Requests held by the batch window are answered on shutdown."""

        async def scenario():
            # Window far longer than the test: only shutdown can flush.
            daemon = await _start_daemon(batch_window_ms=30_000.0)
            clients = []
            for name in ("held-a", "held-b"):
                client = await AsyncDaemonClient.connect(
                    host="127.0.0.1", port=daemon.port
                )
                await client.hello(name)
                clients.append(client)
            # A third idle connection keeps pending < connections, so the
            # two releases below sit in the batcher waiting on the window.
            idle = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            pending = [
                asyncio.create_task(
                    client.release([1, 2], n=8, alpha=0.8)
                )
                for client in clients
            ]
            await asyncio.sleep(0.05)
            assert len(daemon._pending) == 2  # held by the window
            await daemon.stop()
            responses = await asyncio.gather(*pending)
            for client in clients:
                await client.close()
            await idle.close()
            return responses

        responses = run(scenario())
        assert [r["code"] for r in responses] == [OK, OK]
        for name, response in zip(("held-a", "held-b"), responses):
            assert response["released"] == _engine_reference(
                name, [1, 2], 8, 0.8, ""
            )

    def test_shutdown_op_stops_the_daemon(self):
        async def scenario():
            daemon = await _start_daemon(batch_window_ms=0.0)
            client = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            await client.hello("t")
            response = await client.shutdown()
            await client.close()
            await asyncio.wait_for(daemon.wait_closed(), timeout=5.0)
            return response

        assert run(scenario())["code"] == OK

    def test_shared_plan_compiles_once_across_tenants(self):
        n, alpha, properties = 12, 0.9, "WH+CM"
        workload = [
            (f"t{i}", [i], n, alpha, properties) for i in range(4)
        ]
        _, daemon = run(_serve_workload(workload, batch_window_ms=50.0))
        stats = daemon.stats_payload()
        assert stats["plans_compiled"] == 1
        assert stats["lp_solves"] == 1  # one WM solve serves all tenants
        cache = stats["cache"]
        assert cache["misses"] == 1
        assert stats["tenants"] == 4

    def test_tenant_limit_and_conflicting_hello(self):
        async def scenario():
            daemon = await _start_daemon(max_tenants=1, batch_window_ms=0.0)
            first = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            assert (await first.hello("one", seed=3))["code"] == OK
            # Same tenant reconnecting with the same seed resumes.
            again = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            assert (await again.hello("one", seed=3))["code"] == OK
            # Conflicting seed would fork the stream: refused.
            conflict = await again.hello("one", seed=4)
            # A second tenant exceeds the limit.
            overflow = await again.hello("two")
            await first.close()
            await again.close()
            await daemon.stop()
            return conflict, overflow

        conflict, overflow = run(scenario())
        assert conflict["code"] == ERROR and "seed" in conflict["error"]
        assert overflow["code"] == ERROR and "limit" in overflow["error"]


class TestProtocol:
    def test_malformed_requests_get_code_2_not_disconnects(self):
        async def scenario():
            daemon = await _start_daemon(batch_window_ms=0.0)
            client = await AsyncDaemonClient.connect(
                host="127.0.0.1", port=daemon.port
            )
            no_hello = await client.request(
                {"op": "release", "counts": [1], "n": 4, "alpha": 0.5}
            )
            bad_json = None
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            bad_json = decode_message(await client._reader.readline())
            await client.hello("t")
            unknown = await client.request({"op": "frobnicate"})
            out_of_range = await client.release([9], n=4, alpha=0.5, request_id=17)
            bad_props = await client.release(
                [1], n=4, alpha=0.5, properties="NOPE"
            )
            ok = await client.release([1], n=4, alpha=0.5)
            await client.close()
            stats = daemon.stats_payload()
            await daemon.stop()
            return no_hello, bad_json, unknown, out_of_range, bad_props, ok, stats

        no_hello, bad_json, unknown, out_of_range, bad_props, ok, stats = run(
            scenario()
        )
        for response in (no_hello, bad_json, unknown, out_of_range, bad_props):
            assert response["code"] == ERROR
        assert out_of_range["id"] == 17  # id echoed even on errors
        assert ok["code"] == OK  # the connection survived every error
        assert stats["protocol_errors"] == 5
        # Invalid requests never consume budget, spawns or request slots.
        assert stats["requests"] == 1

    def test_parse_release_validation(self):
        good = parse_release(
            {"counts": [0, 4], "n": 4, "alpha": 0.5, "properties": "F", "id": 2}
        )
        assert good.request_id == 2 and list(good.counts) == [0, 4]
        for bad in (
            {"counts": [], "n": 4, "alpha": 0.5},
            {"counts": [1], "alpha": 0.5},
            {"counts": [1], "n": 4},
            {"counts": [1], "n": 0, "alpha": 0.5},
            {"counts": [1], "n": 4, "alpha": 1.5},
            {"counts": [5], "n": 4, "alpha": 0.5},
            {"counts": [[1]], "n": 4, "alpha": 0.5},
            {"counts": [1], "n": 4, "alpha": 0.5, "properties": 3},
        ):
            with pytest.raises(ProtocolError):
                parse_release(bad)

    def test_message_round_trip(self):
        message = {"op": "release", "counts": [1, 2], "n": 4, "alpha": 0.5}
        assert decode_message(encode_message(message)) == message
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")  # not an object

    def test_tenant_seed_sequence_disciplines(self):
        explicit = tenant_seed_sequence("a", server_seed=1, tenant_seed=9)
        assert explicit.entropy == 9
        derived_a = tenant_seed_sequence("a", server_seed=1)
        derived_b = tenant_seed_sequence("b", server_seed=1)
        assert derived_a.spawn_key != derived_b.spawn_key  # independent tenants
        again = tenant_seed_sequence("a", server_seed=1)
        assert (
            np.random.default_rng(derived_a).random()
            == np.random.default_rng(again).random()
        )  # reproducible across restarts


class TestCliServe:
    def test_unix_socket_end_to_end(self, tmp_path):
        """`repro-mechanisms serve` over a unix socket, driven by a client."""
        socket_path = tmp_path / "repro.sock"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--unix-socket", str(socket_path),
                "--seed", str(SEED), "--batch-window-ms", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        try:
            assert "serving on" in process.stdout.readline()

            async def drive():
                client = await AsyncDaemonClient.connect(path=socket_path)
                await client.hello("cli-tenant")
                response = await client.release([2, 6], n=8, alpha=0.8)
                await client.shutdown()
                await client.close()
                return response

            response = run(drive())
            assert response["code"] == OK
            assert response["released"] == _engine_reference(
                "cli-tenant", [2, 6], 8, 0.8, ""
            )
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait()


class TestStatsJson:
    def test_serve_batch_stats_json(self, capsys):
        from repro.cli import main

        assert main([
            "serve-batch", "--n", "8", "--alpha", "0.9", "--counts", "1", "5",
            "--seed", "0", "--budget-alpha", "0.5", "--stats-json",
        ]) == 0
        stats = json.loads(capsys.readouterr().err.strip())
        assert stats["command"] == "serve-batch"
        assert stats["records"] == 2
        assert stats["budget"]["alpha_target"] == 0.5
        assert stats["budget"]["alpha_spent"] == pytest.approx(0.9)
        assert stats["budget"]["budget_refusals"] == 0
        assert stats["cache"]["misses"] == 1
        assert stats["plans_compiled"] == 1

    def test_serve_stream_stats_json(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        counts = tmp_path / "counts.txt"
        counts.write_text("\n".join(str(i % 9) for i in range(100)) + "\n")
        out = tmp_path / "released.txt"
        assert main([
            "serve-stream", "--n", "8", "--alpha", "0.9",
            "--counts-file", str(counts), "--chunk-size", "32",
            "--seed", "1", "--output", str(out), "--stats-json",
        ]) == 0
        stats = json.loads(capsys.readouterr().err.strip())
        assert stats["command"] == "serve-stream"
        assert stats["records"] == 100
        assert stats["chunks"] == 4
        assert stats["budget"]["alpha_target"] is None  # unmetered
        assert stats["cache"] is not None

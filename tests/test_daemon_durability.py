"""Durable daemon state: tenant ledgers, restart recovery, deadlines, backpressure.

The load-bearing claims of the durable serving daemon (``--state-dir``):

* a restarted daemon replays every tenant's budget ledger, restoring
  ``alpha_spent``, refusal counts and the exact substream position — its
  post-restart draws are **bit-identical** to an uninterrupted run;
* a charge (or refusal — refusals consume spawns) is durably on disk
  *before* any sample of its batch is drawn, and is charged exactly once
  even when the request is replayed after a crash;
* damaged or config-mismatched ledgers reject only their own tenant;
* deadlines, queue caps and slow-client reaping shed with retriable
  code-3 responses that consume nothing, and never stall the batcher.
"""

from __future__ import annotations

import asyncio
import struct
import time

import numpy as np
import pytest

from repro.core.selector import choose_mechanism
from repro.engine import faults
from repro.engine.durability import AccountantLedger
from repro.engine.plan import ReleasePlan
from repro.serving import AsyncDaemonClient, ServingDaemon, TenantStore
from repro.serving.cache import design_key
from repro.serving.protocol import (
    ERROR,
    OK,
    OVERLOADED,
    REFUSED,
    decode_message,
    tenant_seed_sequence,
)
from repro.serving.tenant_store import tenant_slug

SEED = 20180416


def run(coroutine):
    """Tests drive asyncio directly (pytest-asyncio is not a dependency)."""
    return asyncio.run(coroutine)


async def _start_daemon(**kwargs) -> ServingDaemon:
    kwargs.setdefault("seed", SEED)
    daemon = ServingDaemon(**kwargs)
    await daemon.start(port=0)
    return daemon


async def _connect(daemon: ServingDaemon) -> AsyncDaemonClient:
    return await AsyncDaemonClient.connect(host="127.0.0.1", port=daemon.port)


async def _one_release(daemon, tenant, counts, n, alpha, properties="", **hello):
    client = await _connect(daemon)
    try:
        await client.hello(tenant, **hello)
        return await client.release(counts, n=n, alpha=alpha, properties=properties)
    finally:
        await client.close()


def _engine_reference(tenant, counts, n, alpha, properties, requests_before=0):
    """What serial per-request serving must release for this tenant."""
    plan = ReleasePlan.compile(n, alpha, properties=properties)
    root = tenant_seed_sequence(tenant, server_seed=SEED)
    child = root.spawn(requests_before + 1)[requests_before]
    return [
        int(v)
        for v in plan.execute(np.asarray(counts), rng=np.random.default_rng(child))
    ]


def _tenant_ledger_path(state_dir, name):
    return state_dir / "tenants" / tenant_slug(name) / "ledger.bin"


class TestTenantStore:
    def test_slug_is_readable_and_collision_free(self):
        assert tenant_slug("alice").startswith("alice-")
        assert tenant_slug("a/b") != tenant_slug("a_b")  # digest disambiguates
        assert "/" not in tenant_slug("a/b")

    def test_empty_state_dir_recovers_nothing(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=SEED)
        assert store.recover() == {}
        assert store.quarantined == {} and store.config_rejected == {}

    def test_headerless_ledger_is_forgotten(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=SEED)
        store.recover()
        # A creating process that died before the header reached the disk.
        ghost = tmp_path / "state" / "tenants" / tenant_slug("ghost")
        ghost.mkdir(parents=True)
        (ghost / "ledger.bin").write_bytes(b"")
        again = TenantStore(tmp_path / "state", server_seed=SEED)
        assert again.recover() == {}

    def test_roundtrip_restores_spend_refusals_and_lineage(self, tmp_path):
        store = TenantStore(
            tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5
        )
        store.recover()
        root = tenant_seed_sequence("t", server_seed=SEED)
        ledger = store.create(
            "t", root, tenant_seed=None, budget_alpha=0.5, budget_source="default"
        )
        ledger.charge(0, alpha=0.8, size=3, label="r0")
        ledger.record_refusal(1, label="r1")
        ledger.charge(2, alpha=0.9, size=2, label="r2")
        store.close_all()

        again = TenantStore(
            tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5
        )
        recovered = again.recover()["t"]
        assert recovered.next_seq == 3
        assert recovered.refusals == 1
        assert recovered.ledger.accountant.spent_alpha() == pytest.approx(
            0.8 * 0.9
        )
        # The restored root is positioned past the consumed spawns: its next
        # spawn is the original root's spawn #3, bit for bit.
        fresh = tenant_seed_sequence("t", server_seed=SEED)
        expected = fresh.spawn(4)[3]
        got = recovered.root.spawn(1)[0]
        assert (
            np.random.default_rng(got).random()
            == np.random.default_rng(expected).random()
        )
        again.close_all()

    def test_server_seed_mismatch_is_config_rejected(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=1, default_budget_alpha=0.5)
        store.recover()
        store.create(
            "derived", tenant_seed_sequence("derived", server_seed=1),
            tenant_seed=None, budget_alpha=0.5, budget_source="default",
        )
        # An explicitly-seeded tenant does not depend on the server seed.
        store.create(
            "pinned", tenant_seed_sequence("pinned", tenant_seed=9),
            tenant_seed=9, budget_alpha=0.5, budget_source="hello",
        )
        store.close_all()

        moved = TenantStore(tmp_path / "state", server_seed=2, default_budget_alpha=0.5)
        recovered = moved.recover()
        assert "pinned" in recovered
        assert "derived" in moved.config_rejected
        assert "--seed" in moved.config_rejected["derived"]
        assert moved.rejection_reason("derived") is not None
        assert moved.rejection_reason("pinned") is None
        moved.close_all()

    def test_default_budget_mismatch_is_config_rejected(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5)
        store.recover()
        store.create(
            "defaulted", tenant_seed_sequence("defaulted", server_seed=SEED),
            tenant_seed=None, budget_alpha=0.5, budget_source="default",
        )
        store.create(
            "explicit", tenant_seed_sequence("explicit", server_seed=SEED),
            tenant_seed=None, budget_alpha=0.25, budget_source="hello",
        )
        store.close_all()

        rebudgeted = TenantStore(
            tmp_path / "state", server_seed=SEED, default_budget_alpha=0.3
        )
        recovered = rebudgeted.recover()
        # The hello-budgeted tenant pins its own target: unaffected.
        assert "explicit" in recovered
        assert "defaulted" in rebudgeted.config_rejected
        assert "--budget-alpha" in rebudgeted.config_rejected["defaulted"]
        rebudgeted.close_all()

    def test_torn_tail_truncated_but_midfile_damage_quarantined(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5)
        store.recover()
        for name in ("torn", "damaged", "healthy"):
            ledger = store.create(
                name, tenant_seed_sequence(name, server_seed=SEED),
                tenant_seed=None, budget_alpha=0.5, budget_source="default",
            )
            ledger.charge(0, alpha=0.8, size=4, label="r0")
            ledger.charge(1, alpha=0.9, size=4, label="r1")
        store.close_all()

        # A crash mid-append leaves a torn tail: head + truncated payload.
        torn_path = _tenant_ledger_path(tmp_path / "state", "torn")
        with torn_path.open("ab") as handle:
            handle.write(struct.pack("<II", 64, 0) + b"half a record")
        # Mid-file damage is not a crash artifact: flip a byte inside the
        # last complete record's payload so its checksum fails.
        damaged_path = _tenant_ledger_path(tmp_path / "state", "damaged")
        blob = bytearray(damaged_path.read_bytes())
        blob[-10] ^= 0xFF
        damaged_path.write_bytes(bytes(blob))

        again = TenantStore(tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5)
        recovered = again.recover()
        # Torn tail: silently truncated, both complete charges survive.
        assert recovered["torn"].next_seq == 2
        assert recovered["torn"].ledger.accountant.spent_alpha() == pytest.approx(
            0.8 * 0.9
        )
        # Damage quarantines that tenant only; the healthy tenant serves on.
        assert "damaged" in again.quarantined
        assert "checksum" in again.quarantined["damaged"]
        assert recovered["healthy"].next_seq == 2
        again.close_all()

    def test_wrong_directory_ledger_is_quarantined(self, tmp_path):
        store = TenantStore(tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5)
        store.recover()
        store.create(
            "a", tenant_seed_sequence("a", server_seed=SEED),
            tenant_seed=None, budget_alpha=0.5, budget_source="default",
        )
        store.close_all()
        # Rename the directory (sidecar now claims tenant "b"): the pinned
        # name inside the ledger header wins and the mismatch quarantines.
        a_dir = _tenant_ledger_path(tmp_path / "state", "a").parent
        b_dir = a_dir.parent / tenant_slug("b")
        a_dir.rename(b_dir)
        (b_dir / "tenant.json").write_text('{"tenant": "b"}')

        again = TenantStore(tmp_path / "state", server_seed=SEED, default_budget_alpha=0.5)
        again.recover()
        assert "b" in again.quarantined


class TestRestartRecovery:
    """A stopped-and-restarted durable daemon is invisible to its tenants."""

    WORKLOADS = {
        "closed": ("", 40, 0.5, 0.1),
        "sparse": ("WH+CM", 12, 0.9, 0.5),
    }

    def _assert_split_run_matches(self, tmp_path, properties, n, alpha, budget,
                                  plans=None):
        batches = [[1, 2, 3], [4, 5], [0, n]]
        state = tmp_path / "state"

        async def durable_split():
            daemon = await _start_daemon(
                state_dir=state, budget_alpha=budget, batch_window_ms=0.0
            )
            if plans:
                daemon._plans.update(plans())
            first = await _one_release(
                daemon, "t", batches[0], n, alpha, properties
            )
            await daemon.stop()

            restarted = await _start_daemon(
                state_dir=state, budget_alpha=budget, batch_window_ms=0.0
            )
            if plans:
                restarted._plans.update(plans())
            client = await _connect(restarted)
            hello = await client.hello("t")
            rest = [
                await client.release(b, n=n, alpha=alpha, properties=properties)
                for b in batches[1:]
            ]
            await client.close()
            await restarted.stop()
            return [first] + rest, hello

        async def uninterrupted():
            daemon = await _start_daemon(budget_alpha=budget, batch_window_ms=0.0)
            if plans:
                daemon._plans.update(plans())
            client = await _connect(daemon)
            await client.hello("t")
            responses = [
                await client.release(b, n=n, alpha=alpha, properties=properties)
                for b in batches
            ]
            await client.close()
            await daemon.stop()
            return responses

        split, hello = run(durable_split())
        reference = run(uninterrupted())
        assert all(r["code"] == OK for r in split + reference)
        for got, want in zip(split, reference):
            assert got["released"] == want["released"]
        # The post-restart hello restores the budget exactly: one release
        # of cost alpha had been charged before the restart.
        assert hello["budget"]["alpha_spent"] == pytest.approx(alpha)
        assert hello["budget"]["alpha_remaining"] == pytest.approx(
            min(1.0, budget / alpha)
        )
        assert hello["next_seq"] == 1
        assert hello["durable"] is True

    @pytest.mark.parametrize("branch", sorted(WORKLOADS))
    def test_restart_resumes_bit_identical(self, branch, tmp_path):
        properties, n, alpha, budget = self.WORKLOADS[branch]
        self._assert_split_run_matches(tmp_path, properties, n, alpha, budget)

    def test_restart_resumes_bit_identical_dense(self, tmp_path):
        n, alpha, properties = 10, 0.9, "WH+CM"
        mechanism, decision = choose_mechanism(
            n, alpha, properties=properties, representation="dense"
        )
        key = design_key(n, alpha, properties)

        def plans():
            return {
                key: ReleasePlan(
                    mechanism, decision=decision, alpha_cost=alpha, key=key
                )
            }

        self._assert_split_run_matches(
            tmp_path, properties, n, alpha, 0.5, plans=plans
        )

    def test_refusals_keep_their_spawn_positions_across_restart(self, tmp_path):
        state = tmp_path / "state"
        n = 8

        async def scenario():
            daemon = await _start_daemon(state_dir=state, batch_window_ms=0.0)
            client = await _connect(daemon)
            await client.hello("meter", budget_alpha=0.5)
            first = await client.release([1], n=n, alpha=0.6)
            second = await client.release([2], n=n, alpha=0.7)  # refused
            await client.close()
            await daemon.stop()

            restarted = await _start_daemon(state_dir=state, batch_window_ms=0.0)
            client = await _connect(restarted)
            hello = await client.hello("meter", budget_alpha=0.5)
            third = await client.release([3], n=n, alpha=0.9)
            await client.close()
            await restarted.stop()
            return first, second, third, hello

        first, second, third, hello = run(scenario())
        assert (first["code"], second["code"], third["code"]) == (OK, REFUSED, OK)
        assert hello["budget"]["alpha_spent"] == pytest.approx(0.6)
        assert hello["next_seq"] == 2  # the refusal consumed sequence 1
        assert first["released"] == _engine_reference("meter", [1], n, 0.6, "")
        # The refusal consumed spawn #2 durably: after the restart the third
        # request must sample from spawn #3, exactly as an unbroken run.
        assert third["released"] == _engine_reference(
            "meter", [3], n, 0.9, "", requests_before=2
        )

    def test_quarantined_tenant_rejected_while_others_serve(self, tmp_path):
        state = tmp_path / "state"
        n, alpha = 8, 0.8

        async def scenario():
            daemon = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                         batch_window_ms=0.0)
            await _one_release(daemon, "victim", [1, 2], n, alpha)
            await _one_release(daemon, "bystander", [3, 4], n, alpha)
            await daemon.stop()

            # Flip a byte inside the header record's payload: a complete
            # record failing its checksum is damage, never a torn tail.
            blob_path = _tenant_ledger_path(state, "victim")
            blob = bytearray(blob_path.read_bytes())
            blob[12] ^= 0xFF
            blob_path.write_bytes(bytes(blob))

            restarted = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                            batch_window_ms=0.0)
            client = await _connect(restarted)
            rejected = await client.hello("victim")
            resumed = await client.hello("bystander")
            served = await client.release([5], n=n, alpha=alpha)
            health = await client.health()
            await client.close()
            await restarted.stop()
            return rejected, resumed, served, health

        rejected, resumed, served, health = run(scenario())
        assert rejected["code"] == ERROR
        assert "quarantine" in rejected["error"] or "damaged" in rejected["error"]
        assert resumed["code"] == OK
        assert resumed["budget"]["alpha_spent"] == pytest.approx(alpha)
        assert served["code"] == OK
        assert served["released"] == _engine_reference(
            "bystander", [5], n, alpha, "", requests_before=1
        )
        assert health["health"]["quarantined_tenants"] == 1
        assert health["health"]["recovered_tenants"] == 1

    def test_seed_mismatch_rejects_tenant_with_clear_error(self, tmp_path):
        state = tmp_path / "state"

        async def scenario():
            daemon = await _start_daemon(state_dir=state, budget_alpha=0.5,
                                         batch_window_ms=0.0)
            await _one_release(daemon, "t", [1], 8, 0.8)
            await daemon.stop()

            reseeded = await _start_daemon(seed=SEED + 1, state_dir=state,
                                           budget_alpha=0.5, batch_window_ms=0.0)
            client = await _connect(reseeded)
            response = await client.hello("t")
            await client.close()
            await reseeded.stop()
            return response

        response = run(scenario())
        assert response["code"] == ERROR
        assert "--seed" in response["error"]

    def test_durable_daemon_refuses_unmetered_tenants(self, tmp_path):
        async def scenario():
            daemon = await _start_daemon(
                state_dir=tmp_path / "state", batch_window_ms=0.0
            )
            client = await _connect(daemon)
            response = await client.hello("free-rider")  # no budget anywhere
            await client.close()
            await daemon.stop()
            return response

        response = run(scenario())
        assert response["code"] == ERROR
        assert "budget" in response["error"]


class TestReplay:
    """Re-sent sequence numbers are served exactly once, bit for bit."""

    def test_replay_returns_same_bits_without_recharging(self, tmp_path):
        state = tmp_path / "state"
        n, alpha = 8, 0.8

        async def scenario():
            daemon = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                         batch_window_ms=0.0)
            client = await _connect(daemon)
            await client.hello("t")
            original = await client.release([1, 2], n=n, alpha=alpha)
            await client.close()
            await daemon.stop()

            restarted = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                            batch_window_ms=0.0)
            client = await _connect(restarted)
            await client.hello("t")
            replayed = await client.release([1, 2], n=n, alpha=alpha, seq=0)
            replayed_again = await client.release([1, 2], n=n, alpha=alpha, seq=0)
            spent = restarted._tenants["t"].accountant.spent_alpha()
            stats = restarted.stats_payload()
            await client.close()
            await restarted.stop()
            return original, replayed, replayed_again, spent, stats

        original, replayed, replayed_again, spent, stats = run(scenario())
        assert original["code"] == OK and replayed["code"] == OK
        assert replayed["released"] == original["released"]
        assert replayed_again["released"] == original["released"]
        assert replayed["replayed"] is True and replayed["seq"] == 0
        # Replays never touch the budget: exactly one charge, ever.
        assert spent == pytest.approx(alpha)
        assert stats["replays"] == 2

    def test_replay_with_diverged_request_is_refused(self, tmp_path):
        state = tmp_path / "state"

        async def scenario():
            daemon = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                         batch_window_ms=0.0)
            client = await _connect(daemon)
            await client.hello("t")
            await client.release([1, 2], n=8, alpha=0.8)
            diverged = await client.release([3, 4], n=8, alpha=0.8, seq=0)
            ahead = await client.release([1], n=8, alpha=0.8, seq=7)
            await client.close()
            await daemon.stop()
            return diverged, ahead

        diverged, ahead = run(scenario())
        assert diverged["code"] == ERROR and "checksum" in diverged["error"]
        assert ahead["code"] == ERROR  # seq far ahead of the next sequence

    def test_refused_sequence_replays_as_refusal(self, tmp_path):
        state = tmp_path / "state"

        async def scenario():
            daemon = await _start_daemon(state_dir=state, batch_window_ms=0.0)
            client = await _connect(daemon)
            await client.hello("meter", budget_alpha=0.5)
            first = await client.release([1], n=8, alpha=0.6)   # spends 0.6
            refused = await client.release([2], n=8, alpha=0.7)  # 0.42 < 0.5
            replay = await client.release([2], n=8, alpha=0.7, seq=1)
            await client.close()
            await daemon.stop()
            return first, refused, replay

        first, refused, replay = run(scenario())
        assert first["code"] == OK
        assert refused["code"] == REFUSED and refused["seq"] == 1
        assert replay["code"] == REFUSED and replay["replayed"] is True

    def test_done_marks_written_after_response(self, tmp_path):
        state = tmp_path / "state"

        async def scenario():
            daemon = await _start_daemon(state_dir=state, budget_alpha=0.2,
                                         batch_window_ms=0.0)
            client = await _connect(daemon)
            await client.hello("t")
            await client.release([1, 2], n=8, alpha=0.8)
            # Give the post-write callback a beat to run.
            await asyncio.sleep(0.05)
            ledger = daemon._tenants["t"].ledger
            charged, done = ledger.charged(0), ledger.is_done(0)
            await client.close()
            await daemon.stop()
            return charged, done

        charged, done = run(scenario())
        assert charged and done


class TestDeadlinesAndBackpressure:
    def test_expired_deadline_sheds_with_code_3_consuming_nothing(self):
        async def scenario():
            # Window long enough that the deadline always fires first; the
            # idle second connection keeps pending < connections so the
            # batcher actually waits out the window.
            daemon = await _start_daemon(
                batch_window_ms=300.0, request_timeout=0.01
            )
            idle = await _connect(daemon)
            client = await _connect(daemon)
            await client.hello("t")
            shed = await client.release([1, 2], n=8, alpha=0.8)
            # With the idle connection gone, every live connection has a
            # request waiting at admission: the retry flushes immediately,
            # well inside its deadline.
            await idle.close()
            await asyncio.sleep(0.05)
            served = await client.release([1, 2], n=8, alpha=0.8)
            stats = daemon.stats_payload()
            await client.close()
            await daemon.stop()
            return shed, served, stats

        shed, served, stats = run(scenario())
        assert shed["code"] == OVERLOADED and shed["retriable"] is True
        assert "deadline" in shed["error"]
        assert served["code"] == OK
        # The shed request consumed no spawn: the retry samples spawn #0,
        # exactly as if the shed request had never been sent.
        assert served["released"] == _engine_reference("t", [1, 2], 8, 0.8, "")
        assert stats["deadline_expired"] == 1
        assert stats["overloaded"] == 1

    def test_max_pending_sheds_overflow(self):
        async def scenario():
            daemon = await _start_daemon(batch_window_ms=30_000.0, max_pending=1)
            idle = [await _connect(daemon) for _ in range(2)]
            clients = []
            for name in ("a", "b"):
                client = await _connect(daemon)
                await client.hello(name)
                clients.append(client)
            held = asyncio.create_task(clients[0].release([1], n=8, alpha=0.8))
            await asyncio.sleep(0.05)  # first request now parks in the queue
            shed = await clients[1].release([2], n=8, alpha=0.8)
            await daemon.stop()
            first = await held
            for client in clients + idle:
                await client.close()
            return shed, first

        shed, first = run(scenario())
        assert shed["code"] == OVERLOADED and "queue" in shed["error"]
        assert first["code"] == OK  # the queued request is served on stop

    def test_max_inflight_caps_one_tenant_not_others(self):
        async def scenario():
            daemon = await _start_daemon(batch_window_ms=30_000.0, max_inflight=1)
            idle = [await _connect(daemon) for _ in range(3)]
            greedy_1 = await _connect(daemon)
            greedy_2 = await _connect(daemon)
            modest = await _connect(daemon)
            await greedy_1.hello("greedy")
            await greedy_2.hello("greedy")
            await modest.hello("modest")
            held = asyncio.create_task(greedy_1.release([1], n=8, alpha=0.8))
            await asyncio.sleep(0.05)
            shed = await greedy_2.release([2], n=8, alpha=0.8)
            ok_task = asyncio.create_task(modest.release([3], n=8, alpha=0.8))
            await asyncio.sleep(0.05)
            await daemon.stop()
            first, other = await held, await ok_task
            for client in (greedy_1, greedy_2, modest, *idle):
                await client.close()
            return shed, first, other

        shed, first, other = run(scenario())
        assert shed["code"] == OVERLOADED and "in flight" in shed["error"]
        assert first["code"] == OK
        assert other["code"] == OK  # the cap is per-tenant

    def test_health_and_drain_ops(self, tmp_path):
        async def scenario():
            daemon = await _start_daemon(
                state_dir=tmp_path / "state", budget_alpha=0.5,
                batch_window_ms=0.0,
            )
            client = await _connect(daemon)
            health = await client.health()
            drained = await client.drain()
            await asyncio.wait_for(daemon.wait_closed(), timeout=5.0)
            await client.close()
            return health, drained

        health, drained = run(scenario())
        assert health["code"] == OK
        payload = health["health"]
        assert payload["status"] == "ok" and payload["durable"] is True
        assert payload["pending"] == 0 and payload["connections"] == 1
        assert drained["code"] == OK
        assert drained["stats"]["durable"] is True

    def test_oversized_request_line_answered_then_closed(self):
        async def scenario():
            daemon = await _start_daemon(batch_window_ms=0.0, max_line_bytes=2048)
            client = await _connect(daemon)
            client._writer.write(b"x" * 5000 + b"\n")
            await client._writer.drain()
            line = await client._reader.readline()
            from repro.serving.protocol import decode_message

            response = decode_message(line)
            eof = await client._reader.readline()
            await client.close()
            stats = daemon.stats_payload()
            await daemon.stop()
            return response, eof, stats

        response, eof, stats = run(scenario())
        assert response["code"] == ERROR
        assert "max-line-bytes" in response["error"]
        assert eof == b""  # framing is untrustworthy: the connection closes
        assert stats["protocol_errors"] == 1

    def test_stalled_client_is_reaped_without_blocking_others(self, tmp_path):
        async def scenario():
            injector = faults.FaultInjector(client_stall=1, hang_seconds=5.0)
            faults.install(injector)
            try:
                daemon = await _start_daemon(
                    batch_window_ms=0.0,
                    client_timeout=0.2,
                    state_dir=tmp_path / "state",
                    budget_alpha=0.2,
                )
                stalled = await _connect(daemon)
                await stalled.hello("stalled")  # response write #0
                started = time.monotonic()
                # Response write #1 stalls server-side for hang_seconds
                # (the bytes themselves were already flushed, so the
                # response still arrives); the client timeout must reap
                # the connection long before the stall ends.
                first = await stalled.release([1], n=8, alpha=0.8)
                while daemon.stats.clients_reaped == 0:
                    assert time.monotonic() - started < 3.0, "never reaped"
                    await asyncio.sleep(0.02)
                reap_latency = time.monotonic() - started
                # The reaped connection is dead for the client too.
                with pytest.raises(ConnectionError):
                    await stalled.release([2], n=8, alpha=0.8)
                # The reap broke the connection *before* the post-write
                # done-mark: the stalled request sits charged-but-not-done
                # in the replay window, charged exactly once.
                ledger = daemon._tenants["stalled"].ledger
                window = (ledger.charged(0), ledger.is_done(0))
                # The daemon (and every other client) kept serving.
                healthy = await _one_release(daemon, "fine", [2], 8, 0.8)
                stats = daemon.stats_payload()
                await stalled.close()
                await daemon.stop()
                return first, reap_latency, window, healthy, stats
            finally:
                faults.reset()

        first, reap_latency, window, healthy, stats = run(scenario())
        assert first["code"] == OK
        assert window == (True, False)
        assert reap_latency < 3.0  # reaped by the timeout, not the 5 s stall
        assert stats["clients_reaped"] == 1
        assert healthy["code"] == OK
        # The stalled request *was* served and charged before its write
        # stalled: the spawn is consumed, exactly like a crashed client.
        assert healthy["released"] == _engine_reference("fine", [2], 8, 0.8, "")


class TestDisconnectMidBatch:
    def test_disconnect_while_request_pending_charges_once_and_serves_on(
        self, tmp_path
    ):
        """A client that dies before its response: charge stands, nobody stalls."""
        state = tmp_path / "state"

        async def scenario():
            daemon = await _start_daemon(
                state_dir=state, budget_alpha=0.2, batch_window_ms=500.0
            )
            doomed = await _connect(daemon)
            await doomed.hello("doomed")
            survivor = await _connect(daemon)
            await survivor.hello("survivor")
            # The doomed request parks in the batcher (1 pending < 2
            # connections), then its connection is aborted — the RST is on
            # the wire before the survivor's admission triggers the flush,
            # so the daemon's response write to the dead peer must fail.
            doomed._writer.write(
                b'{"op": "release", "counts": [1, 2], "n": 8, "alpha": 0.8}\n'
            )
            await doomed._writer.drain()
            await asyncio.sleep(0.05)
            doomed._writer.transport.abort()
            await asyncio.sleep(0.1)
            task = asyncio.create_task(survivor.release([3], n=8, alpha=0.8))
            response = await asyncio.wait_for(task, timeout=5.0)
            await asyncio.sleep(0.05)
            session = daemon._tenants["doomed"]
            charged = session.ledger.charged(0)
            done = session.ledger.is_done(0)
            spent = session.accountant.spent_alpha()
            followup = await _one_release(daemon, "third", [4], 8, 0.8)
            await survivor.close()
            await daemon.stop()
            return response, charged, done, spent, followup

        response, charged, done, spent, followup = run(scenario())
        # The survivor's draw is unperturbed by the dead peer.
        assert response["code"] == OK
        assert response["released"] == _engine_reference(
            "survivor", [3], 8, 0.8, ""
        )
        # The doomed request was charged exactly once, durably.  (The
        # done-mark may or may not have landed — TCP cannot tell a dead
        # reader from a slow one on the first write; either way the charge
        # is exactly-once and the worst case is one bit-identical replay.)
        assert charged
        assert done in (True, False)
        assert spent == pytest.approx(0.8)
        # The daemon is fully healthy afterwards.
        assert followup["code"] == OK

    def test_dead_connection_reflushes_the_batcher(self):
        """Losing a connection re-evaluates the all-connections-waiting flush."""

        async def scenario():
            daemon = await _start_daemon(batch_window_ms=30_000.0)
            lurker = await _connect(daemon)
            client = await _connect(daemon)
            await client.hello("t")
            # pending(1) < connections(2): the request parks on the window.
            task = asyncio.create_task(client.release([1], n=8, alpha=0.8))
            await asyncio.sleep(0.05)
            assert len(daemon._pending) == 1
            # The lurker leaves: now every live connection has a request
            # waiting, so the batcher must flush without the 30 s window.
            await lurker.close()
            response = await asyncio.wait_for(task, timeout=5.0)
            await client.close()
            await daemon.stop()
            return response

        response = run(scenario())
        assert response["code"] == OK
        assert response["released"] == _engine_reference("t", [1], 8, 0.8, "")

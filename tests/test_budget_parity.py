"""One budget path: in-memory and durable budgets decide identically.

Every serving surface charges through one call, ``charge(chunk, alpha,
size, ...)``, on either a :class:`~repro.privacy.PrivacyAccountant` or a
durable :class:`~repro.engine.durability.AccountantLedger`, and refuses
through ``record_refusal``.  Both delegate the decision to the
accountant's single admission rule, so for any α sequence they must agree
on every admit/refuse outcome, the refusal text, the bit-exact spend and
the refusal count — and a daemon serving the same requests must answer
identically with and without ``--state-dir``.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.engine.durability import AccountantLedger
from repro.privacy import BudgetExceededError, PrivacyAccountant
from repro.serving import AsyncDaemonClient, ServingDaemon
from repro.serving.protocol import OK, REFUSED

SEED = 20180416

#: The one-ulp boundary: after spending 0.5 of a 0.25 target, the exact
#: remainder is 0.5 and one ulp under it is still admitted (1e-15 slack).
_ONE_ULP_UNDER = math.nextafter(0.25 / 0.5, 0.0)

ALPHA_SEQUENCES = {
    "ulp-boundary": (0.25, [0.5, _ONE_ULP_UNDER, 1.0 - 1e-9]),
    "exhaust": (0.5, [0.9] * 8),
    "zero": (0.5, [0.9, 0.0, 0.9]),
    "negative": (0.5, [-0.1, 0.9]),
    "nan": (0.5, [float("nan"), 0.9]),
    "inf": (0.5, [float("inf"), 0.9]),
    "above-one": (0.5, [1.5, 0.9]),
    "mixed": (0.3, [0.8, 0.7, 0.6, 0.99, 1.0, 0.5, 0.95]),
}


def _run(budget, alphas):
    """Charge every α; refuse through the same budget on failure."""
    outcomes = []
    for chunk, alpha in enumerate(alphas):
        try:
            budget.charge(chunk, alpha, 4, label=f"release {chunk}")
            outcomes.append(("admitted", None, None))
        except BudgetExceededError as error:
            budget.record_refusal(chunk, label=f"release {chunk}")
            outcomes.append(("refused", type(error), str(error)))
    return outcomes


@pytest.mark.parametrize("name", sorted(ALPHA_SEQUENCES))
def test_in_memory_and_durable_budgets_agree(name, tmp_path):
    target, alphas = ALPHA_SEQUENCES[name]
    memory = PrivacyAccountant(alpha_target=target)
    expected = _run(memory, alphas)
    with AccountantLedger.open(tmp_path / "l.bin", alpha_target=target) as ledger:
        assert _run(ledger, alphas) == expected
        assert ledger.spent_alpha() == memory.spent_alpha()  # bit-identical
        assert ledger.refusal_count() == memory.refusal_count()
    with AccountantLedger.open(tmp_path / "l.bin") as reopened:
        # Replaying the log rebuilds the same spend and refusal count.
        assert reopened.spent_alpha() == memory.spent_alpha()
        assert reopened.refusal_count() == memory.refusal_count()
    assert any(outcome == "refused" for outcome, _, _ in expected)


def test_ulp_boundary_case_admits_one_ulp_under():
    target, alphas = ALPHA_SEQUENCES["ulp-boundary"]
    outcomes = _run(PrivacyAccountant(alpha_target=target), alphas)
    assert [outcome for outcome, _, _ in outcomes] == ["admitted", "admitted", "refused"]


def _daemon_session(**daemon_kwargs):
    """Serve one tenant's over-budget request sequence; answers + stats."""
    requests = [
        ([1, 2], 0.8), ([3], 0.8), ([0, 8], 0.8), ([5], 0.8), ([6], 0.9), ([7, 1], 0.99),
    ]

    async def scenario():
        daemon = ServingDaemon(seed=SEED, batch_window_ms=0.0, **daemon_kwargs)
        await daemon.start(port=0)
        client = await AsyncDaemonClient.connect(host="127.0.0.1", port=daemon.port)
        try:
            await client.hello("parity", budget_alpha=0.5)
            answers = [
                await client.release(counts, n=8, alpha=alpha)
                for counts, alpha in requests
            ]
            stats = await client.stats()
        finally:
            await client.close()
            await daemon.stop()
        return answers, stats

    return asyncio.run(scenario())


def test_daemon_answers_identically_with_and_without_state_dir(tmp_path):
    memory, memory_stats = _daemon_session()
    durable, durable_stats = _daemon_session(state_dir=tmp_path / "state")
    codes = [answer["code"] for answer in memory]
    assert codes == [OK, OK, OK, REFUSED, REFUSED, OK]
    assert [answer["code"] for answer in durable] == codes
    for kept, journalled in zip(memory, durable):
        if kept["code"] == OK:
            assert journalled["released"] == kept["released"]
        else:
            assert journalled["error"] == kept["error"]
    assert durable_stats["tenant"]["budget"] == memory_stats["tenant"]["budget"]
    assert durable_stats["stats"]["budget"] == memory_stats["stats"]["budget"]

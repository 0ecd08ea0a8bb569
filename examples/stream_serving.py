"""Streaming release with a privacy budget: the engine end-to-end.

The scenario: a weekly telemetry job re-releases the same cohort's counts
through a fixed design, forever — or until the privacy budget runs out.
The release engine compiles the design once (``ReleasePlan``), streams each
week's counts through it in fixed-size chunks (``StreamExecutor``), and a
``PrivacyAccountant`` charges every chunk *before* it is sampled: the week
that would overrun the budget is refused with nothing drawn.

Two properties worth seeing live:

* the chunked stream is bit-identical to a one-shot release on the same
  seeded generator (chunking is an operational choice, not a statistical
  one);
* peak incremental memory is tied to the chunk size, not the stream length.

Run with::

    python examples/stream_serving.py
"""

from __future__ import annotations

import numpy as np

import repro


def main() -> None:
    n = 50_000
    alpha = 0.9
    weekly_counts = np.random.default_rng(0).integers(0, n + 1, size=200_000)

    print("=" * 72)
    print(f"Compiling one plan: GM at n={n}, alpha={alpha}")
    print("=" * 72)
    plan = repro.compile_plan(n, alpha)
    print(plan.stats())

    # ------------------------------------------------------------------ #
    # Chunked streaming is bit-identical to the one-shot release.
    # ------------------------------------------------------------------ #
    executor = repro.StreamExecutor(plan, chunk_size=16_384)
    streamed = executor.run(weekly_counts, rng=np.random.default_rng(42))
    one_shot = plan.mechanism.sample_batch(weekly_counts, rng=np.random.default_rng(42))
    assert np.array_equal(streamed, one_shot)
    print(f"\n{executor.stats.chunks} chunks, {executor.stats.records} records "
          "— bit-identical to the one-shot release")

    # ------------------------------------------------------------------ #
    # Budgeted weekly re-releases: the over-budget week is refused whole.
    # ------------------------------------------------------------------ #
    accountant = repro.PrivacyAccountant(alpha_target=0.5)
    print(f"\nWeekly releases at alpha={alpha} against a budget of "
          f"alpha_target={accountant.alpha_target} "
          f"(epsilon budget {-np.log(accountant.alpha_target):.3f})")
    week = 0
    while True:
        week += 1
        guarded = repro.StreamExecutor(
            plan, chunk_size=len(weekly_counts), accountant=accountant
        )
        try:
            guarded.run(weekly_counts, rng=np.random.default_rng(week))
        except repro.BudgetExceededError as refusal:
            print(f"  week {week}: REFUSED before sampling ({refusal})")
            break
        print(f"  week {week}: released; spent alpha={accountant.spent_alpha():.4f}, "
              f"remaining budget alpha={accountant.remaining_alpha():.4f}")
    assert accountant.spent_alpha() >= accountant.alpha_target
    print("\nThe refused week consumed no randomness and released nothing —")
    print("the budget guard runs before the sampler, not after.")


if __name__ == "__main__":
    main()

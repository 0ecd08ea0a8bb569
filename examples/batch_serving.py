"""Batch serving: high-volume releases through the design cache.

The scenario: a service releases private counts for many cities, on two
different privacy configurations, continuously.  Designing a mechanism can
cost an LP solve, and sampling one count at a time cannot keep up — so the
serving layer (``repro.serving``) memoises designs and samples whole batches
with one vectorised pass.

The second act scales the group size to ``n = 100 000``: the Figure-5
selector hands out *closed-form* GM/EM objects, which sample by analytic
inverse-CDF inversion — a dense matrix at this size would need ~80 GB, and
the ``Mechanism.densifications`` counter proves none is ever materialised.

Run with::

    python examples/batch_serving.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.core.mechanism import Mechanism
from repro.lp.solver import solve_call_count
from repro.serving.stats import stats_line


def main() -> None:
    rng = np.random.default_rng(0)
    cache = repro.DesignCache(capacity=64)
    session = repro.BatchReleaseSession(cache=cache, rng=np.random.default_rng(7))

    print("=" * 72)
    print("Serving 5 waves of mixed traffic over two designs")
    print("=" * 72)

    designs = [
        dict(n=16, alpha=0.9, properties="F"),      # explicit EM: no LP
        dict(n=12, alpha=0.95, properties="WH+CM"),  # WM: one LP solve, once
    ]

    for wave in range(5):
        requests = []
        for index in range(10_000):
            design = designs[index % 2]
            requests.append(
                repro.ReleaseRequest(
                    group=f"wave{wave}/city{index}",
                    count=int(rng.integers(0, design["n"] + 1)),
                    **design,
                )
            )
        solves_before = solve_call_count()
        start = time.perf_counter()
        results = session.release(requests)
        elapsed = time.perf_counter() - start
        print(
            f"wave {wave}: {len(results):6d} records in {elapsed * 1e3:7.1f} ms "
            f"({len(results) / elapsed:,.0f} records/s), "
            f"LP solves this wave: {solve_call_count() - solves_before}"
        )

    print()
    print("session:", stats_line(session.stats_payload()))

    print()
    print("=" * 72)
    print("Large-n serving: closed-form mechanisms, no dense matrix, ever")
    print("=" * 72)
    big_n = 100_000
    large_session = repro.BatchReleaseSession(cache=cache, rng=np.random.default_rng(9))
    densifications_before = Mechanism.densifications
    for properties, label in (("", "GM"), ("F", "EM")):
        counts = rng.integers(0, big_n + 1, size=100_000)
        start = time.perf_counter()
        released = large_session.release_counts(
            counts, n=big_n, alpha=0.9, properties=properties
        )
        elapsed = time.perf_counter() - start
        print(
            f"{label} at n={big_n:,}: {released.size:,} counts in "
            f"{elapsed * 1e3:7.1f} ms ({released.size / elapsed:,.0f} records/s)"
        )
    # A dense representation of either design would be an 80 GB matrix; the
    # densification counter proves the serving path never built one.
    assert Mechanism.densifications == densifications_before, (
        "large-n serving materialised a dense matrix"
    )
    print(f"dense matrices materialised during large-n serving: "
          f"{Mechanism.densifications - densifications_before}")

    print()
    print("Same seed + same traffic = same release (audit-friendly):")
    sample = [
        repro.ReleaseRequest(group="city0", count=3, n=16, alpha=0.9, properties="F")
    ]
    first = repro.BatchReleaseSession(
        cache=cache, rng=np.random.default_rng(1)
    ).release(sample)[0]
    second = repro.BatchReleaseSession(
        cache=cache, rng=np.random.default_rng(1)
    ).release(sample)[0]
    print(f"  released {first.released} == {second.released}: {first == second}")


if __name__ == "__main__":
    main()

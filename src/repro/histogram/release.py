"""Releasing a full histogram through per-bucket count mechanisms.

A histogram over ``k`` buckets assigns each individual to exactly one
bucket; the sensitive output is the vector of bucket counts.  Because each
individual affects a single bucket, releasing every bucket's count through
an α-DP count mechanism is α-DP under the add/remove-one-individual
neighbouring notion (parallel composition).  Under the alternative notion
where one individual may *move* between buckets, two counts change by one
each, and sequential composition over the two affected buckets gives an
``α²`` guarantee (ε doubles).

The count mechanism applied to each bucket is any
:class:`~repro.core.mechanism.Mechanism` from this library — so the paper's
comparison of GM vs EM vs WM carries over directly to histogram and range
query accuracy, which is what the extension experiment
(:mod:`repro.experiments.ext_range_queries`) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.mechanism import Mechanism
from repro.engine.plan import ReleasePlan, charge_release
from repro.privacy import PrivacyAccountant

#: Signature of a mechanism factory: (n, alpha) -> Mechanism.
MechanismFactory = Callable[[int, float], Mechanism]


def _validated_counts_and_capacity(
    true_counts: Sequence[int], capacity: Optional[int]
) -> "tuple[np.ndarray, int]":
    """Shared validation for histogram release paths.

    Returns the counts as an int array and the per-bucket capacity,
    defaulting to the largest observed bucket count (floored at 1).
    """
    counts = np.asarray(true_counts, dtype=int)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("true_counts must be a non-empty 1-D sequence")
    if counts.min() < 0:
        raise ValueError("bucket counts must be non-negative")
    capacity = int(counts.max()) if capacity is None else int(capacity)
    capacity = max(capacity, 1)
    if counts.max() > capacity:
        raise ValueError("capacity is smaller than the largest bucket count")
    return counts, capacity


def _overall_alpha(alpha: float, neighbouring: str) -> float:
    """The α of a full histogram release under the chosen neighbouring notion."""
    if neighbouring not in ("add_remove", "swap"):
        raise ValueError("neighbouring must be 'add_remove' or 'swap'")
    return float(alpha) if neighbouring == "add_remove" else float(alpha) ** 2


@dataclass(frozen=True)
class PrivateHistogram:
    """The result of one private histogram release."""

    true_counts: np.ndarray
    released_counts: np.ndarray
    alpha: float
    mechanism_name: str

    def __post_init__(self) -> None:
        true = np.asarray(self.true_counts, dtype=int)
        released = np.asarray(self.released_counts, dtype=int)
        if true.shape != released.shape or true.ndim != 1:
            raise ValueError("true and released counts must be 1-D arrays of equal length")
        object.__setattr__(self, "true_counts", true)
        object.__setattr__(self, "released_counts", released)

    @property
    def num_buckets(self) -> int:
        return int(self.true_counts.shape[0])

    def total_variation_error(self) -> float:
        """Half the L1 distance between the normalised true and released histograms."""
        true_total = self.true_counts.sum()
        released_total = self.released_counts.sum()
        if true_total == 0 or released_total == 0:
            raise ValueError("cannot normalise an empty histogram")
        true = self.true_counts / true_total
        released = self.released_counts / released_total
        return float(0.5 * np.abs(true - released).sum())

    def per_bucket_error(self) -> np.ndarray:
        """Signed per-bucket error (released − true)."""
        return self.released_counts - self.true_counts


class HistogramRelease:
    """Releases histograms by applying a count mechanism to every bucket.

    Parameters
    ----------
    mechanism_factory:
        Builds the per-bucket count mechanism, e.g.
        ``repro.geometric_mechanism`` or ``repro.explicit_fair_mechanism``.
        Factories that solve LPs (WM) work too; the mechanism is built once
        per distinct bucket capacity and cached.
    alpha:
        Per-bucket differential-privacy level.
    neighbouring:
        ``"add_remove"`` (default): one individual appears or disappears, so
        only one bucket changes and the whole release is α-DP.
        ``"swap"``: one individual may move between buckets; two buckets
        change and the release is α²-DP.
    rng:
        Optional shared generator used by :meth:`release` whenever the call
        does not pass its own.  Construct with
        ``np.random.default_rng(seed)`` to make every release from this
        object reproducible end-to-end; the default is a fresh unseeded
        generator per call.
    accountant:
        Optional :class:`~repro.privacy.PrivacyAccountant` charged
        :meth:`overall_alpha` per released histogram (``overall_alpha ^
        repetitions`` for :meth:`release_many`) *before* any sampling; an
        over-budget release raises
        :class:`~repro.privacy.BudgetExceededError` with nothing drawn.
    """

    def __init__(
        self,
        mechanism_factory: MechanismFactory,
        alpha: float,
        neighbouring: str = "add_remove",
        rng: Optional[np.random.Generator] = None,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> None:
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if neighbouring not in ("add_remove", "swap"):
            raise ValueError("neighbouring must be 'add_remove' or 'swap'")
        self._factory = mechanism_factory
        self.alpha = float(alpha)
        self.neighbouring = neighbouring
        self.rng = rng
        self.accountant = accountant
        self._plans: Dict[int, ReleasePlan] = {}

    def overall_alpha(self) -> float:
        """The α guarantee of a full histogram release under the chosen notion."""
        return _overall_alpha(self.alpha, self.neighbouring)

    def overall_epsilon(self) -> float:
        """The ε guarantee corresponding to :meth:`overall_alpha`."""
        alpha = self.overall_alpha()
        return float(np.inf) if alpha == 0.0 else float(-np.log(alpha))

    def plan_for(self, capacity: int) -> ReleasePlan:
        """The compiled release plan covering counts ``0 … capacity`` (cached).

        The plan wraps the factory's mechanism with eagerly-prepared
        sampling state and the histogram's per-release privacy cost
        (:meth:`overall_alpha` — the whole histogram is one release under
        the configured neighbouring notion).
        """
        if capacity < 1:
            raise ValueError("bucket capacity must be at least 1")
        if capacity not in self._plans:
            self._plans[capacity] = ReleasePlan.from_mechanism(
                self._factory(capacity, self.alpha),
                alpha_cost=self.overall_alpha(),
            )
        return self._plans[capacity]

    def mechanism_for(self, capacity: int) -> Mechanism:
        """The per-bucket mechanism covering counts ``0 … capacity`` (cached)."""
        return self.plan_for(capacity).mechanism

    def release(
        self,
        true_counts: Sequence[int],
        capacity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> PrivateHistogram:
        """Release one noisy histogram.

        ``capacity`` is the per-bucket maximum count the mechanism must
        cover; it defaults to the largest observed bucket count (a data-
        independent bound such as the population size is the safe choice
        when the maximum itself is considered sensitive).

        The generator priority is ``rng`` argument, then the instance's
        ``rng``, then a fresh unseeded generator.  All buckets are sampled
        with one vectorised :meth:`~repro.engine.plan.ReleasePlan.execute`
        call (bit-identical to the pre-engine ``apply_batch`` path on the
        same generator); the accountant, when present, is charged first.
        """
        counts, capacity = _validated_counts_and_capacity(true_counts, capacity)
        if rng is None:
            rng = self.rng if self.rng is not None else np.random.default_rng()
        plan = self.plan_for(capacity)
        charge_release(
            self.accountant, plan.alpha_cost, label=f"histogram ({counts.size} buckets)"
        )
        released = plan.execute(counts, rng=rng)
        return PrivateHistogram(
            true_counts=counts,
            released_counts=np.asarray(released, dtype=int),
            alpha=self.overall_alpha(),
            mechanism_name=plan.mechanism.name,
        )

    def release_many(
        self,
        true_counts: Sequence[int],
        repetitions: int,
        capacity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Draw ``repetitions`` independent releases of one histogram at once.

        Returns a ``(repetitions, num_buckets)`` integer matrix whose row
        ``r`` is bit-identical to the ``r``-th of ``repetitions`` sequential
        :meth:`release` calls on the same generator (the repeated-release
        loop of the range-query experiment, collapsed into a single
        :meth:`~repro.engine.plan.ReleasePlan.execute_tiled` call; the
        test-suite keeps that loop as the reference).  The accountant, when
        present, is charged for all ``repetitions`` sequential releases
        before any sampling.
        """
        counts, capacity = _validated_counts_and_capacity(true_counts, capacity)
        if rng is None:
            rng = self.rng if self.rng is not None else np.random.default_rng()
        plan = self.plan_for(capacity)
        charge_release(
            self.accountant,
            plan.alpha_cost,
            label=f"histogram x{repetitions} ({counts.size} buckets)",
            releases=int(repetitions),
        )
        return plan.execute_tiled(counts, repetitions, rng=rng)


def released_histogram(
    true_counts: Sequence[int],
    mechanism_factory: MechanismFactory,
    alpha: float,
    capacity: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    neighbouring: str = "add_remove",
) -> PrivateHistogram:
    """One-shot convenience wrapper around :class:`HistogramRelease`."""
    release = HistogramRelease(mechanism_factory, alpha, neighbouring=neighbouring)
    return release.release(true_counts, capacity=capacity, rng=rng)


def histogram_via_session(
    session,
    true_counts: Sequence[int],
    alpha: float,
    properties=(),
    capacity: Optional[int] = None,
    neighbouring: str = "add_remove",
) -> PrivateHistogram:
    """Release a histogram through a serving-layer :class:`BatchReleaseSession`.

    Unlike :class:`HistogramRelease`, which builds mechanisms from a raw
    factory, this path goes through the session's
    :class:`~repro.serving.cache.DesignCache`: the per-bucket mechanism is
    the Figure-5 optimum for ``(capacity, alpha, properties)``, solved at
    most once per distinct design across every caller sharing the cache,
    and all buckets are sampled in one vectorised batch using the
    session's generator.
    """
    counts, capacity = _validated_counts_and_capacity(true_counts, capacity)
    overall = _overall_alpha(alpha, neighbouring)
    released = session.release_counts(counts, n=capacity, alpha=alpha, properties=properties)
    mechanism = session.mechanism_for(capacity, alpha, properties=properties)
    return PrivateHistogram(
        true_counts=counts,
        released_counts=np.asarray(released, dtype=int),
        alpha=overall,
        mechanism_name=mechanism.name,
    )

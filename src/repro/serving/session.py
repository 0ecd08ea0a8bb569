"""Batch release sessions: many groups, mixed design requests, one pass.

A serving deployment sees a stream of records — "group ``g`` has true count
``c`` and wants privacy ``(n, alpha)`` with properties ``P``" — where only a
handful of distinct design requests occur.  :class:`BatchReleaseSession`
answers such a stream in three vectorised steps:

1. bucket the records by canonical design key (:func:`~repro.serving.cache
   .design_key`);
2. fetch each bucket's compiled :class:`~repro.engine.plan.ReleasePlan`
   (resolving the design through the :class:`~repro.serving.cache
   .DesignCache` — and solving the LP — only the first time it is seen);
3. execute each bucket's counts through its plan in one vectorised call,
   then scatter the results back into input order.

The session is a thin adapter over the engine: plans own mechanism
resolution and sampling preparation, and an optional
:class:`~repro.privacy.PrivacyAccountant` is charged for every executed
batch *before* any sampling happens — an over-budget request raises
:class:`~repro.privacy.BudgetExceededError` without drawing a single
uniform.

With a seeded generator the whole session is reproducible: the same records
in the same order yield the same released counts, because buckets consume
the uniform stream in first-appearance order of their design key.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty
from repro.engine.plan import ReleasePlan
from repro.privacy import BudgetExceededError, PrivacyAccountant
from repro.serving.cache import DesignCache, design_key
from repro.serving.stats import counter_snapshot, stats_payload

PropertiesLike = Union[None, str, Iterable[Union[str, StructuralProperty]]]


@dataclass(frozen=True)
class ReleaseRequest:
    """One record of a mixed release stream.

    ``group`` is an opaque identifier echoed back on the result; ``count``
    is the group's true count; the remaining fields are the design request
    served through the cache.
    """

    group: Any
    count: int
    n: int
    alpha: float
    properties: PropertiesLike = ()
    objective: Optional[Objective] = None

    def __post_init__(self) -> None:
        if int(self.count) != self.count or not (0 <= self.count <= self.n):
            raise ValueError(
                f"count {self.count!r} for group {self.group!r} outside [0, {self.n}]"
            )


@dataclass(frozen=True)
class ReleasedCount:
    """The served counterpart of one :class:`ReleaseRequest`."""

    group: Any
    true_count: int
    released: int
    mechanism: str
    branch: str
    alpha: float


@dataclass
class SessionStats:
    """Running totals for one :class:`BatchReleaseSession`.

    ``alpha_spent`` / ``alpha_remaining`` mirror the session's
    :class:`~repro.privacy.PrivacyAccountant` after every charge and stay
    ``None`` on unmetered sessions; ``budget_refusals`` counts requests
    refused (before sampling) because they would overrun the budget.
    """

    records: int = 0
    batches: int = 0
    distinct_designs: int = 0
    alpha_spent: Optional[float] = None
    alpha_remaining: Optional[float] = None
    budget_refusals: int = 0
    _keys: set = field(default_factory=set, repr=False)


class BatchReleaseSession:
    """Serve mixed streams of count-release records through cached release plans.

    Parameters
    ----------
    cache:
        The :class:`DesignCache` to serve designs from; a fresh in-memory
        cache is created when omitted.  Pass one configured with a
        ``directory`` to share designs across processes.
    rng:
        Shared generator for every draw the session makes.  Pass
        ``np.random.default_rng(seed)`` for reproducible releases; the
        default is a fresh unseeded generator.
    accountant:
        Optional :class:`~repro.privacy.PrivacyAccountant` charged for every
        executed batch (sequential composition — conservative: successive
        batches are assumed to observe the same individuals).  Charging
        happens before sampling; an over-budget request raises
        :class:`~repro.privacy.BudgetExceededError` with nothing drawn.
    budget_alpha:
        Convenience: ``budget_alpha=a`` creates a fresh accountant with
        target ``a``.  Mutually exclusive with ``accountant``.
    """

    def __init__(
        self,
        cache: Optional[DesignCache] = None,
        rng: Optional[np.random.Generator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        budget_alpha: Optional[float] = None,
    ) -> None:
        self.cache = cache if cache is not None else DesignCache()
        self.rng = rng if rng is not None else np.random.default_rng()
        if budget_alpha is not None:
            if accountant is not None:
                raise ValueError("pass either accountant or budget_alpha, not both")
            accountant = PrivacyAccountant(alpha_target=float(budget_alpha))
        self.accountant = accountant
        self.stats = SessionStats()
        self._sync_budget_stats()
        self._started = counter_snapshot()
        # Session-local compiled plans so repeat traffic reuses the same
        # ReleasePlan instance (and its mechanism's precomputed sampling
        # state) instead of rebuilding one from the cache payload per batch.
        # Bounded by the cache's LRU capacity so a long-lived session's
        # memory stays governed by the same knob as the cache itself.
        self._plans: "OrderedDict[str, ReleasePlan]" = OrderedDict()
        # Raw-request -> canonical-key memo: design_key() re-parses and
        # re-sorts the property spec on every call, which dominates the
        # per-record serving cost once sampling is vectorised.  Keyed on the
        # request fields as given (falling back to recomputing when a field
        # is unhashable, e.g. a list of properties) and cleared when it
        # outgrows a multiple of the design-cache capacity so a long-lived
        # session's memory stays bounded.
        self._key_memo: Dict[Any, str] = {}
        self._key_memo_limit = max(1024, 8 * self.cache.capacity)

    def _design_key(self, n, alpha, properties, objective) -> str:
        memo_key = (n, alpha, properties, objective)
        try:
            cached = self._key_memo.get(memo_key)
        except TypeError:
            return design_key(n, alpha, properties, objective)
        if cached is None:
            cached = design_key(n, alpha, properties, objective)
            if len(self._key_memo) >= self._key_memo_limit:
                self._key_memo.clear()
            self._key_memo[memo_key] = cached
        return cached

    def _plan(
        self,
        n: int,
        alpha: float,
        properties: PropertiesLike,
        objective: Optional[Objective],
        key: str,
    ) -> ReleasePlan:
        plan = self._plans.get(key)
        if plan is None:
            mechanism, decision = self.cache.get_or_design(
                n, alpha, properties=properties, objective=objective
            )
            # Compiling the plan reserves the mechanism's column-CDF table;
            # releases fill a row the first time they touch its column, so
            # a plan builds only the columns its traffic touches.
            plan = ReleasePlan(
                mechanism,
                decision=decision,
                alpha_cost=float(alpha),
                key=key,
            )
            self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.cache.capacity:
            self._plans.popitem(last=False)
        return plan

    def _charge(self, plans_and_labels: Sequence[Tuple[ReleasePlan, str]]) -> None:
        """Charge a set of about-to-execute batches, refusing all-or-nothing.

        The request's composed α goes through the accountant's admission
        rule *before* anything is recorded or sampled, so a refusal leaves
        both the accountant and the generator untouched; each batch is then
        recorded under its own label.
        """
        if self.accountant is None:
            return
        try:
            self.accountant.admit(
                math.prod(plan.alpha_cost for plan, _ in plans_and_labels)
            )
        except BudgetExceededError:
            self.stats.budget_refusals += 1
            raise
        for plan, label in plans_and_labels:
            self.accountant.record(plan.alpha_cost, label=label)
        self._sync_budget_stats()

    def _sync_budget_stats(self) -> None:
        if self.accountant is not None:
            self.stats.alpha_spent = self.accountant.spent_alpha()
            self.stats.alpha_remaining = self.accountant.remaining_alpha()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def release(self, requests: Iterable[ReleaseRequest]) -> List[ReleasedCount]:
        """Serve one batch of records, preserving input order in the result."""
        records = list(requests)
        if not records:
            return []
        # Bucket by canonical design key, keeping first-appearance order so
        # RNG consumption (and therefore reproducibility) is well defined.
        buckets: "Dict[str, List[int]]" = {}
        for index, record in enumerate(records):
            key = self._design_key(
                record.n, record.alpha, record.properties, record.objective
            )
            buckets.setdefault(key, []).append(index)

        # Resolve every bucket's plan, then charge the whole request before
        # any bucket samples: a refusal must not leak a partial release.
        plans: Dict[str, ReleasePlan] = {}
        for key, indices in buckets.items():
            first = records[indices[0]]
            plans[key] = self._plan(
                first.n, first.alpha, first.properties, first.objective, key
            )
        self._charge(
            [
                (plans[key], f"{plans[key].mechanism.name} batch ({len(indices)} records)")
                for key, indices in buckets.items()
            ]
        )

        results: List[Optional[ReleasedCount]] = [None] * len(records)
        for key, indices in buckets.items():
            plan = plans[key]
            first = records[indices[0]]
            counts = np.asarray([records[i].count for i in indices], dtype=int)
            released = plan.execute(counts, rng=self.rng)
            for i, value in zip(indices, released):
                record = records[i]
                results[i] = ReleasedCount(
                    group=record.group,
                    true_count=int(record.count),
                    released=int(value),
                    mechanism=plan.mechanism.name,
                    branch=plan.branch,
                    alpha=float(first.alpha),
                )
            self.stats.batches += 1
            self.stats._keys.add(key)
        self.stats.records += len(records)
        self.stats.distinct_designs = len(self.stats._keys)
        return [r for r in results if r is not None]

    def release_counts(
        self,
        counts: Union[Sequence[int], np.ndarray],
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
    ) -> np.ndarray:
        """Homogeneous fast path: one design request, a raw vector of counts.

        Skips the per-record bucketing entirely — the plan is fetched once
        and the whole vector goes through a single
        :meth:`~repro.engine.plan.ReleasePlan.execute`.
        """
        values = np.asarray(counts, dtype=int)
        if values.ndim != 1:
            raise ValueError("counts must be a 1-D sequence")
        # Reject out-of-range counts before the accountant is charged: a
        # request that cannot release anything must not burn budget.
        if values.size and (values.min() < 0 or values.max() > int(n)):
            raise ValueError(
                f"counts must lie in [0, {int(n)}]; got [{values.min()}, {values.max()}]"
            )
        key = design_key(n, alpha, properties, objective)
        plan = self._plan(n, alpha, properties, objective, key)
        self._charge([(plan, f"{plan.mechanism.name} batch ({values.size} records)")])
        released = plan.execute(values, rng=self.rng)
        self.stats.records += int(values.size)
        self.stats.batches += 1
        self.stats._keys.add(key)
        self.stats.distinct_designs = len(self.stats._keys)
        return released

    def plan_for(
        self,
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
    ) -> ReleasePlan:
        """The compiled :class:`~repro.engine.plan.ReleasePlan` for a request."""
        key = design_key(n, alpha, properties, objective)
        return self._plan(n, alpha, properties, objective, key)

    def mechanism_for(
        self,
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
    ) -> Mechanism:
        """The mechanism this session would use for a design request."""
        return self.plan_for(n, alpha, properties=properties, objective=objective).mechanism

    def stats_payload(self) -> Dict[str, Any]:
        """This session's ``serve-batch`` stats object (:mod:`repro.serving.stats`)."""
        return stats_payload(
            "serve-batch",
            records=self.stats.records,
            since=self._started,
            batches=self.stats.batches,
            distinct_designs=self.stats.distinct_designs,
            cache=self.cache.stats(),
            accountant=self.accountant,
            budget_refusals=self.stats.budget_refusals,
        )

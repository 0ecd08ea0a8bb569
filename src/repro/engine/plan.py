"""Compiled release plans: design once, release forever.

Every workflow in this library has the same two-phase shape the paper
prescribes — *design* a constrained mechanism once (an LP solve or a closed
form), then *apply* it to many counts.  Before this module the apply phase
was re-implemented by each caller (the serving session, the histogram
releaser, the empirical evaluator, the experiment runners), each resolving
the mechanism, warming its sampling state and post-processing its output in
its own way.

:class:`ReleasePlan` is the compiled artifact those callers now share.  A
plan owns

* the **resolved mechanism** (any representation — dense, closed-form or
  sparse) plus the :class:`~repro.core.selector.SelectorDecision` that
  produced it when known;
* **prepared sampling state** — :meth:`prepare` reserves the ``(n +
  1)^2`` column-CDF table every exact sampler reads, via
  :meth:`~repro.core.mechanism.Mechanism.prepare_sampling`; its rows are
  filled the first time a release touches their column (mechanisms above
  the exact-sampling limit keep no table);
* **privacy metadata** — :attr:`alpha_cost`, the α charged against a
  :class:`~repro.privacy.PrivacyAccountant` per executed release;
* an optional **post-processing hook** applied to every released array
  (e.g. the estimation utilities of :mod:`repro.eval.estimation` or
  histogram prefix sums), plus convenience estimators.

Plans are cheap, picklable (their mechanisms are) and reusable: compile one
per distinct design request and execute it as many times as traffic
demands, either directly (:meth:`execute` / :meth:`execute_tiled` /
:meth:`evaluate`) or through a :class:`~repro.engine.executor
.StreamExecutor` for chunked, budget-guarded streams.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import StructuralProperty
from repro.core.selector import SelectorDecision, choose_mechanism
from repro.privacy import PrivacyAccountant

PropertiesLike = Union[None, str, Iterable[Union[str, StructuralProperty]]]

#: Signature of a plan's post-processing hook: released counts in, processed
#: array out.  Receives exactly the array the sampler produced — 1-D for
#: :meth:`ReleasePlan.execute`, ``(repetitions, batch)`` for
#: :meth:`ReleasePlan.execute_tiled`, and *one chunk at a time* under a
#: :class:`~repro.engine.executor.StreamExecutor` (so only elementwise
#: hooks commute with chunking; apply cumulative transforms such as prefix
#: sums to the assembled result instead).
PostProcess = Callable[[np.ndarray], np.ndarray]


def charge_release(
    accountant: Optional[PrivacyAccountant],
    alpha: float,
    label: str = "release",
    releases: int = 1,
) -> None:
    """Charge ``releases`` sequential α-DP releases against an accountant.

    ``None`` accountant means unmetered (free) serving.  Otherwise ``alpha``
    and then the composed ``alpha ** releases`` go through the accountant's
    admission rule (:meth:`~repro.privacy.PrivacyAccountant.admit`), which
    raises :class:`~repro.privacy.BudgetExceededError` *before* the caller
    draws any samples — charging precedes sampling everywhere in the engine.
    """
    if accountant is None:
        return
    if int(releases) != releases or releases < 1:
        raise ValueError("releases must be a positive integer")
    accountant.record(accountant.admit(alpha) ** int(releases), label=label)


class ReleasePlan:
    """A compiled, reusable recipe for releasing counts through one design.

    Build one with :meth:`compile` (resolve a ``(n, alpha, properties,
    objective)`` design request, optionally through a
    :class:`~repro.serving.cache.DesignCache`) or :meth:`from_mechanism`
    (wrap an already-built mechanism).  Construction eagerly prepares the
    representation's sampling state, so the first executed batch pays no
    warm-up cost.

    Parameters
    ----------
    mechanism:
        The resolved mechanism the plan releases through.
    decision:
        The Figure-5 :class:`~repro.core.selector.SelectorDecision` that
        produced the mechanism, when the plan came from a design request.
    alpha_cost:
        The α charged per executed release against a
        :class:`~repro.privacy.PrivacyAccountant`.  Defaults to the
        mechanism's design α (falling back to its measured
        :meth:`~repro.core.mechanism.Mechanism.max_alpha` when the design α
        is unknown).
    postprocess:
        Optional hook applied to every released array before it is returned
        (estimation, prefix sums, clamping, …).
    key:
        The canonical design-cache key, when the plan was compiled through
        a cache.
    prepare:
        Run the sampling warm-up at construction (default).  Pass ``False``
        when compiling many plans whose first use is far away.
    """

    #: Class-level count of :class:`ReleasePlan` objects constructed in this
    #: process — design requests resolved by :meth:`compile` *and* existing
    #: mechanisms wrapped by :meth:`from_mechanism` (e.g. one per sweep
    #: evaluation task).  Snapshot it around a code path to measure how many
    #: plans the engine built for it, in the style of
    #: :attr:`Mechanism.densifications`.
    compilations = 0

    def __init__(
        self,
        mechanism: Mechanism,
        decision: Optional[SelectorDecision] = None,
        alpha_cost: Optional[float] = None,
        postprocess: Optional[PostProcess] = None,
        key: Optional[str] = None,
        prepare: bool = True,
    ) -> None:
        self.mechanism = mechanism
        self.decision = decision
        if alpha_cost is None:
            alpha_cost = mechanism.alpha if mechanism.alpha is not None else mechanism.max_alpha()
        self.alpha_cost = float(alpha_cost)
        if not (0.0 <= self.alpha_cost <= 1.0):
            raise ValueError("alpha_cost must lie in [0, 1]")
        self.postprocess = postprocess
        self.key = key
        self.prepared = False
        # Execution counters (plan-level stats surfaced by stats()).
        self.executions = 0
        self.records_released = 0
        ReleasePlan.compilations += 1
        if prepare:
            self.prepare()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        n: int,
        alpha: float,
        properties: PropertiesLike = (),
        objective: Optional[Objective] = None,
        cache: Optional[Any] = None,
        representation: str = "auto",
        postprocess: Optional[PostProcess] = None,
    ) -> "ReleasePlan":
        """Resolve a design request into an executable plan.

        The Figure-5 selector answers the request (through ``cache`` when
        one is supplied, so repeated compilations never re-solve an LP) and
        the resulting mechanism is wrapped with its decision, design-cache
        key and per-release α cost.
        """
        mechanism, decision = choose_mechanism(
            n,
            alpha,
            properties=properties,
            objective=objective,
            cache=cache,
            representation=representation,
        )
        return cls(
            mechanism,
            decision=decision,
            alpha_cost=float(alpha),
            postprocess=postprocess,
            key=mechanism.metadata.get("design_cache_key"),
        )

    @classmethod
    def from_mechanism(
        cls,
        mechanism: Mechanism,
        decision: Optional[SelectorDecision] = None,
        alpha_cost: Optional[float] = None,
        postprocess: Optional[PostProcess] = None,
        prepare: bool = True,
    ) -> "ReleasePlan":
        """Wrap an existing mechanism (any representation) as a plan."""
        return cls(
            mechanism,
            decision=decision,
            alpha_cost=alpha_cost,
            postprocess=postprocess,
            prepare=prepare,
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Group size covered by the plan's mechanism."""
        return self.mechanism.n

    @property
    def branch(self) -> str:
        """The selector branch that produced the mechanism (name if unknown)."""
        if self.decision is not None:
            return self.decision.branch
        return self.mechanism.name

    def prepare(self) -> "ReleasePlan":
        """Eagerly run the representation's sampling warm-up (idempotent)."""
        if not self.prepared:
            self.mechanism.prepare_sampling()
            self.prepared = True
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Release one batch of counts (one independent draw per element).

        Bit-identical to :meth:`Mechanism.sample_batch` on the same
        generator — the plan adds preparation, counting and the optional
        post-processing hook, never a different sampler.
        """
        return self.finish(self.mechanism.sample_batch(true_counts, rng=rng))

    def execute_with_uniforms(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Release one batch from caller-supplied uniforms (engine hot path).

        Bit-identical to :meth:`execute` whenever ``uniforms`` is
        ``rng.random(len(true_counts))`` from the same generator state; the
        :class:`~repro.engine.executor.StreamExecutor` uses this to draw one
        uniform block covering several chunks and release each chunk from
        its slice.  Counting and the post-processing hook behave exactly as
        in :meth:`execute`.
        """
        return self.finish(self.mechanism.sample_with_uniforms(true_counts, uniforms))

    def execute_tiled(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Release the same batch ``repetitions`` times in one vectorised call.

        Delegates to :meth:`Mechanism.sample_tiled`, so row ``r`` is
        bit-identical to the ``r``-th of ``repetitions`` sequential
        :meth:`execute` calls on the same generator.
        """
        return self.finish(self.mechanism.sample_tiled(true_counts, repetitions, rng=rng))

    def finish(self, released: np.ndarray) -> np.ndarray:
        """Count one executed release and apply the post-processing hook.

        Every execution path ends here, including the
        :class:`~repro.engine.executor.StreamExecutor`'s seeded chunks,
        which are sampled outside the plan (possibly in a worker process).
        """
        self.executions += 1
        self.records_released += int(released.size)
        if self.postprocess is not None:
            released = np.asarray(self.postprocess(released))
        return released

    def evaluate(
        self,
        data,
        group_size: Optional[int] = None,
        repetitions: int = 30,
        metrics=None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        """Empirically evaluate the plan's mechanism on a workload.

        Thin adapter over :func:`repro.eval.empirical.evaluate_mechanism`
        (deferred import — the evaluator itself draws through this plan).
        """
        from repro.eval.empirical import evaluate_mechanism

        return evaluate_mechanism(
            self,
            data,
            group_size=group_size,
            repetitions=repetitions,
            metrics=metrics,
            rng=rng,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Estimation conveniences (the "downstream processing" hooks)
    # ------------------------------------------------------------------ #
    def estimate_true_histogram(self, released_counts, method: str = "least_squares") -> np.ndarray:
        """Invert the mechanism on released counts (see :mod:`repro.eval.estimation`)."""
        from repro.eval.estimation import estimate_true_histogram

        return estimate_true_histogram(self.mechanism, released_counts, method=method)

    def debias_released_mean(self, released_counts) -> float:
        """Bias-corrected mean true count from released counts."""
        from repro.eval.estimation import debias_released_mean

        return debias_released_mean(self.mechanism, released_counts)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Plan-level execution counters and design provenance."""
        return {
            "mechanism": self.mechanism.name,
            "representation": self.mechanism.representation,
            "n": self.n,
            "branch": self.branch,
            "alpha_cost": self.alpha_cost,
            "prepared": self.prepared,
            "executions": self.executions,
            "records_released": self.records_released,
            "storage_bytes": self.mechanism.storage_bytes(),
        }

    def descriptor(self) -> Dict[str, Any]:
        """The plan's identity as a plan-registry row (indexed columns).

        Mirrors :func:`repro.serving.registry.parse_design_key` applied to
        the plan's design-cache key, so a plan can be matched to — or looked
        up in — a :class:`~repro.serving.registry.PlanRegistry` without
        reconstructing the request.  ``None`` when the plan was built from a
        bare mechanism with no cache key (nothing to look up).
        """
        if self.key is None:
            return {"key": None}
        from repro.serving.registry import parse_design_key

        fields = parse_design_key(self.key) or {}
        descriptor: Dict[str, Any] = {"key": self.key}
        descriptor.update(fields)
        return descriptor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReleasePlan(mechanism={self.mechanism.name!r}, n={self.n}, "
            f"representation={self.mechanism.representation!r}, "
            f"alpha_cost={self.alpha_cost:g})"
        )

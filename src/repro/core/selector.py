"""The Figure-5 flowchart: which mechanism serves a requested property set.

Section IV-D's headline structural result is that, although seven properties
give 128 possible requests, under the ``L0`` objective only four distinct
optimal behaviours exist:

1. **EM** whenever fairness is requested (Theorem 4: EM is optimal among
   fair mechanisms and carries every other property for free).
2. **GM** whenever only {S, RM, RH} are requested (Theorem 3: GM is the
   BASICDP optimum and already has those properties), and more generally
   whenever GM happens to satisfy everything requested — which by Lemma 2
   includes weak honesty once ``n >= 2α/(1 − α)``, and by Lemma 3 includes
   the column properties once ``α <= 1/2``.
3. **WM (WH)** — the LP solution with weak honesty — when WH is requested,
   GM does not provide it, and no column property is requested.
4. **WM (WH + CM)** — the LP solution with weak honesty and column
   monotonicity — when a column property is requested and GM does not
   provide it.

:func:`choose_mechanism` implements this decision procedure and returns both
the mechanism and a :class:`SelectorDecision` explaining which branch fired,
so the test-suite can verify the flowchart never loses optimality relative
to solving the full LP directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple, Union

from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.core.properties import (
    StructuralProperty,
    combination_label,
    implied_closure,
    parse_properties,
)
from repro.core.theory import gm_is_column_monotone, gm_is_weakly_honest


#: Branch labels for SelectorDecision.branch.
BRANCH_FAIR = "EM"
BRANCH_GEOMETRIC = "GM"
BRANCH_WEAK_HONESTY = "WM[WH]"
BRANCH_WEAK_HONESTY_COLUMN = "WM[WH+CM]"

#: Properties GM is guaranteed to satisfy for every (n, alpha): symmetry and
#: the row-wise properties (Section IV-B).
_GM_UNCONDITIONAL: FrozenSet[StructuralProperty] = frozenset(
    {
        StructuralProperty.SYMMETRY,
        StructuralProperty.ROW_MONOTONE,
        StructuralProperty.ROW_HONESTY,
    }
)

_COLUMN_PROPERTIES: FrozenSet[StructuralProperty] = frozenset(
    {StructuralProperty.COLUMN_HONESTY, StructuralProperty.COLUMN_MONOTONE}
)


@dataclass(frozen=True)
class SelectorDecision:
    """The outcome of the Figure-5 decision procedure."""

    branch: str
    requested: FrozenSet[StructuralProperty]
    closure: FrozenSet[StructuralProperty]
    n: int
    alpha: float
    reason: str

    def describe(self) -> str:
        """Readable one-line description of the decision."""
        label = combination_label(self.requested) or "(none)"
        return f"properties {label} at (n={self.n}, alpha={self.alpha:g}) -> {self.branch}: {self.reason}"


def gm_satisfies(
    properties: Iterable[Union[str, StructuralProperty]], n: int, alpha: float
) -> bool:
    """Whether GM satisfies every property in the set, using the paper's lemmas.

    GM always satisfies S, RM and RH; it satisfies WH iff ``n >= 2α/(1 − α)``
    (Lemma 2) and the column properties iff ``α <= 1/2`` (Lemma 3); it is
    never fair for n > 1.
    """
    closure = implied_closure(properties)
    for prop in closure:
        if prop in _GM_UNCONDITIONAL:
            continue
        if prop is StructuralProperty.WEAK_HONESTY:
            # Column monotonicity also implies weak honesty, so either lemma
            # can discharge the requirement.
            if gm_is_weakly_honest(n, alpha) or gm_is_column_monotone(alpha):
                continue
            return False
        if prop in _COLUMN_PROPERTIES:
            if gm_is_column_monotone(alpha):
                continue
            return False
        if prop is StructuralProperty.FAIRNESS:
            return n == 1 and alpha <= 1.0 and False  # GM is never fair for n >= 2
        return False
    return True


def decide(
    n: int,
    alpha: float,
    properties: Union[None, str, Iterable[Union[str, StructuralProperty]]] = (),
) -> SelectorDecision:
    """Run the Figure-5 decision procedure without building any mechanism."""
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    requested = parse_properties(properties)
    closure = implied_closure(requested)

    if StructuralProperty.FAIRNESS in closure:
        return SelectorDecision(
            branch=BRANCH_FAIR,
            requested=requested,
            closure=closure,
            n=n,
            alpha=alpha,
            reason="fairness requested; EM is optimal among fair mechanisms (Theorem 4)",
        )
    if gm_satisfies(closure, n, alpha):
        return SelectorDecision(
            branch=BRANCH_GEOMETRIC,
            requested=requested,
            closure=closure,
            n=n,
            alpha=alpha,
            reason="GM already satisfies every requested property (Theorem 3, Lemmas 2-3)",
        )
    if closure & _COLUMN_PROPERTIES:
        return SelectorDecision(
            branch=BRANCH_WEAK_HONESTY_COLUMN,
            requested=requested,
            closure=closure,
            n=n,
            alpha=alpha,
            reason="column property requested and GM lacks it; solve the LP with WH + CM",
        )
    return SelectorDecision(
        branch=BRANCH_WEAK_HONESTY,
        requested=requested,
        closure=closure,
        n=n,
        alpha=alpha,
        reason="weak honesty requested and GM lacks it; solve the LP with WH",
    )


def choose_mechanism(
    n: int,
    alpha: float,
    properties: Union[None, str, Iterable[Union[str, StructuralProperty]]] = (),
    objective: Optional[Objective] = None,
    cache: Optional[object] = None,
    representation: str = "auto",
) -> Tuple[Mechanism, SelectorDecision]:
    """Return the optimal mechanism for the requested properties plus the decision.

    The explicit branches (GM, EM) are built in closed form — matrix-free
    :class:`~repro.core.mechanism.ClosedFormMechanism` objects whose
    construction never materialises an ``(n + 1)^2`` array, so the selector
    scales to arbitrarily large groups.  The two WM branches solve the
    corresponding LP; under the default ``representation="auto"`` their
    banded solutions are kept in CSC storage
    (:class:`~repro.core.mechanism.SparseMechanism`), while
    ``representation="dense"`` forces the pre-refactor dense wrapping.  The
    returned mechanism always satisfies every requested property and is
    ``L0``-optimal among mechanisms that do (the structural results of
    Section IV-D).

    When ``cache`` is a :class:`~repro.serving.cache.DesignCache` (anything
    with a ``get_or_design`` method works), the request is routed through it
    so repeated designs skip both the flowchart and the LP solver; this is
    what high-volume callers (the serving layer, the ``serve-batch`` CLI)
    rely on.
    """
    if representation not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown mechanism representation {representation!r}")
    if cache is not None:
        return cache.get_or_design(  # type: ignore[attr-defined]
            n, alpha, properties=properties, objective=objective
        )
    # Imported here to avoid a circular import at package load time:
    # repro.mechanisms depends on repro.core.design.
    from repro.mechanisms.fair import explicit_fair_mechanism
    from repro.mechanisms.geometric import geometric_mechanism
    from repro.mechanisms.weakly_honest import weakly_honest_mechanism

    lp_representation = "sparse" if representation == "auto" else representation
    decision = decide(n, alpha, properties)
    if decision.branch == BRANCH_FAIR:
        mechanism = explicit_fair_mechanism(n, alpha)
    elif decision.branch == BRANCH_GEOMETRIC:
        mechanism = geometric_mechanism(n, alpha)
    elif decision.branch == BRANCH_WEAK_HONESTY:
        mechanism = weakly_honest_mechanism(
            n,
            alpha,
            column_monotone=False,
            objective=objective,
            representation=lp_representation,
        )
    else:
        mechanism = weakly_honest_mechanism(
            n,
            alpha,
            column_monotone=True,
            objective=objective,
            representation=lp_representation,
        )
    mechanism.metadata["selector_branch"] = decision.branch
    mechanism.metadata["selector_reason"] = decision.reason
    return mechanism, decision

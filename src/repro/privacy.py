"""Privacy accounting: composition of α-DP count releases.

The paper analyses a single release of one group's count.  Deployments
rarely stop there: the same group's count may be re-released every week, or
many disjoint groups may be released together.  This module provides the
standard composition rules in the paper's α-parameterisation
(``α = e^{−ε}``, so ε's *add* ⇔ α's *multiply*) and a small budget
accountant that tracks a sequence of releases against a target guarantee.

* **Sequential composition** — releases that all depend on the same
  individual's bit multiply their α's (ε's add).
* **Parallel composition** — releases over disjoint groups of individuals
  compose for free: the overall guarantee is the weakest (smallest ε /
  largest... i.e. the *minimum* α is not needed; the guarantee is the
  maximum ε among them, equivalently the minimum α).

These helpers are deliberately simple (pure ε-DP, no advanced composition or
δ slack) to stay within the paper's model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import math


def _check_alpha(alpha: float) -> float:
    # The interval test already excludes NaN (all comparisons false) and
    # ±inf, but spell the finiteness check out so the rejection of a
    # poisoned alpha is a contract, not a side effect of comparison rules.
    if not math.isfinite(alpha) or not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be a finite value in (0, 1] for composition")
    return float(alpha)


def compose_sequential(alphas: Iterable[float]) -> float:
    """Overall α of releases that all observe the same individuals.

    ε's add, so α's multiply: ``α_total = Π α_i``.
    """
    total = 1.0
    count = 0
    for alpha in alphas:
        total *= _check_alpha(alpha)
        count += 1
    if count == 0:
        raise ValueError("at least one release is required")
    return total


def compose_parallel(alphas: Iterable[float]) -> float:
    """Overall α of releases over *disjoint* sets of individuals.

    Each individual is touched by at most one release, so the guarantee is
    the worst single release: ``α_total = min α_i``.
    """
    values = [_check_alpha(alpha) for alpha in alphas]
    if not values:
        raise ValueError("at least one release is required")
    return min(values)


def releases_supported(alpha_per_release: float, alpha_target: float) -> int:
    """How many sequential releases at ``alpha_per_release`` fit within a target.

    Returns the largest ``k`` with ``alpha_per_release^k >= alpha_target``
    (equivalently ``k · ε_release <= ε_target``); zero if even one release
    exceeds the budget.
    """
    alpha_per_release = _check_alpha(alpha_per_release)
    alpha_target = _check_alpha(alpha_target)
    if alpha_per_release == 1.0:
        raise ValueError("a release with alpha = 1 carries no privacy cost; the budget is infinite")
    if alpha_per_release < alpha_target:
        return 0
    return int(math.floor(math.log(alpha_target) / math.log(alpha_per_release) + 1e-12))


def per_release_alpha(alpha_target: float, num_releases: int) -> float:
    """The per-release α needed so ``num_releases`` sequential releases meet a target.

    ``α_release = α_target^{1/k}`` (equivalently ε_target split evenly).
    """
    alpha_target = _check_alpha(alpha_target)
    if num_releases < 1:
        raise ValueError("num_releases must be at least 1")
    return float(alpha_target ** (1.0 / num_releases))


@dataclass
class BudgetExceededError(RuntimeError):
    """Raised by :class:`PrivacyAccountant` when a release would overrun the budget."""

    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.message


@dataclass
class PrivacyAccountant:
    """Tracks sequential α-DP releases against a target guarantee.

    Parameters
    ----------
    alpha_target:
        The overall guarantee that must still hold after every recorded
        release (``α_total >= alpha_target``).

    Example
    -------
    >>> accountant = PrivacyAccountant(alpha_target=0.5)
    >>> accountant.record(0.9, label="week 1")
    >>> accountant.record(0.9, label="week 2")
    >>> round(accountant.spent_alpha(), 3)
    0.81
    >>> accountant.remaining_releases(0.9)
    4
    """

    alpha_target: float
    _releases: List[Tuple[str, float]] = field(default_factory=list)
    #: Running left-to-right product of the recorded α's — exactly what
    #: ``compose_sequential`` would recompute, kept incrementally so the
    #: serving hot path (one budget check per request) is O(1) in the
    #: number of past releases instead of O(history).
    _spent: float = field(default=1.0, repr=False)
    _refusals: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.alpha_target = _check_alpha(self.alpha_target)
        self._spent = (
            compose_sequential(alpha for _, alpha in self._releases)
            if self._releases
            else 1.0
        )

    def spent_alpha(self) -> float:
        """The composed α of everything recorded so far (1.0 if nothing yet)."""
        return self._spent

    def spent_epsilon(self) -> float:
        """The composed ε of everything recorded so far."""
        return float(-math.log(self.spent_alpha()))

    def remaining_alpha(self) -> float:
        """The α still available: target divided by what has been spent."""
        return float(min(1.0, self.alpha_target / self.spent_alpha()))

    def can_release(self, alpha: float) -> bool:
        """Whether a further release at ``alpha`` keeps the target intact."""
        return self.spent_alpha() * _check_alpha(alpha) >= self.alpha_target - 1e-15

    def admit(self, alpha: float) -> float:
        """The admission rule every budgeted path applies before sampling.

        Returns ``alpha`` as a float when one more release at it fits;
        otherwise raises :class:`BudgetExceededError` and records nothing.
        An ``alpha`` outside ``(0, 1]`` (NaN and ±inf included) has
        unbounded privacy cost (ε = ∞) and is always refused.
        """
        alpha = float(alpha)
        if not (0.0 < alpha <= 1.0):
            raise BudgetExceededError(
                f"release at alpha={alpha:g} has unbounded privacy cost "
                "(epsilon = inf); an accountant-guarded path cannot serve it"
            )
        if not self.can_release(alpha):
            raise BudgetExceededError(
                f"release at alpha={alpha:g} would push the guarantee below the "
                f"target {self.alpha_target:g} (already spent alpha={self.spent_alpha():g})"
            )
        return alpha

    def record(self, alpha: float, label: str = "") -> None:
        """Record a release, refusing it if the budget would be exceeded.

        Unlike :meth:`charge`, an ``alpha`` outside ``(0, 1]`` is a caller
        error here (:class:`ValueError`), not a refusal.
        """
        alpha = self.admit(_check_alpha(alpha))
        self._releases.append((label or f"release {len(self._releases) + 1}", alpha))
        self._spent *= alpha

    def charge(
        self,
        chunk: int,
        alpha: float,
        size: int,
        label: str = "",
        crc: Optional[int] = None,
        extra: Optional[dict] = None,
        sync: Optional[bool] = None,
    ) -> bool:
        """Charge one release before it is sampled (refusals via :meth:`admit`).

        The same call as :meth:`repro.engine.durability.AccountantLedger
        .charge`, so a caller need not know which budget it holds; only
        ``alpha`` and ``label`` matter in memory.  Returns ``True``.
        """
        self.record(self.admit(alpha), label=label)
        return True

    def record_refusal(
        self, chunk: int, label: str = "", sync: Optional[bool] = None
    ) -> bool:
        """Count a refused release; the ledger's same call also journals it."""
        self._refusals += 1
        return True

    def refusal_count(self) -> int:
        """How many refusals :meth:`record_refusal` has counted."""
        return self._refusals

    def remaining_releases(self, alpha: float) -> int:
        """How many further releases at ``alpha`` the remaining budget supports.

        The future releases must keep ``spent · future >= target``, i.e. their
        composed α must stay at or above :meth:`remaining_alpha`; when the
        budget is exactly exhausted this is zero for any ``alpha < 1``.
        """
        return releases_supported(alpha, self.remaining_alpha())

    def history(self) -> List[Tuple[str, float]]:
        """The recorded releases as (label, alpha) pairs, in order."""
        return list(self._releases)

    def release_count(self) -> int:
        """How many releases have been recorded (no copy of the history)."""
        return len(self._releases)

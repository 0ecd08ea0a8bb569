"""Closed forms, thresholds and tests from the paper's analysis.

This module gathers every analytic statement the paper proves about the
named mechanisms, so the experiments (and the test-suite) can compare LP
results against theory:

* Theorem 3 / Section IV-B — the ``L0`` score of GM is ``2α / (1 + α)``.
* Lemma 2 — GM is weakly honest iff ``n >= 2α / (1 − α)``.
* Lemma 3 — GM is column monotone iff ``α <= 1/2``.
* Lemma 4 / Eq. 15 — the largest feasible fair diagonal value ``y``.
* Section IV-C — the ``L0`` score of EM, ``(n + 1)/n · (1 − y)``.
* Definition 5 — the ``L0`` score of the uniform mechanism is exactly 1.
* Section IV-D — the Gupte–Sundararajan test for derivability from GM.
* Theorem 1 — the symmetrisation construction (also exposed as
  :meth:`Mechanism.symmetrized`).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.core.mechanism import Mechanism

MatrixLike = Union[np.ndarray, Mechanism]


def _as_matrix(mechanism: MatrixLike) -> np.ndarray:
    if isinstance(mechanism, Mechanism):
        return mechanism.matrix
    return np.asarray(mechanism, dtype=float)


def _check_alpha(alpha: float) -> float:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    return float(alpha)


def _check_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    return int(n)


# --------------------------------------------------------------------------- #
# Privacy parameter conversions
# --------------------------------------------------------------------------- #
def alpha_from_epsilon(epsilon: float) -> float:
    """Convert an ε-differential-privacy parameter to ``α = exp(−ε)``."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return float(math.exp(-epsilon))


def epsilon_from_alpha(alpha: float) -> float:
    """Convert ``α`` to ``ε = −ln(α)`` (infinite for α = 0)."""
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        return float("inf")
    return float(-math.log(alpha))


# --------------------------------------------------------------------------- #
# Closed-form L0 scores (Figure 6)
# --------------------------------------------------------------------------- #
def gm_l0_score(alpha: float) -> float:
    """The ``L0`` score of the geometric mechanism, ``2α / (1 + α)`` (Section IV-B)."""
    alpha = _check_alpha(alpha)
    return 2.0 * alpha / (1.0 + alpha)


def gm_diagonal_interior(alpha: float) -> float:
    """GM's interior diagonal value ``y = (1 − α) / (1 + α)`` (Figure 3)."""
    alpha = _check_alpha(alpha)
    return (1.0 - alpha) / (1.0 + alpha)


def gm_corner_value(alpha: float) -> float:
    """GM's truncation-row value ``x = 1 / (1 + α)`` (Figure 3)."""
    alpha = _check_alpha(alpha)
    return 1.0 / (1.0 + alpha)


def em_diagonal(n: int, alpha: float) -> float:
    """The fair diagonal value ``y`` of the explicit fair mechanism EM.

    Every column of EM contains the same multiset of powers of α, so ``y`` is
    the reciprocal of that column sum (the construction makes the Lemma-4
    bound tight).  For even ``n`` this matches Eq. 15,
    ``y = (1 − α) / (1 + α − 2 α^{n/2 + 1})``; for odd ``n`` the column has a
    single largest power so ``y = 1 / (1 + 2 Σ_{k<= (n−1)/2} α^k + α^{(n+1)/2})``.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        # Every power collapses to 1 and EM degenerates to the uniform mechanism.
        return 1.0 / (n + 1)
    half = n // 2
    # Summed left to right by ``+=``, so the value does not depend on the
    # Python version (``sum()`` compensates from 3.12 on).  The powers fall,
    # so the loop stops at the first one that underflows to 0.0: every later
    # term would add 0.0.
    side = 0.0
    for k in range(1, half + 1):
        power = alpha**k
        if power == 0.0:
            break
        side += power
    column_sum = 1.0 + 2.0 * side
    if n % 2:
        column_sum += alpha ** (half + 1)
    return 1.0 / column_sum


def em_l0_score(n: int, alpha: float) -> float:
    """The ``L0`` score of EM: ``(n + 1)/n · (1 − y)`` (Lemma 1 and Eq. 1)."""
    n = _check_n(n)
    return (n + 1) / n * (1.0 - em_diagonal(n, alpha))


def um_l0_score(n: int) -> float:
    """The ``L0`` score of the uniform mechanism, exactly 1 by construction of Eq. 1."""
    _check_n(n)
    return 1.0


def um_raw_objective(n: int) -> float:
    """The unrescaled ``O_{0,Σ}`` value of UM, ``n / (n + 1)`` (Section IV-A)."""
    n = _check_n(n)
    return n / (n + 1)


def fairness_diagonal_bound(n: int, alpha: float) -> float:
    """Lemma 4: the largest diagonal value any fair mechanism can achieve.

    The bound is obtained by making the DP chain tight in the middle column;
    EM attains it, so this equals :func:`em_diagonal`.
    """
    return em_diagonal(n, alpha)


# --------------------------------------------------------------------------- #
# Lemma thresholds for GM
# --------------------------------------------------------------------------- #
def weak_honesty_threshold(alpha: float) -> float:
    """Lemma 2's group-size threshold ``2α / (1 − α)`` (infinite at α = 1)."""
    alpha = _check_alpha(alpha)
    if alpha >= 1.0:
        return float("inf")
    return 2.0 * alpha / (1.0 - alpha)


def gm_is_weakly_honest(n: int, alpha: float) -> bool:
    """Lemma 2: GM obeys weak honesty iff ``n >= 2α / (1 − α)``."""
    n = _check_n(n)
    return n >= weak_honesty_threshold(alpha) - 1e-12


def gm_is_column_monotone(alpha: float) -> bool:
    """Lemma 3: GM is column monotone iff ``α <= 1/2``."""
    alpha = _check_alpha(alpha)
    return alpha <= 0.5 + 1e-12


def wm_l0_bounds(n: int, alpha: float) -> tuple:
    """The sandwich ``L0(GM) <= L0(WM) <= L0(EM)`` from Section IV-D."""
    return gm_l0_score(alpha), em_l0_score(n, alpha)


# --------------------------------------------------------------------------- #
# Derivability from GM (Section IV-D, Gupte–Sundararajan test)
# --------------------------------------------------------------------------- #
def gupte_sundararajan_derivable(
    mechanism: MatrixLike, alpha: float, tolerance: float = 1e-9
) -> bool:
    """Whether a mechanism can be derived from GM by output remapping.

    Gupte and Sundararajan's test: ``P`` is derivable from GM iff every set
    of three row-adjacent entries satisfies

        ``(P[i, j] − α P[i, j − 1]) >= α (P[i, j + 1] − α P[i, j])``.

    The paper uses this to show that WM and EM are genuinely new mechanisms
    (the condition fails for them whenever ``n > 1``).
    """
    matrix = _as_matrix(mechanism)
    alpha = _check_alpha(alpha)
    size = matrix.shape[0]
    for i in range(size):
        for j in range(1, size - 1):
            left = matrix[i, j] - alpha * matrix[i, j - 1]
            right = alpha * (matrix[i, j + 1] - alpha * matrix[i, j])
            if left < right - tolerance:
                return False
    return True


def em_violates_derivability(n: int, alpha: float) -> bool:
    """Closed-form check from Section IV-D that EM breaks the GS condition for n > 1.

    The paper's witness is the triple ``Pr[2|0] = Pr[2|1] = yα`` and
    ``Pr[2|2] = y``, for which the condition reduces to ``1 >= 1 + α`` —
    false for every ``α > 0``.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    return n > 1 and alpha > 0.0


# --------------------------------------------------------------------------- #
# Theorem 1: symmetrisation
# --------------------------------------------------------------------------- #
def symmetrize(mechanism: MatrixLike) -> np.ndarray:
    """Theorem 1: the centro-symmetric average ``(M + M^S) / 2`` as a raw matrix.

    The construction preserves differential privacy, all structural
    properties the input satisfies, and the ``L0`` objective value (the trace
    is unchanged).  :meth:`Mechanism.symmetrized` wraps this for Mechanism
    objects.
    """
    matrix = _as_matrix(mechanism)
    return 0.5 * (matrix + matrix[::-1, ::-1])


# --------------------------------------------------------------------------- #
# Randomized response (n = 1 baseline, Section II-B)
# --------------------------------------------------------------------------- #
def randomized_response_alpha(truth_probability: float) -> float:
    """Privacy level ``α = (1 − p) / p`` of binary randomized response."""
    if not (0.5 <= truth_probability <= 1.0):
        raise ValueError("randomized response requires a truth probability in [0.5, 1]")
    return (1.0 - truth_probability) / truth_probability


def randomized_response_truth_probability(alpha: float) -> float:
    """Truth probability ``p = 1 / (1 + α)`` achieving α-DP for binary RR."""
    alpha = _check_alpha(alpha)
    return 1.0 / (1.0 + alpha)


def nary_randomized_response_truth_probability(n: int, alpha: float) -> float:
    """Largest truth probability of the n-ary randomized response of Geng et al.

    The mechanism reports its input with probability ``p`` and otherwise a
    uniformly random *other* output.  The binding DP ratio is between the
    diagonal ``p`` and an off-diagonal ``(1 − p) / n`` in a neighbouring
    column, giving ``p <= 1 / (1 + n α)``; equality maximises utility.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    return 1.0 / (1.0 + n * alpha)


# --------------------------------------------------------------------------- #
# Comparisons quoted in the introduction
# --------------------------------------------------------------------------- #
def em_to_gm_cost_ratio(n: int, alpha: float) -> float:
    """The ratio ``L0(EM) / L0(GM)``, approximately ``1 + 1/n`` for large n."""
    return em_l0_score(n, alpha) / gm_l0_score(alpha)

"""The explicit fair mechanism EM (Section IV-C, Equation 16, Figure 4).

EM is the paper's new construction: a mechanism that is simultaneously fair,
weakly honest, row/column honest and monotone, and symmetric, at an ``L0``
cost only a factor ``(n + 1)/n`` above GM's optimum.

Every entry is ``y`` times a power of α; the exponent pattern (Equation 16)
is

    ``e(i, j) = |i − j|``                                if ``|i − j| < min(j, n − j)``
    ``e(i, j) = ceil((|i − j| + min(j, n − j)) / 2)``    otherwise

and ``y`` is chosen so each column sums to one, which makes the Lemma-4
fairness bound tight.  Every column contains the same multiset of powers, so
the single normaliser works for all columns, and row-adjacent exponents
differ by at most one, which is exactly the differential-privacy condition.

:func:`explicit_fair_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`: columns are evaluated on
demand from the exponent pattern, the column CDF has a closed form (the
pattern decomposes into three geometric segments, each of which sums
analytically), and all seven structural properties are known a priori —
Theorem 4's whole point is that EM carries them all.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.core.theory import em_diagonal
from repro.mechanisms.powers import power_table, powers_at, two_sided


def _check_parameters(n: int, alpha: float) -> None:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")


def fair_exponent_matrix(n: int) -> np.ndarray:
    """The integer exponent pattern ``e(i, j)`` of Equation 16.

    Independent of α; Figure 4 of the paper is this matrix for ``n = 7``
    (multiplied through by ``y α^{e}``).
    """
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    size = n + 1
    exponents = np.zeros((size, size), dtype=int)
    for j in range(size):
        edge_distance = min(j, n - j)
        for i in range(size):
            distance = abs(i - j)
            if distance < edge_distance:
                exponents[i, j] = distance
            else:
                exponents[i, j] = math.ceil((distance + edge_distance) / 2)
    return exponents


def _fair_column(n: int, alpha: float, powers: np.ndarray, y: float, j: int) -> np.ndarray:
    """Column ``j`` of EM's matrix, with ``powers = power_table(alpha, n + 2)``.

    Backs both the dense :func:`fair_matrix` and the closed-form mechanism.
    Along either side of ``j``, distance ``d`` carries exponent ``d`` up to
    the edge distance ``m = min(j, n − j)`` and ``m + ceil((d − m) / 2)``
    from it on, so the column is one two-sided read of the powers with
    every power past ``α^m`` repeated twice.
    """
    if alpha == 0.0:
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    edge = min(j, n - j)
    by_distance = np.concatenate((powers[: edge + 1], np.repeat(powers[edge + 1 :], 2)))
    return two_sided(by_distance, n + 1, j, y)


def fair_matrix(n: int, alpha: float) -> np.ndarray:
    """Exact probability matrix of EM.

    For ``α = 0`` the construction degenerates to the identity mechanism
    (only the zero exponent survives); for ``α = 1`` every power equals one
    and EM coincides with the uniform mechanism.
    """
    _check_parameters(n, alpha)
    powers = power_table(alpha, n + 2)
    y = em_diagonal(n, alpha)
    return np.column_stack([_fair_column(n, alpha, powers, y, j) for j in range(n + 1)])


def _geometric_sum(alpha: float, powers: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``1 + α + … + α^{t−1}`` for an integer array ``t`` clipped at zero (α < 1)."""
    return (1.0 - powers_at(powers, terms)) / (1.0 - alpha)


def _fair_tail_sum(alpha: float, powers: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``Σ_{s=0}^{r} α^{ceil(s/2)}`` for a non-negative integer array ``r``.

    The exponents pair up (1, α, α, α², α², …): ``r = 2q`` gives
    ``1 + 2 α (1 + … + α^{q−1})`` and an odd remainder adds ``α^{q+1}``.
    """
    r = np.maximum(r, 0)
    q = r // 2
    total = 1.0 + 2.0 * alpha * _geometric_sum(alpha, powers, q)
    return total + np.where(r % 2 == 1, powers_at(powers, q + 1), 0.0)


def _fair_cdf_left(
    n: int, alpha: float, powers: np.ndarray, y: float, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic ``F(i | j)`` for columns in the left half (``j <= n − j``).

    The Equation-16 column splits into the clamped entry at 0 (exponent
    ``j``), the two-sided geometric interior ``k ∈ [1, 2j − 1]`` (exponent
    ``|k − j|``) and the paired tail ``k ∈ [max(2j, 1), n]`` (exponent
    ``ceil(k/2)``); each piece has a geometric closed form.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    # Entry k = 0 carries exponent j (for j = 0 this is the tail's r = 0 term).
    head = powers_at(powers, j)
    # Interior k in [1, min(i, 2j - 1)] — empty when j == 0 or i < 1.
    interior_top = np.minimum(i, 2 * j - 1)
    rising = powers_at(powers, j - interior_top) * _geometric_sum(alpha, powers, interior_top)
    falling = _geometric_sum(alpha, powers, j) + alpha * _geometric_sum(
        alpha, powers, interior_top - j
    )
    interior = np.where(interior_top <= j, rising, falling)
    interior = np.where(interior_top < 1, 0.0, interior)
    # Tail k in [max(2j, 1), i]: exponent ceil(k/2) = j + ceil(r/2) with
    # k = 2j + r.  For j = 0 the r = 0 term is the head entry, so drop it.
    tail_terms = _fair_tail_sum(alpha, powers, i - 2 * j)
    tail_terms = np.where(j == 0, tail_terms - 1.0, tail_terms)
    tail = head * tail_terms
    tail = np.where(i < np.maximum(2 * j, 1), 0.0, tail)
    cdf = y * (head + interior + tail)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _fair_cdf(
    n: int, alpha: float, powers: np.ndarray, y: float, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic column CDF of EM, vectorised over (i, j) arrays.

    Right-half columns reduce to left-half ones through EM's
    centro-symmetry: ``F(i | j) = 1 − F(n − i − 1 | n − j)``.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        return (i >= j).astype(float)
    if alpha == 1.0:
        cdf = (i + 1.0) / (n + 1.0)
        cdf = np.where(i >= n, 1.0, cdf)
        return np.where(i < 0, 0.0, cdf)
    flip = j > n - j
    jj = np.where(flip, n - j, j)
    ii = np.where(flip, n - i - 1, i)
    left = _fair_cdf_left(n, alpha, powers, y, ii, jj)
    cdf = np.where(flip, 1.0 - left, left)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _fair_properties(tolerance: float) -> Dict[str, bool]:
    """EM satisfies all seven structural properties for every (n, α) — Theorem 4."""
    return {"RH": True, "RM": True, "CH": True, "CM": True, "F": True, "WH": True, "S": True}


def explicit_fair_mechanism(n: int, alpha: float) -> Mechanism:
    """The explicit fair mechanism EM as a closed-form mechanism."""
    _check_parameters(n, alpha)
    n = int(n)
    alpha = float(alpha)
    y = em_diagonal(n, alpha)
    powers = power_table(alpha, n + 2)
    spec = ClosedFormSpec(
        factory="EM",
        params={"alpha": alpha},
        column_fn=lambda j: _fair_column(n, alpha, powers, y, j),
        cdf_fn=lambda i, j: _fair_cdf(n, alpha, powers, y, i, j),
        # The diagonal is the constant fair value y (1 for the identity
        # limit α = 0).
        diagonal_fn=lambda: np.full(n + 1, 1.0 if alpha == 0.0 else y),
        # Row-adjacent exponents differ by at most one and by exactly one
        # somewhere in every column pair, so DP is tight at α.
        max_alpha_fn=lambda: alpha,
        properties_fn=_fair_properties,
    )
    return ClosedFormMechanism(
        n=n,
        spec=spec,
        name="EM",
        alpha=alpha,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "explicit fair mechanism (Eq. 16)",
        },
    )

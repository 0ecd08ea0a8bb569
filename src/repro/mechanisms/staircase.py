"""A truncated discrete staircase mechanism (Geng et al., referenced in Section IV-A).

The staircase mechanism adds integer noise whose probability decays
geometrically in *plateaus* of a configurable width ``r`` rather than at
every step:

    ``Pr[noise = δ] ∝ α^{floor(|δ| / r)}``

With plateau width 1 this is exactly the two-sided geometric distribution,
so the staircase mechanism with ``width=1`` coincides with GM (the
test-suite checks this).  Wider plateaus trade a flatter centre for thinner
tails, which is the behaviour the original (continuous) staircase mechanism
exploits for low ``L1``/``L2`` error at weak privacy levels.

As with GM, outputs outside ``[0, n]`` are clamped to the range; clamping is
post-processing and therefore preserves the α-DP guarantee of the additive
noise.  The paper cites the staircase mechanism as an example of a *fair*
mechanism from prior work; the untruncated noise is indeed input-independent,
though (like GM) the clamped version loses fairness at the boundary, which
our property checks make visible.

The geometric-family structure gives every column and its CDF a closed form
(the infinite plateau tails sum analytically), so
:func:`staircase_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`.  Property answers and
``max_alpha`` are left to the generic streaming checks, which cost O(n) per
column pair — unlike GM/EM, the staircase boundary interactions are not
worth hand-deriving.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.mechanisms.powers import power_table, powers_at, two_sided


def _check_parameters(n: int, alpha: float, width: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 < alpha < 1.0):
        raise ValueError("the staircase mechanism requires alpha in (0, 1)")
    if width < 1 or int(width) != width:
        raise ValueError("plateau width must be a positive integer")


def _unnormalised_upper_tail(threshold: int, alpha: float, width: int) -> float:
    """Unnormalised mass of all noise values ``δ >= threshold`` (threshold >= 1).

    The values between ``threshold`` and the end of its plateau share one
    exponent; every later plateau contributes ``width`` values at the next
    exponent, which sums in closed form.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    level = threshold // width
    next_boundary = (level + 1) * width
    partial_plateau = (next_boundary - threshold) * alpha**level
    remaining_plateaus = width * alpha ** (level + 1) / (1.0 - alpha)
    return partial_plateau + remaining_plateaus


def _upper_tail_array(
    thresholds: np.ndarray, alpha: float, width: int, powers: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`_unnormalised_upper_tail` over a threshold array (>= 1)."""
    thresholds = np.asarray(thresholds, dtype=np.int64)
    level = thresholds // width
    next_boundary = (level + 1) * width
    partial_plateau = (next_boundary - thresholds) * powers_at(powers, level)
    remaining_plateaus = width * powers_at(powers, level + 1) / (1.0 - alpha)
    return partial_plateau + remaining_plateaus


def staircase_noise_pmf(alpha: float, width: int, support: int) -> np.ndarray:
    """PMF of staircase noise on ``{-support, …, +support}``, renormalised.

    Intended for inspection and plotting; :func:`staircase_matrix` folds the
    infinite tails exactly rather than truncating them.
    """
    _check_parameters(1, alpha, width)
    if support < 0:
        raise ValueError("support must be non-negative")
    offsets = np.arange(-support, support + 1)
    weights = powers_at(power_table(alpha, support // width + 1), np.abs(offsets) // width)
    return weights / weights.sum()


def _staircase_column(n: int, alpha: float, width: int, plateaus: np.ndarray, j: int) -> np.ndarray:
    """Column ``j`` of the truncated staircase matrix, evaluated directly.

    ``plateaus[d]`` is the weight ``α^{floor(d / width)}`` of offset ``d``.
    Interior outputs carry the plateau weight of their offset from the true
    count; the clamping outputs 0 and ``n`` absorb the exact mass of the two
    infinite tails, so each column sums to one with no truncation error.
    This one function backs both the dense matrix and the closed form.
    """
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    column = two_sided(plateaus, n + 1, j, 1.0)
    # Output 0 absorbs all noise <= -j; by symmetry of the noise this is
    # the upper tail at threshold j (plus the point mass at 0 when j = 0).
    if j == 0:
        column[0] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[0] = _unnormalised_upper_tail(j, alpha, width)
    # Output n absorbs all noise >= n - j.
    if j == n:
        column[n] = 1.0 + _unnormalised_upper_tail(1, alpha, width)
    else:
        column[n] = _unnormalised_upper_tail(n - j, alpha, width)
    return column / normaliser


def _plateau_table(powers: np.ndarray, width: int, n: int) -> np.ndarray:
    """``α^{floor(d / width)}`` for offsets ``d`` in ``[0, n]``, cut like ``powers``."""
    return np.repeat(powers, width)[: n + 1]


def staircase_matrix(n: int, alpha: float, width: int = 1) -> np.ndarray:
    """Transition matrix of the truncated discrete staircase mechanism."""
    _check_parameters(n, alpha, width)
    plateaus = _plateau_table(power_table(alpha, n + 2), width, n)
    return np.column_stack(
        [_staircase_column(n, alpha, width, plateaus, j) for j in range(n + 1)]
    )


def _staircase_cdf(
    n: int, alpha: float, width: int, powers: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic column CDF of the truncated staircase mechanism.

    Clamping makes the CDF a pure tail expression of the additive noise:
    ``F(i | j) = tail(j − i) / Z`` below the true count and
    ``1 − tail(i − j + 1) / Z`` at or above it.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    normaliser = 1.0 + 2.0 * _unnormalised_upper_tail(1, alpha, width)
    below = _upper_tail_array(np.maximum(j - i, 1), alpha, width, powers) / normaliser
    above = 1.0 - _upper_tail_array(np.maximum(i - j + 1, 1), alpha, width, powers) / normaliser
    cdf = np.where(i < j, below, above)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def staircase_mechanism(n: int, alpha: float, width: int = 1) -> Mechanism:
    """The truncated discrete staircase mechanism as a closed-form mechanism."""
    _check_parameters(n, alpha, width)
    n = int(n)
    alpha = float(alpha)
    width = int(width)
    powers = power_table(alpha, n + 2)
    plateaus = _plateau_table(powers, width, n)
    spec = ClosedFormSpec(
        factory="STAIRCASE",
        params={"alpha": alpha, "width": width},
        column_fn=lambda j: _staircase_column(n, alpha, width, plateaus, j),
        cdf_fn=lambda i, j: _staircase_cdf(n, alpha, width, powers, i, j),
    )
    mechanism = ClosedFormMechanism(
        n=n,
        spec=spec,
        name=f"STAIRCASE[{width}]" if width != 1 else "STAIRCASE",
        alpha=None,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "truncated discrete staircase mechanism",
            "width": width,
        },
    )
    mechanism.alpha = mechanism.max_alpha()
    return mechanism


def sample_staircase_mechanism(
    true_count: int,
    n: int,
    alpha: float,
    width: int = 1,
    rng: Optional[np.random.Generator] = None,
    size: Optional[int] = None,
    support_multiplier: int = 64,
) -> Union[int, np.ndarray]:
    """Operational form: draw staircase noise, add, clamp to ``[0, n]``.

    Sampling materialises the noise PMF out to ``support_multiplier * width``
    plateaus on each side, which leaves a tail mass far below 1e-12 for any
    α bounded away from 1; clamping then maps that remote tail to the same
    outputs it would have reached anyway.
    """
    _check_parameters(n, alpha, width)
    if not (0 <= true_count <= n):
        raise ValueError(f"true count {true_count} outside [0, {n}]")
    rng = rng if rng is not None else np.random.default_rng()
    support = max(n + 1, support_multiplier * width)
    pmf = staircase_noise_pmf(alpha, width, support)
    offsets = np.arange(-support, support + 1)
    noise = rng.choice(offsets, size=size, p=pmf)
    released = np.clip(true_count + noise, 0, n)
    if size is None:
        return int(released)
    return released.astype(int)

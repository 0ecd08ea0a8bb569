"""The range-restricted (truncated) geometric mechanism GM (Definition 4).

GM adds two-sided geometric noise to the true count and clamps the result to
``[0, n]``.  Its matrix (Figure 3 of the paper) has truncation rows at the
extremes, ``x α^j`` and ``x α^{n−j}`` with ``x = 1 / (1 + α)``, and interior
entries ``y α^{|i−j|}`` with ``y = (1 − α) / (1 + α)``.

Ghosh et al. proved GM is the basis of utility-optimal mechanisms; the paper
additionally shows (Theorem 3) that GM is the unique optimum of the plain
``L0`` objective under BASICDP, and uses it as the unconstrained reference
point that the constrained mechanisms are compared against.

Because every column (and the column CDF) has a closed form,
:func:`geometric_mechanism` returns a
:class:`~repro.core.mechanism.ClosedFormMechanism`: an O(min(n, K)) power
table (:mod:`repro.mechanisms.powers`) instead of a matrix, analytic
``max_alpha`` and property answers, and inverse-CDF sampling that never
builds the matrix.  :func:`geometric_matrix` still materialises the dense
Figure-3 matrix — it is assembled from the same column function the closed
form evaluates, so the two representations are bit-identical column by
column.

Three views of GM are provided and tested against each other:

* :func:`geometric_mechanism` / :func:`geometric_matrix` — the exact
  distribution (closed-form object and dense matrix).
* :func:`two_sided_geometric_noise` / :func:`sample_geometric_mechanism` —
  the additive-noise sampling procedure of Definition 4.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.core.mechanism import ClosedFormMechanism, ClosedFormSpec, Mechanism
from repro.mechanisms.powers import power_table, powers_at, two_sided


def _check_parameters(n: int, alpha: float) -> None:
    if int(n) != n or n < 1:
        raise ValueError("group size n must be a positive integer")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")


def _geometric_column(n: int, alpha: float, powers: np.ndarray, j: int) -> np.ndarray:
    """Column ``j`` of GM's matrix (Figure 3), with ``powers = power_table(alpha, n + 2)``.

    This single function backs both representations: the dense
    :func:`geometric_matrix` stacks it and the closed-form mechanism
    evaluates it on demand, which is what makes the two bit-identical.
    """
    if alpha == 0.0:
        # Noise collapses onto zero: the identity (truthful) mechanism.
        column = np.zeros(n + 1)
        column[j] = 1.0
        return column
    if alpha == 1.0:
        # The two-sided geometric distribution degenerates; all mass is
        # pushed to the clamping rows.
        column = np.zeros(n + 1)
        column[0] = 0.5
        column[n] = 0.5
        return column
    x = 1.0 / (1.0 + alpha)
    y = (1.0 - alpha) / (1.0 + alpha)
    column = two_sided(powers, n + 1, j, y)
    column[0] = x * alpha ** float(j)
    column[n] = x * alpha ** float(n - j)
    return column


def geometric_matrix(n: int, alpha: float) -> np.ndarray:
    """Exact probability matrix of GM (Figure 3).

    For ``α = 0`` the noise distribution collapses onto zero and GM becomes
    the identity (truthful) mechanism; for ``α = 1`` the two-sided geometric
    distribution degenerates and all mass is pushed to the clamping rows, so
    the limit matrix splits each column evenly between outputs 0 and n.
    """
    _check_parameters(n, alpha)
    powers = power_table(alpha, n + 2)
    return np.column_stack([_geometric_column(n, alpha, powers, j) for j in range(n + 1)])


def _geometric_cdf(
    n: int, alpha: float, powers: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Analytic column CDF ``F(i | j)`` of GM, vectorised over (i, j) arrays.

    The two-sided geometric tails sum in closed form:
    ``F(i | j) = x α^{j−i}`` for ``i < j`` and ``1 − x α^{i−j+1}`` for
    ``i >= j`` (with ``F(-1) = 0`` and ``F(n) = 1`` exactly).
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if alpha == 0.0:
        cdf = (i >= j).astype(float)
    elif alpha == 1.0:
        cdf = np.full(np.broadcast(i, j).shape, 0.5)
    else:
        x = 1.0 / (1.0 + alpha)
        # The branch not selected by `where` reads a clipped exponent.
        below = x * powers_at(powers, j - i)
        above = 1.0 - x * powers_at(powers, i - j + 1)
        cdf = np.where(i < j, below, above)
    cdf = np.where(i >= n, 1.0, cdf)
    return np.where(i < 0, 0.0, cdf)


def _geometric_diagonal(n: int, alpha: float) -> np.ndarray:
    """GM's diagonal: ``x`` at the clamped ends, ``y`` in the interior."""
    size = n + 1
    if alpha == 0.0:
        return np.ones(size)
    if alpha == 1.0:
        diagonal = np.zeros(size)
        diagonal[0] = 0.5
        diagonal[n] = 0.5
        return diagonal
    x = 1.0 / (1.0 + alpha)
    y = (1.0 - alpha) / (1.0 + alpha)
    diagonal = np.full(size, y)
    diagonal[0] = x
    diagonal[n] = x
    return diagonal


def _geometric_properties(n: int, alpha: float, tolerance: float) -> Dict[str, bool]:
    """Analytic verdicts for the seven structural properties of GM.

    Encodes Theorem 3 and Lemmas 2-3 with the same tolerance semantics as
    the numeric matrix checks (the equivalence tests assert they agree for
    every (n, α) on a grid including the α ∈ {0, 1} degenerations).
    """
    if n == 1:
        # The 2x2 GM is [[x, xα], [xα, x]]: every property holds.
        return {"RH": True, "RM": True, "CH": True, "CM": True, "F": True, "WH": True, "S": True}
    x = 1.0 / (1.0 + alpha) if alpha < 1.0 else 0.5
    y = (1.0 - alpha) / (1.0 + alpha)
    column_ok = x * alpha <= y + tolerance  # Lemma 3 (α <= 1/2), exact at the ends
    return {
        "RH": True,  # rows decay away from the diagonal (Section IV-B)
        "RM": True,
        "CH": column_ok,
        "CM": column_ok,
        "F": abs(x - y) <= tolerance,  # x == y only in the identity limit α = 0
        "WH": y >= 1.0 / (n + 1) - tolerance,  # Lemma 2 in diagonal form
        "S": True,
    }


def geometric_mechanism(n: int, alpha: float) -> Mechanism:
    """The range-restricted geometric mechanism GM as a closed-form mechanism."""
    _check_parameters(n, alpha)
    alpha = float(alpha)
    n = int(n)
    powers = power_table(alpha, n + 2)
    spec = ClosedFormSpec(
        factory="GM",
        params={"alpha": alpha},
        column_fn=lambda j: _geometric_column(n, alpha, powers, j),
        cdf_fn=lambda i, j: _geometric_cdf(n, alpha, powers, i, j),
        diagonal_fn=lambda: _geometric_diagonal(n, alpha),
        # Adjacent interior entries differ by exactly one power of α, so
        # Definition 2 is tight at the design parameter.
        max_alpha_fn=lambda: alpha,
        properties_fn=lambda tol: _geometric_properties(n, alpha, tol),
    )
    return ClosedFormMechanism(
        n=n,
        spec=spec,
        name="GM",
        alpha=alpha,
        metadata={
            "source": "closed-form",
            "representation": "closed-form",
            "definition": "truncated geometric (Def. 4)",
        },
    )


def two_sided_geometric_noise(
    alpha: float,
    rng: Optional[np.random.Generator] = None,
    size: Optional[int] = None,
) -> Union[int, np.ndarray]:
    """Draw noise from the two-sided geometric distribution of Definition 4.

    ``Pr[X = δ] = (1 − α) α^{|δ|} / (1 + α)`` for integer δ.  Sampling uses
    the standard decomposition into a sign and two independent geometric
    tails: with probability ``(1 − α)/(1 + α)`` return 0, otherwise return
    ``±G`` where ``G`` is geometric with success probability ``1 − α``.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError("two-sided geometric noise requires alpha in [0, 1)")
    rng = rng if rng is not None else np.random.default_rng()
    scalar = size is None
    count = 1 if scalar else int(size)
    if alpha == 0.0:
        noise = np.zeros(count, dtype=int)
    else:
        # Difference of two independent geometric variables (support {0,1,...})
        # with success probability 1 - alpha is exactly the two-sided
        # geometric distribution above.
        first = rng.geometric(1.0 - alpha, size=count) - 1
        second = rng.geometric(1.0 - alpha, size=count) - 1
        noise = first - second
    if scalar:
        return int(noise[0])
    return noise.astype(int)


def sample_geometric_mechanism(
    true_count: int,
    n: int,
    alpha: float,
    rng: Optional[np.random.Generator] = None,
    size: Optional[int] = None,
) -> Union[int, np.ndarray]:
    """Sample GM by its operational definition: add noise, then clamp to ``[0, n]``.

    This is the procedure a deployment would run; the matrix form is its
    exact distribution (the test-suite verifies the two agree).
    """
    _check_parameters(n, alpha)
    if not (0 <= true_count <= n):
        raise ValueError(f"true count {true_count} outside [0, {n}]")
    if alpha == 1.0:
        raise ValueError("alpha = 1 has no sampling form; use the matrix limit instead")
    noise = two_sided_geometric_noise(alpha, rng=rng, size=size)
    released = np.clip(np.asarray(noise) + true_count, 0, n)
    if size is None:
        return int(released)
    return released.astype(int)

"""Integer powers of α, read from a table instead of computed by pow.

GM, EM and the staircase mechanism are built from ``α^k``, ``0 <= k <= n + 1``.
Array pow takes a slow path of ~65 ns per element once its result
underflows, so :func:`power_table` stops at the first power that is an exact
``0.0`` (every later one is too; ``tests/test_power_table.py`` checks it), and
readers take any exponent at or past the table's end as that zero.  The table
holds ``min(length, K + 1)`` floats, ``K`` the first underflowing exponent
(7073 at α = 0.9).  Its entries are array-pow bits; Python-scalar pow can
differ in the last ulp, so scalar ``alpha ** k`` sites stay scalar.
"""

from __future__ import annotations

import numpy as np


def power_table(alpha: float, length: int) -> np.ndarray:
    """``alpha ** np.arange(length, dtype=float)``, cut after its first exact zero."""
    chunks = []
    start, step = 0, 256  # each chunk doubles
    while start < length:
        stop = min(start + step, length)
        chunk = alpha ** np.arange(start, stop, dtype=float)
        zeros = np.flatnonzero(chunk == 0.0)
        if zeros.size:
            chunks.append(chunk[: zeros[0] + 1])
            break
        chunks.append(chunk)
        start, step = stop, 2 * step
    return np.concatenate(chunks)


def powers_at(table: np.ndarray, exponents) -> np.ndarray:
    """``α^k`` for an integer array of exponents, clipped to ``[0, len(table) − 1]``.

    Negative exponents, which the CDFs compute for the branch an
    ``np.where`` discards, read ``α^0``; exponents past the table read its
    last entry.  ``np.minimum(np.maximum(...))`` rather than ``np.clip``:
    bisection calls this ~17 times per batch on a few elements, where
    ``np.clip``'s Python-level dispatch costs more than array pow did.
    """
    return table[np.minimum(np.maximum(exponents, 0), table.shape[0] - 1)]


def two_sided(table: np.ndarray, size: int, j: int, scale: float) -> np.ndarray:
    """``scale * table[|i − j|]`` for ``i`` in ``[0, size)``, built from slices.

    Distances at or past the table's end read its last entry, as in
    :func:`powers_at`.
    """
    column = np.empty(size)
    right = min(size - j, table.shape[0])  # i = j, …, j + right − 1
    column[j : j + right] = scale * table[:right]
    column[j + right :] = scale * table[-1]
    left = min(j, table.shape[0] - 1)  # i = j − 1 down to j − left
    column[j - left : j] = scale * table[left:0:-1]
    column[: j - left] = scale * table[-1]
    return column

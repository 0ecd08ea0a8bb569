"""Optional native-speed sampling kernels (numba), with a numpy fallback.

The guide-table sampler (:meth:`repro.core.mechanism.Mechanism
.sample_tiled`'s fast path) is the hottest loop in the library: one table
lookup per element, with a small fraction of bin-boundary elements falling
back to an exact per-column CDF inversion.  The pure-numpy implementation
pays several full-batch passes (bin computation, gather, ambiguity mask,
fallback batch); a compiled kernel fuses them into one pass with an inline
binary search for the ambiguous elements.

This module is the *only* place the optional ``numba`` dependency is
touched, and it degrades gracefully in three layers:

* ``numba`` not installed → :func:`jit_kernel` returns ``None`` and every
  caller uses the pure-numpy path (this module stays importable).
* ``REPRO_NO_NUMBA=1`` in the environment → the JIT kernel is disabled at
  call time even when numba is installed (checked per call, so tests can
  toggle it without re-importing).
* numba installed and enabled → :func:`guide_sample_jit` runs the compiled
  kernel.

Bit-identity contract: for every guide-compatible mechanism the JIT kernel
returns exactly the values of the numpy path on the same ``(table, cdfs,
counts, uniforms)`` inputs.  Guide hits read the same precomputed
inverse-CDF index; ambiguous elements are answered by a binary search that
reproduces ``np.searchsorted(cdf_row, u, side="right")`` — the inversion
every representation's exact sampler performs over the rows of
:meth:`~repro.core.mechanism.Mechanism.column_cdfs`.  The test-suite
proves the identity whenever numba is importable, and the pure-numpy path
is itself proven bit-identical to the sequential reference samplers.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

import numpy as np

#: Environment variable that disables the JIT kernel when set to a truthy
#: value ("1", "true", ...).  Checked on every call, not at import.
NO_NUMBA_ENV = "REPRO_NO_NUMBA"

#: Cached numba availability: None = not probed yet, False = unavailable,
#: otherwise the compiled kernel function.
_JIT_KERNEL: Optional[object] = None
_JIT_PROBED = False


def numba_disabled_by_env() -> bool:
    """Whether ``REPRO_NO_NUMBA`` requests the pure-numpy path."""
    return os.environ.get(NO_NUMBA_ENV, "") not in ("", "0")


def numba_available() -> bool:
    """Whether the numba JIT kernel could be compiled (ignores the env switch)."""
    return jit_kernel() is not None


def jit_kernel() -> Optional[Callable]:
    """The compiled guide-table kernel, or ``None`` when numba is unusable.

    Compilation happens once per process on first call; an unimportable or
    broken numba installation is treated as absent rather than an error, so
    this module never makes the library harder to import.
    """
    global _JIT_KERNEL, _JIT_PROBED
    if not _JIT_PROBED:
        _JIT_PROBED = True
        try:
            import numba

            @numba.njit(cache=False, nogil=True)
            def _guide_kernel(table, cdfs, counts, uniforms, bins, out):
                size = cdfs.shape[1]
                for k in range(counts.shape[0]):
                    u = uniforms[k]
                    c = counts[k]
                    b = int(u * bins)
                    if b > bins - 1:
                        b = bins - 1
                    value = table[c * bins + b]
                    if value >= 0:
                        out[k] = value
                    else:
                        # np.searchsorted(cdfs[c], u, side="right"): the
                        # number of CDF entries <= u.
                        low = 0
                        high = size
                        while low < high:
                            mid = (low + high) >> 1
                            if cdfs[c, mid] <= u:
                                low = mid + 1
                            else:
                                high = mid
                        out[k] = low
                return out

            # Force a compilation now so the first hot batch pays nothing,
            # and so a broken toolchain is detected here, not mid-serving.
            _guide_kernel(
                np.zeros(4, dtype=np.int16),
                np.ones((1, 1)),
                np.zeros(1, dtype=np.int64),
                np.zeros(1),
                np.int64(4),
                np.empty(1, dtype=np.int64),
            )
            _JIT_KERNEL = _guide_kernel
        except Exception:  # pragma: no cover - depends on the environment
            _JIT_KERNEL = None
    return _JIT_KERNEL  # type: ignore[return-value]


def kernel_active() -> bool:
    """Whether guide sampling will run the JIT kernel right now."""
    return not numba_disabled_by_env() and jit_kernel() is not None


def kernel_name() -> str:
    """Human-readable name of the active guide-sampling implementation."""
    return "numba" if kernel_active() else "numpy"


def guide_sample_numpy(
    table: np.ndarray,
    counts: np.ndarray,
    uniforms: np.ndarray,
    bins: int,
    exact_fallback: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Pure-numpy guide-table sampling (always importable reference path).

    Guide hits read the precomputed inverse-CDF index from ``table``; the
    bin-boundary elements (marked ``-1``) are answered in one batch by
    ``exact_fallback`` — the mechanism's own exact sampler, which keeps this
    path bit-identical to sequential sampling for every representation.
    """
    positions = np.minimum((uniforms * bins).astype(np.int64), bins - 1)
    released = table[counts * bins + positions].astype(np.int64)
    ambiguous = np.flatnonzero(released < 0)
    if ambiguous.size:
        released[ambiguous] = exact_fallback(counts[ambiguous], uniforms[ambiguous])
    return released


def guide_sample_jit(
    table: np.ndarray,
    cdfs: np.ndarray,
    counts: np.ndarray,
    uniforms: np.ndarray,
    bins: int,
) -> np.ndarray:
    """Run the compiled guide-table kernel (caller must check availability).

    ``cdfs`` holds the per-column sampling CDFs (row ``j`` is exactly the
    CDF the exact fallback inverts for count ``j``); ambiguous elements are
    resolved by the kernel's inline ``searchsorted(..., side="right")``
    binary search over that row, so the result is bit-identical to
    :func:`guide_sample_numpy` on the same inputs.
    """
    kernel = jit_kernel()
    if kernel is None:  # pragma: no cover - callers check kernel_active()
        raise RuntimeError("numba guide kernel is not available")
    out = np.empty(counts.shape[0], dtype=np.int64)
    return kernel(
        table,
        cdfs,
        np.ascontiguousarray(counts, dtype=np.int64),
        np.ascontiguousarray(uniforms, dtype=np.float64),
        np.int64(bins),
        out,
    )

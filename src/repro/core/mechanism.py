"""The :class:`Mechanism` abstraction (Definition 1 of the paper).

A mechanism for count queries over a group of ``n`` individuals is an
``(n + 1) x (n + 1)`` column-stochastic matrix ``P`` with
``P[i, j] = Pr[output = i | true count = j]``.  Definition 1 *represents* a
mechanism as that explicit matrix, but the matrix is an implementation
detail, not the interface: most mechanisms the serving layer hands out have
closed forms (GM, EM, UM, NRR — the Figure-5 selector result), and
LP-designed mechanisms are sparse/banded.  Materialising ``(n + 1)^2``
floats for every request stops scaling long before the roadmap's
``n >= 10^5`` target (~80 GB at ``n = 10^5``).

This module therefore provides a representation-polymorphic core:

:class:`Mechanism`
    The common interface *and* the dense backend (constructing it directly
    from a matrix preserves the original semantics exactly).  Also exported
    as :data:`DenseMechanism`.
:class:`ClosedFormMechanism`
    Backed by analytic column / CDF / diagonal functions supplied by a
    factory (see :mod:`repro.mechanisms`); samples by inverse-CDF inversion
    with ``O(batch)`` memory and never needs the matrix.
:class:`SparseMechanism`
    CSC storage for LP-designed mechanisms, built directly from the sparse
    solver output by :mod:`repro.core.design`.

Every representation implements the same interface — ``n``, ``alpha``,
``column(j)``, ``prob(i, j)``, ``sample_batch(counts, rng)``,
``max_alpha()`` — and a *lazy* :attr:`Mechanism.matrix` shim densifies on
demand for backward compatibility.  The class-level counter
:attr:`Mechanism.densifications` counts every dense ``(n + 1)^2`` matrix
materialised (eager or lazy), so tests and examples can assert that a
serving path never built one.

Sampling equivalence guarantee: every representation samples by inverting
column CDFs built with the same float operations (:meth:`Mechanism
._cdf_rows`), so closed-form / sparse / dense mechanisms with bit-identical
columns release bit-identical counts on a shared uniform stream (the
test-suite proves this up to ``n = 512``).  For ``n <=
Mechanism.EXACT_SAMPLING_LIMIT`` the CDFs are rows of one cached column-CDF
table, :meth:`Mechanism.column_cdfs`, filled on first use; above it a batch
builds only the rows it needs, except that closed forms with an analytic
CDF switch to an inverse-CDF bisection in O(batch) memory (same distribution,
same one-uniform-per-element stream consumption).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

#: Default numerical tolerance for stochasticity / probability checks.
DEFAULT_TOLERANCE = 1e-9

ArrayLike = Union[Sequence[Sequence[float]], np.ndarray]


class MechanismValidationError(ValueError):
    """Raised when a matrix does not describe a valid randomized mechanism."""


def _pair_min_ratio(left: np.ndarray, right: np.ndarray) -> float:
    """Minimum two-sided ratio ``min(a/b, b/a)`` over two column blocks.

    ``0/0`` pairs impose no constraint; a zero paired with a non-zero forces
    the ratio (and therefore ``max_alpha``) to zero.  Performs the same
    float divisions as a per-entry loop over the pairs, just all at once, so
    the result is bit-identical to that loop (the test-suite keeps it as the
    reference).
    """
    left_zero = left == 0.0
    right_zero = right == 0.0
    if bool(np.any(left_zero != right_zero)):
        return 0.0
    both_zero = left_zero  # == right_zero here
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.minimum(left / right, right / left)
    if both_zero.any():
        ratios = np.where(both_zero, 1.0, ratios)
    if ratios.size == 0:
        return 1.0
    return float(np.min(ratios))


class Mechanism:
    """A randomized mechanism for count queries (dense backend + interface).

    Parameters
    ----------
    matrix:
        Square ``(n + 1) x (n + 1)`` array with ``matrix[i, j] =
        Pr[output = i | input = j]``.  Columns must sum to one and entries
        must lie in ``[0, 1]`` (within ``tolerance``).
    name:
        Short identifier, e.g. ``"GM"`` or ``"EM"``.
    alpha:
        The privacy parameter the mechanism was designed for, if known.  The
        representation itself is the source of truth; :meth:`max_alpha`
        recomputes the strongest guarantee it actually provides.
    metadata:
        Free-form provenance (e.g. which LP and properties produced it).

    Subclasses provide alternative representations by overriding the
    ``_``-prefixed hooks (``_column``, ``_columns_block``, ``_diagonal``,
    ``_densify``, ``_inverse_sample``, ``validate``); the public interface
    is shared.
    """

    #: Representation tag; subclasses override ("closed-form", "sparse").
    representation = "dense"

    #: Class-level count of dense ``(n + 1)^2`` matrices materialised, both
    #: eager (constructing a dense mechanism) and lazy (touching ``.matrix``
    #: on a non-dense one).  Snapshot it around a code path to prove the
    #: path never built a dense matrix.
    densifications = 0

    #: Column-block width used by the streaming (columns-on-demand) paths.
    BLOCK_COLUMNS = 256

    #: Guide-table resolution (bins per column) for the tiled sampler's
    #: O(1)-per-element fast path.  Must be a power of two: scaling a
    #: uniform by 2^k is exact in binary floating point, so ``u *
    #: GUIDE_BINS`` truncates to the mathematically correct bin and the
    #: bin's CDF bracket is guaranteed to contain ``u``.
    GUIDE_BINS = 4096

    #: Largest mechanism size for which :meth:`sample_tiled` builds a guide
    #: table (the table is ``size * GUIDE_BINS`` int16 entries).
    GUIDE_SIZE_LIMIT = 512

    #: Largest n for which sampling caches its column CDFs in one table
    #: (:meth:`column_cdfs`, at most ``(n + 1)^2 * 8`` bytes).  Above it a
    #: batch builds only the CDF rows it needs, a block of columns at a
    #: time, and closed forms with an analytic CDF bisect it instead.  The
    #: switch is keyed on n alone so that, for a fixed mechanism, scalar and
    #: batch sampling always take the same path (and therefore stay
    #: bit-identical to each other on a shared stream).
    EXACT_SAMPLING_LIMIT = 2048

    def __init__(
        self,
        matrix: ArrayLike,
        name: str = "mechanism",
        alpha: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.name = name
        self.alpha = alpha
        self.metadata: Dict[str, Any] = metadata if metadata is not None else {}
        self.tolerance = tolerance
        self._matrix: Optional[np.ndarray] = np.asarray(matrix, dtype=float)
        self.validate()
        self._n = int(self._matrix.shape[0]) - 1
        Mechanism.densifications += 1

    # ------------------------------------------------------------------ #
    # Validation and basic structure
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`MechanismValidationError` if the matrix is not valid."""
        matrix = self._matrix
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MechanismValidationError(
                f"mechanism matrix must be square, got shape {matrix.shape}"
            )
        if matrix.shape[0] < 2:
            raise MechanismValidationError(
                "mechanism must cover at least the outputs {0, 1} (n >= 1)"
            )
        if not np.all(np.isfinite(matrix)):
            raise MechanismValidationError("mechanism matrix contains non-finite entries")
        tol = self.tolerance
        if np.any(matrix < -tol) or np.any(matrix > 1.0 + tol):
            raise MechanismValidationError("mechanism entries must lie in [0, 1]")
        column_sums = matrix.sum(axis=0)
        if not np.allclose(column_sums, 1.0, atol=max(tol, 1e-7)):
            worst = float(np.max(np.abs(column_sums - 1.0)))
            raise MechanismValidationError(
                f"mechanism columns must sum to 1 (worst deviation {worst:.3e})"
            )
        self._validate_alpha()

    def _validate_alpha(self) -> None:
        if self.alpha is not None and not (0.0 <= self.alpha <= 1.0):
            raise MechanismValidationError("alpha must lie in [0, 1]")

    @property
    def is_dense(self) -> bool:
        """Whether this mechanism stores its matrix densely."""
        return self.representation == "dense"

    @property
    def matrix(self) -> np.ndarray:
        """The dense probability matrix (lazy backward-compatibility shim).

        Dense mechanisms hold it eagerly; other representations materialise
        (and cache) it on first access, incrementing
        :attr:`Mechanism.densifications`.  Avoid touching this attribute in
        scale-sensitive code — every interface method has a
        representation-native path.
        """
        if self._matrix is None:
            self._matrix = self._densify()
            Mechanism.densifications += 1
        return self._matrix

    def _densify(self) -> np.ndarray:  # pragma: no cover - dense holds it eagerly
        raise NotImplementedError

    @property
    def n(self) -> int:
        """Group size ``n``; inputs and outputs range over ``{0, …, n}``."""
        return self._n

    @property
    def size(self) -> int:
        """Number of distinct inputs/outputs, ``n + 1``."""
        return self._n + 1

    @property
    def diagonal(self) -> np.ndarray:
        """The truth-reporting probabilities ``Pr[j | j]``."""
        return self._diagonal().copy()

    def _diagonal(self) -> np.ndarray:
        return np.diag(self._matrix)

    @property
    def trace(self) -> float:
        """Sum of the diagonal (used by the rescaled ``L0`` score, Eq. 1)."""
        return float(self._diagonal().sum())

    def column(self, true_count: int) -> np.ndarray:
        """Output distribution for a given true count (a column of ``P``)."""
        self._check_count(true_count)
        return self._column(int(true_count))

    def _column(self, j: int) -> np.ndarray:
        return self._matrix[:, j].copy()

    def _columns_block(self, j0: int, j1: int) -> np.ndarray:
        """Columns ``j0:j1`` as a dense ``(size, j1 - j0)`` block (may be a view)."""
        return self._matrix[:, j0:j1]

    def iter_column_blocks(
        self, block_size: Optional[int] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(j0, j1, block)`` dense column blocks covering the matrix.

        This is the representation-agnostic way to scan a mechanism without
        materialising it: dense yields matrix views, closed forms evaluate
        their column functions, sparse expands CSC slices — all in
        ``O(size * block_size)`` memory.
        """
        block = block_size if block_size is not None else self.BLOCK_COLUMNS
        for j0 in range(0, self.size, block):
            j1 = min(self.size, j0 + block)
            yield j0, j1, self._columns_block(j0, j1)

    def probabilities(self, true_count: int) -> np.ndarray:
        """Output distribution for a given true count (alias of :meth:`column`)."""
        return self.column(true_count)

    def probability(self, output: int, true_count: int) -> float:
        """``Pr[output | true_count]``."""
        self._check_count(true_count)
        self._check_count(output)
        return self._probability(int(output), int(true_count))

    def _probability(self, i: int, j: int) -> float:
        return float(self._matrix[i, j])

    def prob(self, output: int, true_count: int) -> float:
        """``Pr[output | true_count]`` (interface alias of :meth:`probability`)."""
        return self.probability(output, true_count)

    def _check_count(self, value: int) -> None:
        if not (0 <= int(value) <= self.n) or int(value) != value:
            raise ValueError(f"count {value!r} outside the mechanism range [0, {self.n}]")

    def storage_bytes(self) -> int:
        """Approximate bytes held by this representation (excluding the lazy shim)."""
        if self._matrix is not None:
            return int(self._matrix.nbytes)
        return 0

    # ------------------------------------------------------------------ #
    # Privacy
    # ------------------------------------------------------------------ #
    def max_alpha(self) -> float:
        """The largest α for which the mechanism is α-differentially private.

        Definition 2 requires ``α <= P[i, j] / P[i, j + 1] <= 1/α`` for all
        ``i`` and neighbouring inputs ``j, j + 1``.  The strongest guarantee
        supported is the minimum over all adjacent ratios (both directions).
        Zero entries force α = 0 unless the paired entry is also zero (a
        ``0/0`` ratio imposes no constraint).

        The dense path is one vectorised ratio of column-shifted slices;
        non-dense representations stream adjacent column pairs, and closed
        forms may answer analytically.
        """
        if self._matrix is not None:
            matrix = self._matrix
            return min(1.0, _pair_min_ratio(matrix[:, :-1], matrix[:, 1:]))
        return self._max_alpha_streaming()

    def _max_alpha_streaming(self) -> float:
        best = 1.0
        previous_last: Optional[np.ndarray] = None
        for j0, j1, block in self.iter_column_blocks():
            if previous_last is not None:
                ratio = _pair_min_ratio(previous_last, block[:, 0])
                if ratio == 0.0:
                    return 0.0
                best = min(best, ratio)
            if block.shape[1] > 1:
                ratio = _pair_min_ratio(block[:, :-1], block[:, 1:])
                if ratio == 0.0:
                    return 0.0
                best = min(best, ratio)
            previous_last = np.array(block[:, -1])
        return float(best)

    def satisfies_dp(self, alpha: float, tolerance: float = 1e-9) -> bool:
        """Whether the mechanism is α-differentially private (Definition 2)."""
        if not (0.0 <= alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        return self.max_alpha() >= alpha - tolerance

    def epsilon(self) -> float:
        """The ε-differential-privacy guarantee, ``ε = -ln(max_alpha)``."""
        alpha = self.max_alpha()
        if alpha <= 0.0:
            return float("inf")
        return float(-np.log(alpha))

    # ------------------------------------------------------------------ #
    # Sampling and application to data
    # ------------------------------------------------------------------ #
    def sample(
        self,
        true_count: int,
        rng: Optional[np.random.Generator] = None,
        size: Optional[int] = None,
    ) -> Union[int, np.ndarray]:
        """Draw noisy outputs for a single true count.

        Returns an ``int`` when ``size`` is ``None``, otherwise an integer
        array of the requested length.

        Pass a shared seeded ``rng`` (``np.random.default_rng(seed)``) for
        reproducible releases; when omitted, a fresh unseeded generator is
        created, which is private-by-default but never reproducible.

        All representations consume exactly one uniform per draw from the
        generator's stream and invert the same per-column CDF, so dense,
        closed-form and sparse mechanisms with identical columns release
        identical values for the same seed.
        """
        rng = rng if rng is not None else np.random.default_rng()
        self._check_count(true_count)
        uniforms = np.atleast_1d(rng.random(size))
        if self._inverts_column_cdfs():
            outputs = np.searchsorted(self._cdf_row(int(true_count)), uniforms, side="right")
        else:
            counts = np.full(uniforms.shape[0], int(true_count))
            outputs = self._inverse_sample(counts, uniforms)
        if size is None:
            return int(outputs[0])
        return outputs.astype(int, copy=False)

    def column_cdfs(self) -> np.ndarray:
        """The sampling table: ``cdfs[j]`` is the inverse-sampling CDF of column ``j``.

        Rows are those of :meth:`_cdf_rows`, so sampling by ``searchsorted``
        over them is bit-identical to the scalar path.  Within
        ``EXACT_SAMPLING_LIMIT`` every sampler reads this one cached table
        and fills a row the first time a batch needs it, so a mechanism
        builds each column's CDF at most once and only for the columns its
        traffic touches.  The array is allocated whole: ``(n + 1)^2 * 8``
        bytes, 8 MB at ``n = 1000`` and 33.5 MB at ``n = 2048``.  This call
        fills every row; the guide-table sampler needs them all.  Do not
        mutate :attr:`matrix` in place after sampling has started.
        """
        return self._filled_table(np.arange(self.size))

    def _cdf_rows(self, columns: np.ndarray) -> np.ndarray:
        """Inverse-sampling CDFs of ``columns``, one C-contiguous row each.

        Each row is exactly the CDF that ``numpy``'s ``Generator.choice``
        would build for the column (clip negatives, normalise, cumulate,
        renormalise the final entry to 1), so every row is non-decreasing
        and ends at exactly 1.0.
        """
        rows = np.empty((columns.shape[0], self.size))
        for row, j in zip(rows, columns.tolist()):
            np.clip(self._column(j), 0.0, None, out=row)
            row /= row.sum()
            np.cumsum(row, out=row)
            row /= row[-1]
        return rows

    def _filled_table(self, counts: np.ndarray) -> np.ndarray:
        """The cached :meth:`column_cdfs` table with the rows of ``counts`` filled.

        Missing rows are built a block at a time, copied in, and only then
        marked filled, so no reader sees a half-built row.
        """
        state = self.__dict__.get("_cdf_table")
        if state is None:
            state = (np.empty((self.size, self.size)), np.zeros(self.size, dtype=bool))
            self.__dict__["_cdf_table"] = state
        table, filled = state
        missing = counts[~filled[counts]]
        if missing.size:
            missing = np.unique(missing)
            for start in range(0, missing.shape[0], self.BLOCK_COLUMNS):
                block = missing[start : start + self.BLOCK_COLUMNS]
                table[block] = self._cdf_rows(block)
                filled[block] = True
        return table

    def _cdf_row(self, j: int) -> np.ndarray:
        """Column ``j``'s inverse-sampling CDF (a table row within the limit)."""
        column = np.array([j])
        if self.n <= self.EXACT_SAMPLING_LIMIT:
            return self._filled_table(column)[j]
        return self._cdf_rows(column)[0]

    def prepare_sampling(self) -> None:
        """Reserve the :meth:`column_cdfs` table if this mechanism keeps one.

        Rows are filled on first use, so this builds no column: a compiled
        plan builds only the columns its traffic touches.
        Mechanisms above ``EXACT_SAMPLING_LIMIT`` keep no table.  The
        serving layer calls this once per compiled plan.
        """
        if self.n <= self.EXACT_SAMPLING_LIMIT:
            self._filled_table(np.empty(0, dtype=np.int64))

    def sample_batch(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Vectorised independent draws, one per true count in the batch.

        This is the serving-layer hot path.  Element ``i`` of the output
        consumes the ``i``-th uniform of the generator's stream, and the
        result is bit-identical to calling ``self.sample(c, rng=rng)`` once
        per element in order with the same generator — scalar and batch
        paths are interchangeable in reproducible pipelines.

        Every representation answers the batch with one vectorised search
        over column-CDF rows (:meth:`_inverse_sample`), except closed forms
        above ``EXACT_SAMPLING_LIMIT``, which invert their analytic CDF in
        ``O(batch)`` memory.
        """
        rng = rng if rng is not None else np.random.default_rng()
        counts = self._validated_batch(true_counts)
        if counts.size == 0:
            return np.empty(0, dtype=int)
        uniforms = rng.random(counts.shape[0])
        return self._inverse_sample(counts, uniforms).astype(int, copy=False)

    def sample_with_uniforms(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """One draw per count from caller-supplied uniforms in ``[0, 1)``.

        The engine's batched-RNG hot path: a :class:`~repro.engine.executor
        .StreamExecutor` draws one uniform block covering several chunks and
        releases each chunk from its slice.  Bit-identical to
        :meth:`sample_batch` whenever ``uniforms`` is ``rng.random(len(
        true_counts))`` from the same generator state — numpy generators
        fill a large array with exactly the draws successive smaller
        requests would produce, so batching draws across chunks does not
        change a single released count.
        """
        counts = self._validated_batch(true_counts)
        uniforms = np.asarray(uniforms, dtype=float)
        if uniforms.shape != counts.shape:
            raise ValueError(
                f"uniforms with shape {uniforms.shape} do not match "
                f"{counts.shape[0]} counts"
            )
        if counts.size == 0:
            return np.empty(0, dtype=int)
        return self._inverse_sample(counts, uniforms).astype(int, copy=False)

    def _validated_batch(self, true_counts: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Shared batch validation for :meth:`sample_batch` / :meth:`sample_tiled`."""
        counts = np.asarray(true_counts, dtype=int)
        if counts.ndim != 1:
            raise ValueError("true_counts must be a 1-D sequence")
        if counts.size and (counts.min() < 0 or counts.max() > self.n):
            raise ValueError(
                f"counts must lie in [0, {self.n}]; got [{counts.min()}, {counts.max()}]"
            )
        return counts

    def sample_tiled(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Draw ``repetitions`` independent releases of one batch in a single call.

        Returns an integer array of shape ``(repetitions, len(true_counts))``
        whose row ``r`` is the ``r``-th full release of the batch.  This is
        the empirical-evaluation hot path: the paper's experiments release
        the same true counts 30–50 times, and tiling those repetitions into
        one flat ``repetitions * batch`` request lets every representation
        answer them with a single vectorised pass.

        Row ``r`` is bit-identical to the ``r``-th of ``repetitions``
        sequential :meth:`sample_batch` calls on the same generator: one
        uniform is consumed per element in row-major order, and ``numpy``
        generators fill a large array with exactly the draws that successive
        smaller calls would produce.  The test-suite proves this for all
        three representations.
        """
        rng = rng if rng is not None else np.random.default_rng()
        if int(repetitions) != repetitions or repetitions < 1:
            raise ValueError("repetitions must be a positive integer")
        repetitions = int(repetitions)
        counts = self._validated_batch(true_counts)
        if counts.size == 0:
            return np.empty((repetitions, 0), dtype=int)
        tiled = np.tile(counts, repetitions)
        uniforms = rng.random(tiled.shape[0])
        if self._use_guide(tiled.shape[0]):
            released = self._sample_by_guide(tiled, uniforms)
        else:
            released = self._inverse_sample(tiled, uniforms)
        return released.astype(int, copy=False).reshape(repetitions, counts.shape[0])

    # Guide-table sampling: the tiled hot path ---------------------------- #
    def _use_guide(self, total: int) -> bool:
        """Whether a tiled batch of ``total`` draws should take the guide path.

        The guide table costs ``O(size * GUIDE_BINS)`` to build (cached per
        mechanism), so it only pays off for evaluation-sized requests; and it
        is only valid when the representation's :meth:`_inverse_sample` is
        the exact column-CDF inversion the guide accelerates
        (:meth:`_inverts_column_cdfs`), keeping the fast path bit-identical
        to the sequential one.
        """
        return (
            self.size <= self.GUIDE_SIZE_LIMIT
            and total >= self.size * self.GUIDE_BINS // 4
            and self._inverts_column_cdfs()
        )

    def _inverts_column_cdfs(self) -> bool:
        """Whether :meth:`_inverse_sample` inverts column CDFs (:meth:`_cdf_rows`) here.

        True for the dense and sparse backends; closed forms override this
        to exclude their analytic-bisection regime (whose float path the
        guide does not reproduce).
        """
        return True

    def _guide_table(self) -> np.ndarray:
        """Flattened ``(size, GUIDE_BINS)`` int16 inverse-CDF guide (cached).

        Entry ``(j, b)`` answers every uniform in ``[b / K, (b + 1) / K)``
        for column ``j`` when the whole bin maps to one output index, and
        holds ``-1`` when the bin straddles a CDF step (those uniforms fall
        back to the exact sampler).  With ``K = GUIDE_BINS`` bins only about
        ``size / K`` of the uniforms hit a ``-1`` bin, so sampling becomes
        O(1) per element instead of a binary search.
        """
        cached = self.__dict__.get("_guide")
        if cached is None:
            bins = self.GUIDE_BINS
            edges = np.arange(bins + 1) / bins
            table = np.empty((self.size, bins), dtype=np.int16)
            for j, cdf in enumerate(self.column_cdfs()):
                # For u in [edges[b], edges[b+1]): searchsorted(cdf, u,
                # "right") is bracketed by these two counts; equal bounds
                # make the whole bin unambiguous.
                lower = np.searchsorted(cdf, edges[:-1], side="right")
                upper = np.searchsorted(cdf, edges[1:], side="left")
                table[j] = np.where(lower == upper, lower, -1).astype(np.int16)
            cached = table.ravel()
            self.__dict__["_guide"] = cached
        return cached

    def _sample_by_guide(self, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """O(1)-per-element exact inverse-CDF sampling via the guide table.

        Bit-identical to :meth:`_inverse_sample` on the same inputs: guide
        hits read the pre-computed inverse-CDF index, and the few bin-
        boundary elements (marked ``-1``) are answered in one batch by
        :meth:`_inverse_sample` itself.
        """
        bins = self.GUIDE_BINS
        positions = np.minimum((uniforms * bins).astype(np.int64), bins - 1)
        released = self._guide_table()[counts * bins + positions].astype(np.int64)
        ambiguous = np.flatnonzero(released < 0)
        if ambiguous.size:
            released[ambiguous] = self._inverse_sample(counts[ambiguous], uniforms[ambiguous])
        return released

    def apply_batch(
        self,
        true_counts: Union[Sequence[int], np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Alias of :meth:`sample_batch` (the pre-refactor name)."""
        return self.sample_batch(true_counts, rng=rng)

    def _inverse_sample(self, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Invert the column CDFs of ``counts`` at the given uniforms.

        Element ``k`` gets ``searchsorted(cdf, uniforms[k], side="right")``
        for the CDF of column ``counts[k]``: the smallest index whose CDF
        exceeds the uniform.  Within ``EXACT_SAMPLING_LIMIT`` the rows come
        from the cached :meth:`column_cdfs` table; above it, from a fresh
        :meth:`_cdf_rows` block per ``BLOCK_COLUMNS`` distinct counts, so
        memory stays ``O(BLOCK_COLUMNS * size)``.
        """
        if self.n <= self.EXACT_SAMPLING_LIMIT:
            return _search_rows(self._filled_table(counts), counts, uniforms)
        columns, rows = np.unique(counts, return_inverse=True)
        released = np.empty(counts.shape[0], dtype=np.int64)
        for start in range(0, columns.shape[0], self.BLOCK_COLUMNS):
            block = columns[start : start + self.BLOCK_COLUMNS]
            selected = (rows >= start) & (rows < start + block.shape[0])
            released[selected] = _search_rows(
                self._cdf_rows(block), rows[selected] - start, uniforms[selected]
            )
        return released

    def apply(
        self,
        true_counts: Union[int, Sequence[int], np.ndarray],
        rng: Optional[np.random.Generator] = None,
    ) -> Union[int, np.ndarray]:
        """Apply the mechanism independently to each true count in a batch.

        This is the primitive the empirical experiments use: every group's
        true count is perturbed by one independent draw from the mechanism.
        Arrays are routed through the vectorised :meth:`sample_batch`; pass
        a seeded ``rng`` to make the release reproducible.
        """
        rng = rng if rng is not None else np.random.default_rng()
        if np.isscalar(true_counts):
            return self.sample(int(true_counts), rng=rng)
        counts = np.asarray(true_counts, dtype=int)
        if counts.ndim != 1:
            raise ValueError("true_counts must be a scalar or a 1-D sequence")
        return self.sample_batch(counts, rng=rng)

    # ------------------------------------------------------------------ #
    # Moments and summary statistics
    # ------------------------------------------------------------------ #
    def expected_output(self, true_count: Optional[int] = None) -> Union[float, np.ndarray]:
        """Expected released value for one input, or for every input column."""
        outputs = np.arange(self.size, dtype=float)
        if true_count is not None:
            return float(outputs @ self.column(true_count))
        if self._matrix is not None:
            return outputs @ self._matrix
        return self._column_reductions(outputs)[0]

    def output_variance(self, true_count: Optional[int] = None) -> Union[float, np.ndarray]:
        """Variance of the released value for one input, or for every column."""
        outputs = np.arange(self.size, dtype=float)
        if true_count is not None:
            column = self.column(true_count)
            first = float(outputs @ column)
            second = float((outputs**2) @ column)
            return second - first**2
        if self._matrix is not None:
            first = outputs @ self._matrix
            second = (outputs**2) @ self._matrix
        else:
            first, second = self._column_reductions(outputs, outputs**2)
        return second - first**2

    def _column_reductions(self, *row_weights: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per-column dot products ``w @ P`` computed blockwise (no densify)."""
        results = [np.empty(self.size) for _ in row_weights]
        for j0, j1, block in self.iter_column_blocks():
            for result, weights in zip(results, row_weights):
                result[j0:j1] = weights @ block
        return tuple(results)

    def bias(self, true_count: Optional[int] = None) -> Union[float, np.ndarray]:
        """Bias ``E[output] - input`` for one input, or for every column."""
        if true_count is not None:
            self._check_count(true_count)
            return float(self.expected_output(true_count)) - float(true_count)
        inputs = np.arange(self.size, dtype=float)
        return np.asarray(self.expected_output()) - inputs

    def truth_probability(self, prior: Optional[Sequence[float]] = None) -> float:
        """Probability of reporting the true answer under a prior on inputs.

        With no prior the uniform prior ``w_j = 1 / (n + 1)`` is used, as in
        the paper's comparison of GM (0.238) and EM (0.224) for ``n = 4``.
        """
        weights = _normalise_prior(prior, self.size)
        return float(np.dot(weights, self._diagonal()))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def reversed(self) -> "Mechanism":
        """The centro-symmetric reflection ``P[i, j] -> P[n - i, n - j]``."""
        reflected = self.matrix[::-1, ::-1].copy()
        return Mechanism(
            reflected,
            name=f"{self.name}^S",
            alpha=self.alpha,
            metadata=dict(self.metadata),
        )

    def symmetrized(self) -> "Mechanism":
        """Theorem-1 symmetrisation ``M* = (M + M^S) / 2``.

        The construction preserves differential privacy, every structural
        property of Section IV-A and the ``L0`` objective value.
        """
        averaged = 0.5 * (self.matrix + self.matrix[::-1, ::-1])
        metadata = dict(self.metadata)
        metadata["symmetrized_from"] = self.name
        return Mechanism(averaged, name=f"{self.name}*", alpha=self.alpha, metadata=metadata)

    def allclose(self, other: "Mechanism", tolerance: float = 1e-8) -> bool:
        """Whether two mechanisms have (numerically) identical matrices."""
        if self.size != other.size:
            return False
        return bool(np.allclose(self.matrix, other.matrix, atol=tolerance))

    # ------------------------------------------------------------------ #
    # Serialisation and rendering
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation.

        Dense mechanisms serialise their matrix; non-dense subclasses emit a
        compact representation descriptor instead (closed forms: the factory
        call that rebuilds them; sparse: CSC arrays).  :meth:`from_dict`
        understands all three.
        """
        return {
            "name": self.name,
            "alpha": self.alpha,
            "matrix": self.matrix.tolist(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Mechanism":
        """Inverse of :meth:`to_dict` for every representation."""
        representation = payload.get("representation")
        if representation == "sparse":
            return SparseMechanism._from_payload(payload)
        if representation == "closed-form":
            # Deferred import: repro.mechanisms depends on this module.
            from repro.mechanisms.registry import rebuild_closed_form

            return rebuild_closed_form(payload)
        return Mechanism(
            matrix=np.asarray(payload["matrix"], dtype=float),
            name=str(payload.get("name", "mechanism")),
            alpha=payload.get("alpha"),
            metadata=dict(payload.get("metadata", {})),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Mechanism":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def render(self, precision: int = 3) -> str:
        """Plain-text rendering of the probability matrix (rows = outputs)."""
        width = precision + 3
        matrix = self.matrix
        lines = []
        header = " " * 6 + " ".join(f"j={j:<{width - 2}d}" for j in range(self.size))
        lines.append(f"{self.name} (n={self.n})")
        lines.append(header)
        for i in range(self.size):
            cells = " ".join(f"{matrix[i, j]:{width}.{precision}f}" for j in range(self.size))
            lines.append(f"i={i:<3d} {cells}")
        return "\n".join(lines)

    def heatmap(self, levels: str = " .:-=+*#%@") -> str:
        """ASCII heatmap of the matrix, mirroring the paper's figures."""
        matrix = self.matrix
        peak = float(matrix.max())
        if peak <= 0.0:
            peak = 1.0
        lines = [f"{self.name} (n={self.n}, darker = higher probability)"]
        for i in range(self.size):
            row = ""
            for j in range(self.size):
                level = int(round((len(levels) - 1) * matrix[i, j] / peak))
                row += levels[level] * 2
            lines.append(f"i={i:<3d} |{row}|")
        lines.append("      " + "".join(f"{j:<2d}" for j in range(self.size)))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alpha = "?" if self.alpha is None else f"{self.alpha:.3f}"
        tag = "" if self.is_dense else f", representation={self.representation!r}"
        return f"Mechanism(name={self.name!r}, n={self.n}, alpha={alpha}{tag})"


#: The dense backend under the name the representation taxonomy uses.
#: Constructing :class:`Mechanism` directly *is* the dense representation.
DenseMechanism = Mechanism


class ClosedFormSpec:
    """Analytic backing functions for a :class:`ClosedFormMechanism`.

    Produced by the factories in :mod:`repro.mechanisms`; the functions
    close over the mechanism's parameters and, for GM, EM and STAIRCASE, an
    O(min(n, K)) power table (:mod:`repro.mechanisms.powers`; ``K`` is the
    first exponent at which ``α^K`` underflows to zero), so the mechanism
    never holds a matrix.

    Attributes
    ----------
    factory:
        Registry key (e.g. ``"GM"``) used to rebuild the mechanism from a
        serialised descriptor.
    params:
        Keyword arguments (beyond ``n``) that reproduce the factory call.
    column_fn:
        ``column_fn(j) -> ndarray`` — the exact column, bit-identical to the
        dense factory's matrix column (this is what makes the representations
        provably sampling-equivalent).
    cdf_fn:
        Optional vectorised analytic CDF ``cdf_fn(i, j) -> F(i | j)`` with
        ``F(-1) = 0`` and ``F(n) = 1`` exactly; enables inverse-CDF
        sampling in O(batch) memory at large ``n``.
    diagonal_fn:
        Optional ``() -> ndarray`` of the diagonal (O(n), no matrix).
    max_alpha_fn:
        Optional ``() -> float`` analytic :meth:`Mechanism.max_alpha`.
    properties_fn:
        Optional ``(tolerance) -> dict`` of analytic verdicts for the seven
        structural properties, keyed by the property *code* (``"RH"`` …).
    """

    __slots__ = (
        "factory",
        "params",
        "column_fn",
        "cdf_fn",
        "diagonal_fn",
        "max_alpha_fn",
        "properties_fn",
    )

    def __init__(
        self,
        factory: str,
        params: Optional[Dict[str, Any]] = None,
        column_fn: Optional[Callable[[int], np.ndarray]] = None,
        cdf_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        diagonal_fn: Optional[Callable[[], np.ndarray]] = None,
        max_alpha_fn: Optional[Callable[[], float]] = None,
        properties_fn: Optional[Callable[[float], Dict[str, bool]]] = None,
    ) -> None:
        if column_fn is None:
            raise ValueError("a closed-form spec requires at least a column function")
        self.factory = factory
        self.params = dict(params or {})
        self.column_fn = column_fn
        self.cdf_fn = cdf_fn
        self.diagonal_fn = diagonal_fn
        self.max_alpha_fn = max_alpha_fn
        self.properties_fn = properties_fn


class ClosedFormMechanism(Mechanism):
    """A mechanism represented by analytic column/CDF functions, not a matrix.

    Storage is whatever its :class:`ClosedFormSpec` closes over: nothing for
    UM and NRR, an O(min(n, K)) power table for GM, EM and STAIRCASE.

    Sampling strategy: for ``n <= EXACT_SAMPLING_LIMIT`` (or when no
    analytic CDF is available) the exact column-CDF sampler of
    :meth:`~Mechanism._inverse_sample` is used — it reproduces the dense
    sampler bit-for-bit on a shared uniform stream.  Above the limit, the
    analytic CDF is inverted by vectorised bisection: ``O(batch log n)``
    time and ``O(batch)`` memory, which is what lets ``serve-batch``
    release millions of counts at ``n = 10^5``.
    """

    representation = "closed-form"

    def __init__(
        self,
        n: int,
        spec: ClosedFormSpec,
        name: str = "mechanism",
        alpha: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if int(n) != n or n < 1:
            raise MechanismValidationError("group size n must be a positive integer")
        self.name = name
        self.alpha = alpha
        self.metadata = metadata if metadata is not None else {}
        self.tolerance = tolerance
        self.spec = spec
        self._n = int(n)
        self._matrix = None
        self.validate()

    def validate(self) -> None:
        """Spot-check the analytic columns instead of a full matrix scan."""
        self._validate_alpha()
        for j in (0, self._n // 2, self._n):
            column = self.spec.column_fn(j)
            if column.shape != (self._n + 1,):
                raise MechanismValidationError(
                    f"closed-form column {j} has shape {column.shape}, "
                    f"expected ({self._n + 1},)"
                )
            total = float(column.sum())
            if not np.isfinite(total) or abs(total - 1.0) > max(self.tolerance, 1e-7):
                raise MechanismValidationError(
                    f"closed-form column {j} sums to {total!r}, expected 1"
                )

    def _densify(self) -> np.ndarray:
        columns = [self.spec.column_fn(j) for j in range(self.size)]
        return np.column_stack(columns)

    def _column(self, j: int) -> np.ndarray:
        return np.asarray(self.spec.column_fn(j), dtype=float)

    def _columns_block(self, j0: int, j1: int) -> np.ndarray:
        return np.column_stack([self.spec.column_fn(j) for j in range(j0, j1)])

    def _diagonal(self) -> np.ndarray:
        cached = self.__dict__.get("_diagonal_cache")
        if cached is None:
            if self.spec.diagonal_fn is not None:
                cached = np.asarray(self.spec.diagonal_fn(), dtype=float)
            else:
                cached = np.array(
                    [float(self.spec.column_fn(j)[j]) for j in range(self.size)]
                )
            self.__dict__["_diagonal_cache"] = cached
        return cached

    def _probability(self, i: int, j: int) -> float:
        return float(self.spec.column_fn(j)[i])

    def max_alpha(self) -> float:
        if self.spec.max_alpha_fn is not None:
            return float(self.spec.max_alpha_fn())
        return self._max_alpha_streaming()

    def _known_properties(self, tolerance: float) -> Optional[Dict[str, bool]]:
        """Analytic verdicts for the seven structural properties, if available."""
        if self.spec.properties_fn is None:
            return None
        return dict(self.spec.properties_fn(tolerance))

    def _inverts_column_cdfs(self) -> bool:
        return self.spec.cdf_fn is None or self.n <= self.EXACT_SAMPLING_LIMIT

    def _inverse_sample(self, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        if self._inverts_column_cdfs():
            return super()._inverse_sample(counts, uniforms)
        return self._sample_by_bisection(counts, uniforms)

    def _sample_by_bisection(self, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Invert the analytic CDF: smallest ``i`` with ``F(i | j) > u``.

        Classic vectorised bisection with the invariant ``F(low) <= u <
        F(high)``; ``F(-1) = 0`` and ``F(n) = 1`` make the initial bracket
        valid for every uniform in ``[0, 1)``.
        """
        cdf = self.spec.cdf_fn
        low = np.full(counts.shape[0], -1, dtype=np.int64)
        high = np.full(counts.shape[0], self.n, dtype=np.int64)
        while np.any(high - low > 1):
            mid = (low + high) // 2
            above = cdf(mid, counts) > uniforms
            high = np.where(above, mid, high)
            low = np.where(above, low, mid)
        return high

    def storage_bytes(self) -> int:
        return 0 if self._matrix is None else int(self._matrix.nbytes)

    def to_dict(self) -> Dict[str, Any]:
        """Compact representation descriptor (no matrix)."""
        return {
            "representation": "closed-form",
            "factory": self.spec.factory,
            "n": self.n,
            "params": dict(self.spec.params),
            "name": self.name,
            "alpha": self.alpha,
            "metadata": dict(self.metadata),
        }

    def __reduce__(self):
        return (Mechanism.from_dict, (self.to_dict(),))


class SparseMechanism(Mechanism):
    """A mechanism stored as a CSC sparse matrix (LP-designed mechanisms).

    The LP solutions of Sections III-IV are sparse/banded; storing only the
    non-zeros keeps designed mechanisms O(nnz) in memory and lets the
    design cache persist them as small descriptors.  Sampling inverts the
    same column-CDF rows as every representation (bit-identical to a dense
    mechanism with the same column values on a shared uniform stream).
    Within ``EXACT_SAMPLING_LIMIT`` those rows live in the shared
    :meth:`~Mechanism.column_cdfs` table, ``(n + 1)^2 * 8`` bytes on top of
    the ``O(nnz)`` storage; above it each call builds the rows of its
    distinct counts, ``BLOCK_COLUMNS`` columns at a time, and keeps none.
    Property checks stream CSC column blocks at O(nnz) expansion cost.
    """

    representation = "sparse"

    def __init__(
        self,
        matrix: Any,
        name: str = "mechanism",
        alpha: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        from scipy import sparse

        self.name = name
        self.alpha = alpha
        self.metadata = metadata if metadata is not None else {}
        self.tolerance = tolerance
        csc = sparse.csc_matrix(matrix, dtype=float, copy=True)
        csc.sum_duplicates()
        csc.sort_indices()
        self._csc = csc
        self._matrix = None
        self.validate()
        self._n = int(csc.shape[0]) - 1

    def validate(self) -> None:
        csc = self._csc
        if csc.shape[0] != csc.shape[1]:
            raise MechanismValidationError(
                f"mechanism matrix must be square, got shape {csc.shape}"
            )
        if csc.shape[0] < 2:
            raise MechanismValidationError(
                "mechanism must cover at least the outputs {0, 1} (n >= 1)"
            )
        data = csc.data
        if not np.all(np.isfinite(data)):
            raise MechanismValidationError("mechanism matrix contains non-finite entries")
        tol = self.tolerance
        if data.size and (np.any(data < -tol) or np.any(data > 1.0 + tol)):
            raise MechanismValidationError("mechanism entries must lie in [0, 1]")
        column_sums = np.asarray(csc.sum(axis=0)).ravel()
        if not np.allclose(column_sums, 1.0, atol=max(tol, 1e-7)):
            worst = float(np.max(np.abs(column_sums - 1.0)))
            raise MechanismValidationError(
                f"mechanism columns must sum to 1 (worst deviation {worst:.3e})"
            )
        self._validate_alpha()

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self._csc.nnz)

    @property
    def csc(self):
        """The underlying ``scipy.sparse.csc_matrix`` (treat as read-only)."""
        return self._csc

    def storage_bytes(self) -> int:
        csc = self._csc
        return int(csc.data.nbytes + csc.indices.nbytes + csc.indptr.nbytes)

    def _densify(self) -> np.ndarray:
        return self._csc.toarray()

    def _column(self, j: int) -> np.ndarray:
        csc = self._csc
        start, end = csc.indptr[j], csc.indptr[j + 1]
        column = np.zeros(self.size)
        column[csc.indices[start:end]] = csc.data[start:end]
        return column

    def _columns_block(self, j0: int, j1: int) -> np.ndarray:
        return self._csc[:, j0:j1].toarray()

    def _diagonal(self) -> np.ndarray:
        cached = self.__dict__.get("_diagonal_cache")
        if cached is None:
            cached = np.asarray(self._csc.diagonal(), dtype=float)
            self.__dict__["_diagonal_cache"] = cached
        return cached

    def _probability(self, i: int, j: int) -> float:
        return float(self._csc[i, j])

    def to_dict(self) -> Dict[str, Any]:
        """CSC representation descriptor: O(nnz) rather than O(n^2) JSON."""
        csc = self._csc
        return {
            "representation": "sparse",
            "n": self.n,
            "data": csc.data.tolist(),
            "indices": csc.indices.tolist(),
            "indptr": csc.indptr.tolist(),
            "name": self.name,
            "alpha": self.alpha,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def _from_payload(cls, payload: Mapping[str, Any]) -> "SparseMechanism":
        from scipy import sparse

        size = int(payload["n"]) + 1
        csc = sparse.csc_matrix(
            (
                np.asarray(payload["data"], dtype=float),
                np.asarray(payload["indices"], dtype=np.int32),
                np.asarray(payload["indptr"], dtype=np.int32),
            ),
            shape=(size, size),
        )
        return cls(
            csc,
            name=str(payload.get("name", "mechanism")),
            alpha=payload.get("alpha"),
            metadata=dict(payload.get("metadata", {})),
        )

    def __reduce__(self):
        return (Mechanism.from_dict, (self.to_dict(),))


def _search_rows(table: np.ndarray, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``searchsorted(table[rows[k]], uniforms[k], side="right")`` for every ``k``.

    One vectorised binary search whose ``ceil(log2(width))`` rounds each
    gather one table entry per element.  Every row is non-decreasing and
    ends at exactly 1.0, so for ``u`` in ``[0, 1)`` the answer lies in ``[0,
    width - 1]`` and the search is exact by construction.
    """
    width = table.shape[1]
    flat = table.ravel()
    offsets = rows * width
    low = np.zeros(rows.shape[0], dtype=np.int64)
    high = np.full(rows.shape[0], width - 1, dtype=np.int64)
    # Invariant: cdf[low - 1] <= u < cdf[high]; each round halves the span.
    for _ in range((width - 1).bit_length()):
        mid = (low + high) >> 1
        above = flat[offsets + mid] > uniforms
        high = np.where(above, mid, high)
        low = np.where(above, low, mid + 1)
    return low


def _normalise_prior(prior: Optional[Sequence[float]], size: int) -> np.ndarray:
    """Validate and normalise a prior over inputs; default to uniform."""
    if prior is None:
        return np.full(size, 1.0 / size)
    weights = np.asarray(prior, dtype=float)
    if weights.shape != (size,):
        raise ValueError(f"prior must have length {size}, got shape {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("prior weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("prior weights must not all be zero")
    return weights / total


def uniform_prior(n: int) -> np.ndarray:
    """The uniform prior ``w_j = 1 / (n + 1)`` used throughout the paper."""
    if n < 1:
        raise ValueError("group size n must be at least 1")
    return np.full(n + 1, 1.0 / (n + 1))


def empirical_prior(true_counts: Iterable[int], n: int) -> np.ndarray:
    """Prior estimated from observed per-group true counts.

    Useful for evaluating mechanisms against the data distribution actually
    seen in an experiment (e.g. the Adult groups of Figure 10).
    """
    counts = np.bincount(np.asarray(list(true_counts), dtype=int), minlength=n + 1)
    if counts.shape[0] > n + 1:
        raise ValueError("observed counts exceed the stated group size")
    total = counts.sum()
    if total == 0:
        raise ValueError("no counts supplied")
    return counts / total

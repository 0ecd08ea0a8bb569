"""Bit-identity of the guide-table sampler, the batched-RNG executor hot
path and the binary stream I/O.

Every fast path is *gated on bit-identity*: the guide-table sampler must
release exactly the counts of the sequential reference sampler, the
executor's batched uniform draws must not change a single released value,
and a ``.npy`` round trip must reproduce the text protocol byte for byte.
These tests are the gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mechanism import Mechanism, SparseMechanism
from repro.engine import ReleasePlan, StreamExecutor, iter_count_chunks
from repro.engine.stream_io import (
    COUNT_DTYPE,
    NpyCountWriter,
    is_npy_path,
    open_npy_counts,
)
from repro.mechanisms.geometric import geometric_mechanism
from repro.privacy import PrivacyAccountant


def _dense_gm(n=32, alpha=0.5):
    return Mechanism(geometric_mechanism(n, alpha).matrix, name="gm", alpha=alpha)


# --------------------------------------------------------------------- #
# Guide-path bit-identity
# --------------------------------------------------------------------- #
class TestGuideKernelIdentity:
    def test_tiled_guide_path_equals_sequential_batches(self):
        """sample_tiled large enough to take the guide path must equal
        sequential sample_batch calls on the same stream."""
        mechanism = _dense_gm(n=32)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 33, size=512)
        repetitions = 70  # 70 * 512 > size * GUIDE_BINS / 4: guide regime
        assert mechanism._use_guide(repetitions * counts.shape[0])
        tiled = mechanism.sample_tiled(counts, repetitions, rng=np.random.default_rng(5))
        sequential_rng = np.random.default_rng(5)
        for r in range(repetitions):
            row = mechanism.sample_batch(counts, rng=sequential_rng)
            assert np.array_equal(tiled[r], row), f"repetition {r} deviates"

    @pytest.mark.parametrize(
        "representation,n",
        [(Mechanism, 4), (Mechanism, 16), (Mechanism, 64), (Mechanism, 511), (SparseMechanism, 24)],
        ids=["dense-4", "dense-16", "dense-64", "dense-511", "sparse-24"],
    )
    def test_guide_matches_exact_inversion_elementwise(self, representation, n):
        mechanism = representation(geometric_mechanism(n, 0.5).matrix, alpha=0.5)
        rng = np.random.default_rng(n)
        counts = rng.integers(0, n + 1, size=20_000)
        uniforms = rng.random(20_000)
        assert np.array_equal(
            mechanism._sample_by_guide(counts, uniforms),
            mechanism._inverse_sample(counts, uniforms),
        )

    @pytest.mark.parametrize("size", [None, 1, 50])
    def test_dense_scalar_sample_is_the_table_search(self, size):
        """Dense ``sample`` inverts the table row on the same stream."""
        mechanism = _dense_gm(n=40)
        for j in (0, 20, 40):
            rng, reference_rng = np.random.default_rng(j), np.random.default_rng(j)
            drawn = mechanism.sample(j, rng=rng, size=size)
            expected = np.searchsorted(
                mechanism.column_cdfs()[j],
                np.atleast_1d(reference_rng.random(size)),
                side="right",
            )
            if size is None:
                assert isinstance(drawn, int) and drawn == int(expected[0])
            else:
                assert np.array_equal(drawn, expected)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_column_cdfs_rows_are_the_fallback_cdfs(self):
        for mechanism in (_dense_gm(n=12), SparseMechanism(
            geometric_mechanism(12, 0.6).matrix, alpha=0.6
        )):
            cdfs = mechanism.column_cdfs()
            assert cdfs.shape == (13, 13)
            for j in range(13):
                # Uniforms on the CDF steps themselves: ties resolve rightwards.
                ties = cdfs[j][:-1]
                assert np.array_equal(
                    mechanism._inverse_sample(np.full(12, j), ties),
                    np.searchsorted(cdfs[j], ties, side="right"),
                )


# --------------------------------------------------------------------- #
# sample_with_uniforms: the executor's batched-RNG entry point
# --------------------------------------------------------------------- #
class TestSampleWithUniforms:
    def test_equals_sample_batch_on_same_stream(self):
        mechanism = _dense_gm(n=20)
        counts = np.random.default_rng(1).integers(0, 21, size=1000)
        batch = mechanism.sample_batch(counts, rng=np.random.default_rng(2))
        uniforms = np.random.default_rng(2).random(1000)
        assert np.array_equal(batch, mechanism.sample_with_uniforms(counts, uniforms))

    def test_empty_batch(self):
        mechanism = _dense_gm(n=4)
        released = mechanism.sample_with_uniforms([], np.empty(0))
        assert released.shape == (0,) and released.dtype.kind == "i"

    def test_shape_mismatch_rejected(self):
        mechanism = _dense_gm(n=4)
        with pytest.raises(ValueError, match="do not match"):
            mechanism.sample_with_uniforms([1, 2, 3], np.zeros(2))

    def test_out_of_range_counts_rejected(self):
        mechanism = _dense_gm(n=4)
        with pytest.raises(ValueError, match="must lie in"):
            mechanism.sample_with_uniforms([5], np.zeros(1))


# --------------------------------------------------------------------- #
# Executor: batched uniforms + zero-copy windows stay bit-identical
# --------------------------------------------------------------------- #
class TestExecutorBatchedRng:
    def _plan(self, n=40, alpha=0.6):
        return ReleasePlan.from_mechanism(_dense_gm(n=n, alpha=alpha))

    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 8192])
    def test_stream_equals_one_shot_for_every_chunk_size(self, chunk_size):
        plan = self._plan()
        counts = np.random.default_rng(8).integers(0, 41, size=3001)
        expected = plan.execute(counts, rng=np.random.default_rng(21))
        executor = StreamExecutor(plan, chunk_size=chunk_size)
        released = executor.run(counts, rng=np.random.default_rng(21))
        assert np.array_equal(released, expected)

    def test_iterable_source_equals_ndarray_source(self):
        plan = self._plan()
        counts = np.random.default_rng(9).integers(0, 41, size=2500)
        from_array = StreamExecutor(plan, chunk_size=64).run(
            counts, rng=np.random.default_rng(33)
        )
        # A generator of odd-sized batches exercises the preallocated
        # zero-copy buffer refill logic.
        def batches():
            i = 0
            while i < counts.shape[0]:
                step = (i % 37) + 1
                yield counts[i : i + step]
                i += step

        from_iter = StreamExecutor(plan, chunk_size=64).run(
            batches(), rng=np.random.default_rng(33)
        )
        assert np.array_equal(from_iter, from_array)

    def test_metered_and_unmetered_regimes_release_identically(self):
        plan = self._plan()
        counts = np.random.default_rng(10).integers(0, 41, size=2000)
        unmetered = StreamExecutor(plan, chunk_size=128).run(
            counts, rng=np.random.default_rng(55)
        )
        accountant = PrivacyAccountant(alpha_target=1e-12)  # effectively infinite
        metered = StreamExecutor(plan, chunk_size=128, accountant=accountant).run(
            counts, rng=np.random.default_rng(55)
        )
        assert np.array_equal(metered, unmetered)

    def test_chunk_boundaries_match_per_chunk_regime(self):
        plan = self._plan()
        counts = np.random.default_rng(11).integers(0, 41, size=1000)
        executor = StreamExecutor(plan, chunk_size=64)
        sizes = [c.shape[0] for c in executor.stream(counts, rng=np.random.default_rng(1))]
        assert sizes == [64] * 15 + [40]
        assert executor.stats.chunks == 16
        assert executor.stats.records == 1000

    def test_window_validation_precedes_any_draw(self):
        plan = self._plan(n=10)
        executor = StreamExecutor(plan, chunk_size=4)
        rng = np.random.default_rng(77)
        probe = np.random.default_rng(77)
        stream = executor.stream([1, 2, 3, 99], rng=rng)
        with pytest.raises(ValueError, match="must lie in"):
            next(stream)
        # The refused window consumed nothing from the shared stream.
        assert rng.random() == probe.random()


class TestIterCountChunksZeroCopy:
    def test_copy_false_yields_reused_buffer(self):
        source = (np.arange(4) + 10 * i for i in range(3))
        chunks = iter_count_chunks(source, 4, copy=False)
        first = next(chunks)
        first_snapshot = first.copy()
        second = next(chunks)
        # Same backing buffer: advancing the iterator rewrote the first view.
        assert second is first
        assert not np.array_equal(first, first_snapshot)

    def test_copy_true_yields_stable_chunks(self):
        source = (np.arange(4) + 10 * i for i in range(3))
        chunks = list(iter_count_chunks(source, 4, copy=True))
        assert [c[0] for c in chunks] == [0, 10, 20]

    def test_ndarray_source_yields_views(self):
        counts = np.arange(10)
        chunks = list(iter_count_chunks(counts, 4))
        assert all(c.base is counts for c in chunks)


# --------------------------------------------------------------------- #
# Binary stream I/O
# --------------------------------------------------------------------- #
class TestStreamIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.npy"
        values = np.random.default_rng(0).integers(0, 100, size=1234)
        with NpyCountWriter(path) as writer:
            for start in range(0, 1234, 100):
                writer.write(values[start : start + 100])
        loaded = open_npy_counts(path)
        assert np.array_equal(loaded, values)
        assert loaded.dtype == COUNT_DTYPE
        # And numpy's own loader agrees on the file being well-formed.
        assert np.array_equal(np.load(path), values)

    def test_partial_file_is_loadable_after_every_flush(self, tmp_path):
        path = tmp_path / "partial.npy"
        writer = NpyCountWriter(path)
        writer.write(np.arange(5))
        writer.close()
        assert np.array_equal(np.load(path), np.arange(5))

    def test_empty_file_is_loadable(self, tmp_path):
        path = tmp_path / "empty.npy"
        with NpyCountWriter(path):
            pass
        assert np.load(path).shape == (0,)

    def test_writer_rejects_2d_and_closed_writes(self, tmp_path):
        writer = NpyCountWriter(tmp_path / "x.npy")
        with pytest.raises(ValueError, match="1-D"):
            writer.write(np.zeros((2, 2), dtype=int))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.write(np.zeros(1, dtype=int))

    def test_open_rejects_2d_and_float_files(self, tmp_path):
        two_d = tmp_path / "2d.npy"
        np.save(two_d, np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError, match="1-D"):
            open_npy_counts(two_d)
        floats = tmp_path / "float.npy"
        np.save(floats, np.zeros(3))
        with pytest.raises(ValueError, match="integer dtype"):
            open_npy_counts(floats)

    def test_open_is_memory_mapped(self, tmp_path):
        path = tmp_path / "mmap.npy"
        np.save(path, np.arange(100))
        loaded = open_npy_counts(path)
        assert isinstance(loaded, np.memmap)

    def test_is_npy_path(self):
        assert is_npy_path("counts.npy")
        assert is_npy_path("COUNTS.NPY")
        assert not is_npy_path("counts.txt")
        assert not is_npy_path("-")
        assert not is_npy_path(None)

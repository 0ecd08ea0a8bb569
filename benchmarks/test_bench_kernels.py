"""Benchmarks for the guide-table sampler and the binary stream I/O.

Three claims are asserted here, not just timed:

* the guide-table sampler answers a 10^6-count guide-regime stream within
  a 60-second ceiling and releases the counts of the exact sampler
  (``_inverse_sample``) on the same uniforms, bit for bit;
* the executor's batched-RNG regime (uniforms drawn once per
  ``UNIFORM_BATCH_CHUNKS`` window) is no slower than the per-chunk regime
  and releases the identical stream;
* parsing a ``.npy`` count file is dramatically cheaper than parsing the
  same counts as text — the reason ``serve-stream`` grew the binary
  protocol.

Wall-clock gates are conservative for the 1-core CI box and disabled under
``REPRO_BENCH_TINY=1`` (which still runs every code path at toy sizes).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _tiny import TINY

from repro.core.mechanism import Mechanism
from repro.engine import ReleasePlan, StreamExecutor
from repro.mechanisms.geometric import geometric_mechanism
from repro.privacy import PrivacyAccountant

#: Guide-regime stream: a small-n dense mechanism and enough tiled draws to
#: clear the guide threshold (``size * GUIDE_BINS / 4``) by a wide margin.
N_GUIDE = 8 if TINY else 64
STREAM_COUNTS = 10_000 if TINY else 1_000_000

CHUNK_SIZE = 256 if TINY else 65_536


def _guide_mechanism():
    mechanism = Mechanism(
        geometric_mechanism(N_GUIDE, 0.5).matrix, name="gm-dense", alpha=0.5
    )
    assert mechanism._use_guide(STREAM_COUNTS), "stream too small for the guide regime"
    return mechanism


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_guide_kernel_bit_identical_and_3x_on_million_count_stream(rng):
    """10^6 guide-regime draws: guide == exact inversion, within 60 s."""
    mechanism = _guide_mechanism()
    counts = rng.integers(0, N_GUIDE + 1, size=STREAM_COUNTS)

    def release():
        return mechanism.sample_tiled(counts, 1, rng=np.random.default_rng(17))[0]

    release()  # warm the guide table before timing
    released, seconds = _timed(release)
    uniforms = np.random.default_rng(17).random(STREAM_COUNTS)
    assert np.array_equal(released, mechanism._inverse_sample(counts, uniforms))

    if not TINY:
        assert seconds < 60.0, f"guide path took {seconds:.1f}s"


def test_batched_rng_stream_no_slower_than_per_chunk_and_identical(rng):
    """The unmetered batched-uniform regime matches the metered per-chunk
    regime's output and does not cost more wall time."""
    plan = ReleasePlan.from_mechanism(_guide_mechanism())
    counts = rng.integers(0, N_GUIDE + 1, size=STREAM_COUNTS // 2)
    chunks = -(-counts.shape[0] // CHUNK_SIZE)

    def run_batched():
        executor = StreamExecutor(plan, chunk_size=CHUNK_SIZE)
        checksum = 0
        for chunk in executor.stream(counts, rng=np.random.default_rng(23)):
            checksum += int(chunk.sum())
        return checksum

    def run_per_chunk():
        accountant = PrivacyAccountant(alpha_target=0.5 ** (chunks + 1))
        executor = StreamExecutor(plan, chunk_size=CHUNK_SIZE, accountant=accountant)
        checksum = 0
        for chunk in executor.stream(counts, rng=np.random.default_rng(23)):
            checksum += int(chunk.sum())
        return checksum

    run_batched()  # warm caches before timing
    batched_sum, batched_seconds = _timed(run_batched)
    per_chunk_sum, per_chunk_seconds = _timed(run_per_chunk)
    assert batched_sum == per_chunk_sum, "batched uniforms changed the release"
    if not TINY:
        # Identical sampling work either way; batching only removes RNG-call
        # and bookkeeping overhead, so a generous 1.5x + slack bound holds
        # even under CI noise.
        assert batched_seconds <= 1.5 * per_chunk_seconds + 2.0, (
            f"batched {batched_seconds:.2f}s vs per-chunk {per_chunk_seconds:.2f}s"
        )


def test_npy_parse_beats_text_parse(tmp_path, rng):
    """Reading a .npy count file skips parsing entirely; text pays per line."""
    from repro.engine.stream_io import open_npy_counts

    values = rng.integers(0, N_GUIDE + 1, size=STREAM_COUNTS // 2)
    text_path = tmp_path / "counts.txt"
    text_path.write_text("\n".join(str(int(v)) for v in values) + "\n")
    npy_path = tmp_path / "counts.npy"
    np.save(npy_path, values)

    def parse_text():
        with text_path.open() as handle:
            return np.fromiter(
                (int(line) for line in handle if line.strip()), dtype=np.int64
            )

    def parse_npy():
        # Materialise the mapped array so both paths deliver every element.
        return np.asarray(open_npy_counts(npy_path))

    from_text, text_seconds = _timed(parse_text)
    from_npy, npy_seconds = _timed(parse_npy)
    assert np.array_equal(from_npy, from_text)
    if not TINY:
        assert npy_seconds < text_seconds, (
            f".npy parse {npy_seconds:.3f}s is not faster than "
            f"text parse {text_seconds:.3f}s"
        )


@pytest.mark.benchmark(group="kernels")
def test_guide_stream_throughput(benchmark, rng):
    """Timed: the guide-regime tiled release at the evaluation size."""
    mechanism = _guide_mechanism()
    counts = rng.integers(0, N_GUIDE + 1, size=STREAM_COUNTS // 10)
    repetitions = 10  # tiled back up to the full stream volume

    def release():
        return mechanism.sample_tiled(
            counts, repetitions, rng=np.random.default_rng(3)
        )

    released = benchmark(release)
    assert released.shape == (repetitions, counts.shape[0])
    assert released.min() >= 0 and released.max() <= N_GUIDE

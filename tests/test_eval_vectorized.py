"""Bit-identity proofs for the vectorised empirical evaluation pipeline.

The evaluation rework (one tiled sample per evaluation, matrix metric
kernels, a parallel sweep stage) claims *bit-identical* results to the
original repetition loop on the same seeded generator.  These tests prove
that claim for all three mechanism representations, for the Figure-12
multi-threshold path, and for the parallel sweep against the serial one.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from _reference import evaluate_loop

import repro
from repro.core.mechanism import ClosedFormMechanism, DenseMechanism, Mechanism
from repro.eval import metrics as metrics_module
from repro.eval.empirical import evaluate_mechanism
from repro.eval.metrics import (
    ExceedsDistanceRate,
    distance_metric,
    distance_metrics,
    error_rate,
    exceeds_rate_from_diff,
    exceeds_rate_profile,
    mean_signed_error,
    signed_differences,
)
from repro.eval.sweep import sweep
from repro.histogram.queries import (
    evaluate_range_queries,
    evaluate_range_queries_matrix,
    random_range_queries,
)
from repro.histogram.release import HistogramRelease, PrivateHistogram
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_matrix, geometric_mechanism


def _representations(n: int, alpha: float):
    """One mechanism of each representation at (n, alpha)."""
    closed = geometric_mechanism(n, alpha)
    dense = DenseMechanism(geometric_matrix(n, alpha), name="GM-dense", alpha=alpha)
    sparse = repro.design_mechanism(n, alpha, representation="sparse")
    assert {m.representation for m in (closed, dense, sparse)} == {
        "closed-form",
        "dense",
        "sparse",
    }
    return closed, dense, sparse


class TestSampleTiled:
    @pytest.mark.parametrize("repetitions", [1, 2, 7])
    def test_tiled_equals_sequential_for_every_representation(self, rng, repetitions):
        for mechanism in _representations(6, 0.9):
            counts = rng.integers(0, 7, size=211)
            sequential_rng = np.random.default_rng(13)
            sequential = np.stack(
                [mechanism.sample_batch(counts, rng=sequential_rng) for _ in range(repetitions)]
            )
            tiled = mechanism.sample_tiled(counts, repetitions, rng=np.random.default_rng(13))
            assert tiled.shape == (repetitions, counts.shape[0])
            assert np.array_equal(tiled, sequential), mechanism.representation

    def test_tiled_equals_sequential_above_the_exact_sampling_limit(self, rng, monkeypatch):
        # Force the closed form onto its analytic bisection sampler.
        monkeypatch.setattr(ClosedFormMechanism, "EXACT_SAMPLING_LIMIT", 4)
        mechanism = geometric_mechanism(64, 0.8)
        counts = rng.integers(0, 65, size=97)
        sequential_rng = np.random.default_rng(3)
        sequential = np.stack(
            [mechanism.sample_batch(counts, rng=sequential_rng) for _ in range(5)]
        )
        tiled = mechanism.sample_tiled(counts, 5, rng=np.random.default_rng(3))
        assert np.array_equal(tiled, sequential)

    def test_guide_fast_path_is_bit_identical(self, rng, monkeypatch):
        # Shrink the guide resolution (still a power of two) so the fast
        # path engages at test sizes, with ~10% of bins ambiguous — both
        # the O(1) hits and the exact fallback are exercised.
        monkeypatch.setattr(Mechanism, "GUIDE_BINS", 64)
        for mechanism in _representations(6, 0.9):
            counts = rng.integers(0, 7, size=500)
            assert mechanism._use_guide(12 * counts.shape[0])
            sequential_rng = np.random.default_rng(31)
            sequential = np.stack(
                [mechanism.sample_batch(counts, rng=sequential_rng) for _ in range(12)]
            )
            tiled = mechanism.sample_tiled(counts, 12, rng=np.random.default_rng(31))
            assert np.array_equal(tiled, sequential), mechanism.representation

    def test_guide_not_used_in_the_bisection_regime(self, monkeypatch):
        monkeypatch.setattr(ClosedFormMechanism, "EXACT_SAMPLING_LIMIT", 4)
        mechanism = geometric_mechanism(64, 0.8)
        assert not mechanism._use_guide(10**6)

    def test_validation(self, rng):
        mechanism = geometric_mechanism(4, 0.9)
        with pytest.raises(ValueError):
            mechanism.sample_tiled([1, 2], 0, rng=rng)
        with pytest.raises(ValueError):
            mechanism.sample_tiled([5], 3, rng=rng)
        with pytest.raises(ValueError):
            mechanism.sample_tiled([[1, 2]], 3, rng=rng)
        assert mechanism.sample_tiled([], 3, rng=rng).shape == (3, 0)


class TestVectorizedEvaluateMechanism:
    @pytest.mark.parametrize("repetitions", [1, 6])
    def test_equals_loop_for_every_representation(self, rng, repetitions):
        counts = rng.integers(0, 7, size=300)
        for mechanism in _representations(6, 0.9):
            vectorized = evaluate_mechanism(
                mechanism, counts, group_size=6, repetitions=repetitions, seed=21
            )
            loop = evaluate_loop(
                mechanism, counts, group_size=6, repetitions=repetitions, seed=21
            )
            assert vectorized.metrics() == loop.metrics()
            for name in vectorized.metrics():
                assert np.array_equal(
                    vectorized.per_repetition[name], loop.per_repetition[name]
                ), (mechanism.representation, name)

    def test_equals_loop_on_custom_and_kernelless_metrics(self, rng):
        counts = rng.integers(0, 5, size=120)
        mechanism = explicit_fair_mechanism(4, 0.9)

        def plain_python_metric(true, released):
            return float(np.max(np.asarray(released) - np.asarray(true)))

        metrics = {
            "bias": mean_signed_error,
            "worst_overshoot": plain_python_metric,
            "exceeds_2_rate": distance_metric(2),
        }
        vectorized = evaluate_mechanism(
            mechanism, counts, group_size=4, repetitions=5, metrics=metrics, seed=2
        )
        loop = evaluate_loop(
            mechanism, counts, group_size=4, repetitions=5, metrics=metrics, seed=2
        )
        for name in metrics:
            assert np.array_equal(vectorized.per_repetition[name], loop.per_repetition[name])

    def test_distance_family_single_pass_equals_loop(self, rng):
        counts = rng.integers(0, 9, size=250)
        mechanism = geometric_mechanism(8, 0.67)
        family = distance_metrics(range(8))
        vectorized = evaluate_mechanism(
            mechanism, counts, group_size=8, repetitions=4, metrics=family, seed=7
        )
        loop = evaluate_loop(
            mechanism, counts, group_size=8, repetitions=4, metrics=family, seed=7
        )
        for name in family:
            assert np.array_equal(vectorized.per_repetition[name], loop.per_repetition[name])

    def test_no_dense_matrix_is_materialised(self, rng):
        mechanism = geometric_mechanism(32, 0.9)
        counts = rng.integers(0, 33, size=400)
        before = Mechanism.densifications
        evaluate_mechanism(mechanism, counts, group_size=32, repetitions=10, seed=1)
        assert Mechanism.densifications == before


class TestMetricKernels:
    def test_exceeds_rate_profile_matches_per_threshold_kernels(self, rng):
        diff = rng.integers(-6, 7, size=(5, 90)).astype(float)
        distances = [0, 1, 2, 3, 4, 5, 6, 9]
        profile = exceeds_rate_profile(diff, distances)
        assert profile.shape == (len(distances), 5)
        for k, d in enumerate(distances):
            assert np.array_equal(profile[k], exceeds_rate_from_diff(diff, d))

    def test_profile_validates_inputs(self):
        with pytest.raises(ValueError):
            exceeds_rate_profile(np.zeros((2, 3)), [-1])
        with pytest.raises(ValueError):
            exceeds_rate_profile(np.zeros((2, 3)), [[0, 1]])

    def test_signed_differences_broadcasts_repetitions(self):
        true = np.array([1, 2, 3])
        released = np.array([[1, 2, 4], [0, 2, 3]])
        diff = signed_differences(true, released)
        assert np.array_equal(diff, [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            signed_differences(true, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            signed_differences([], [])

    def test_scalar_metrics_carry_kernels(self):
        for metric in (
            metrics_module.error_rate,
            metrics_module.mean_absolute_error,
            metrics_module.root_mean_square_error,
            metrics_module.mean_signed_error,
            distance_metric(3),
        ):
            assert callable(metric.diff_kernel)

    def test_distance_metric_is_picklable(self):
        metric = distance_metric(2)
        clone = pickle.loads(pickle.dumps(metric))
        assert clone.d == 2
        assert clone.__name__ == "exceeds_2_rate"
        assert clone([0, 1, 2], [3, 1, 2]) == pytest.approx(1 / 3)

    def test_exceeds_distance_rate_rejects_negative_d(self):
        with pytest.raises(ValueError):
            ExceedsDistanceRate(-1)


class TestParallelEvaluationStage:
    def test_parallel_sweep_equals_serial_row_for_row(self):
        """max_workers now fans out evaluation too; rows must be identical."""
        kwargs = dict(
            alphas=[0.67, 0.91],
            group_sizes=[3, 5],
            probabilities=[0.3, 0.5],
            mechanisms=("GM", "WM", "EM", "UM"),
            repetitions=3,
            num_groups=60,
            seed=17,
        )
        serial = sweep(**kwargs)
        parallel = sweep(max_workers=3, **kwargs)
        assert serial.rows == parallel.rows

    def test_unpicklable_metrics_fall_back_to_serial(self):
        """A lambda metric must not crash a max_workers sweep."""
        kwargs = dict(
            alphas=[0.8],
            group_sizes=[4],
            probabilities=[0.5],
            mechanisms=("GM", "UM"),
            repetitions=2,
            num_groups=30,
            metrics={"zero": lambda true, released: 0.0},
            seed=9,
        )
        serial = sweep(**kwargs)
        parallel = sweep(max_workers=2, **kwargs)
        assert serial.rows == parallel.rows

    def test_unpicklable_mechanism_falls_back_to_serial(self):
        """A mechanism carrying unpicklable metadata must not crash either."""
        mechanism = geometric_mechanism(4, 0.8)
        mechanism.metadata["note"] = lambda: None
        kwargs = dict(
            alphas=[0.8],
            group_sizes=[4],
            probabilities=[0.5],
            mechanisms=(mechanism, "UM"),
            repetitions=2,
            num_groups=30,
            seed=9,
        )
        serial = sweep(**kwargs)
        parallel = sweep(max_workers=2, **kwargs)
        assert serial.rows == parallel.rows

    def test_parallel_sweep_with_custom_metrics(self):
        kwargs = dict(
            alphas=[0.8],
            group_sizes=[4],
            probabilities=[0.5],
            mechanisms=("GM", "EM"),
            repetitions=2,
            num_groups=40,
            metrics={"error_rate": error_rate, "exceeds_1_rate": distance_metric(1)},
            seed=5,
        )
        serial = sweep(**kwargs)
        parallel = sweep(max_workers=2, **kwargs)
        assert serial.rows == parallel.rows


class TestHistogramVectorization:
    def test_release_many_equals_sequential_releases(self, rng):
        true_counts = rng.integers(0, 12, size=16)
        release = HistogramRelease(geometric_mechanism, 0.9)
        seq_rng = np.random.default_rng(9)
        sequential = np.stack(
            [release.release(true_counts, capacity=12, rng=seq_rng).released_counts for _ in range(4)]
        )
        tiled = HistogramRelease(geometric_mechanism, 0.9).release_many(
            true_counts, 4, capacity=12, rng=np.random.default_rng(9)
        )
        assert np.array_equal(tiled, sequential)

    def test_matrix_query_summary_matches_scalar_path(self, rng):
        true_counts = rng.integers(0, 20, size=12)
        queries = random_range_queries(12, 24, rng=rng)
        release = HistogramRelease(geometric_mechanism, 0.8)
        released = release.release_many(true_counts, 5, rng=np.random.default_rng(2))
        summary = evaluate_range_queries_matrix(true_counts, released, queries)
        for r in range(5):
            histogram = PrivateHistogram(
                true_counts=true_counts,
                released_counts=released[r],
                alpha=0.8,
                mechanism_name="GM",
            )
            scalar = evaluate_range_queries(histogram, queries)
            for name, values in summary.items():
                assert scalar[name] == values[r], name

    def test_matrix_query_summary_validation(self, rng):
        queries = random_range_queries(4, 3, rng=rng)
        with pytest.raises(ValueError):
            evaluate_range_queries_matrix([1, 2, 3, 4], np.zeros((2, 3)), queries)
        with pytest.raises(ValueError):
            evaluate_range_queries_matrix([1, 2], np.zeros((2, 2)), queries)
        with pytest.raises(ValueError):
            evaluate_range_queries_matrix([1, 2, 3, 4], np.zeros((2, 4)), [])

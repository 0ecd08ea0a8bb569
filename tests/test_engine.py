"""Engine tests: compiled plans, streaming execution and cross-path parity.

The refactor's contract is that every release path — the serving session,
the histogram releaser, the empirical evaluator and the streaming CLI —
is a thin adapter over ``ReleasePlan``/``StreamExecutor``, and that routing
through the engine changed *nothing* observable: plan-routed outputs are
bit-identical to the pre-refactor paths (direct ``apply_batch`` /
``sample_tiled`` calls and the loops in ``_reference.py``) on a shared seeded
stream, for all three representations including the ``α ∈ {0, 1}``
degenerations and the closed forms' analytic-bisection regime.  On top of
that, a ``PrivacyAccountant``-guarded path must refuse an over-budget
release *before* drawing a single uniform.
"""

from __future__ import annotations

import numpy as np
import pytest
from _reference import evaluate_loop, release_many_loop
from scipy import sparse

import repro
from repro.core.mechanism import ClosedFormMechanism, DenseMechanism, Mechanism, SparseMechanism
from repro.engine import (
    ReleasePlan,
    StreamExecutor,
    charge_release,
    compile_plan,
    iter_count_chunks,
)
from repro.eval.empirical import evaluate_mechanism
from repro.histogram.release import HistogramRelease
from repro.mechanisms.registry import create_mechanism
from repro.privacy import BudgetExceededError, PrivacyAccountant
from repro.serving import BatchReleaseSession, DesignCache, ReleaseRequest
from repro.serving.stats import counter_snapshot


def _dense_twin(mechanism: Mechanism) -> Mechanism:
    return DenseMechanism(mechanism.matrix.copy(), name=mechanism.name, alpha=mechanism.alpha)


def _sparse_twin(mechanism: Mechanism) -> SparseMechanism:
    return SparseMechanism(
        sparse.csc_matrix(mechanism.matrix), name=mechanism.name, alpha=mechanism.alpha
    )


def _three_representations(n: int, alpha: float):
    """Closed-form GM plus dense and sparse twins with bit-identical columns."""
    closed = create_mechanism("GM", n=n, alpha=alpha)
    return [closed, _dense_twin(closed), _sparse_twin(closed)]


class TestReleasePlan:
    def test_compile_matches_selector(self):
        plan = compile_plan(8, 0.9, properties="F")
        mechanism, decision = repro.choose_mechanism(8, 0.9, properties="F")
        assert plan.mechanism.name == mechanism.name
        assert plan.branch == decision.branch == "EM"
        assert plan.alpha_cost == pytest.approx(0.9)
        assert plan.prepared
        assert plan.n == 8

    def test_compile_through_cache_sets_key_and_hits(self):
        cache = DesignCache(capacity=8)
        first = compile_plan(6, 0.9, properties="WH+CM", cache=cache)
        assert first.key is not None
        before = cache.stats().hits
        second = compile_plan(6, 0.9, properties="WH+CM", cache=cache)
        assert cache.stats().hits == before + 1
        assert second.key == first.key

    def test_from_mechanism_defaults_alpha_cost(self):
        gm = create_mechanism("GM", n=6, alpha=0.8)
        plan = ReleasePlan.from_mechanism(gm)
        assert plan.alpha_cost == pytest.approx(0.8)
        with pytest.raises(ValueError):
            ReleasePlan.from_mechanism(gm, alpha_cost=1.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_execute_bit_identical_to_sample_batch(self, alpha):
        counts = np.random.default_rng(0).integers(0, 13, size=500)
        for mechanism in _three_representations(12, alpha):
            plan = ReleasePlan.from_mechanism(mechanism)
            released = plan.execute(counts, rng=np.random.default_rng(42))
            reference = mechanism.sample_batch(counts, rng=np.random.default_rng(42))
            assert np.array_equal(released, reference), mechanism.representation

    def test_execute_tiled_bit_identical_to_sample_tiled(self):
        counts = np.arange(9)
        for mechanism in _three_representations(8, 0.9):
            plan = ReleasePlan.from_mechanism(mechanism)
            released = plan.execute_tiled(counts, 7, rng=np.random.default_rng(3))
            reference = mechanism.sample_tiled(counts, 7, rng=np.random.default_rng(3))
            assert np.array_equal(released, reference), mechanism.representation

    def test_postprocess_hook_applied(self):
        plan = compile_plan(8, 0.9, postprocess=lambda released: released * 10)
        released = plan.execute(np.array([1, 2, 3]), rng=np.random.default_rng(0))
        assert np.all(released % 10 == 0)

    def test_counters_and_stats(self):
        plan = compile_plan(8, 0.9)
        plan.execute(np.array([1, 2]), rng=np.random.default_rng(0))
        plan.execute_tiled(np.array([1, 2]), 3, rng=np.random.default_rng(0))
        stats = plan.stats()
        assert stats["executions"] == 2
        assert stats["records_released"] == 2 + 6
        assert stats["mechanism"] == "GM"

    def test_estimation_hooks(self):
        plan = compile_plan(8, 0.9)
        released = plan.execute(np.full(4000, 4), rng=np.random.default_rng(1))
        histogram = plan.estimate_true_histogram(released)
        assert histogram.shape == (9,)
        assert histogram.sum() == pytest.approx(1.0)
        assert plan.debias_released_mean(released) == pytest.approx(4.0, abs=0.5)

    def test_compilations_counter(self):
        before = ReleasePlan.compilations
        compile_plan(4, 0.9)
        assert ReleasePlan.compilations == before + 1


class TestChargeRelease:
    def test_none_accountant_is_free(self):
        charge_release(None, 0.5)  # no error, nothing to record

    def test_refuses_non_positive_alpha(self):
        accountant = PrivacyAccountant(alpha_target=0.5)
        with pytest.raises(BudgetExceededError):
            charge_release(accountant, 0.0)
        assert accountant.spent_alpha() == 1.0

    def test_composed_multi_release_charge(self):
        accountant = PrivacyAccountant(alpha_target=0.5)
        charge_release(accountant, 0.9, releases=3)
        assert accountant.spent_alpha() == pytest.approx(0.9**3)
        with pytest.raises(BudgetExceededError):
            charge_release(accountant, 0.9, releases=10)
        # A refused charge records nothing.
        assert accountant.spent_alpha() == pytest.approx(0.9**3)


class TestIterCountChunks:
    def test_ndarray_sliced_without_copy(self):
        counts = np.arange(10)
        chunks = list(iter_count_chunks(counts, 4))
        assert [c.tolist() for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_mixed_scalar_and_batch_sources_rechunked(self):
        def source():
            yield 1
            yield np.array([2, 3, 4])
            yield [5, 6]
            yield 7

        chunks = list(iter_count_chunks(source(), 3))
        assert [c.tolist() for c in chunks] == [[1, 2, 3], [4, 5, 6], [7]]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_count_chunks(np.arange(3), 0))


class TestStreamExecutor:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 10_000])
    def test_chunked_serial_bit_identical_to_one_shot(self, chunk_size):
        counts = np.random.default_rng(1).integers(0, 17, size=300)
        for mechanism in _three_representations(16, 0.9):
            plan = ReleasePlan.from_mechanism(mechanism)
            executor = StreamExecutor(plan, chunk_size=chunk_size)
            streamed = executor.run(counts, rng=np.random.default_rng(5))
            reference = mechanism.sample_batch(counts, rng=np.random.default_rng(5))
            assert np.array_equal(streamed, reference), (
                mechanism.representation,
                chunk_size,
            )

    def test_bisection_regime_chunked_matches_one_shot(self):
        # n above ClosedFormMechanism.EXACT_SAMPLING_LIMIT: the closed form
        # samples by analytic inverse-CDF bisection; chunking must not
        # change the stream.
        n = 2 * ClosedFormMechanism.EXACT_SAMPLING_LIMIT
        gm = create_mechanism("GM", n=n, alpha=0.9)
        counts = np.random.default_rng(2).integers(0, n + 1, size=1000)
        executor = StreamExecutor(ReleasePlan.from_mechanism(gm), chunk_size=128)
        streamed = executor.run(counts, rng=np.random.default_rng(9))
        reference = gm.sample_batch(counts, rng=np.random.default_rng(9))
        assert np.array_equal(streamed, reference)

    def test_generator_source_matches_array_source(self):
        counts = np.random.default_rng(3).integers(0, 9, size=257)
        plan = compile_plan(8, 0.9)
        from_array = StreamExecutor(plan, chunk_size=50).run(
            counts, rng=np.random.default_rng(1)
        )
        from_generator = StreamExecutor(plan, chunk_size=50).run(
            (int(c) for c in counts), rng=np.random.default_rng(1)
        )
        assert np.array_equal(from_array, from_generator)

    def test_empty_stream(self):
        executor = StreamExecutor(compile_plan(8, 0.9), chunk_size=10)
        released = executor.run(np.empty(0, dtype=int), rng=np.random.default_rng(0))
        assert released.size == 0
        assert executor.stats.chunks == 0

    def test_seeded_serial_equals_seeded_parallel(self):
        counts = np.random.default_rng(4).integers(0, 33, size=600)
        plan = compile_plan(32, 0.9)
        serial = StreamExecutor(plan, chunk_size=100).run_seeded(counts, seed=11)
        parallel = StreamExecutor(plan, chunk_size=100, max_workers=2).run_seeded(
            counts, seed=11
        )
        assert np.array_equal(serial, parallel)

    def test_shared_stream_discipline_rejects_fan_out(self):
        executor = StreamExecutor(compile_plan(8, 0.9), max_workers=2)
        with pytest.raises(ValueError):
            list(executor.stream(np.arange(3), rng=np.random.default_rng(0)))

    def test_constructor_validation(self):
        plan = compile_plan(8, 0.9)
        with pytest.raises(ValueError):
            StreamExecutor(plan, chunk_size=0)
        with pytest.raises(ValueError):
            StreamExecutor(plan, max_workers=0)

    def test_over_budget_chunk_refused_before_sampling(self):
        plan = compile_plan(16, 0.9)
        accountant = PrivacyAccountant(alpha_target=0.9**2)  # budget: 2 chunks
        executor = StreamExecutor(plan, chunk_size=100, accountant=accountant)
        counts = np.random.default_rng(5).integers(0, 17, size=500)
        rng = np.random.default_rng(21)
        served = []
        with pytest.raises(BudgetExceededError):
            for chunk in executor.stream(counts, rng=rng):
                served.append(chunk)
        assert len(served) == 2
        assert executor.stats.records == 200
        # The refused third chunk consumed nothing: the generator sits
        # exactly where a 200-draw run would leave it.
        probe = np.random.default_rng(21)
        probe.random(200)
        assert rng.random() == probe.random()
        budget = executor.stats_payload(counter_snapshot(), None)["budget"]
        assert budget["alpha_spent"] == accountant.spent_alpha()
        assert budget["budget_refusals"] == 1

    def test_invalid_counts_rejected_before_charging(self):
        # An out-of-range chunk must raise ValueError without burning
        # budget: validation precedes charging precedes sampling.
        accountant = PrivacyAccountant(alpha_target=0.5)
        executor = StreamExecutor(
            compile_plan(8, 0.9), chunk_size=4, accountant=accountant
        )
        with pytest.raises(ValueError):
            executor.run(np.array([1, 2, 99]), rng=np.random.default_rng(0))
        assert accountant.spent_alpha() == 1.0
        with pytest.raises(ValueError):
            list(executor.stream_seeded(np.array([-1]), seed=0))
        assert accountant.spent_alpha() == 1.0

    def test_parallel_refusal_still_delivers_charged_chunks(self):
        # In the fan-out discipline, chunks already charged and submitted
        # when the budget runs out must still reach the caller — the budget
        # was spent on them.
        plan = compile_plan(16, 0.9)
        accountant = PrivacyAccountant(alpha_target=0.9**3)  # budget: 3 chunks
        executor = StreamExecutor(
            plan, chunk_size=50, accountant=accountant, max_workers=2
        )
        counts = np.random.default_rng(12).integers(0, 17, size=250)  # 5 chunks
        served = []
        with pytest.raises(BudgetExceededError):
            for chunk in executor.stream_seeded(counts, seed=19):
                served.append(chunk)
        assert len(served) == 3
        assert executor.stats.records == 150
        assert accountant.spent_alpha() == pytest.approx(0.9**3)
        # The delivered chunks match the serial seeded run of the same prefix.
        reference = StreamExecutor(plan, chunk_size=50).run_seeded(
            counts[:150], seed=19
        )
        assert np.array_equal(np.concatenate(served), reference)

    def test_alpha_zero_plan_unmetered_ok_metered_refused(self):
        gm = create_mechanism("GM", n=8, alpha=0.0)
        plan = ReleasePlan.from_mechanism(gm)
        assert plan.alpha_cost == 0.0
        released = StreamExecutor(plan, chunk_size=4).run(
            np.arange(9), rng=np.random.default_rng(0)
        )
        assert released.shape == (9,)
        guarded = StreamExecutor(
            plan, chunk_size=4, accountant=PrivacyAccountant(alpha_target=0.5)
        )
        with pytest.raises(BudgetExceededError):
            guarded.run(np.arange(9), rng=np.random.default_rng(0))


class TestSessionParity:
    """The serving session routed through plans matches its pre-refactor paths."""

    def test_release_counts_matches_direct_apply_batch(self):
        counts = np.random.default_rng(6).integers(0, 9, size=400)
        for properties in ("", "F", "WH+CM"):
            session = BatchReleaseSession(rng=np.random.default_rng(33))
            released = session.release_counts(counts, n=8, alpha=0.9, properties=properties)
            # Pre-refactor path: resolve the design, then one apply_batch on
            # an identically seeded generator.
            mechanism, _ = repro.choose_mechanism(8, 0.9, properties=properties)
            reference = mechanism.apply_batch(counts, rng=np.random.default_rng(33))
            assert np.array_equal(released, reference), properties

    def test_mixed_release_matches_pre_refactor_bucketing(self):
        rng = np.random.default_rng(7)
        requests = []
        designs = [(8, 0.9, ""), (8, 0.9, "F"), (6, 0.8, "")]
        for index in range(120):
            n, alpha, properties = designs[int(rng.integers(0, len(designs)))]
            requests.append(
                ReleaseRequest(
                    group=f"g{index}",
                    count=int(rng.integers(0, n + 1)),
                    n=n,
                    alpha=alpha,
                    properties=properties,
                )
            )
        session = BatchReleaseSession(rng=np.random.default_rng(55))
        results = session.release(requests)
        assert [r.group for r in results] == [r.group for r in requests]

        # Pre-refactor reference: bucket by design key in first-appearance
        # order, one apply_batch per bucket on a shared generator.
        reference_rng = np.random.default_rng(55)
        buckets = {}
        for index, request in enumerate(requests):
            key = repro.design_key(request.n, request.alpha, request.properties)
            buckets.setdefault(key, []).append(index)
        reference = [None] * len(requests)
        for key, indices in buckets.items():
            first = requests[indices[0]]
            mechanism, _ = repro.choose_mechanism(
                first.n, first.alpha, properties=first.properties
            )
            values = mechanism.apply_batch(
                np.asarray([requests[i].count for i in indices], dtype=int),
                rng=reference_rng,
            )
            for i, value in zip(indices, values):
                reference[i] = int(value)
        assert [r.released for r in results] == reference

    def test_budget_refusal_is_all_or_nothing_before_sampling(self):
        session = BatchReleaseSession(
            rng=np.random.default_rng(1), budget_alpha=0.9**2
        )
        counts = np.arange(9)
        session.release_counts(counts, n=8, alpha=0.9)
        session.release_counts(counts, n=8, alpha=0.9)
        with pytest.raises(BudgetExceededError):
            session.release_counts(counts, n=8, alpha=0.9)
        # Two successful batches of 9 records each; the refused one drew
        # nothing (the generator sits at 18 consumed uniforms).
        probe = np.random.default_rng(1)
        probe.random(18)
        assert session.rng.random() == probe.random()
        assert session.stats.records == 18
        assert session.stats.budget_refusals == 1
        assert session.stats.alpha_spent == pytest.approx(0.9**2)
        assert session.stats.alpha_remaining == pytest.approx(1.0)
        budget = session.stats_payload()["budget"]
        assert budget["alpha_spent"] == pytest.approx(0.9**2)
        assert budget["budget_refusals"] == 1

    def test_mixed_release_refusal_spans_all_buckets(self):
        # A mixed batch whose *composed* cost exceeds the budget is refused
        # whole, even though any single bucket would fit.
        session = BatchReleaseSession(rng=np.random.default_rng(2), budget_alpha=0.85)
        requests = [
            ReleaseRequest(group="a", count=1, n=8, alpha=0.9),
            ReleaseRequest(group="b", count=2, n=8, alpha=0.9, properties="F"),
        ]
        with pytest.raises(BudgetExceededError):
            session.release(requests)
        probe = np.random.default_rng(2)
        assert session.rng.random() == probe.random()  # nothing drawn
        assert session.stats.records == 0

    def test_invalid_counts_rejected_before_charging(self):
        session = BatchReleaseSession(rng=np.random.default_rng(3), budget_alpha=0.5)
        with pytest.raises(ValueError):
            session.release_counts(np.array([1, 99]), n=8, alpha=0.9)
        assert session.accountant.spent_alpha() == 1.0

    def test_accountant_and_budget_alpha_mutually_exclusive(self):
        with pytest.raises(ValueError):
            BatchReleaseSession(
                accountant=PrivacyAccountant(alpha_target=0.5), budget_alpha=0.5
            )

    def test_plan_for_reuses_compiled_plan(self):
        session = BatchReleaseSession()
        first = session.plan_for(8, 0.9, properties="F")
        second = session.plan_for(8, 0.9, properties="F")
        assert first is second
        assert session.mechanism_for(8, 0.9, properties="F") is first.mechanism


class TestHistogramParity:
    def test_release_matches_direct_apply_batch(self):
        release = HistogramRelease(repro.geometric_mechanism, alpha=0.8)
        counts = [3, 0, 7, 2, 5]
        histogram = release.release(counts, rng=np.random.default_rng(17))
        reference_mechanism = repro.geometric_mechanism(7, alpha=0.8)
        reference = reference_mechanism.apply_batch(
            np.asarray(counts), rng=np.random.default_rng(17)
        )
        assert np.array_equal(histogram.released_counts, reference)

    def test_release_many_matches_tiled_and_loop(self):
        counts = [3, 0, 7, 2, 5]
        release = HistogramRelease(
            repro.geometric_mechanism, alpha=0.8, rng=np.random.default_rng(23)
        )
        many = release.release_many(counts, repetitions=6)
        reference = repro.geometric_mechanism(7, alpha=0.8).sample_tiled(
            np.asarray(counts), 6, rng=np.random.default_rng(23)
        )
        assert np.array_equal(many, reference)
        loop_release = HistogramRelease(
            repro.geometric_mechanism, alpha=0.8, rng=np.random.default_rng(23)
        )
        loop = release_many_loop(loop_release, counts, repetitions=6)
        assert np.array_equal(many, loop)

    def test_budget_guarded_release_many_refused_before_sampling(self):
        accountant = PrivacyAccountant(alpha_target=0.5)
        release = HistogramRelease(
            repro.geometric_mechanism,
            alpha=0.8,
            rng=np.random.default_rng(29),
            accountant=accountant,
        )
        # 0.8^4 = 0.4096 < 0.5: four sequential releases exceed the budget.
        with pytest.raises(BudgetExceededError):
            release.release_many([1, 2, 3], repetitions=4)
        assert accountant.spent_alpha() == 1.0  # nothing recorded
        probe = np.random.default_rng(29)
        assert release.rng.random() == probe.random()  # nothing drawn
        # Three fit (0.8^3 = 0.512 >= 0.5).
        assert release.release_many([1, 2, 3], repetitions=3).shape == (3, 3)

    def test_swap_neighbouring_charges_squared_alpha(self):
        accountant = PrivacyAccountant(alpha_target=0.5)
        release = HistogramRelease(
            repro.geometric_mechanism,
            alpha=0.8,
            neighbouring="swap",
            accountant=accountant,
        )
        release.release([1, 2], rng=np.random.default_rng(0))
        assert accountant.spent_alpha() == pytest.approx(0.8**2)


class TestEvaluateParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.9, 1.0])
    def test_plan_routed_evaluation_bit_identical(self, alpha):
        counts = np.random.default_rng(8).integers(0, 13, size=150)
        for mechanism in _three_representations(12, alpha):
            via_mechanism = evaluate_mechanism(
                mechanism, counts, group_size=12, repetitions=5, seed=77
            )
            via_plan = evaluate_mechanism(
                ReleasePlan.from_mechanism(mechanism),
                counts,
                group_size=12,
                repetitions=5,
                seed=77,
            )
            via_loop = evaluate_loop(
                mechanism, counts, group_size=12, repetitions=5, seed=77
            )
            for metric in via_loop.metrics():
                loop_values = via_loop.per_repetition[metric]
                assert np.array_equal(via_mechanism.per_repetition[metric], loop_values)
                assert np.array_equal(via_plan.per_repetition[metric], loop_values)

    def test_plan_evaluate_convenience(self):
        plan = compile_plan(8, 0.9)
        counts = np.random.default_rng(9).integers(0, 9, size=60)
        direct = evaluate_mechanism(plan.mechanism, counts, group_size=8, repetitions=3, seed=5)
        via_plan = plan.evaluate(counts, group_size=8, repetitions=3, seed=5)
        for metric in direct.metrics():
            assert np.array_equal(
                via_plan.per_repetition[metric], direct.per_repetition[metric]
            )


class TestServeStreamCLI:
    def test_stream_matches_serve_batch(self, tmp_path, capsys):
        from repro.cli import main

        counts_path = tmp_path / "counts.txt"
        values = np.random.default_rng(10).integers(0, 33, size=257)
        counts_path.write_text("\n".join(str(int(v)) for v in values) + "\n")

        exit_code = main(
            ["serve-stream", "--n", "32", "--alpha", "0.9",
             "--counts-file", str(counts_path), "--chunk-size", "40", "--seed", "123"]
        )
        assert exit_code == 0
        streamed = [int(line) for line in capsys.readouterr().out.split()]

        exit_code = main(
            ["serve-batch", "--n", "32", "--alpha", "0.9",
             "--counts-file", str(counts_path), "--seed", "123"]
        )
        assert exit_code == 0
        batched = [int(line) for line in capsys.readouterr().out.split()]
        # The serial shared-stream discipline is bit-identical to the
        # one-shot serving path for the same seed, whatever the chunking.
        assert streamed == batched

    def test_stream_stats_and_output_file(self, tmp_path, capsys):
        from repro.cli import main

        counts_path = tmp_path / "counts.txt"
        counts_path.write_text("1\n2\n3\n")
        out_path = tmp_path / "released.txt"
        exit_code = main(
            ["serve-stream", "--n", "8", "--alpha", "0.9",
             "--counts-file", str(counts_path), "--output", str(out_path),
             "--seed", "1", "--stats"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        # Stats live on stderr so they never corrupt a piped count stream.
        assert "serve-stream:" in captured.err
        assert "chunks=1" in captured.err
        assert "records=3" in captured.err
        assert "serve-stream:" not in captured.out
        assert len(out_path.read_text().split()) == 3

    def test_stream_budget_refusal_partial_output(self, tmp_path, capsys):
        from repro.cli import main

        counts_path = tmp_path / "counts.txt"
        counts_path.write_text("\n".join("1" for _ in range(30)) + "\n")
        exit_code = main(
            ["serve-stream", "--n", "8", "--alpha", "0.9",
             "--counts-file", str(counts_path), "--chunk-size", "10",
             "--seed", "1", "--budget-alpha", str(0.9**2)]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        assert len(captured.out.split()) == 20  # two chunks served, third refused
        assert "privacy budget exhausted" in captured.err

    def test_stream_budget_refusal_with_output_file_reports_partial(self, tmp_path, capsys):
        from repro.cli import main

        counts_path = tmp_path / "counts.txt"
        counts_path.write_text("\n".join("1" for _ in range(30)) + "\n")
        out_path = tmp_path / "released.txt"
        exit_code = main(
            ["serve-stream", "--n", "8", "--alpha", "0.9",
             "--counts-file", str(counts_path), "--chunk-size", "10",
             "--seed", "1", "--budget-alpha", str(0.9**2),
             "--output", str(out_path)]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        # An aborted run must not claim success on stdout; the partial
        # nature is reported on stderr instead.
        assert "wrote" not in captured.out
        assert "PARTIAL" in captured.err
        assert len(out_path.read_text().split()) == 20

    def test_stream_worker_counts_agree(self, tmp_path, capsys):
        from repro.cli import main

        counts_path = tmp_path / "counts.txt"
        values = np.random.default_rng(11).integers(0, 17, size=90)
        counts_path.write_text("\n".join(str(int(v)) for v in values) + "\n")
        outputs = []
        for workers in ("1", "2"):
            exit_code = main(
                ["serve-stream", "--n", "16", "--alpha", "0.9",
                 "--counts-file", str(counts_path), "--chunk-size", "25",
                 "--seed", "7", "--max-workers", workers]
            )
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_serve_batch_budget_refusal(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                ["serve-batch", "--n", "8", "--alpha", "0.9",
                 "--counts", "1", "2", "--seed", "1", "--budget-alpha", "0.95"]
            )

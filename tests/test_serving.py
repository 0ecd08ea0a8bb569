"""Tests for the batch serving layer (repro.serving) and vectorised sampling."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.core.losses import Objective
from repro.core.mechanism import Mechanism
from repro.histogram.release import histogram_via_session
from repro.lp.solver import LPSolution, solve_call_count
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.serving import BatchReleaseSession, DesignCache, ReleaseRequest, design_key


# --------------------------------------------------------------------- #
# Vectorised sampling: apply_batch vs the scalar path
# --------------------------------------------------------------------- #
class TestApplyBatch:
    @pytest.mark.parametrize(
        "mechanism",
        [
            geometric_mechanism(12, 0.9),
            explicit_fair_mechanism(12, 0.9),
            repro.design_mechanism(7, 0.85, properties="WH+CM+S"),
            repro.uniform_mechanism(5),
        ],
        ids=["GM", "EM", "WM", "UM"],
    )
    def test_batch_matches_scalar_with_same_rng_stream(self, mechanism):
        counts = np.random.default_rng(11).integers(0, mechanism.n + 1, size=5_000)
        batch = mechanism.apply_batch(counts, rng=np.random.default_rng(2018))
        rng = np.random.default_rng(2018)
        scalar = np.array([mechanism.sample(int(c), rng=rng) for c in counts])
        assert np.array_equal(batch, scalar)

    def test_apply_routes_arrays_through_apply_batch(self):
        mechanism = geometric_mechanism(9, 0.8)
        counts = np.arange(10) % (mechanism.n + 1)
        via_apply = mechanism.apply(counts, rng=np.random.default_rng(5))
        via_batch = mechanism.apply_batch(counts, rng=np.random.default_rng(5))
        assert np.array_equal(via_apply, via_batch)

    def test_outputs_lie_in_range_and_match_distribution(self):
        mechanism = explicit_fair_mechanism(6, 0.9)
        counts = np.full(200_000, 3)
        draws = mechanism.apply_batch(counts, rng=np.random.default_rng(0))
        assert draws.min() >= 0 and draws.max() <= 6
        empirical = np.bincount(draws, minlength=7) / draws.size
        assert np.allclose(empirical, mechanism.probabilities(3), atol=5e-3)

    def test_empty_batch(self):
        mechanism = geometric_mechanism(4, 0.7)
        released = mechanism.apply_batch([], rng=np.random.default_rng(0))
        assert released.shape == (0,)

    def test_rejects_out_of_range_and_non_1d(self):
        mechanism = geometric_mechanism(4, 0.7)
        with pytest.raises(ValueError):
            mechanism.apply_batch([5], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mechanism.apply_batch([-1], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mechanism.apply_batch(np.zeros((2, 2), dtype=int))

    def test_uniform_within_one_ulp_of_one_stays_in_range(self):
        # fl(count + u) can round to count + 1 when u is within one ulp of
        # 1, letting the flattened search run into the next column's block;
        # the clamp + fix-up must still return the exact inverse-CDF index.
        class _NearOneRng:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        mechanism = Mechanism(np.eye(4), name="identity")
        released = mechanism.apply_batch([1, 2], rng=_NearOneRng())
        # The identity mechanism must report the truth for any uniform < 1.
        assert released.tolist() == [1, 2]

    def test_column_cdfs_cached_and_well_formed(self):
        mechanism = geometric_mechanism(8, 0.9)
        cdfs = mechanism.column_cdfs()
        assert cdfs is mechanism.column_cdfs()  # cached
        assert cdfs.shape == (9, 9)
        assert np.all(np.diff(cdfs, axis=1) >= 0)
        assert np.allclose(cdfs[:, -1], 1.0)


# --------------------------------------------------------------------- #
# DesignCache
# --------------------------------------------------------------------- #
class TestDesignCache:
    def test_canonical_keys_ignore_property_spelling(self):
        assert design_key(8, 0.9, "WH+CM") == design_key(8, 0.9, ["CM", "WH"])
        assert design_key(8, 0.9, "WH") != design_key(8, 0.9, "WH+CM")
        assert design_key(8, 0.9, (), Objective.l1()) != design_key(8, 0.9, ())

    def test_hit_skips_selector_and_solver(self):
        cache = DesignCache()
        before = solve_call_count()
        first, first_decision = cache.get_or_design(6, 0.95, properties="WH+CM")
        assert solve_call_count() == before + 1  # WM branch solves once
        second, second_decision = cache.get_or_design(6, 0.95, properties="CM+WH")
        assert solve_call_count() == before + 1  # no further LP work
        assert first.allclose(second)
        assert first_decision.branch == second_decision.branch
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_hits_return_isolated_mechanisms(self):
        cache = DesignCache()
        first, _ = cache.get_or_design(5, 0.9, properties="F")
        first.metadata["tampered"] = True
        second, _ = cache.get_or_design(5, 0.9, properties="F")
        assert "tampered" not in second.metadata
        assert second.metadata["design_cache"] == "memory"

    def test_lru_eviction(self):
        cache = DesignCache(capacity=2)
        cache.get_or_design(3, 0.9)
        cache.get_or_design(4, 0.9)
        cache.get_or_design(3, 0.9)  # refresh n=3
        cache.get_or_design(5, 0.9)  # evicts n=4 (least recently used)
        assert cache.stats().evictions == 1
        assert design_key(3, 0.9) in cache
        assert design_key(4, 0.9) not in cache
        assert design_key(5, 0.9) in cache
        # Re-requesting the evicted design is a miss again.
        misses = cache.stats().misses
        cache.get_or_design(4, 0.9)
        assert cache.stats().misses == misses + 1

    def test_on_disk_round_trip(self, tmp_path):
        warm = DesignCache(directory=tmp_path)
        designed, decision = warm.get_or_design(6, 0.95, properties="WH+CM")
        assert (tmp_path / "registry.sqlite").exists()
        assert len(warm.registry) == 1

        cold = DesignCache(directory=tmp_path)
        before = solve_call_count()
        loaded, loaded_decision = cold.get_or_design(6, 0.95, properties="WH+CM")
        assert solve_call_count() == before  # served from the registry, no LP
        assert loaded.allclose(designed)
        assert loaded.metadata["design_cache"] == "disk"
        assert loaded_decision == decision
        assert cold.stats().disk_hits == 1
        assert cold.stats().tiers == {"memory": 0, "registry": 1, "solve": 0}

    def test_corrupt_disk_entry_falls_back_to_solving(self, tmp_path):
        cache = DesignCache(directory=tmp_path)
        cache.get_or_design(4, 0.9, properties="F")
        key = design_key(4, 0.9, properties="F")
        cache.registry.corrupt_row(key)
        fresh = DesignCache(directory=tmp_path)
        mechanism, _ = fresh.get_or_design(4, 0.9, properties="F")
        assert mechanism.metadata["design_cache"] == "solve"
        assert fresh.stats().corrupt_rows == 1
        # The corrupt row was overwritten: the next process hits it again.
        again = DesignCache(directory=tmp_path)
        hit, _ = again.get_or_design(4, 0.9, properties="F")
        assert hit.metadata["design_cache"] == "disk"

    def test_clear(self, tmp_path):
        cache = DesignCache(directory=tmp_path)
        cache.get_or_design(3, 0.8)
        assert len(cache) == 1
        cache.clear(disk=True)
        assert len(cache) == 0
        assert len(cache.registry) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            DesignCache(capacity=0)

    def test_choose_mechanism_routes_through_cache(self):
        cache = DesignCache()
        repro.choose_mechanism(5, 0.9, properties="F", cache=cache)
        mechanism, _ = repro.choose_mechanism(5, 0.9, properties="F", cache=cache)
        assert mechanism.metadata["design_cache"] == "memory"
        assert cache.stats().hits == 1

    def test_thread_pool_hammer(self):
        """Concurrent tenants on one cache: consistent counters, one solve per key.

        The serving daemon shares a single cache across tenants; before the
        RLock, concurrent ``get_or_design``/``_evict`` calls could corrupt
        the LRU ``OrderedDict`` mid-iteration.  Hammer a capacity-bounded
        cache from a thread pool and check every invariant the lock must
        protect: no exceptions, hits + misses == requests, the LRU never
        exceeds capacity, and concurrent misses on one key serialise into
        exactly one design (every returned mechanism per key is identical).
        """
        from concurrent.futures import ThreadPoolExecutor

        # GM/EM closed forms only — no LP solves, so the hammer stays fast.
        settings = [(3, 0.9, ""), (4, 0.8, ""), (5, 0.9, "F"), (6, 0.7, ""),
                    (7, 0.9, "F"), (8, 0.6, "")]
        cache = DesignCache(capacity=4)  # smaller than the key set: evictions

        def worker(worker_index):
            results = []
            for step in range(30):
                n, alpha, properties = settings[(worker_index + step) % len(settings)]
                mechanism, decision = cache.get_or_design(
                    n, alpha, properties=properties
                )
                results.append((n, mechanism, decision.branch))
            return results

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = [future.result() for future in
                        [pool.submit(worker, i) for i in range(8)]]

        by_n = {}
        for results in outcomes:
            for n, mechanism, branch in results:
                assert mechanism.n == n
                by_n.setdefault(n, []).append((mechanism, branch))
        for n, produced in by_n.items():
            first, first_branch = produced[0]
            for mechanism, branch in produced[1:]:
                assert branch == first_branch
                assert mechanism.allclose(first)  # one design per key, ever

        stats = cache.stats()
        assert stats.requests == 8 * 30
        assert stats.hits + stats.misses == stats.requests
        assert len(cache) <= cache.capacity
        # Conservation under the lock: every miss inserts one entry, every
        # eviction removes one, hits change nothing — a torn update would
        # break this exact balance.
        assert stats.misses == stats.evictions + len(cache)
        assert stats.misses >= len(settings)


# --------------------------------------------------------------------- #
# BatchReleaseSession
# --------------------------------------------------------------------- #
class TestBatchReleaseSession:
    def _mixed_requests(self):
        return [
            ReleaseRequest(group=f"g{i}", count=i % 5, n=8, alpha=0.9,
                           properties="F" if i % 2 else "")
            for i in range(20)
        ]

    def test_preserves_input_order_and_routes_designs(self):
        session = BatchReleaseSession(rng=np.random.default_rng(1))
        results = session.release(self._mixed_requests())
        assert [r.group for r in results] == [f"g{i}" for i in range(20)]
        assert all(r.mechanism == "EM" for r in results[1::2])
        assert all(r.mechanism == "GM" for r in results[0::2])
        assert all(0 <= r.released <= 8 for r in results)
        assert session.stats.distinct_designs == 2

    def test_reproducible_with_seeded_generator(self):
        first = BatchReleaseSession(rng=np.random.default_rng(42))
        second = BatchReleaseSession(rng=np.random.default_rng(42))
        a = first.release(self._mixed_requests())
        b = second.release(self._mixed_requests())
        assert [r.released for r in a] == [r.released for r in b]

    def test_repeat_traffic_never_resolves_the_lp(self):
        session = BatchReleaseSession(rng=np.random.default_rng(0))
        counts = np.random.default_rng(1).integers(0, 7, size=100)
        session.release_counts(counts, n=6, alpha=0.95, properties="WH+CM")
        before = solve_call_count()
        for _ in range(5):
            session.release_counts(counts, n=6, alpha=0.95, properties="WH+CM")
        assert solve_call_count() == before

    def test_release_counts_matches_direct_apply_batch(self):
        session = BatchReleaseSession(rng=np.random.default_rng(9))
        counts = np.array([0, 3, 5, 2, 4])
        released = session.release_counts(counts, n=5, alpha=0.9, properties="F")
        mechanism = explicit_fair_mechanism(5, 0.9)
        expected = mechanism.apply_batch(counts, rng=np.random.default_rng(9))
        assert np.array_equal(released, expected)

    def test_empty_stream(self):
        session = BatchReleaseSession()
        assert session.release([]) == []

    def test_request_validates_count_range(self):
        with pytest.raises(ValueError):
            ReleaseRequest(group="g", count=9, n=8, alpha=0.9)

    def test_stats_payload_mentions_traffic(self):
        session = BatchReleaseSession(rng=np.random.default_rng(0))
        session.release_counts([1, 2, 3], n=4, alpha=0.8)
        payload = session.stats_payload()
        assert (payload["records"], payload["distinct_designs"]) == (3, 1)

    def test_histogram_via_session(self):
        session = BatchReleaseSession(rng=np.random.default_rng(4))
        hist = histogram_via_session(session, [3, 5, 2, 8, 0], alpha=0.9, properties="F")
        assert hist.num_buckets == 5
        assert hist.mechanism_name == "EM"
        assert hist.alpha == 0.9
        swapped = histogram_via_session(
            session, [3, 5, 2], alpha=0.9, neighbouring="swap"
        )
        assert swapped.alpha == pytest.approx(0.81)


# --------------------------------------------------------------------- #
# End-to-end reproducibility with a shared generator
# --------------------------------------------------------------------- #
class TestSharedGeneratorEndToEnd:
    def test_histogram_release_uses_instance_generator(self):
        kwargs = dict(mechanism_factory=repro.geometric_mechanism, alpha=0.9)
        first = repro.histogram.HistogramRelease(rng=np.random.default_rng(3), **kwargs)
        second = repro.histogram.HistogramRelease(rng=np.random.default_rng(3), **kwargs)
        counts = [4, 1, 7, 2]
        assert np.array_equal(
            first.release(counts).released_counts,
            second.release(counts).released_counts,
        )

    def test_call_level_rng_overrides_instance_rng(self):
        release = repro.histogram.HistogramRelease(
            repro.geometric_mechanism, 0.9, rng=np.random.default_rng(3)
        )
        counts = [4, 1, 7, 2]
        a = release.release(counts, rng=np.random.default_rng(11)).released_counts
        b = release.release(counts, rng=np.random.default_rng(11)).released_counts
        assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# LP solution serialisation
# --------------------------------------------------------------------- #
class TestLPSolutionSerialisation:
    def test_round_trip(self):
        from repro.core.constraints import build_mechanism_lp
        from repro.lp.solver import solve

        lp = build_mechanism_lp(n=3, alpha=0.8, properties=frozenset(),
                                objective=Objective.l0())
        solution = solve(lp.program)
        payload = json.loads(json.dumps(solution.to_dict()))
        restored = LPSolution.from_dict(payload)
        assert restored.status == solution.status
        assert restored.objective == pytest.approx(solution.objective)
        assert np.allclose(restored.values, solution.values)
        assert restored.by_name == pytest.approx(solution.by_name)


# --------------------------------------------------------------------- #
# serve-batch CLI
# --------------------------------------------------------------------- #
class TestServeBatchCommand:
    def test_homogeneous_batch(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["serve-batch", "--n", "8", "--alpha", "0.9", "--properties", "F",
             "--counts", "3", "5", "2", "--seed", "7", "--stats"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.isdigit()]) == 3
        assert "lp_solves=0" in out  # the F branch is explicit, no LP

    def test_mixed_requests_file_and_disk_cache(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.csv"
        requests.write_text(
            "group,count,n,alpha,properties\n"
            "nyc,3,8,0.9,F\n"
            "sf,5,8,0.9,F\n"
            "la,2,6,0.95,WH+CM\n"
        )
        cache_dir = tmp_path / "designs"
        arguments = ["serve-batch", "--requests-file", str(requests),
                     "--seed", "1", "--cache-dir", str(cache_dir), "--stats"]
        main(arguments)
        first = capsys.readouterr().out
        assert "nyc," in first and "la," in first
        assert "lp_solves=1" in first  # the WM design solved once

        main(arguments)
        second = capsys.readouterr().out
        assert "lp_solves=0" in second  # served from the on-disk cache
        # Same seed + same requests => identical released counts.
        strip = lambda text: [l for l in text.splitlines() if "," in l]
        assert strip(first) == strip(second)

    def test_output_file(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "released.txt"
        main(["serve-batch", "--n", "4", "--alpha", "0.8",
              "--counts", "1", "2", "--seed", "0", "--output", str(out_path)])
        assert len(out_path.read_text().splitlines()) == 2
        assert "wrote 2 released counts" in capsys.readouterr().out

    def test_validates_arguments(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve-batch", "--counts", "1"])  # missing n/alpha
        with pytest.raises(SystemExit):
            main(["serve-batch", "--n", "4", "--alpha", "0.8", "--counts", "9"])
        bad = tmp_path / "bad.csv"
        bad.write_text("onlyone\n")
        with pytest.raises(SystemExit):
            main(["serve-batch", "--requests-file", str(bad)])

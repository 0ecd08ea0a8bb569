"""The persistent plan registry: storage, recovery, concurrency, grid warming.

Covers the tentpole guarantees of :mod:`repro.serving.registry`:

* round-trip storage with per-row checksums and key verification;
* corrupt-row -> miss -> re-solve recovery parity with the old disk tier;
* schema versioning (a future registry is refused, not misread);
* one-time import of legacy loose ``design-*.json`` directories;
* concurrent multi-process readers during writes (WAL mode);
* crash-mid-write atomicity via the existing ``FaultInjector`` sites;
* the nearest-neighbour query on the alpha axis;
* design keys that stay byte-identical to registries already on disk;
* the ``repro-mechanisms warm`` grid precompiler and its zero-LP-solve
  serving guarantee after a process restart.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import pytest

from repro.cli import main
from repro.engine import faults
from repro.engine.faults import InjectedCrash
from repro.engine.plan import ReleasePlan
from repro.lp.solver import solve_call_count
from repro.serving import DesignCache, PlanRegistry, design_key, warm_grid
from repro.serving.registry import RegistryVersionError, parse_design_key
from repro.serving.warm import GridError, parse_grid


@pytest.fixture
def no_ambient_faults(monkeypatch):
    """Isolate a test from any externally set REPRO_FAULTS sweep."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _entry(key: str, payload: int = 0) -> dict:
    """A minimal well-formed registry entry (not materialisable, but stored)."""
    return {"key": key, "mechanism": {"i": payload}, "decision": {"i": payload}}


class TestPlanRegistry:
    def test_round_trip_and_contains(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            key = design_key(8, 0.9, properties="WH+CM")
            assert registry.get(key) is None
            registry.put(key, _entry(key, 7))
            assert key in registry
            assert len(registry) == 1
            assert registry.get(key) == _entry(key, 7)
            assert list(registry.keys()) == [key]

    def test_put_replaces(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            key = design_key(8, 0.9)
            registry.put(key, _entry(key, 1))
            registry.put(key, _entry(key, 2))
            assert len(registry) == 1
            assert registry.get(key)["mechanism"]["i"] == 2

    def test_corrupt_row_is_dropped_and_missed(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            key = design_key(8, 0.9)
            registry.put(key, _entry(key))
            registry.corrupt_row(key)
            assert registry.get(key) is None  # checksum mismatch -> miss
            assert registry.corrupt_rows == 1
            assert key not in registry  # and the bad row was deleted

    def test_row_with_wrong_key_is_a_miss(self, tmp_path):
        # Simulates a stale or mis-keyed row: payload verifies but records
        # a different key than the one it is stored under.
        with PlanRegistry(tmp_path) as registry:
            key = design_key(8, 0.9)
            other = design_key(9, 0.9)
            registry.put(key, _entry(key))
            with registry._conn:
                registry._conn.execute(
                    "UPDATE plans SET key = ? WHERE key = ?", (other, key)
                )
            assert registry.get(other) is None
            assert registry.corrupt_rows == 1

    def test_refuses_future_schema_version(self, tmp_path):
        PlanRegistry(tmp_path).close()
        conn = sqlite3.connect(str(tmp_path / "registry.sqlite"))
        with conn:
            conn.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(RegistryVersionError):
            PlanRegistry(tmp_path)

    def test_unparseable_key_is_refused(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            with pytest.raises(Exception):
                registry.put("not-a-design-key", _entry("not-a-design-key"))

    def test_clear_and_delete(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            for alpha in (0.8, 0.9):
                key = design_key(8, alpha)
                registry.put(key, _entry(key))
            registry.delete(design_key(8, 0.8))
            assert len(registry) == 1
            registry.clear()
            assert len(registry) == 0


#: ``design_key(12, 0.925, "WH+CM")`` as every earlier release wrote it.
#: Registries on disk are keyed by these bytes, so the key must not change.
PINNED_KEY = "n=12|alpha=0.925|props=CM+WH|obj=L0-default|backend=scipy"


class TestParseDesignKey:
    def test_round_trip(self):
        key = design_key(12, 0.925, properties="WH+CM")
        fields = parse_design_key(key)
        assert fields["n"] == 12
        assert fields["alpha"] == 0.925
        assert fields["props"] == "CM+WH"
        assert fields["backend"] == "scipy"

    def test_key_is_byte_identical_to_stored_registries(self):
        assert design_key(12, 0.925, "WH+CM") == PINNED_KEY

    def test_row_under_the_pinned_key_is_served_without_a_solve(self, tmp_path):
        # Store a real design under the literal key, then serve it from a
        # fresh cache: the lookup must hit that row, not re-solve.
        source = DesignCache(directory=tmp_path / "source")
        source.get_or_design(12, 0.925, properties="WH+CM")
        row = source.registry.get(PINNED_KEY)
        source.close()
        assert row is not None
        with PlanRegistry(tmp_path / "served") as registry:
            registry.put(PINNED_KEY, row)
        cache = DesignCache(directory=tmp_path / "served")
        before = solve_call_count()
        mechanism, _ = cache.get_or_design(12, 0.925, properties="CM+WH")
        assert solve_call_count() == before
        assert mechanism.metadata["design_cache"] == "disk"
        assert mechanism.metadata["design_cache_key"] == PINNED_KEY
        cache.close()

    def test_garbage_is_none(self):
        assert parse_design_key("garbage") is None
        assert parse_design_key("n=x|alpha=0.9|props=a|obj=b|backend=c") is None


class TestLegacyImport:
    def test_loose_json_imported_once_and_left_untouched(self, tmp_path):
        key = design_key(8, 0.9, properties="WH+CM")
        legacy = tmp_path / "design-0abc.json"
        legacy.write_text(json.dumps(_entry(key, 42)))
        broken = tmp_path / "design-dead.json"
        broken.write_text("{not json")  # skipped: was already a miss

        registry = PlanRegistry(tmp_path)
        assert registry.imported_legacy == 1
        assert registry.get(key) == _entry(key, 42)
        assert legacy.exists()  # loose files untouched (rollback-safe)
        registry.close()

        # The import is one-time: deleting the row and reopening does not
        # resurrect it from the loose file.
        registry = PlanRegistry(tmp_path)
        registry.delete(key)
        registry.close()
        registry = PlanRegistry(tmp_path)
        assert registry.get(key) is None
        assert registry.imported_legacy == 0
        registry.close()

    def test_legacy_cache_dir_serves_without_resolving(self, tmp_path):
        # End-to-end parity: a directory written by the old loose-file tier
        # keeps serving designs with zero LP solves through the registry.
        warm = DesignCache(directory=tmp_path / "fresh")
        warm.get_or_design(6, 0.9, properties="WH+CM")
        key = design_key(6, 0.9, properties="WH+CM")
        entry = warm.registry.get(key)
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        (legacy_dir / "design-1234.json").write_text(json.dumps(entry))

        cache = DesignCache(directory=legacy_dir)
        before = solve_call_count()
        mechanism, _ = cache.get_or_design(6, 0.9, properties="WH+CM")
        assert solve_call_count() == before
        assert mechanism.metadata["design_cache"] == "disk"
        assert cache.stats().imported_legacy == 1


def _reader_task(args):
    """Spawned reader: hammer get() while the parent writes."""
    directory, keys, rounds = args
    hits = 0
    with PlanRegistry(directory) as registry:
        for _ in range(rounds):
            for key in keys:
                entry = registry.get(key)
                if entry is not None:
                    assert entry["key"] == key  # never a partial row
                    hits += 1
    return hits


class TestConcurrency:
    def test_multiprocess_readers_during_writes(self, tmp_path):
        keys = [design_key(8, round(0.5 + 0.01 * i, 3)) for i in range(20)]
        PlanRegistry(tmp_path).close()  # create the schema first
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            result = pool.map_async(
                _reader_task, [(str(tmp_path), keys, 40)] * 2
            )
            with PlanRegistry(tmp_path) as registry:
                for key in keys:
                    registry.put(key, _entry(key))
            hits = result.get(timeout=120)
        # Readers ran concurrently with the writes and every row they saw
        # verified; by the end all rows are durably visible.
        with PlanRegistry(tmp_path) as registry:
            assert len(registry) == len(keys)
            assert all(registry.get(key) is not None for key in keys)
        assert all(h >= 0 for h in hits)

    def test_two_writers_do_not_corrupt(self, tmp_path):
        first = PlanRegistry(tmp_path)
        second = PlanRegistry(tmp_path)
        for i, registry in enumerate((first, second) * 5):
            key = design_key(8, round(0.5 + 0.01 * i, 3))
            registry.put(key, _entry(key, i))
        assert len(first) == 10
        assert all(first.get(key) is not None for key in first.keys())
        first.close()
        second.close()


@pytest.mark.usefixtures("no_ambient_faults")
class TestRegistryFaults:
    def test_torn_store_rolls_back(self, tmp_path):
        key = design_key(8, 0.9)
        with PlanRegistry(tmp_path) as registry:
            with faults.injected("torn_cache"):
                with pytest.raises(InjectedCrash):
                    registry.put(key, _entry(key))
        with PlanRegistry(tmp_path) as registry:
            assert registry.get(key) is None  # clean miss after the "crash"
            registry.put(key, _entry(key))
            assert registry.get(key) is not None

    def test_io_error_raises_oserror(self, tmp_path):
        key = design_key(8, 0.9)
        with PlanRegistry(tmp_path) as registry:
            with faults.injected("io_error:1.0"):
                with pytest.raises(OSError):
                    registry.put(key, _entry(key))
            assert key not in registry


class TestNearestNeighbour:
    def test_nearest_on_the_alpha_axis(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            for alpha in (0.5, 0.8, 0.95):
                key = design_key(8, alpha, properties="WH+CM")
                registry.put(key, _entry(key, int(alpha * 100)))
            hit = registry.nearest(8, "CM+WH", "L0-default", 0.9)
            assert hit is not None
            neighbour_alpha, entry = hit
            assert neighbour_alpha == 0.95
            assert entry["mechanism"]["i"] == 95

    def test_nearest_skips_corrupt_and_excluded(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            near = design_key(8, 0.91, properties="WH+CM")
            far = design_key(8, 0.7, properties="WH+CM")
            registry.put(near, _entry(near, 91))
            registry.put(far, _entry(far, 70))
            registry.corrupt_row(near)
            hit = registry.nearest(8, "CM+WH", "L0-default", 0.9)
            assert hit is not None and hit[0] == 0.7
            assert registry.corrupt_rows == 1
            # Excluding the only remaining row finds nothing.
            assert (
                registry.nearest(8, "CM+WH", "L0-default", 0.9, exclude_key=far)
                is None
            )

    def test_no_cross_group_neighbours(self, tmp_path):
        with PlanRegistry(tmp_path) as registry:
            other = design_key(16, 0.9, properties="WH+CM")
            registry.put(other, _entry(other))
            assert registry.nearest(8, "CM+WH", "L0-default", 0.9) is None


class TestCacheStats:
    def test_warm_counters_read_zero(self, tmp_path):
        # The stats schema keeps the LP warm-start counters; no solve is
        # warm-started, so a cold miss next to a cached neighbour reads 0.
        cache = DesignCache(directory=tmp_path)
        cache.get_or_design(8, 0.9, properties="WH+CM")
        cache.get_or_design(8, 0.95, properties="WH+CM")
        stats = cache.stats()
        assert stats.misses == 2
        assert (stats.warm_attempts, stats.warm_hits, stats.warm_fallbacks) == (0, 0, 0)

    def test_stats_after_close(self, tmp_path):
        # stats() must not touch the registry's (closed) connection.
        cache = DesignCache(directory=tmp_path)
        cache.get_or_design(8, 0.9, properties="WH+CM")
        cache.close()
        stats = cache.stats()
        assert (stats.misses, stats.size, stats.corrupt_rows) == (1, 1, 0)


class TestWarmGrid:
    def test_parse_grid(self):
        axes = parse_grid(["n=8,16", "alpha=0.9,0.95", "props=WH+CM,none"])
        assert axes == {
            "n": [8, 16],
            "alpha": [0.9, 0.95],
            "props": ["WH+CM", "none"],
        }
        with pytest.raises(GridError):
            parse_grid(["n=8"])  # missing alpha axis
        with pytest.raises(GridError):
            parse_grid(["n=8", "alpha=0.9", "bogus=1"])
        with pytest.raises(GridError):
            parse_grid(["n=eight", "alpha=0.9"])

    def test_warm_grid_fills_registry_and_is_idempotent(self, tmp_path):
        summary = warm_grid(tmp_path, ns=[6, 8], alphas=[0.9, 0.95])
        assert summary["grid_points"] == 4
        assert summary["solved"] == 4
        assert summary["skipped"] == 0
        again = warm_grid(tmp_path, ns=[6, 8], alphas=[0.9, 0.95])
        assert again["solved"] == 0
        assert again["skipped"] == 4

    def test_warmed_registry_serves_with_zero_solves(self, tmp_path):
        warm_grid(tmp_path, ns=[6], alphas=[0.9, 0.95])
        cache = DesignCache(directory=tmp_path)
        before = solve_call_count()
        for alpha in (0.9, 0.95):
            plan = ReleasePlan.compile(6, alpha, properties="WH+CM", cache=cache)
            descriptor = plan.descriptor()
            assert descriptor["n"] == 6
            assert descriptor["alpha"] == alpha
            assert descriptor["key"] in cache.registry
        assert solve_call_count() == before

    def test_warm_cli_round_trip(self, tmp_path, capsys):
        exit_code = main(
            [
                "warm",
                "--cache-dir",
                str(tmp_path),
                "--grid",
                "n=6",
                "alpha=0.9,0.95",
                "props=WH+CM",
                "--stats-json",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "2 solved" in captured.out
        summary = json.loads(captured.err.strip().splitlines()[-1])
        assert summary["command"] == "warm"
        assert summary["registry_entries"] == 2

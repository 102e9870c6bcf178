"""Unit tests for the on-disk simulation store (``repro.cache``)."""

import logging
import os
import pickle
import sqlite3
import time
from pathlib import Path

import pytest

from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskCache,
    cache_dir_summary,
    cache_stats_payload,
    canonical_key,
    parameters_fingerprint,
    prune_cache_dir,
)
from repro.cache import store as store_module
from repro.power.parameters import default_parameters


KEY = ((), "IVR", (4.0, 0.56))
OTHER_KEY = ((), "LDO", (4.0, 0.56))


def make_cache(tmp_path, namespace="test", fingerprint="fp") -> DiskCache:
    return DiskCache(tmp_path / "cache", namespace, fingerprint)


def get(cache: DiskCache, key):
    return cache.get_many([key])[0]


def put(cache: DiskCache, key, payload) -> int:
    return cache.put_many([key], [payload])


def set_payload(cache: DiskCache, key, blob) -> None:
    """Overwrite one row's payload behind the store's back."""
    with sqlite3.connect(cache.root / store_module.DB_NAME) as db:
        db.execute(
            "UPDATE entries SET payload = ? WHERE key = ?", (blob, canonical_key(key))
        )


def legacy_entry(root, namespace="sim", name="ab" * 32) -> Path:
    """A file the format-1 store would have written, inside its shard dir."""
    shard = root / namespace / name[:2]
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / f"{name}.pkl"
    path.write_bytes(pickle.dumps({"format": 1}))
    return path


class TestGetPut:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert get(cache, KEY) is None
        assert put(cache, KEY, {"value": 42}) == 1
        assert get(cache, KEY) == {"value": 42}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.entries == 1
        assert stats.size_bytes > 0

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.put_many([KEY, OTHER_KEY], ["a", "b"]) == 2
        assert cache.get_many([OTHER_KEY, KEY, ((), "MBVR", ())]) == ["b", "a", None]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)  # one count per key

    def test_payload_round_trips_fresh_objects(self, tmp_path):
        cache = make_cache(tmp_path)
        payload = {"nested": [1.5, "x"]}
        put(cache, KEY, payload)
        first = get(cache, KEY)
        second = get(cache, KEY)
        assert first == payload
        assert first is not payload
        assert first is not second  # unpickled per get: no shared mutable state

    def test_put_leaves_no_lock_litter(self, tmp_path):
        cache = make_cache(tmp_path)
        put(cache, KEY, 1)
        put(cache, OTHER_KEY, 2)
        names = {path.name for path in cache.root.iterdir()}
        assert names <= {"cache.sqlite3", "cache.sqlite3-wal", "cache.sqlite3-shm"}

    def test_overwrite_same_key(self, tmp_path):
        cache = make_cache(tmp_path)
        put(cache, KEY, "old")
        put(cache, KEY, "new")
        assert get(cache, KEY) == "new"
        assert cache.stats().entries == 1

    def test_hit_rate(self, tmp_path):
        cache = make_cache(tmp_path)
        get(cache, KEY)
        put(cache, KEY, 1)
        get(cache, KEY)
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_unpicklable_payload_degrades_to_noop(self, tmp_path):
        cache = make_cache(tmp_path)
        # Local lambdas cannot pickle; the picklable neighbour still lands.
        assert cache.put_many([KEY, OTHER_KEY], [lambda: None, 2]) == 1
        assert cache.get_many([KEY, OTHER_KEY]) == [None, 2]
        assert cache.stats().writes == 1

    def test_batch_larger_than_one_query_chunk(self, tmp_path):
        """Lookups are split under SQLite's host-parameter limit, in order."""
        cache = make_cache(tmp_path)
        count = 2 * store_module._QUERY_CHUNK + 7
        keys = [("unit", index) for index in range(count)]
        assert cache.put_many(keys, range(count)) == count
        probe = keys[::-1] + [("unit", -1)]
        assert cache.get_many(probe) == list(range(count))[::-1] + [None]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (count, 1, count)

    def test_duplicate_keys_in_one_batch(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.put_many([KEY, KEY], ["first", "second"]) == 2
        assert cache.stats().entries == 1  # the later write replaced the first
        first, second, missing = cache.get_many([KEY, KEY, OTHER_KEY])
        assert first == second == "second"
        assert first is not second  # each position unpickles its own copy
        assert missing is None
        assert (cache.stats().hits, cache.stats().misses) == (2, 1)

    def test_empty_batches_are_noops(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get_many([]) == []
        assert cache.put_many([], []) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes, stats.entries) == (0, 0, 0, 0)

    def test_database_runs_in_wal_mode(self, tmp_path):
        """Readers must never block on a writer (the daemon's threads)."""
        cache = make_cache(tmp_path)
        put(cache, KEY, 1)
        with sqlite3.connect(cache.root / store_module.DB_NAME) as db:
            assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)


class TestInvalidation:
    """Stale rows are invisible, never served."""

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        put(make_cache(tmp_path, fingerprint="old"), KEY, "stale")
        fresh = make_cache(tmp_path, fingerprint="new")
        assert get(fresh, KEY) is None
        assert fresh.stats().corrupt == 0  # row key differs: a clean miss

    def test_version_bump_is_a_miss(self, tmp_path, monkeypatch):
        put(make_cache(tmp_path), KEY, f"v{CACHE_FORMAT_VERSION}")
        monkeypatch.setattr(store_module, "CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION + 1)
        bumped = make_cache(tmp_path)
        assert get(bumped, KEY) is None
        assert bumped.stats().corrupt == 0

    def test_namespace_isolation(self, tmp_path):
        put(make_cache(tmp_path, namespace="sim"), KEY, "sim result")
        assert get(make_cache(tmp_path, namespace="other"), KEY) is None

    def test_parameters_fingerprint_tracks_any_field(self):
        base = default_parameters()
        assert parameters_fingerprint(base) == parameters_fingerprint(
            default_parameters()
        )
        perturbed = base.with_overrides(ivr_tolerance_band_v=0.021)
        assert parameters_fingerprint(base) != parameters_fingerprint(perturbed)


class TestCorruption:
    """Corrupted rows and files are logged misses, never exceptions."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"garbage bytes that are not a pickle at all",
            "a TEXT value where a pickle BLOB belongs",
        ],
        ids=["empty", "garbage", "wrong-shape"],
    )
    def test_garbage_entry_is_a_miss(self, tmp_path, blob, caplog):
        cache = make_cache(tmp_path)
        put(cache, KEY, "good")
        set_payload(cache, KEY, blob)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert get(cache, KEY) is None
        assert "discarding row" in caplog.text
        stats = cache.stats()
        assert stats.corrupt == 1
        assert stats.misses == 1
        assert stats.entries == 0  # self-healed: the bad row is gone

    def test_truncated_entry_is_a_miss_and_recompute_heals(self, tmp_path):
        cache = make_cache(tmp_path)
        put(cache, KEY, {"value": 7})
        set_payload(cache, KEY, pickle.dumps({"value": 7})[:-3])  # a torn payload
        assert get(cache, KEY) is None  # never raises
        put(cache, KEY, {"value": 7})  # the caller recomputes and re-stores
        assert get(cache, KEY) == {"value": 7}

    def test_discard_heals_a_rejected_row(self, tmp_path):
        """The engine-side type check reports wrong payloads through discard."""
        cache = make_cache(tmp_path)
        put(cache, KEY, {"not": "the expected type"})
        assert get(cache, KEY) is not None
        cache.discard(KEY, "payload is dict, expected SimulationResult")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
        assert stats.entries == 0
        assert get(cache, KEY) is None

    def test_non_database_file_is_recreated(self, tmp_path, caplog):
        root = tmp_path / "cache"
        root.mkdir()
        (root / store_module.DB_NAME).write_bytes(b"not a database " * 20)
        cache = DiskCache(root, "test", "fp")
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert get(cache, KEY) is None
        assert "recreating" in caplog.text
        assert put(cache, KEY, 1) == 1
        assert get(cache, KEY) == 1

    def test_heal_spares_a_row_rewritten_concurrently(self, tmp_path, monkeypatch):
        """A corrupt row another writer replaced before the heal survives it."""
        cache = make_cache(tmp_path)
        put(cache, KEY, "good")
        set_payload(cache, KEY, b"torn")
        writer = make_cache(tmp_path)
        real_loads = pickle.loads

        def loads_then_race(blob):
            if blob == b"torn":
                put(writer, KEY, "rewritten")  # lands between read and heal
            return real_loads(blob)

        monkeypatch.setattr(store_module.pickle, "loads", loads_then_race)
        assert get(cache, KEY) is None
        monkeypatch.undo()
        assert cache.stats().corrupt == 1
        assert get(cache, KEY) == "rewritten"

    def test_sqlite_errors_degrade_to_noop(self, tmp_path, monkeypatch, caplog):
        def refuse(path):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(store_module, "_connect", refuse)
        cache = make_cache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert put(cache, KEY, 1) == 0
            assert get(cache, KEY) is None
            cache.discard(KEY, "rejected")
        assert "cannot write" in caplog.text and "cannot read" in caplog.text
        assert "cannot delete" in caplog.text
        stats = cache.stats()
        assert (stats.writes, stats.hits, stats.entries) == (0, 0, 0)
        monkeypatch.undo()  # the next batch retries the connection
        assert put(cache, KEY, 1) == 1
        assert get(cache, KEY) == 1

    def test_unreadable_root_degrades_to_noop(self, tmp_path):
        (tmp_path / "file-not-dir").write_text("i am a file")
        cache = DiskCache(tmp_path / "file-not-dir", "n", "f")
        assert put(cache, KEY, 1) == 0  # cannot create a directory at a file
        assert get(cache, KEY) is None
        assert cache.stats().entries == 0
        assert (tmp_path / "file-not-dir").read_text() == "i am a file"


class TestPrune:
    def test_prune_all(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_many([KEY, OTHER_KEY], [1, 2])
        assert prune_cache_dir(cache.root) == 2
        assert cache.stats().entries == 0
        assert get(cache, KEY) is None

    def test_prune_older_than_keeps_fresh_entries(self, tmp_path, monkeypatch):
        cache = make_cache(tmp_path)
        now = time.time()
        monkeypatch.setattr(store_module.time, "time", lambda: now - 7200.0)
        put(cache, KEY, "old")
        monkeypatch.setattr(store_module.time, "time", lambda: now)
        put(cache, OTHER_KEY, "fresh")
        assert prune_cache_dir(cache.root, older_than_s=3600.0) == 1
        assert cache.get_many([KEY, OTHER_KEY]) == [None, "fresh"]

    def test_prune_missing_directory_is_zero(self, tmp_path):
        assert prune_cache_dir(tmp_path / "absent") == 0

    def test_prune_removes_old_format_entries(self, tmp_path):
        root = tmp_path / "cache"
        entry = legacy_entry(root)
        (entry.parent / f"{entry.stem}.lock").write_bytes(b"")
        assert cache_dir_summary(root) == {}  # never read or counted
        assert prune_cache_dir(root) == 1
        assert not entry.parent.exists()  # the emptied shard went too

    def test_prune_older_than_applies_to_old_format_entries(self, tmp_path):
        root = tmp_path / "cache"
        stale = legacy_entry(root, name="ab" * 32)
        fresh = legacy_entry(root, name="cd" * 32)
        hour_ago = time.time() - 3600.0
        os.utime(stale, (hour_ago, hour_ago))
        assert prune_cache_dir(root, older_than_s=600.0) == 1
        assert not stale.exists()
        assert fresh.exists()

    def test_prune_skips_directories_that_are_not_shards(self, tmp_path):
        """Only two-hex shard directories held format-1 entries."""
        root = tmp_path / "cache"
        for shard in ("zz", "abc", "A1"):
            (root / "sim" / shard).mkdir(parents=True)
            (root / "sim" / shard / "entry.pkl").write_bytes(b"not ours")
        assert prune_cache_dir(root) == 0
        for shard in ("zz", "abc", "A1"):
            assert (root / "sim" / shard / "entry.pkl").exists(), shard

    def test_prune_never_touches_foreign_files(self, tmp_path):
        """A mistyped --cache-dir must not delete the user's files."""
        cache = make_cache(tmp_path)
        put(cache, KEY, 1)
        root = cache.root
        legacy = legacy_entry(root)
        # Foreign files at every level a buggy prune could reach, including
        # inside old-format namespace and shard directories.
        (root / "notes.txt").write_text("keep me")
        (root / "sim" / "report.csv").write_text("keep me too")
        (legacy.parent / "data.json").write_text("also keep")
        (root / "photos" / "cd").mkdir(parents=True)
        (root / "photos" / "cd" / "holiday.jpg").write_text("keep")
        assert prune_cache_dir(root) == 2  # the row and the old-format entry
        assert not legacy.exists()
        for kept in ("notes.txt", "sim/report.csv", f"sim/{legacy.parent.name}/data.json",
                     "photos/cd/holiday.jpg"):
            assert (root / kept).exists(), kept

    def test_directory_helpers(self, tmp_path):
        root = tmp_path / "cache"
        put(DiskCache(root, "a", "f"), KEY, 1)
        put(DiskCache(root, "b", "f"), KEY, 2)
        summary = cache_dir_summary(root)
        assert set(summary) == {"a", "b"}
        assert summary["a"][0] == 1 and summary["a"][1] > 0
        assert prune_cache_dir(root) == 2
        assert cache_dir_summary(root) == {}
        assert cache_dir_summary(tmp_path / "absent") == {}

    def test_summary_ignores_foreign_directories(self, tmp_path):
        """`repro cache stats` on a mistyped root must not render the
        user's unrelated folders as cache namespaces."""
        root = tmp_path / "cache"
        put(DiskCache(root, "real", "f"), KEY, 1)
        (root / "photos").mkdir()
        (root / "photos" / "holiday.jpg").write_text("not a cache")
        legacy_entry(root, namespace="pdnspot")
        assert set(cache_dir_summary(root)) == {"real"}


class TestIoInstruments:
    """The process-wide disk I/O section of ``repro cache stats``."""

    def test_get_and_put_observe_one_sample_per_batch(self, tmp_path):
        cache = make_cache(tmp_path)
        keys = [("unit", index) for index in range(25)]
        before = cache_stats_payload(cache.root)["io"]
        cache.put_many(keys, range(25))
        cache.get_many(keys)
        after = cache_stats_payload(cache.root)["io"]
        assert after["put"]["count"] == before["put"]["count"] + 1
        assert after["get"]["count"] == before["get"]["count"] + 1

    def test_self_heal_counts_each_discarded_row(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put_many([KEY, OTHER_KEY], ["a", "b"])
        set_payload(cache, KEY, b"torn")
        before = cache_stats_payload(cache.root)["io"]["self_heal"]
        assert cache.get_many([KEY, OTHER_KEY]) == [None, "b"]
        cache.discard(OTHER_KEY, "rejected by the caller")
        assert cache_stats_payload(cache.root)["io"]["self_heal"] == before + 2
        assert cache_stats_payload(cache.root)["namespaces"] == {}


class TestCanonicalKey:
    def test_dict_order_does_not_matter(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_container_types_are_distinguished(self):
        values = [(1, 2), [1, 2], {1: 2}, "(ated)"]
        encodings = {canonical_key(value) for value in values}
        assert len(encodings) == len(values)

    def test_engine_shaped_keys_are_stable(self):
        from repro.analysis.pdnspot import PdnSpot
        from repro.pdn.base import OperatingConditions
        from repro.power.domains import WorkloadType

        def build_key():
            conditions = OperatingConditions.for_active_workload(
                4.0, 0.56, WorkloadType.CPU_MULTI_THREAD
            )
            return PdnSpot().cache_key("IVR", conditions, ())

        assert canonical_key(build_key()) == canonical_key(build_key())


class TestResolve:
    def test_tilde_root_expands_to_home(self, monkeypatch, tmp_path):
        """The docs' `~/.cache/...` spelling must not create a literal ./~."""
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = DiskCache("~/cache", "n", "f")
        assert cache.root == tmp_path / "cache"
        put(cache, KEY, 1)
        assert cache_dir_summary("~/cache") == cache_dir_summary(cache.root)
        assert prune_cache_dir("~/cache") == 1

    def test_prebuilt_store_is_not_a_root(self, tmp_path):
        """Paths only: a store cannot be wrapped in another store."""
        with pytest.raises(TypeError, match="DiskCache"):
            DiskCache(make_cache(tmp_path), "sim", "fp")


class TestGoldenAddresses:
    """A row's address is its key: a cross-version contract, since a
    directory warmed by one release must keep serving the next.  Any change
    to how the simulation engine builds memo keys, or to how
    ``canonical_key`` renders them, moves this pinned row key (its canonical
    text is the one the format-1 store hashed into its file names)."""

    SIM = (
        "sim",
        2,
        "cfb54081e0f37eb6",
        "((),'FlexWatts',SimPoint(scenario='bursty-interactive',tdp_w=18.0,"
        "seed=7,trace_period_s=1.0,overrides=()),('trace','dd31ace004865ac8'))",
    )

    def test_sim_unit_address(self, tmp_path):
        from repro.sim.study import SimEngine, SimPoint

        engine = SimEngine(disk_cache=tmp_path)
        engine.evaluate("FlexWatts", SimPoint("bursty-interactive", 18.0, seed=7))
        with sqlite3.connect(tmp_path / store_module.DB_NAME) as db:
            rows = db.execute(
                "SELECT namespace, version, fingerprint, key FROM entries"
            ).fetchall()
        assert rows == [self.SIM]


class TestLegacySimEntries:
    def test_entry_with_list_records_loads_read_only(self, tmp_path):
        """Simulation results written before results were read-only pickle
        ``phase_records`` as a list; they must still be served, as a tuple."""
        from repro.sim.engine import SimulationResult
        from repro.sim.study import SimEngine, SimPoint

        point = SimPoint("race-to-idle", 18.0, seed=3)
        fresh = SimEngine(enable_cache=False).evaluate_uncached("IVR", point)
        legacy = object.__new__(SimulationResult)
        legacy.__dict__.update(fresh.__dict__, phase_records=list(fresh.phase_records))
        writer = SimEngine(disk_cache=tmp_path)
        key = writer.cache_key("IVR", point)
        assert writer.disk_cache.put_many([writer._disk_key(key)], [legacy]) == 1

        reader = SimEngine(disk_cache=tmp_path)
        loaded = reader.evaluate("IVR", point)
        assert reader.cache_info().hits == 1
        assert isinstance(loaded.phase_records, tuple)
        assert loaded == fresh

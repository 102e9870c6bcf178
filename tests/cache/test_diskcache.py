"""Unit tests for the on-disk evaluation store (``repro.cache``)."""

import pickle

import pytest

from repro.cache import (
    CACHE_FORMAT_VERSION,
    DiskCache,
    cache_dir_summary,
    canonical_key,
    parameters_fingerprint,
    prune_cache_dir,
    resolve_disk_cache,
)
from repro.power.parameters import default_parameters
from repro.util.errors import ConfigurationError


KEY = ((), "IVR", (4.0, 0.56))
OTHER_KEY = ((), "LDO", (4.0, 0.56))


def make_cache(tmp_path, **kwargs) -> DiskCache:
    kwargs.setdefault("namespace", "test")
    kwargs.setdefault("fingerprint", "fp")
    return DiskCache(tmp_path / "cache", **kwargs)


class TestGetPut:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.put(KEY, {"value": 42})
        assert cache.get(KEY) == {"value": 42}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.entries == 1
        assert stats.size_bytes > 0

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, "a")
        cache.put(OTHER_KEY, "b")
        assert cache.get(KEY) == "a"
        assert cache.get(OTHER_KEY) == "b"

    def test_payload_round_trips_fresh_objects(self, tmp_path):
        cache = make_cache(tmp_path)
        payload = {"nested": [1.5, "x"]}
        cache.put(KEY, payload)
        first = cache.get(KEY)
        second = cache.get(KEY)
        assert first == payload
        assert first is not payload
        assert first is not second  # unpickled per get: no shared mutable state

    def test_put_leaves_no_lock_litter(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, 1)
        cache.put(OTHER_KEY, 2)
        shard_files = list((cache.root / "test").glob("*/*"))
        assert [path.suffix for path in shard_files] == [".pkl", ".pkl"]

    def test_overwrite_same_key(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, "old")
        cache.put(KEY, "new")
        assert cache.get(KEY) == "new"
        assert cache.stats().entries == 1

    def test_hit_rate(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.get(KEY)
        cache.put(KEY, 1)
        cache.get(KEY)
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_unpicklable_payload_degrades_to_noop(self, tmp_path):
        cache = make_cache(tmp_path)
        assert not cache.put(KEY, lambda: None)  # local lambdas cannot pickle
        assert cache.get(KEY) is None
        assert cache.stats().writes == 0


class TestInvalidation:
    """Stale entries are invisible, never served."""

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        make_cache(tmp_path, fingerprint="old").put(KEY, "stale")
        fresh = make_cache(tmp_path, fingerprint="new")
        assert fresh.get(KEY) is None
        assert fresh.stats().corrupt == 0  # address differs: a clean miss

    def test_version_bump_is_a_miss(self, tmp_path):
        make_cache(tmp_path, version=CACHE_FORMAT_VERSION).put(KEY, "v1")
        bumped = make_cache(tmp_path, version=CACHE_FORMAT_VERSION + 1)
        assert bumped.get(KEY) is None

    def test_namespace_isolation(self, tmp_path):
        make_cache(tmp_path, namespace="sim").put(KEY, "sim result")
        assert make_cache(tmp_path, namespace="pdnspot").get(KEY) is None

    def test_parameters_fingerprint_tracks_any_field(self):
        base = default_parameters()
        assert parameters_fingerprint(base) == parameters_fingerprint(
            default_parameters()
        )
        perturbed = base.with_overrides(ivr_tolerance_band_v=0.021)
        assert parameters_fingerprint(base) != parameters_fingerprint(perturbed)

    def test_version_mismatched_header_treated_as_corrupt_miss(self, tmp_path):
        """A crafted entry whose *header* disagrees is detected and healed."""
        cache = make_cache(tmp_path)
        cache.put(KEY, "good")
        path = cache.entry_path(KEY)
        entry = pickle.loads(path.read_bytes())
        entry["format"] = CACHE_FORMAT_VERSION + 7
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(KEY) is None
        assert cache.stats().corrupt == 1
        assert not path.exists()  # self-healed: bad entry removed


class TestCorruption:
    """Corrupted entries are logged misses, never exceptions (satellite)."""

    @pytest.mark.parametrize(
        "blob",
        [
            b"",  # empty file
            b"garbage bytes that are not a pickle at all",
            pickle.dumps(["not", "a", "dict"]),  # valid pickle, wrong shape
            pickle.dumps({"format": CACHE_FORMAT_VERSION}),  # missing fields
        ],
        ids=["empty", "garbage", "wrong-shape", "missing-fields"],
    )
    def test_garbage_entry_is_a_miss(self, tmp_path, blob):
        cache = make_cache(tmp_path)
        cache.put(KEY, "good")
        cache.entry_path(KEY).write_bytes(blob)
        assert cache.get(KEY) is None
        stats = cache.stats()
        assert stats.corrupt == 1
        assert stats.misses == 1

    def test_truncated_entry_is_a_miss_and_recompute_heals(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, {"value": 7})
        path = cache.entry_path(KEY)
        path.write_bytes(path.read_bytes()[:-10])  # simulate a torn write
        assert cache.get(KEY) is None  # never raises
        cache.put(KEY, {"value": 7})  # the caller recomputes and re-stores
        assert cache.get(KEY) == {"value": 7}

    def test_unreadable_root_degrades_to_noop(self, tmp_path):
        cache = DiskCache(tmp_path / "file-not-dir", namespace="n", fingerprint="f")
        (tmp_path / "file-not-dir").write_text("i am a file")
        assert not cache.put(KEY, 1)  # cannot mkdir below a file
        assert cache.get(KEY) is None


class TestPrune:
    def test_prune_all(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, 1)
        cache.put(OTHER_KEY, 2)
        assert cache.prune() == 2
        assert cache.stats().entries == 0
        assert cache.get(KEY) is None

    def test_prune_older_than_keeps_fresh_entries(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(KEY, 1)
        assert cache.prune(older_than_s=3600.0) == 0
        assert cache.get(KEY) == 1

    def test_prune_missing_directory_is_zero(self, tmp_path):
        assert make_cache(tmp_path).prune() == 0

    def test_prune_never_touches_foreign_files(self, tmp_path):
        """A mistyped --cache-dir must not delete the user's files."""
        cache = make_cache(tmp_path)
        cache.put(KEY, 1)
        root = cache.root
        # Foreign files at every level a buggy prune could reach.
        (root / "test" / "notes.txt").write_text("keep me")
        (root / "test" / "ab").mkdir(exist_ok=True)
        (root / "test" / "ab" / "data.json").write_text("keep me too")
        shard = next(path for path in (root / "test").iterdir() if len(path.name) == 2 and path.is_dir() and list(path.glob("*.pkl")))
        (shard / "report.csv").write_text("also keep")
        assert prune_cache_dir(root) == 1  # only the one real entry
        assert (root / "test" / "notes.txt").exists()
        assert (root / "test" / "ab" / "data.json").exists()
        assert (shard / "report.csv").exists()

    def test_directory_helpers(self, tmp_path):
        root = tmp_path / "cache"
        DiskCache(root, namespace="a", fingerprint="f").put(KEY, 1)
        DiskCache(root, namespace="b", fingerprint="f").put(KEY, 2)
        summary = cache_dir_summary(root)
        assert set(summary) == {"a", "b"}
        assert summary["a"][0] == 1 and summary["a"][1] > 0
        assert prune_cache_dir(root) == 2
        assert cache_dir_summary(root) == {"a": (0, 0), "b": (0, 0)}
        assert prune_cache_dir(tmp_path / "absent") == 0

    def test_summary_ignores_foreign_directories(self, tmp_path):
        """`repro cache stats` on a mistyped root must not render the
        user's unrelated folders as cache namespaces."""
        root = tmp_path / "cache"
        DiskCache(root, namespace="real", fingerprint="f").put(KEY, 1)
        (root / "photos").mkdir()
        (root / "photos" / "holiday.jpg").write_text("not a cache")
        summary = cache_dir_summary(root)
        assert set(summary) == {"real"}


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
    def test_none_stays_none(self):
        assert resolve_disk_cache(None, "n", "f") is None

    def test_tilde_root_expands_to_home(self, monkeypatch, tmp_path):
        """The docs' `~/.cache/...` spelling must not create a literal ./~."""
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = DiskCache("~/cache", namespace="n", fingerprint="f")
        assert cache.root == tmp_path / "cache"
        cache.put(KEY, 1)
        from repro.cache import cache_dir_summary

        assert cache_dir_summary("~/cache") == {"n": cache_dir_summary(cache.root)["n"]}
        assert prune_cache_dir("~/cache") == 1

    def test_path_builds_store(self, tmp_path):
        cache = resolve_disk_cache(tmp_path, "n", "f")
        assert isinstance(cache, DiskCache)
        assert cache.namespace == "n" and cache.fingerprint == "f"

    def test_instance_with_explicit_fingerprint_passes_through(self, tmp_path):
        cache = make_cache(tmp_path)  # fingerprint="fp": an expert override
        assert resolve_disk_cache(cache, "other", "other") is cache

    def test_instance_without_fingerprint_is_bound_in_place(self, tmp_path):
        """An unfingerprinted prebuilt store must not dodge invalidation --
        and the caller's instance must keep recording traffic."""
        bare = DiskCache(tmp_path / "cache", namespace="mine")
        resolved = resolve_disk_cache(bare, "ignored", "engine-fp")
        assert resolved is bare  # same object: stats() stays meaningful
        assert resolved.fingerprint == "engine-fp"
        assert resolved.namespace == "mine"  # the caller's namespace survives

    def test_explicit_empty_fingerprint_survives_bind(self, tmp_path):
        """fingerprint=\"\" is the expert 'no fingerprinting' choice, not unset."""
        store = DiskCache(tmp_path / "cache", fingerprint="")
        resolved = resolve_disk_cache(store, "pdnspot", "engine-fp")
        assert resolved is store
        assert resolved.fingerprint == ""

    def test_fully_bare_instance_adopts_engine_namespace(self, tmp_path):
        bare = DiskCache(tmp_path / "cache")
        resolved = resolve_disk_cache(bare, "sim", "engine-fp")
        assert resolved is bare
        assert resolved.namespace == "sim"
        assert resolved.fingerprint == "engine-fp"

    def test_bare_instance_rejects_conflicting_second_engine(self, tmp_path):
        bare = DiskCache(tmp_path / "cache")
        resolve_disk_cache(bare, "pdnspot", "fp-one")
        # Re-binding with the same identity is idempotent ...
        assert resolve_disk_cache(bare, "pdnspot", "fp-one") is bare
        # ... but a conflicting engine identity must not silently share.
        with pytest.raises(ConfigurationError, match="conflicting"):
            resolve_disk_cache(bare, "pdnspot", "fp-two")
        with pytest.raises(ConfigurationError, match="conflicting"):
            resolve_disk_cache(bare, "sim", "fp-one")


class TestGoldenAddresses:
    """Disk addresses are a cross-version contract: a directory warmed by
    one release must keep serving the next.  Any change to how the engines
    build memo keys, or to how ``canonical_key`` renders them, moves these
    pinned paths."""

    ACTIVE = "pdnspot/cb/cb091a57939650417169dccccb3a1c20b892a17583b304219b841b72b69e2ff3.pkl"
    C8_OVERRIDE = "pdnspot/ce/cee45b35bb2360c21d8193d21df8f3ab5512c5da57966501277a0e0df943ee02.pkl"
    SIM = "sim/94/942b4bcfe5759102317c4ded4e0378cb665e7d34c6a8d8f942ea8adee4190a91.pkl"

    def test_pdnspot_unit_addresses(self, tmp_path):
        from repro.analysis.pdnspot import PdnSpot
        from repro.pdn.base import OperatingConditions
        from repro.power.domains import WorkloadType
        from repro.power.power_states import PackageCState

        spot = PdnSpot(disk_cache=tmp_path)
        units = [
            (
                OperatingConditions.for_active_workload(
                    18.0, 0.56, WorkloadType.CPU_MULTI_THREAD
                ),
                (),
                self.ACTIVE,
            ),
            (
                OperatingConditions.for_power_state(4.0, PackageCState.C8),
                (("ivr_tolerance_band_v", 0.02),),
                self.C8_OVERRIDE,
            ),
        ]
        for conditions, overrides, golden in units:
            key = spot.cache_key("FlexWatts", conditions, overrides)
            assert spot.disk_cache.entry_path(key) == tmp_path / golden
            spot.evaluate("FlexWatts", conditions, overrides)
            assert (tmp_path / golden).is_file()

    def test_sim_unit_address(self, tmp_path):
        from repro.sim.study import SimEngine, SimPoint

        engine = SimEngine(disk_cache=tmp_path)
        point = SimPoint("bursty-interactive", 18.0, seed=7)
        engine.evaluate("FlexWatts", point)
        assert (tmp_path / self.SIM).is_file()


class TestLegacySimEntries:
    def test_entry_with_list_records_loads_read_only(self, tmp_path):
        """Simulation entries written before results were read-only pickle
        ``phase_records`` as a list; they must still be served, as a tuple."""
        from repro.sim.engine import SimulationResult
        from repro.sim.study import SimEngine, SimPoint

        point = SimPoint("race-to-idle", 18.0, seed=3)
        fresh = SimEngine(enable_cache=False).evaluate_uncached("IVR", point)
        legacy = object.__new__(SimulationResult)
        legacy.__dict__.update(fresh.__dict__, phase_records=list(fresh.phase_records))
        writer = SimEngine(disk_cache=tmp_path)
        key = writer.cache_key("IVR", point)
        assert writer.disk_cache.put(writer._disk_key(key), legacy)

        reader = SimEngine(disk_cache=tmp_path)
        loaded = reader.evaluate("IVR", point)
        assert reader.cache_info().hits == 1
        assert isinstance(loaded.phase_records, tuple)
        assert loaded == fresh

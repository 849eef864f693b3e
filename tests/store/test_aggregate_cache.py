"""Downsampled aggregates and the per-shard cache."""

import pytest

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store import Reading, ShardedStore, window_index

TABLES = ("bpm",)
LOC = "R00-M0-N00"


def _store_with(samples):
    store = ShardedStore(TABLES)
    for t, location, watts in samples:
        store.ingest("bpm", Reading(t, location, "envdb",
                                    {"input_power_w": watts}))
    return store


class TestWindowIndex:
    def test_floor_semantics(self):
        assert window_index(0.0, 60.0) == 0
        assert window_index(59.9, 60.0) == 0
        assert window_index(60.0, 60.0) == 1
        assert window_index(-0.1, 60.0) == -1


class TestAggregateValues:
    def test_min_mean_max_per_location_window(self):
        store = _store_with([
            (10.0, LOC, 100.0),
            (20.0, LOC, 300.0),
            (70.0, LOC, 50.0),           # next 60 s window
            (15.0, "R01-M0-N00", 40.0),  # other location, same window
        ])
        aggs = store.aggregate("bpm", "input_power_w", 0.0, 120.0, 60.0)
        by_key = {(a.location, a.window_start): a for a in aggs}
        first = by_key[(LOC, 0.0)]
        assert (first.count, first.minimum, first.maximum) == (2, 100.0, 300.0)
        assert first.mean == pytest.approx(200.0)
        assert first.window_end == 60.0
        assert by_key[(LOC, 60.0)].count == 1
        assert by_key[("R01-M0-N00", 0.0)].maximum == 40.0
        # Deterministic order: window start, then location.
        assert [(a.window_start, a.location) for a in aggs] == \
            sorted((a.window_start, a.location) for a in aggs)

    def test_prefix_and_window_selection(self):
        store = _store_with([
            (10.0, LOC, 1.0), (70.0, LOC, 2.0), (10.0, "R01-M0-N00", 3.0),
        ])
        aggs = store.aggregate("bpm", "input_power_w", 60.0, 120.0, 60.0,
                               location_prefix="R00")
        assert [(a.location, a.window_start) for a in aggs] == [(LOC, 60.0)]

    def test_records_missing_the_field_are_skipped(self):
        store = ShardedStore(TABLES)
        store.ingest("bpm", Reading(5.0, LOC, "envdb", {"other": 1.0}))
        assert store.aggregate("bpm", "other", 0.0, 60.0, 60.0)[0].count == 1
        assert store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0) == []

    def test_window_must_be_positive(self):
        store = _store_with([(10.0, LOC, 1.0)])
        with pytest.raises(ConfigError, match="window must be positive"):
            store.aggregate("bpm", "input_power_w", 0.0, 60.0, 0.0)


class TestSelect:
    def test_sparse_walk_matches_every_window_walk(self):
        """Spans wider than a location's populated windows walk those
        windows; the rows and their order match a walk of every index
        in the span."""
        import random

        from repro.store.aggregate import Aggregate, AggregateCache

        rng = random.Random(3)
        samples = [(rng.uniform(0.0, 500.0), f"R0{rng.randrange(3)}-M0",
                    rng.uniform(0.0, 9.0)) for _ in range(300)]
        store = _store_with(samples)
        records = store.range("bpm", 0.0, 500.0)
        for window in (0.01, 0.5, 7.0, 60.0, 1000.0):
            built = store._shards[0].cache.windows(
                "bpm", "input_power_w", window, records)
            for t0, t1 in ((0.0, 500.0), (42.0, 42.5), (130.0, 377.0),
                           (600.0, 700.0)):
                lo, hi = window_index(t0, window), window_index(t1, window)
                reference = [
                    Aggregate(loc, "input_power_w", idx * window, window,
                              int(acc[0]), acc[1], acc[2], acc[3])
                    for loc, by_window in built.items()
                    if loc.startswith("R0")
                    for idx in range(lo, hi + 1)
                    if (acc := by_window.get(idx)) is not None
                ]
                assert AggregateCache.select(
                    built, "input_power_w", window, t0, t1, "R0") == reference


class TestCacheLifecycle:
    def test_miss_then_hit_then_invalidation_on_ingest(self):
        store = _store_with([(10.0, LOC, 1.0), (20.0, LOC, 2.0)])
        first = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert STORE_CACHE_MISSES.value() == 1.0
        assert STORE_CACHE_HITS.value() == 0.0

        again = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert again == first
        assert STORE_CACHE_HITS.value() == 1.0
        assert STORE_CACHE_MISSES.value() == 1.0

        store.ingest("bpm", Reading(30.0, LOC, "envdb",
                                    {"input_power_w": 9.0}))
        assert STORE_CACHE_INVALIDATIONS.value() == 1.0
        refreshed = store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        assert STORE_CACHE_MISSES.value() == 2.0
        assert refreshed[0].count == 3  # sees the new record

    def test_each_window_size_caches_independently(self):
        store = _store_with([(10.0, LOC, 1.0)])
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0)
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 30.0)
        assert STORE_CACHE_MISSES.value() == 2.0
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 30.0)
        assert STORE_CACHE_HITS.value() == 1.0

    def test_sharded_caches_invalidate_independently(self):
        store = ShardedStore(TABLES, n_shards=8)
        other = "R01-M0-N00"
        assert store.shard_map.shard_of(LOC) != store.shard_map.shard_of(other)
        for location in (LOC, other):
            store.ingest("bpm", Reading(10.0, location, "envdb",
                                        {"input_power_w": 1.0}))
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, LOC[:6])
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, other[:6])
        misses = STORE_CACHE_MISSES.value()
        # Ingest into LOC's shard: only that shard's cache rebuilds.
        store.ingest("bpm", Reading(20.0, LOC, "envdb",
                                    {"input_power_w": 2.0}))
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, LOC[:6])
        store.aggregate("bpm", "input_power_w", 0.0, 60.0, 60.0, other[:6])
        assert STORE_CACHE_MISSES.value() == misses + 1.0
        assert STORE_CACHE_HITS.value() == 1.0

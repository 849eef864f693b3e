"""Batched ingest vs the per-record reference.

:meth:`ShardedStore.ingest_batch` allocates sequence numbers for a
whole batch, then inserts each shard's run under one lock with one
cache invalidation per table.  It must leave the store exactly as
ingesting the accepted records one by one would: the same rows in the
same order, the same ``latest``, the same tail log, the same ingest
and drop accounting, and the same metric deltas.
"""

import math
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instruments import STORE_CACHE_INVALIDATIONS, STORE_RECORDS
from repro.store import Reading, ShardedStore

TABLES = ("bpm", "coolant", "fan")


def per_record_ingest(store: ShardedStore, items, interval_s: float
                      ) -> dict[int, int]:
    """Ingest a batch record by record, in offered order, each shard
    keeping at most its per-sweep budget; returns the records dropped
    per shard."""
    budget = None
    if store.capacity_records_per_s is not None:
        budget = int(math.floor(store.capacity_records_per_s * interval_s))
    offered: dict[int, int] = {}
    dropped: dict[int, int] = {}
    for table, reading in items:
        index = store.shard_map.shard_of(reading.location)
        offered[index] = offered.get(index, 0) + 1
        if budget is not None and offered[index] > budget:
            dropped[index] = dropped.get(index, 0) + 1
            continue
        store.ingest(table, reading)
    return dropped


def tail_cursors(store: ShardedStore, table: str) -> list[int]:
    """The cursor after each record of ``table``'s tail (= seq + 1)."""
    cursors, cursor = [], 0
    while True:
        page = store.tail(table, cursor, limit=1)
        if not page.readings:
            return cursors
        cursors.append(page.cursor)
        cursor = page.cursor


def store_state(store: ShardedStore) -> dict:
    return {
        table: (store.range(table, -math.inf, math.inf),
                store.latest(table),
                store.tail(table).readings,
                tail_cursors(store, table))
        for table in store.table_names
    }


def metric_totals() -> tuple[dict, float]:
    return dict(STORE_RECORDS.samples()), STORE_CACHE_INVALIDATIONS.value()


def deltas(before: tuple[dict, float], after: tuple[dict, float]) -> tuple:
    records = {key: value - before[0].get(key, 0.0)
               for key, value in after[0].items()
               if value != before[0].get(key, 0.0)}
    return records, after[1] - before[1]


def warm_caches(store: ShardedStore) -> None:
    """Build an aggregate cache entry per table so ingest invalidates."""
    for table in store.table_names:
        store.aggregate(table, "watts", 0.0, 100.0, 10.0)


locations = st.builds(
    lambda r, m, n, kind: f"R{r:02d}-M{m}-N{n:02d}{kind}",
    st.integers(0, 7), st.integers(0, 1), st.integers(0, 3),
    st.sampled_from(["", "-BPM"]),
)
items = st.lists(st.tuples(
    st.sampled_from(TABLES),
    st.builds(lambda t, loc, v: Reading(t, loc, "envdb", {"watts": v}),
              st.sampled_from([0.0, 10.0, 20.0, 25.5, 60.0]),
              locations,
              st.floats(0.0, 1000.0)),
), max_size=80)


def run_both(n_shards, capacity, batches, interval_s, reshard_to=None):
    """Feed the same batches to a batched and a per-record store and
    return both states plus each side's metric deltas."""
    batched = ShardedStore(TABLES, n_shards=n_shards,
                           capacity_records_per_s=capacity)
    reference = ShardedStore(TABLES, n_shards=n_shards,
                             capacity_records_per_s=capacity)
    dropped_ref: dict[int, int] = {}
    batched_deltas, reference_deltas = [], []
    for i, batch in enumerate(batches):
        if reshard_to is not None and i == len(batches) // 2:
            if reshard_to != batched.n_shards:
                # Earlier drops move to the store-wide carryover.
                dropped_ref = {}
            batched.reshard(reshard_to)
            reference.reshard(reshard_to)
        warm_caches(batched)
        warm_caches(reference)
        before = metric_totals()
        batched.ingest_batch(batch, interval_s)
        batched_deltas.append(deltas(before, metric_totals()))
        before = metric_totals()
        for index, n in per_record_ingest(reference, batch,
                                          interval_s).items():
            dropped_ref[index] = dropped_ref.get(index, 0) + n
        reference_deltas.append(deltas(before, metric_totals()))
    return batched, reference, dropped_ref, batched_deltas, reference_deltas


def assert_parity(n_shards, capacity, batches, interval_s, reshard_to=None):
    batched, reference, dropped_ref, got, want = run_both(
        n_shards, capacity, batches, interval_s, reshard_to)
    assert store_state(batched) == store_state(reference)
    for table in TABLES:
        # latest = the last row per location in (timestamp, ingest) order.
        rows = batched.range(table, -math.inf, math.inf)
        assert batched.latest(table) == {r.location: r for r in rows}
    assert batched.ingest_cursor == reference.ingest_cursor
    assert batched.records_ingested == reference.records_ingested
    assert batched.records_by_shard == reference.records_by_shard
    assert {i: n for i, n in batched.dropped_by_shard.items() if n} == \
        dropped_ref
    assert batched.dropped_records == sum(
        len(batch) for batch in batches) - batched.records_ingested
    assert got == want
    return batched


class TestBatchedIngestParity:
    @given(batches=st.lists(items, min_size=1, max_size=4),
           n_shards=st.integers(1, 5),
           capacity=st.sampled_from([None, 0.05, 0.2, 100.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_record_reference(self, batches, n_shards, capacity):
        assert_parity(n_shards, capacity, batches, interval_s=60.0)

    @given(batches=st.lists(items, min_size=2, max_size=4),
           n_shards=st.integers(1, 3), reshard_to=st.integers(1, 6),
           capacity=st.sampled_from([None, 0.1]))
    @settings(max_examples=40, deadline=None)
    def test_matches_after_reshard(self, batches, n_shards, reshard_to,
                                   capacity):
        assert_parity(n_shards, capacity, batches, interval_s=60.0,
                      reshard_to=reshard_to)

    def test_over_budget_shard_drops_its_tail_only(self):
        # Budget 3 per shard per sweep; rack R00 (shard 1 of 2) offers
        # 5, rack R04 (shard 0) offers 2.
        batch = [("bpm", Reading(float(i), f"R00-M0-N0{i}", "envdb",
                                 {"watts": float(i)})) for i in range(5)]
        batch += [("fan", Reading(1.0, f"R04-M0-N0{i}", "envdb",
                                  {"watts": 1.0})) for i in range(2)]
        store = assert_parity(2, 0.05, [batch], interval_s=60.0)
        assert store.records_ingested == 5
        assert store.dropped_by_shard == {0: 0, 1: 2}
        kept = store.range("bpm", -math.inf, math.inf)
        assert [r.location for r in kept] == [
            "R00-M0-N00", "R00-M0-N01", "R00-M0-N02"]

    def test_one_invalidation_per_shard_and_table(self):
        store = ShardedStore(TABLES, n_shards=1)
        warm_caches(store)
        before = STORE_CACHE_INVALIDATIONS.value()
        store.ingest_batch(
            [(table, Reading(5.0, f"R00-M0-N0{i}", "envdb", {"watts": 1.0}))
             for table in ("bpm", "fan") for i in range(4)], 60.0)
        assert STORE_CACHE_INVALIDATIONS.value() - before == 2.0
        assert STORE_RECORDS.value("0") == 8.0


def test_concurrent_batches_keep_order_and_contiguous_seqs():
    """Writers racing on one store: batches that land out of sequence
    order take the record-by-record path, and every batch still owns
    one contiguous block of sequence numbers."""
    store = ShardedStore(TABLES, n_shards=2)
    writers, per_batch, rounds = 6, 48, 30
    # Each batch is one sweep at its own instant.  Instants rise round
    # by round, but within a round they need not follow the order the
    # writers win the sequence lock, so runs that sort after everything
    # held can still carry older sequence numbers.
    batches = [
        [(TABLES[i % len(TABLES)],
          Reading(10.0 * r + w, f"R{i % 8:02d}-M0-N0{w}",
                  "envdb", {"watts": float(i)}))
         for i in range(per_batch)]
        for w in range(writers) for r in range(rounds)
    ]
    errors: list[BaseException] = []

    def write(chunk):
        try:
            for batch in chunk:
                store.ingest_batch(batch, 60.0)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(batches[w::writers],))
                   for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    total = len(batches) * per_batch
    assert store.records_ingested == total
    seq_of = {}
    for table in TABLES:
        cursors = tail_cursors(store, table)
        assert cursors == sorted(cursors)
        for reading, cursor in zip(store.tail(table).readings, cursors):
            seq_of[id(reading)] = cursor - 1
        times = [r.timestamp for r in store.range(table, -math.inf,
                                                  math.inf)]
        assert times == sorted(times)
    assert sorted(seq_of.values()) == list(range(total))
    for batch in batches:
        seqs = sorted(seq_of[id(reading)] for _, reading in batch)
        assert seqs == list(range(seqs[0], seqs[0] + per_batch))

"""Downsampled-aggregate cache.

Repeated range queries over full-Mira data are the envdb's dominant
read load (every figure regeneration scans the same windows).  Instead
of re-reducing O(records) per query, each shard keeps min/mean/max
per (location, window) per field, built lazily from one scan and
invalidated when the shard ingests — so a repeated aggregate query
costs O(matching windows) dictionary lookups.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.instruments import (
    STORE_CACHE_HITS,
    STORE_CACHE_INVALIDATIONS,
    STORE_CACHE_MISSES,
)
from repro.store.reading import Reading


@dataclass(frozen=True)
class Aggregate:
    """One downsampled window for one location and field."""

    location: str
    field: str
    window_start: float
    window_s: float
    count: int
    minimum: float
    maximum: float
    total: float

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def window_end(self) -> float:
        return self.window_start + self.window_s


def window_index(timestamp: float, window_s: float) -> int:
    """The downsampling window a timestamp falls in."""
    return int(math.floor(timestamp / window_s))


def merge_partials(partials: list[Aggregate],
                   location: str | None = None) -> list[Aggregate]:
    """Merge per-site partial aggregates into combined windows.

    The federated aggregate plan: every site reduces its own records
    with :meth:`ShardedStore.aggregate`, only the O(windows) partials
    travel, and the center combines them here — counts and totals add,
    minima and maxima fold.  With ``location`` set, every partial is
    relabeled to it first (the fleet-wide rollup); otherwise partials
    merge per location.  Output is sorted by (window_start, location),
    the same order the store's own aggregate queries produce.
    """
    merged: dict[tuple[str, str, float, float], list] = {}
    for part in partials:
        loc = location if location is not None else part.location
        key = (loc, part.field, float(part.window_s), part.window_start)
        acc = merged.get(key)
        if acc is None:
            merged[key] = [part.count, part.minimum, part.maximum, part.total]
        else:
            acc[0] += part.count
            if part.minimum < acc[1]:
                acc[1] = part.minimum
            if part.maximum > acc[2]:
                acc[2] = part.maximum
            acc[3] += part.total
    out = [
        Aggregate(location=loc, field=field_name, window_start=start,
                  window_s=window_s, count=int(acc[0]), minimum=acc[1],
                  maximum=acc[2], total=acc[3])
        for (loc, field_name, window_s, start), acc in merged.items()
    ]
    out.sort(key=lambda a: (a.window_start, a.location, a.field))
    return out


class AggregateCache:
    """Per-shard cache of per-(location, window) field aggregates.

    One cache instance serves one shard.  Entries are keyed by
    ``(table, field, window_s)``; each entry maps location →
    window index → ``[count, min, max, total]``.  ``invalidate``
    drops a table's entries (called on ingest into the shard).
    """

    def __init__(self):
        self._entries: dict[tuple[str, str, float],
                            dict[str, dict[int, list[float]]]] = {}

    def invalidate(self, table: str) -> None:
        """Drop cached windows for one table (after ingest)."""
        stale = [key for key in self._entries if key[0] == table]
        for key in stale:
            del self._entries[key]
        if stale:
            STORE_CACHE_INVALIDATIONS.inc(len(stale))

    def windows(self, table: str, field: str, window_s: float,
                records: list[Reading]) -> dict[str, dict[int, list[float]]]:
        """The (location → window → accumulator) map for one keying,
        building it from ``records`` on a miss."""
        if window_s <= 0.0:
            raise ConfigError(f"window must be positive, got {window_s}")
        key = (table, field, float(window_s))
        built = self._entries.get(key)
        if built is not None:
            STORE_CACHE_HITS.inc()
            return built
        STORE_CACHE_MISSES.inc()
        built = {}
        for reading in records:
            value = reading.values.get(field)
            if value is None:
                continue
            idx = window_index(reading.timestamp, window_s)
            by_window = built.setdefault(reading.location, {})
            acc = by_window.get(idx)
            if acc is None:
                by_window[idx] = [1, value, value, value]
            else:
                acc[0] += 1
                if value < acc[1]:
                    acc[1] = value
                if value > acc[2]:
                    acc[2] = value
                acc[3] += value
        self._entries[key] = built
        return built

    @staticmethod
    def select(built: dict[str, dict[int, list[float]]], field: str,
               window_s: float, t0: float, t1: float,
               location_prefix: str) -> list[Aggregate]:
        """Materialize the aggregates intersecting ``[t0, t1]`` for
        locations matching ``location_prefix``."""
        lo = window_index(t0, window_s)
        hi = window_index(t1, window_s)
        span = hi - lo + 1
        out: list[Aggregate] = []
        for location, by_window in built.items():
            if not location.startswith(location_prefix):
                continue
            if span <= len(by_window):
                indices = range(lo, hi + 1)
            else:
                # Fewer populated windows than the span: walk those.
                # Maps built from a time-ordered run are already in
                # window order, which ``sorted`` passes through in O(n).
                keys = sorted(by_window)
                indices = keys[bisect_left(keys, lo):bisect_right(keys, hi)]
            for idx in indices:
                acc = by_window.get(idx)
                if acc is None:
                    continue
                out.append(Aggregate(
                    location=location, field=field,
                    window_start=idx * window_s, window_s=window_s,
                    count=int(acc[0]), minimum=acc[1], maximum=acc[2],
                    total=acc[3],
                ))
        return out

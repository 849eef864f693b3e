"""The federated fleet store: N sites' sharded stores behind one API.

A *site* is one cluster's :class:`~repro.store.engine.ShardedStore`
(its own ingest budget, its own shard map); the federation routes
queries by a ``site/location`` prefix convention and merges per-site
results deterministically.  Aggregates follow the scatter-gather plan
the paper's single-server ceiling forces at fleet scale: every site
reduces its *own* records with the store's cached ``aggregate`` and
only the O(windows) partials travel to the center, where
:func:`~repro.store.aggregate.merge_partials` folds them — counts and
totals add, minima and maxima fold — into per-location or fleet-wide
rollup windows.

When a site's sweep saturates its ingest ceiling, :meth:`rebalance`
re-spreads that site's keyspace over more shards (powers of two until
the hottest shard clears the budget with headroom), replaying records
in original ingest order so query results never change shape.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.instruments import (
    FLEET_PARTIALS_MERGED,
    FLEET_QUERIES,
    FLEET_RESHARDS,
)
from repro.store.aggregate import Aggregate, merge_partials
from repro.store.engine import ShardedStore
from repro.store.planner import QueryPlan
from repro.store.reading import Reading

#: Separator between the site name and the site-local location in
#: federated location strings (site names themselves use ``-``).
SITE_SEPARATOR = "/"

#: The location all partials merge into for a fleet-wide rollup.
FLEET_LOCATION = "fleet"


@dataclass(frozen=True)
class FederatedQueryPlan:
    """How one federated aggregate executes: per-site store plans plus
    the central merge step."""

    kind: str
    table: str
    per_site: dict[str, QueryPlan]
    rollup: bool

    @property
    def fan_out(self) -> int:
        """Total shards touched across every routed site."""
        return sum(len(plan.shards) for plan in self.per_site.values())


class FederatedStore:
    """N named sites behind one query API.

    Parameters
    ----------
    sites:
        Site name → that site's :class:`ShardedStore`.  Names must be
        non-empty, free of the ``/`` separator, and every site must
        carry the same table set (one fleet-wide schema).
    """

    def __init__(self, sites: dict[str, ShardedStore]):
        if not sites:
            raise ConfigError("federation needs at least one site")
        tables: tuple[str, ...] | None = None
        for name, store in sites.items():
            if not name or SITE_SEPARATOR in name:
                raise ConfigError(
                    f"bad site name {name!r}: non-empty, no "
                    f"{SITE_SEPARATOR!r}")
            if tables is None:
                tables = store.table_names
            elif store.table_names != tables:
                raise ConfigError(
                    f"site {name!r} tables {store.table_names} differ from "
                    f"{tables} — the federation needs one schema")
        self.sites = dict(sites)
        self.table_names = tables

    # -- routing ---------------------------------------------------------------

    def _route(self, location_prefix: str) -> list[tuple[str, str]]:
        """``(site name, site-local prefix)`` pairs a federated prefix
        fans out to, in sorted site order (the merge tiebreak).

        ``"site/R07"`` pins one site; ``"site"`` (no separator) matches
        sites by name prefix; ``""`` fans out to the whole fleet.
        """
        if not location_prefix:
            return [(name, "") for name in sorted(self.sites)]
        head, sep, rest = location_prefix.partition(SITE_SEPARATOR)
        if sep:
            if head not in self.sites:
                raise ConfigError(
                    f"no site {head!r}; have {sorted(self.sites)}")
            return [(head, rest)]
        routed = [(name, "") for name in sorted(self.sites)
                  if name.startswith(head)]
        if not routed:
            raise ConfigError(
                f"no site matches {head!r}; have {sorted(self.sites)}")
        return routed

    @staticmethod
    def _label(site: str, location: str) -> str:
        return f"{site}{SITE_SEPARATOR}{location}"

    # -- queries ---------------------------------------------------------------

    def range(self, table: str, t0: float, t1: float,
              location_prefix: str = "") -> list[Reading]:
        """Records in ``[t0, t1]`` across the routed sites, relabeled
        ``site/location``, merged by timestamp (site order breaks
        ties)."""
        runs = []
        for name, local in self._route(location_prefix):
            rows = self.sites[name].range(table, t0, t1, local)
            runs.append([
                Reading(r.timestamp, self._label(name, r.location),
                        r.mechanism, r.values)
                for r in rows
            ])
        FLEET_QUERIES.labels("range").inc()
        if len(runs) == 1:
            return runs[0]
        return list(heapq.merge(*runs, key=lambda r: r.timestamp))

    def latest(self, table: str,
               location_prefix: str = "") -> dict[str, Reading]:
        """The most recent record per location, keyed ``site/location``."""
        out: dict[str, Reading] = {}
        for name, local in self._route(location_prefix):
            for location, reading in self.sites[name].latest(
                    table, local).items():
                out[self._label(name, location)] = Reading(
                    reading.timestamp, self._label(name, location),
                    reading.mechanism, reading.values)
        FLEET_QUERIES.labels("latest").inc()
        return out

    def aggregate(self, table: str, field_name: str, t0: float, t1: float,
                  window_s: float, location_prefix: str = "",
                  rollup: bool = False) -> list[Aggregate]:
        """Downsampled windows across the routed sites.

        Each site computes its own cached partials; the center merges.
        ``rollup=False`` keeps per-location windows (relabeled
        ``site/location``); ``rollup=True`` folds everything into one
        fleet-wide window series at location ``"fleet"``.
        """
        partials: list[Aggregate] = []
        for name, local in self._route(location_prefix):
            site_partials = self.sites[name].aggregate(
                table, field_name, t0, t1, window_s, local)
            if rollup:
                # The merge relabels every partial to the fleet anyway.
                partials.extend(site_partials)
                continue
            for agg in site_partials:
                partials.append(Aggregate(
                    location=self._label(name, agg.location),
                    field=agg.field, window_start=agg.window_start,
                    window_s=agg.window_s, count=agg.count,
                    minimum=agg.minimum, maximum=agg.maximum,
                    total=agg.total,
                ))
        FLEET_QUERIES.labels("aggregate").inc()
        if rollup:
            FLEET_PARTIALS_MERGED.inc(len(partials))
            return merge_partials(partials, location=FLEET_LOCATION)
        partials.sort(key=lambda a: (a.window_start, a.location))
        return partials

    def aggregate_plan(self, table: str, location_prefix: str = "",
                       rollup: bool = False) -> FederatedQueryPlan:
        """The scatter-gather plan a federated aggregate would execute."""
        per_site = {
            name: self.sites[name].plan("aggregate", table, local)
            for name, local in self._route(location_prefix)
        }
        return FederatedQueryPlan(kind="federated_aggregate", table=table,
                                  per_site=per_site, rollup=rollup)

    # -- rebalancing -----------------------------------------------------------

    def rebalance(self, site: str, locations: list[str], interval_s: float,
                  headroom: float = 0.9, max_shards: int = 64) -> int:
        """Reshard one site until its hottest shard clears the sweep
        budget with ``headroom`` to spare.

        Shard counts double from the current count; returns the new
        count, or 0 when the current layout already fits (or the site
        has no capacity ceiling to saturate).  Raises
        :class:`~repro.errors.ConfigError` if even ``max_shards`` can't
        absorb the sweep — the keyspace itself is too hot (one rack
        exceeding a whole server's budget needs a finer shard key, not
        more shards).
        """
        store = self.sites.get(site)
        if store is None:
            raise ConfigError(f"no site {site!r}; have {sorted(self.sites)}")
        if store.capacity_records_per_s is None:
            return 0
        if store.capacity_fraction(locations, interval_s) <= headroom:
            return 0
        from repro.store.shards import ShardMap

        budget = store.capacity_records_per_s * interval_s
        n = store.n_shards
        while True:
            n *= 2
            if n > max_shards:
                raise ConfigError(
                    f"site {site!r} sweep saturates even {max_shards} "
                    f"shards — shard key too coarse for this keyspace")
            candidate = ShardMap(n, depth=store.shard_map.depth)
            counts: dict[int, int] = {}
            for location in locations:
                index = candidate.shard_of(location)
                counts[index] = counts.get(index, 0) + 1
            if max(counts.values(), default=0) <= headroom * budget:
                break
        store.reshard(n)
        FLEET_RESHARDS.labels(site).inc()
        return n

    # -- accounting ------------------------------------------------------------

    @property
    def site_names(self) -> list[str]:
        return sorted(self.sites)

    @property
    def records_ingested(self) -> int:
        return sum(store.records_ingested for store in self.sites.values())

    @property
    def dropped_records(self) -> int:
        return sum(store.dropped_records for store in self.sites.values())

"""``repro.api.fleet`` — federated multi-cluster fleet sweeps.

The fleet topology (named Mira-class sites over one federation), the
federated store that scatter-gathers queries across the sites' sharded
stores by the ``site/location`` prefix convention, the timed
fleet-wide sweep behind the ``fleet`` entries of ``repro bench perf``,
and the service
constructor that puts a fleet behind ``/v2/query/aggregate``.
"""

from __future__ import annotations

from repro.fleet import (
    DEFAULT_FLEET_SEED,
    Fleet,
    FleetSite,
    FleetSweepReport,
    build_fleet,
    cache_ablation,
    fleet_bench,
    fleet_sweep,
)
from repro.service import service_for_fleet
from repro.store import FederatedQueryPlan, FederatedStore, merge_partials

__all__ = [
    "DEFAULT_FLEET_SEED",
    "FederatedQueryPlan",
    "FederatedStore",
    "Fleet",
    "FleetSite",
    "FleetSweepReport",
    "build_fleet",
    "cache_ablation",
    "fleet_bench",
    "fleet_sweep",
    "merge_partials",
    "service_for_fleet",
]

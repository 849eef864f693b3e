"""``repro.fleet`` — federated multi-cluster fleet sweeps.

The paper profiles one machine at a time; a production deployment of
its mechanisms monitors *fleets* — N sites, each a Mira-class cluster
with its own environmental database and ingest ceiling.  This package
scales the reproduction out:

* :mod:`repro.fleet.sites` — :class:`FleetSite` (one named site's
  :class:`~repro.bgq.machine.BgqMachine`) and :class:`Fleet`, which
  federates every site's sharded store behind one
  :class:`~repro.store.FederatedStore` and reshards saturated sites
  before a sweep;
* :mod:`repro.fleet.sweep` — :func:`fleet_sweep` (the timed
  fleet-wide sweep with cross-site rollup aggregation) and
  :func:`fleet_bench`, the sweep plus the channel-cache crossings
  ablation.

``python -m repro pack run fleet-sweep`` drives the smoke sweep from
the CLI; ``python -m repro bench perf`` records the full-size
:func:`fleet_bench` in ``BENCH_perf.json``.
"""

from __future__ import annotations

from repro.fleet.sites import DEFAULT_FLEET_SEED, Fleet, FleetSite, build_fleet
from repro.fleet.sweep import FleetSweepReport, cache_ablation, fleet_bench, fleet_sweep

__all__ = [
    "DEFAULT_FLEET_SEED",
    "Fleet",
    "FleetSite",
    "FleetSweepReport",
    "build_fleet",
    "cache_ablation",
    "fleet_bench",
    "fleet_sweep",
]

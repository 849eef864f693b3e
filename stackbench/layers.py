"""Per-layer metrics: which entry points a traced run wraps, and how the
spans and the program's own ``repro.obs`` counters become metrics.

Times are reported as shares of the traced pass's wall time (unit
``frac``), so a layer a workload never enters reads 0 rather than a
meaningless constant time.  Counts are deltas of the program's own
``repro.obs`` counters where one exists, and of call tallies taken by
the wrappers otherwise.  Ratios read 0 when the layer saw no work.

The comment beside each group names the end-to-end metric it should
move, and on which workload.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order.
#: Times are better lower; counts of work done in the timed run are
#: better higher, counts of overhead (calls, retries, dark rows) lower.
METRICS: tuple[tuple[str, str, str], ...] = (
    # repro.service -> throughput (and the printed request p50/p99) on
    # service-query.
    ("service.self_frac", "frac", "lower"),
    ("service.bytes_out", "B/req", "lower"),
    # repro.store read side -> throughput (and the printed p50/p99) on
    # service-query; flat on fleet-sweep.
    ("store.query_frac", "frac", "lower"),
    ("store.range_frac", "frac", "lower"),
    ("store.latest_frac", "frac", "lower"),
    ("store.aggregate_frac", "frac", "lower"),
    ("store.tail_frac", "frac", "lower"),
    ("store.rows_returned", "count", "higher"),
    ("store.fan_out", "shards", "lower"),
    ("store.agg_build_frac", "frac", "lower"),
    ("store.agg_select_frac", "frac", "lower"),
    ("store.agg_hit_rate", "ratio", "higher"),
    # repro.store write side -> throughput on fleet-sweep, setup_s on
    # service-query.
    ("store.ingest_frac", "frac", "lower"),
    ("store.records_ingested", "count", "higher"),
    ("store.ingest_kept_ratio", "ratio", "higher"),
    ("store.reshard_frac", "frac", "lower"),
    ("store.reshards", "count", "lower"),
    # repro.store.federation / repro.fleet -> throughput and setup_s on
    # fleet-sweep.
    ("federation.aggregate_frac", "frac", "lower"),
    ("federation.partials_merged", "count", "higher"),
    ("fleet.build_frac", "frac", "lower"),
    # repro.bgq / repro.devices -> throughput on fleet-sweep, setup_s on
    # fleet-sweep and service-query.
    ("bgq.advance_self_frac", "frac", "lower"),
    ("bgq.bpm_metered_frac", "frac", "lower"),
    ("devices.power_calls", "count", "lower"),
    ("bgq.emon_interfaces", "count", "lower"),
    # repro.mech and the vendor sources -> throughput on moneq-chaos;
    # flat elsewhere.
    ("mech.read_block_frac", "frac", "lower"),
    ("mech.read_block_calls", "count", "lower"),
    ("mech.collect_frac", "frac", "lower"),
    ("rapl.collect_frac", "frac", "lower"),
    ("nvml.collect_frac", "frac", "lower"),
    ("xeonphi.collect_frac", "frac", "lower"),
    ("bgq.emon_collect_frac", "frac", "lower"),
    ("mech.cache_hit_rate", "ratio", "higher"),
    ("mech.crossings_saved", "count", "higher"),
    # repro.chaos -> throughput on moneq-chaos.
    ("chaos.faults", "count", "higher"),
    ("chaos.retries", "count", "lower"),
    ("chaos.dark_rows", "count", "lower"),
    ("chaos.stale_reads", "count", "lower"),
    ("chaos.delivered_ratio", "ratio", "higher"),
    # repro.core.moneq: Table III's collect / finalize split.
    ("moneq.collect_frac", "frac", "lower"),
    ("moneq.finalize_frac", "frac", "lower"),
    ("moneq.ticks", "count", "higher"),
    ("moneq.records", "count", "higher"),
    # repro.packs / repro.exec -> setup_s and throughput on moneq-chaos.
    ("packs.compile_frac", "frac", "lower"),
    ("exec.run_self_frac", "frac", "lower"),
    # All workloads: traced / untraced wall of the same operations - 1.
    ("trace.overhead_frac", "frac", "lower"),
)

_VENDORS = (("repro.rapl", "rapl.collect"), ("repro.nvml", "nvml.collect"),
            ("repro.xeonphi", "xeonphi.collect"),
            ("repro.bgq", "bgq.emon_collect"))
VENDOR_SPANS = tuple(span for _, span in _VENDORS)
STORE_QUERY_SPANS = ("store.range", "store.latest", "store.aggregate",
                     "store.tail")


def _vendor_span(args, kwargs):
    module = type(args[0]).__module__
    for prefix, span in _VENDORS:
        if module.startswith(prefix):
            return span
    return None


def _source_classes():
    from repro.mech.source import SensorSource

    pending, seen = [SensorSource], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "collect" in cls.__dict__
            and not getattr(cls.__dict__["collect"],
                            "__isabstractmethod__", False)]


def install(recorder) -> None:
    """Wrap each layer's entry points; ``recorder.restore()`` undoes it."""
    import repro.core.moneq.backends  # noqa: F401  (registers every source)
    import repro.fleet.sites as fleet_sites
    import repro.packs.run as packs_run
    from repro.bgq.bpm import BulkPowerModule
    from repro.bgq.emon import EmonInterface
    from repro.bgq.machine import BgqMachine
    from repro.core.moneq.session import MoneqSession
    from repro.devices.power import ComponentPowerModel
    from repro.exec.engine import Engine
    from repro.mech.mechanism import Mechanism
    from repro.service.app import ServiceApp
    from repro.store.aggregate import AggregateCache
    from repro.store.engine import ShardedStore
    from repro.store.federation import FederatedStore

    recorder.wrap(ServiceApp, "__call__", "service.request")
    for kind in ("range", "latest", "aggregate", "tail"):
        recorder.wrap(ShardedStore, kind, f"store.{kind}")
    recorder.wrap(ShardedStore, "ingest_batch", "store.ingest")
    recorder.wrap(ShardedStore, "reshard", "store.reshard")

    # Every call is spanned: a hit is one dict lookup, so the span's
    # time is the builds', and hits and misses come from the counters.
    recorder.wrap(AggregateCache, "windows", "store.agg_build")
    recorder.wrap(AggregateCache, "select", "store.agg_select")
    recorder.wrap(FederatedStore, "aggregate", "federation.aggregate")
    recorder.wrap(fleet_sites, "build_fleet", "fleet.build")
    recorder.wrap(BgqMachine, "advance_to", "bgq.advance")
    recorder.wrap(BulkPowerModule, "metered", "bgq.bpm_metered")
    recorder.tally(ComponentPowerModel, "power", "devices.power_calls")
    recorder.tally(EmonInterface, "__init__", "bgq.emon_interfaces")
    recorder.wrap(Mechanism, "read_block", "mech.read_block")
    for cls in _source_classes():
        recorder.wrap(cls, "collect", _vendor_span)
    # The session's collection has no public entry point: the timer
    # calls these per tick (scalar) or per planned block.
    recorder.wrap(MoneqSession, "_collect_tick", "moneq.collect")
    recorder.wrap(MoneqSession, "_collect_block", "moneq.collect")
    recorder.wrap(MoneqSession, "finalize", "moneq.finalize")
    recorder.wrap(packs_run, "compile_spec", "packs.compile")
    recorder.wrap(Engine, "run", "exec.run")


_COUNTERS = ("STORE_QUERY_ROWS", "STORE_CACHE_HITS", "STORE_CACHE_MISSES",
             "STORE_RECORDS", "STORE_DROPPED", "FLEET_RESHARDS",
             "FLEET_PARTIALS_MERGED", "CACHE_HITS", "CACHE_MISSES",
             "CACHE_CROSSINGS_SAVED", "CHAOS_FAULTS", "RETRY_ATTEMPTS",
             "CHAOS_DARK_READS", "CHAOS_STALE_READS", "MONEQ_TICKS",
             "MONEQ_RECORDS")


def snapshot() -> dict[str, float]:
    """Current totals (summed over labels) of the counters read here."""
    from repro.obs import instruments

    return {name: float(sum(getattr(instruments, name).samples().values()))
            for name in _COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(spans_totals, counts: dict[str, int], before: dict, after: dict,
            wall_s: float, overhead: float, extras: dict) -> dict[str, float]:
    """Every metric of :data:`METRICS` from one traced pass.

    ``spans_totals`` is :func:`tracing.totals` of the pass's spans,
    ``counts`` the wrappers' call tallies, ``before``/``after`` counter
    snapshots around the pass, ``wall_s`` its wall time, and ``extras``
    the workload's own per-request figures (bytes, fan-out).
    """
    inclusive, self_, calls = spans_totals
    delta = {name: after[name] - before[name] for name in after}

    def share(seconds: float) -> float:
        return seconds / wall_s

    incl = lambda name: inclusive.get(name, 0.0)  # noqa: E731
    ingested = delta["STORE_RECORDS"]
    moneq_rows = delta["MONEQ_RECORDS"]
    return {
        "service.self_frac": share(self_.get("service.request", 0.0)),
        "service.bytes_out": extras.get("bytes_per_request", 0.0),
        "store.query_frac": share(sum(incl(n) for n in STORE_QUERY_SPANS)),
        "store.range_frac": share(incl("store.range")),
        "store.latest_frac": share(incl("store.latest")),
        "store.aggregate_frac": share(incl("store.aggregate")),
        "store.tail_frac": share(incl("store.tail")),
        "store.rows_returned": delta["STORE_QUERY_ROWS"],
        "store.fan_out": extras.get("fan_out", 0.0),
        "store.agg_build_frac": share(incl("store.agg_build")),
        "store.agg_select_frac": share(incl("store.agg_select")),
        "store.agg_hit_rate": _ratio(
            delta["STORE_CACHE_HITS"],
            delta["STORE_CACHE_HITS"] + delta["STORE_CACHE_MISSES"]),
        "store.ingest_frac": share(incl("store.ingest")),
        "store.records_ingested": ingested,
        "store.ingest_kept_ratio": _ratio(
            ingested, ingested + delta["STORE_DROPPED"]),
        "store.reshard_frac": share(incl("store.reshard")),
        "store.reshards": delta["FLEET_RESHARDS"],
        "federation.aggregate_frac": share(incl("federation.aggregate")),
        "federation.partials_merged": delta["FLEET_PARTIALS_MERGED"],
        "fleet.build_frac": share(incl("fleet.build")),
        "bgq.advance_self_frac": share(self_.get("bgq.advance", 0.0)),
        "bgq.bpm_metered_frac": share(incl("bgq.bpm_metered")),
        "devices.power_calls": float(counts.get("devices.power_calls", 0)),
        "bgq.emon_interfaces": float(counts.get("bgq.emon_interfaces", 0)),
        "mech.read_block_frac": share(self_.get("mech.read_block", 0.0)),
        "mech.read_block_calls": float(calls.get("mech.read_block", 0)),
        "mech.collect_frac": share(sum(incl(n) for n in VENDOR_SPANS)),
        "rapl.collect_frac": share(incl("rapl.collect")),
        "nvml.collect_frac": share(incl("nvml.collect")),
        "xeonphi.collect_frac": share(incl("xeonphi.collect")),
        "bgq.emon_collect_frac": share(incl("bgq.emon_collect")),
        "mech.cache_hit_rate": _ratio(
            delta["CACHE_HITS"], delta["CACHE_HITS"] + delta["CACHE_MISSES"]),
        "mech.crossings_saved": delta["CACHE_CROSSINGS_SAVED"],
        "chaos.faults": delta["CHAOS_FAULTS"],
        "chaos.retries": delta["RETRY_ATTEMPTS"],
        "chaos.dark_rows": delta["CHAOS_DARK_READS"],
        "chaos.stale_reads": delta["CHAOS_STALE_READS"],
        "chaos.delivered_ratio": _ratio(
            moneq_rows - delta["CHAOS_DARK_READS"], moneq_rows),
        "moneq.collect_frac": share(self_.get("moneq.collect", 0.0)),
        "moneq.finalize_frac": share(incl("moneq.finalize")),
        "moneq.ticks": delta["MONEQ_TICKS"],
        "moneq.records": moneq_rows,
        "packs.compile_frac": share(incl("packs.compile")),
        "exec.run_self_frac": share(self_.get("exec.run", 0.0)),
        "trace.overhead_frac": overhead,
    }

"""Seeded input generators, one per workload.

Everything a workload feeds the program comes from here, as plain data
derived from ``--seed`` alone.  The seed varies the *content* of the
inputs (which rack, which span, which fault rates) while the *shape*
of each run stays fixed: every generator draws its kinds and sizes
from shuffled strata of fixed proportions, so two seeds do the same
amount and kind of work and their timings are comparable.
"""

from __future__ import annotations

import random

# -- service-query -----------------------------------------------------------

#: One cycle of 20 requests as (kind, shape); the seed shuffles each
#: cycle and draws racks, offsets and cursors.  Range shapes are span
#: fractions of the history, aggregate shapes are windows (s), ``None``
#: a never-seen window.  The cheap kinds (latest, tail pages, coarse
#: cached aggregates, the shortest ranges) are about 40 % of the cycle
#: and the midplane prefix scans of the bpm table, which cost nearly
#: the same every time, follow them, so the median request sits inside
#: that tight cluster instead of in a gap between clusters.
SERVICE_DECK = (
    *(("range", span) for span in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)),
    *(("prefix", table) for table in ("bpm", "bpm", "bpm", "fan")),
    *(("aggregate", window) for window in (240.0, 480.0, 960.0, 1920.0,
                                           3840.0, None)),
    ("latest", None), ("latest", None), ("tail", None), ("tail", None),
)

#: Dashboard resolutions (s): aggregate windows that repeat, so after
#: the first build per shard they are aggregate-cache hits.
DASHBOARD_WINDOWS_S = tuple(shape for kind, shape in SERVICE_DECK
                            if kind == "aggregate" and shape is not None)

SERVICE_TABLES = ("bpm", "coolant", "temperature", "fan")
TAIL_LIMITS = (64, 128, 256)


def service_rig_seed(seed: int) -> int:
    return random.Random(f"service-rig:{seed}").randrange(1 << 31)


def service_queries(seed: int, racks: int, t_end: float, cursor_end: int):
    """Endless ``(kind, path, params)`` requests against a rig of
    ``racks`` racks whose history spans ``[0, t_end]`` and whose ingest
    cursor ends at ``cursor_end``.

    One aggregate in six asks for a never-seen window — a cold build of
    the shard's whole window map; every fourth of those is a sub-sweep
    window near 60 s over the whole history."""
    rng = random.Random(f"service-query:{seed}")
    cold = 0
    while True:
        deck = list(SERVICE_DECK)
        rng.shuffle(deck)
        for kind, shape in deck:
            rack = f"R{rng.randrange(racks):02d}"
            if kind == "range":
                span = t_end * (shape + rng.uniform(0.0, 0.15))
                t0 = rng.uniform(0.0, t_end - span)
                yield kind, "/v2/query/range", {
                    "table": "bpm", "t0": t0, "t1": t0 + span,
                    "prefix": rack}
            elif kind == "prefix":
                yield kind, "/v2/query/prefix", {
                    "table": shape, "prefix": f"{rack}-M{rng.randrange(2)}"}
            elif kind == "latest":
                yield kind, "/v2/query/latest", {
                    "table": rng.choice(SERVICE_TABLES), "prefix": rack}
            elif kind == "tail":
                yield kind, "/v2/tail", {
                    "table": "bpm", "cursor": rng.randrange(cursor_end),
                    "limit": rng.choice(TAIL_LIMITS)}
            elif shape is None:
                cold += 1
                # Distinct per request, so never served from cache.
                base = 60.0 if cold % 4 == 0 else rng.uniform(120.0, 3600.0)
                yield kind, "/v2/query/aggregate", {
                    "table": "bpm", "field": "input_power_w", "t0": 0.0,
                    "t1": t_end, "window": base + cold * 1e-3,
                    "prefix": rack}
            else:
                yield kind, "/v2/query/aggregate", {
                    "table": "bpm", "field": "input_power_w",
                    "t0": rng.uniform(0.0, t_end / 2), "t1": t_end,
                    "window": shape, "prefix": rack}


# -- fleet-sweep -------------------------------------------------------------

#: Rollup windows (s) the federated aggregate folds each horizon into.
ROLLUP_WINDOWS_S = (30.0, 60.0, 120.0, 240.0)


def fleet_seed(seed: int) -> int:
    return random.Random(f"fleet-sweep:{seed}").randrange(1 << 31)


def fleet_horizons(seed: int):
    """Endless rollup windows, one per one-sweep horizon, each cycle
    of four covering every window once in a seeded order."""
    rng = random.Random(f"fleet-horizons:{seed}")
    while True:
        windows = list(ROLLUP_WINDOWS_S)
        rng.shuffle(windows)
        yield from windows


# -- moneq-chaos -------------------------------------------------------------

MECHANISMS = ("emon", "rapl_msr", "rapl_powercap", "rapl_perf", "nvml",
              "sysmgmt", "micras", "ipmb", "micsmc")

#: EMON serves the older of two 0.28 s sensor generations, so a session
#: that polls it cannot run faster than 0.56 s.
MIN_INTERVAL_S = 0.56
MAX_INTERVAL_S = 1.2

#: Collection ticks per session: the virtual duration is this many
#: intervals, so every session collects the same number of rows.
SESSION_TICKS = 600

COMPONENTS = ("cpu.cores", "cpu.uncore", "cpu.dram", "gpu.sm", "gpu.mem",
              "phi.cores", "phi.gddr", "bgq.chip_core", "bgq.dram")

#: Mechanisms that may carry a whole-run fault rule at the scenario
#: rate (each with its vendor default fault kind).
FAULTABLE = ("emon", "rapl_msr", "rapl_powercap", "rapl_perf", "nvml",
             "sysmgmt", "ipmb", "micsmc")

#: Sessions per cycle; each covers one stratum of the interval range.
INTERVAL_STRATA = 8


def _manifest(rng: random.Random, index: int, interval_s: float,
              ticks: int) -> dict:
    duration_s = round(interval_s * ticks, 3)
    phase_count = rng.randint(2, 4)
    cuts = sorted(rng.uniform(0.1, 0.9) for _ in range(phase_count - 1))
    bounds = [0.0, *cuts, 1.0]
    phases = []
    for i in range(phase_count):
        loads = {component: round(rng.uniform(0.0, 1.0), 3)
                 for component in rng.sample(COMPONENTS, rng.randint(3, 6))}
        phases.append({
            "name": f"p{i}",
            "duration_s": round(duration_s * (bounds[i + 1] - bounds[i]), 3),
            "loads": loads,
        })
    rules = [{"mechanism": mechanism}
             for mechanism in rng.sample(FAULTABLE, rng.randint(2, 5))]
    start = round(rng.uniform(0.1, 0.7), 3)
    rules.append({"mechanism": "micras", "kind": "daemon_wedged",
                  "rate": 1.0, "t_start_frac": start,
                  "t_end_frac": round(start + rng.uniform(0.05, 0.2), 3)})
    return {
        "name": f"stackbench-{index}",
        "kind": "chaos",
        "summary": "seeded all-mechanism session under a seeded fault plan",
        "duration_s": duration_s,
        "seed": rng.randrange(1 << 31),
        "interval_s": interval_s,
        "mechanisms": list(MECHANISMS),
        "testbed": {"kind": "fleet"},
        "workload": {"name": "phased", "start_s": round(rng.uniform(0.0, 5.0),
                                                         3),
                     "phases": phases},
        "faults": {"default_rate": round(rng.uniform(0.02, 0.15), 4),
                   "rules": rules},
    }


def moneq_manifests(seed: int, ticks: int = SESSION_TICKS):
    """Endless chaos-session manifests over the fleet testbed with all
    nine mechanisms.  Intervals come from shuffled strata of
    ``[MIN_INTERVAL_S, MAX_INTERVAL_S)``, so every eight sessions span
    the whole range once."""
    rng = random.Random(f"moneq-chaos:{seed}")
    index = 0
    width = (MAX_INTERVAL_S - MIN_INTERVAL_S) / INTERVAL_STRATA
    while True:
        strata = list(range(INTERVAL_STRATA))
        rng.shuffle(strata)
        for stratum in strata:
            interval = round(MIN_INTERVAL_S
                             + width * (stratum + rng.random()), 4)
            yield _manifest(rng, index, interval, ticks)
            index += 1


def reduced_manifest(seed: int) -> dict:
    """A short session for the cache-on vs cache-off byte comparison."""
    rng = random.Random(f"moneq-reduced:{seed}")
    return _manifest(rng, 0, MIN_INTERVAL_S, 60)

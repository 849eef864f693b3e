"""The three workloads: what each sets up, runs, and checks.

Each workload offers the same five steps to the runner:

* ``prepare()`` — once per process: imports, registries, first-use
  warm-up.  The runner times it in a few fresh interpreters and adds
  the median to ``setup_s``.
* ``setup()`` — the repeatable build (rig, fleet, warm-up session).
  The runner repeats it and reports the median.
* ``ops(state)`` — the seeded operations, endless and deterministic;
  peak memory is read once ``memory_ops`` of them ran.
* ``run_op(state, op)`` — one operation a user waits for; the runner
  times exactly this call.
* ``check_op(...)`` / ``verify(state)`` — correctness, untimed.

Only generated inputs reach the program; the seed never does.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math

import inputs


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ServiceQuery:
    """Closed loop: one in-process ``ServiceClient``, no sockets, against
    a pre-swept ``build_rig`` BG/Q machine with a sharded envdb."""

    name = "service-query"
    why = ("the only workload where service dispatch, JSON encoding, "
           "store scans and the aggregate cache do most of the work; "
           "device simulation happens only in setup")
    item = "req"
    racks, shards, sweeps = 8, 8, 24
    #: Operations per group the runner takes medians over: one deck.
    group = len(inputs.SERVICE_DECK)
    #: Operations after which peak memory is read: 50 decks.  The
    #: aggregate cache keeps every never-seen window, so memory grows
    #: with the requests served.
    memory_ops = 50 * group
    #: Every n-th response is compared row for row with a direct call.
    check_every = 4

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        from repro.service.loadgen import build_rig
        from repro.service.streaming import reading_json

        self.build_rig, self.reading_json = build_rig, reading_json

    def setup(self):
        machine, _app, client = self.build_rig(
            racks=self.racks, shards=self.shards, sweeps=self.sweeps,
            seed=inputs.service_rig_seed(self.seed))
        store = machine.envdb.store
        t_end = float(machine.clock.now)
        # Dashboards are open before users query: build each dashboard
        # resolution's windows on every shard once.
        for rack in range(self.racks):
            for window in inputs.DASHBOARD_WINDOWS_S:
                client.get("/v2/query/aggregate", {
                    "table": "bpm", "field": "input_power_w", "t0": 0.0,
                    "t1": t_end, "window": window, "prefix": f"R{rack:02d}"})
        return {"client": client, "store": store, "t_end": t_end,
                "cursor_end": store.ingest_cursor}

    def ops(self, state):
        return inputs.service_queries(self.seed, self.racks, state["t_end"],
                                      state["cursor_end"])

    def run_op(self, state, op):
        _kind, path, params = op
        response = state["client"].get(path, params)
        body = response.body
        return response.status, body, json.loads(body)

    def check_op(self, state, index, op, result, verify, acc) -> tuple[int, bool]:
        status, body, payload = result
        acc["bytes"] = acc.get("bytes", 0) + len(body)
        if "plan" in payload:
            acc["fan_out"] = acc.get("fan_out", 0) + payload["plan"]["fan_out"]
            acc["planned"] = acc.get("planned", 0) + 1
        if status != 200:
            return 1, False
        if not verify or index % self.check_every:
            return 1, True
        return 1, self._expected(state["store"], op) == (
            payload.get("cursor"), json.dumps(payload["rows"], sort_keys=True))

    def _expected(self, store, op):
        reading_json = self.reading_json
        kind, _path, p = op
        cursor = None
        if kind == "range":
            rows = [reading_json(r) for r in store.range(
                p["table"], p["t0"], p["t1"], p["prefix"])]
        elif kind == "prefix":
            rows = [reading_json(r) for r in store.prefix(p["table"],
                                                          p["prefix"])]
        elif kind == "latest":
            rows = [reading_json(r) for _, r in
                    sorted(store.latest(p["table"], p["prefix"]).items())]
        elif kind == "tail":
            batch = store.tail(p["table"], cursor=p["cursor"],
                               limit=p["limit"])
            rows = [reading_json(r) for r in batch.readings]
            cursor = batch.cursor
        else:
            rows = [{"location": a.location, "field": a.field,
                     "window_start": a.window_start, "window_s": a.window_s,
                     "count": a.count, "min": a.minimum, "mean": a.mean,
                     "max": a.maximum}
                    for a in store.aggregate(p["table"], p["field"], p["t0"],
                                             p["t1"], p["window"],
                                             p["prefix"])]
        return cursor, json.dumps(rows, sort_keys=True)

    def verify(self, state) -> tuple[int, int]:
        return 0, 0

    @staticmethod
    def extras(acc: dict, ops: int) -> dict:
        return {"bytes_per_request": acc.get("bytes", 0) / max(ops, 1),
                "fan_out": acc.get("fan_out", 0) / max(acc.get("planned", 0),
                                                       1)}


class FleetSweep:
    """A seeded fleet of Mira-class sites, then one-sweep ``fleet_sweep``
    horizons, each with the pre-sweep rebalance and a federated rollup.

    Every fleet serves one cycle of horizons and is then rebuilt
    (untimed), so the rollup history, and with it the cost of an
    operation and the memory held, is the same in every cycle however
    many cycles a run completes."""

    name = "fleet-sweep"
    why = ("the store's write side beside service-query's read side, and "
           "the workload where the BG/Q power model does most of the work")
    item = "record"
    sites = 2
    #: 48 racks per site, so the pre-sweep reshard fires (16 do not).
    racks = 48
    poll_s = 60.0
    #: One round of the rollup windows per fleet, which is also the
    #: group the runner takes medians over.
    horizons_per_fleet = group = len(inputs.ROLLUP_WINDOWS_S)
    #: Operations after which peak memory is read: two fleets.
    memory_ops = 2 * horizons_per_fleet

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        import repro.fleet.sites as fleet_sites
        from repro.fleet.sweep import fleet_sweep

        # build_fleet is looked up on its module at call time, so a
        # traced run's wrapper sees it.
        self.fleet_sites, self.fleet_sweep = fleet_sites, fleet_sweep

    def setup(self):
        fleet = self.fleet_sites.build_fleet(
            n_sites=self.sites, racks=self.racks,
            seed=inputs.fleet_seed(self.seed), poll_interval_s=self.poll_s)
        locations = sum(len(site.envdb.sweep_locations())
                        for site in fleet.sites.values())
        return {"fleet": fleet, "horizons": 0, "locations": locations}

    def ops(self, state):
        return inputs.fleet_horizons(self.seed)

    def run_op(self, state, window_s):
        state["horizons"] += 1
        return self.fleet_sweep(state["fleet"],
                                duration_s=self.poll_s * state["horizons"],
                                poll_interval_s=self.poll_s,
                                window_s=window_s)

    def check_op(self, state, index, window_s, report, verify,
                 acc) -> tuple[int, bool]:
        sweeps = state["horizons"]
        # Sweeps land at poll, 2 * poll, ...; the rollup covers them all.
        windows = len({math.floor(self.poll_s * k / window_s)
                       for k in range(1, sweeps + 1)})
        ok = (report.sweeps == self.sites
              and report.records == state["locations"]
              and report.dropped == 0
              and report.rollup_windows == windows)
        if sweeps == self.horizons_per_fleet:
            ok = ok and self._totals_ok(state)
            # Tear-down is untimed like the build it precedes.  A fleet
            # is held in reference cycles, so it is collected first, or
            # peak memory would hold two fleets.
            state["fleet"] = None
            gc.collect()
            state.update(self.setup())
        return report.records, ok

    @staticmethod
    def _totals_ok(state) -> bool:
        fleet = state["fleet"]
        return (fleet.records_ingested == state["locations"] * state["horizons"]
                and fleet.dropped_records == 0)

    def verify(self, state) -> tuple[int, int]:
        return 1, int(not self._totals_ok(state))

    @staticmethod
    def extras(acc: dict, ops: int) -> dict:
        return {}


class MoneqChaos:
    """Seeded chaos-session manifests, all nine mechanisms on the fleet
    testbed, each run through ``run_pack(..., jobs=1, cache=False)``."""

    name = "moneq-chaos"
    why = ("the only workload through repro.packs, repro.exec, "
           "repro.core.moneq, repro.mech and repro.chaos; the store and "
           "service are unused")
    item = "row"
    ticks = inputs.SESSION_TICKS
    #: One session per interval stratum; also the sessions of one
    #: cycle (see ``run_op``).
    group = inputs.INTERVAL_STRATA
    #: Operations after which peak memory is read: four cycles, since
    #: the allocator's holdings still grow over the first few.
    memory_ops = 4 * group

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        from repro.mech.cache import channel_cache_disabled
        from repro.packs.run import run_pack

        self.run_pack = run_pack
        self.channel_cache_disabled = channel_cache_disabled
        # The first pack run pays the lazy imports and the mechanism
        # and experiment registries; later ones do not.
        self.setup()

    def _run(self, manifest: dict) -> dict:
        result = self.run_pack(manifest, jobs=1, cache=False)
        return result.payloads[result.exp_id]

    def setup(self):
        self._run(inputs.reduced_manifest(self.seed))
        return {"first": None, "sessions": 0}

    def ops(self, state):
        return inputs.moneq_manifests(self.seed, self.ticks)

    def run_op(self, state, manifest):
        payload = self._run(manifest)
        state["sessions"] += 1
        # Pack runs leave their session buffers in reference cycles that
        # CPython's automatic full collection does not reach (few objects
        # holding large arrays): one process grows by about 26 MB a
        # session, to 1.7 GB after 60.  A cycle of sessions stands for
        # one user process, so its last session ends with the collection
        # that process exit would make, inside the timed call: its cost
        # is in throughput and a whole cycle's leftovers are in peak
        # memory.
        if state["sessions"] % self.group == 0:
            gc.collect()
        return payload

    def check_op(self, state, index, manifest, payload, verify,
                 acc) -> tuple[int, bool]:
        if state["first"] is None:
            state["first"] = (manifest, _digest(payload))
        rows = sum(1 for _, text in payload["outputs"]
                   for line in text.splitlines() if not line.startswith("#"))
        agents = len(manifest["mechanisms"])
        ok = (len(payload["outputs"]) == agents
              and rows == payload["ticks"] * agents
              and payload["ticks"] >= self.ticks - 1)
        return rows, ok

    def verify(self, state) -> tuple[int, int]:
        """Same seed, same bytes; channel cache on == off."""
        if state["first"] is None:
            return 2, 2
        manifest, digest = state["first"]
        repeat_ok = _digest(self._run(manifest)) == digest
        reduced = inputs.reduced_manifest(self.seed)
        cached = self._run(reduced)["outputs"]
        with self.channel_cache_disabled():
            plain = self._run(reduced)["outputs"]
        return 2, int(not repeat_ok) + int(cached != plain)

    @staticmethod
    def extras(acc: dict, ops: int) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (ServiceQuery, FleetSweep, MoneqChaos)}

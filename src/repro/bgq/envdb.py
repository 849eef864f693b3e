"""The Blue Gene environmental database.

"Blue Gene systems have environmental monitoring capabilities that
periodically sample and gather environmental data from various sensors
and store this collected information together with the timestamp and
location information in an IBM DB2 relational database.  ...  This
sensor data is collected at relatively long polling intervals (about 4
minutes on average but can be configured anywhere within a range of
60-1,800 seconds), and while a shorter polling interval would be ideal,
the resulting volume of data alone would exceed the server's processing
capacity."  (paper §II-A)

Storage routes through :class:`repro.store.ShardedStore`: records shard
by rack prefix, each shard carries the paper's single-server ingest
ceiling, and sweeps are written as one batch.  The default
``shards=1`` *is* the paper's DB2 server — same capacity arithmetic,
same query results — while ``shards=16`` sustains a full-Mira sweep at
the 60 s minimum interval.  A sweep meters every registered BPM in one
columnar pass (:class:`~repro.bgq.bpm.BpmColumns`) and stages the
whole sweep's records at once.  Queries return :class:`EnvRecord` rows
(the legacy shape) adapted from the store's normalized
:class:`~repro.store.Reading` records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgq.bpm import BpmColumns, BulkPowerModule
from repro.errors import ConfigError
from repro.obs.instruments import ENVDB_POLLS, ENVDB_QUERY_ROWS, ENVDB_RECORDS, collector
from repro.sim.events import EventQueue
from repro.sim.hashrand import hash_normal
from repro.store import Aggregate, Reading, ShardedStore, WriteBatcher

_OBS = collector("envdb")
_RECORD_COUNTERS = {}

#: Allowed polling-interval range (s).
MIN_POLL_INTERVAL_S = 60.0
MAX_POLL_INTERVAL_S = 1800.0
#: The "about 4 minutes on average" default.
DEFAULT_POLL_INTERVAL_S = 240.0

#: DB2 server ingest ceiling, records/second — sized so that a full
#: Mira (1,536 BPM sweeps x 4 tables) saturates the server below the
#: 60 s minimum interval but runs comfortably at the ~4 minute default,
#: the paper's capacity rationale.  With sharding this is a *per-shard*
#: ceiling; one shard reproduces the paper's single server.
SERVER_CAPACITY_RECORDS_PER_S = 60.0


@dataclass(frozen=True)
class EnvRecord:
    """One row: timestamp, location, measurement name -> value.

    Legacy adapter over :class:`repro.store.Reading` — the shape the
    seed envdb exposed and the bgq tests still consume.
    """

    timestamp: float
    location: str
    values: dict[str, float]

    @classmethod
    def from_reading(cls, reading: Reading) -> "EnvRecord":
        return cls(reading.timestamp, reading.location, dict(reading.values))

    def to_reading(self) -> Reading:
        return Reading(self.timestamp, self.location, "envdb",
                       dict(self.values))


class EnvironmentalDatabase:
    """The environmental database plus its polling agent.

    Parameters
    ----------
    queue:
        Event queue driving the poller.
    poll_interval_s:
        Must lie within the documented 60-1800 s range.
    shards:
        Independent stores the records shard across (by rack prefix).
        1 — the default — models the paper's single DB2 server.
    """

    TABLES = ("bpm", "coolant", "temperature", "fan")

    def __init__(self, queue: EventQueue,
                 poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
                 shards: int = 1):
        if not MIN_POLL_INTERVAL_S <= poll_interval_s <= MAX_POLL_INTERVAL_S:
            raise ConfigError(
                f"poll interval {poll_interval_s} s outside the configurable "
                f"range [{MIN_POLL_INTERVAL_S}, {MAX_POLL_INTERVAL_S}] s"
            )
        self.queue = queue
        self.poll_interval_s = float(poll_interval_s)
        self.store = ShardedStore(
            self.TABLES, n_shards=shards,
            capacity_records_per_s=SERVER_CAPACITY_RECORDS_PER_S,
        )
        self._batcher = WriteBatcher(self.store)
        self._meters = BpmColumns()
        self._sweep_locations: list[str] = []
        self._polls = 0
        self._started = False

    # -- sensor registration --------------------------------------------------

    def register_bpm(self, bpm: BulkPowerModule) -> None:
        self._meters.add(bpm)
        self._sweep_locations.extend((bpm.location, bpm.node_board.location,
                                      bpm.node_board.location, bpm.location))

    @property
    def sensors_per_poll(self) -> int:
        """Records written per polling sweep: BPM rows plus the ambient
        coolant/temperature/fan rows each rack contributes."""
        return len(self._meters) * 4  # bpm, coolant, temperature, fan rows

    def sweep_locations(self) -> list[str]:
        """One location per record a sweep writes, in sweep order — the
        capacity model's input, and what fleet rebalancing sizes shard
        maps against."""
        return list(self._sweep_locations)

    # -- capacity model --------------------------------------------------------

    def ingest_rate(self, poll_interval_s: float | None = None) -> float:
        """Records/second the whole fleet offers at a given interval."""
        interval = self.poll_interval_s if poll_interval_s is None else poll_interval_s
        return self.sensors_per_poll / interval

    def capacity_fraction(self, poll_interval_s: float | None = None) -> float:
        """Fraction of the ingest ceiling the *hottest shard* consumes.

        With one shard this is exactly the seed's single-server figure:
        offered records / (interval x server capacity).
        """
        interval = self.poll_interval_s if poll_interval_s is None else poll_interval_s
        return self.store.capacity_fraction(self.sweep_locations(), interval)

    def shortest_sustainable_interval(self) -> float:
        """The fastest poll the hottest shard could sustain for this
        sensor population (clamped into the configurable range)."""
        load = self.store.sweep_load(self.sweep_locations(), 1.0)
        raw = max(load.values(), default=0.0)
        return min(max(raw, MIN_POLL_INTERVAL_S), MAX_POLL_INTERVAL_S)

    @property
    def dropped_records(self) -> int:
        """Records lost to shard saturation since the poller started."""
        return self.store.dropped_records

    # -- polling ---------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sweeps on the event queue."""
        if self._started:
            raise ConfigError("environmental poller already started")
        self._started = True
        self.queue.schedule_in(self.poll_interval_s, self._sweep)

    def _sweep(self, t: float) -> None:
        self._polls += 1
        ENVDB_POLLS.inc()
        for table in self.TABLES:
            child = _RECORD_COUNTERS.get(table)
            if child is None:
                child = _RECORD_COUNTERS[table] = ENVDB_RECORDS.labels(table)
            child.inc(len(self._meters))
        if len(self._meters):
            self._batcher.extend(self._sweep_records(t))
            self._batcher.flush(self.poll_interval_s)
        self.queue.schedule_in(self.poll_interval_s, self._sweep)

    def _sweep_records(self, t: float) -> list[tuple[str, Reading]]:
        """One sweep's rows, BPM by BPM: its metered row, then the
        ambient coolant/temperature/fan rows derived from the board's
        electrical state.  Every value is computed column-wise."""
        metered = self._meters.metered(t)
        out_w = metered["output_power_w"]
        jitter = hash_normal(self._meters.seeds ^ 0xC0FFEE, int(round(t)))
        bpm_rows = zip(*(column.tolist() for column in metered.values()))
        coolant_rows = zip((18.0 + 0.2 * jitter).tolist(),
                           (310.0 + 1.5 * jitter).tolist(),
                           (16.5 + 0.1 * jitter).tolist(),
                           (16.5 + out_w / 900.0).tolist())
        board_c = (24.0 + out_w / 250.0).tolist()
        fan_rpm = (3600.0 + out_w / 4.0).tolist()
        records: list[tuple[str, Reading]] = []
        add = records.append
        for bpm, (in_w, in_a, out, out_a), (flow, pressure, inlet, outlet), \
                board, rpm in zip(self._meters.bpms, bpm_rows, coolant_rows,
                                  board_c, fan_rpm):
            bpm_loc, board_loc = bpm.location, bpm.node_board.location
            add(("bpm", Reading(t, bpm_loc, "envdb", {
                "input_power_w": in_w, "input_current_a": in_a,
                "output_power_w": out, "output_current_a": out_a})))
            add(("coolant", Reading(t, board_loc, "envdb", {
                "flow_lpm": flow, "pressure_kpa": pressure,
                "inlet_c": inlet, "outlet_c": outlet})))
            add(("temperature", Reading(t, board_loc, "envdb",
                                        {"board_c": board})))
            add(("fan", Reading(t, bpm_loc, "envdb", {"speed_rpm": rpm})))
        return records

    @property
    def polls_completed(self) -> int:
        return self._polls

    # -- queries ----------------------------------------------------------------

    def query(self, table: str, t0: float, t1: float,
              location_prefix: str = "") -> list[EnvRecord]:
        """Range + location-prefix query over one table (legacy rows)."""
        return [EnvRecord.from_reading(r)
                for r in self.range_readings(table, t0, t1, location_prefix)]

    def range_readings(self, table: str, t0: float, t1: float,
                       location_prefix: str = "") -> list[Reading]:
        """Range + location-prefix query, as normalized readings."""
        readings = self.store.range(table, t0, t1, location_prefix)
        _OBS.count_query()
        ENVDB_QUERY_ROWS.inc(len(readings))
        return readings

    def aggregate(self, table: str, field: str, t0: float, t1: float,
                  window_s: float, location_prefix: str = "") -> list[Aggregate]:
        """Downsampled min/mean/max per location per window — the
        cache-backed path figure pipelines use for repeated scans."""
        _OBS.count_query()
        return self.store.aggregate(table, field, t0, t1, window_s,
                                    location_prefix)

    def bpm_input_power_series(self, location_prefix: str, t0: float,
                               t1: float) -> tuple[list[float], list[float]]:
        """(times, input watts) for Figure 1-style plots."""
        records = self.query("bpm", t0, t1, location_prefix)
        return ([r.timestamp for r in records],
                [r.values["input_power_w"] for r in records])

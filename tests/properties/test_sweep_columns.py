"""Property tests: the columnar envdb sweep vs the scalar oracle.

A sweep meters every BPM in one array pass and derives the ambient
coolant/temperature/fan rows column-wise.  The oracle is the per-BPM
form: ``bpm.metered(t)`` plus ``hash_normal(bpm.seed ^ 0xC0FFEE,
round(t))`` for the coolant jitter, ingested record by record.  For
random rigs — rack and shard counts, poll interval, seeds, MMPS /
no-op jobs on random boards, parasitic loads, and starved ingest
budgets that force drops — every row of every table must match bit
for bit, in order, along with the tail log and the per-shard drops.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgq.machine import BgqMachine
from repro.devices.power import ComponentPowerModel
from repro.sim.hashrand import hash_normal
from repro.sim.rng import RngRegistry
from repro.sim.signals import ConstantSignal
from repro.store import Reading, ShardedStore
from repro.workloads.base import Component
from repro.workloads.mmps import MmpsWorkload
from repro.workloads.noop import GpuNoopWorkload

from tests.store.test_ingest_batch import per_record_ingest, tail_cursors

BGQ_COMPONENTS = [Component.BGQ_CHIP_CORE, Component.BGQ_DRAM,
                  Component.BGQ_HSS, Component.BGQ_SRAM]


def oracle_records(machine: BgqMachine, t: float) -> list[tuple[str, Reading]]:
    """One sweep's rows the per-BPM way."""
    records = []
    for board in machine.node_boards():
        bpm = machine.bpm(board.location)
        metered = bpm.metered(t)
        out_w = metered["output_power_w"]
        jitter = float(hash_normal(bpm.seed ^ 0xC0FFEE, int(round(t))))
        records.append(("bpm", Reading(t, bpm.location, "envdb", metered)))
        records.append(("coolant", Reading(t, board.location, "envdb", {
            "flow_lpm": 18.0 + 0.2 * jitter,
            "pressure_kpa": 310.0 + 1.5 * jitter,
            "inlet_c": 16.5 + 0.1 * jitter,
            "outlet_c": 16.5 + out_w / 900.0})))
        records.append(("temperature", Reading(
            t, board.location, "envdb", {"board_c": 24.0 + out_w / 250.0})))
        records.append(("fan", Reading(
            t, bpm.location, "envdb", {"speed_rpm": 3600.0 + out_w / 4.0})))
    return records


def exact(readings) -> list:
    """Rows with every float spelled out bit for bit."""
    return [(r.timestamp.hex(), r.location, r.mechanism,
             [(name, value.hex()) for name, value in r.values.items()])
            for r in readings]


@st.composite
def rigs(draw):
    racks = draw(st.integers(1, 2))
    boards = racks * 32
    jobs = draw(st.lists(st.tuples(
        st.sampled_from(["mmps", "noop"]),
        st.integers(0, boards - 1),
        st.sampled_from([0.0, 30.0, 100.0, 250.0])), max_size=4))
    parasitic = draw(st.lists(st.tuples(
        st.integers(0, boards - 1), st.sampled_from(BGQ_COMPONENTS),
        st.floats(0.0, 1.5)), max_size=2))
    return {
        "racks": racks,
        "shards": draw(st.integers(1, 4)),
        "poll": draw(st.sampled_from([60.0, 90.0, 240.0])),
        "seed": draw(st.integers(0, 2**64 - 1)),
        # records/s per shard: the envdb default, or one a sweep
        # saturates so drops happen.
        "capacity": draw(st.sampled_from([60.0, 0.5])),
        "mmps_nodes": draw(st.sampled_from([0, 32, 320, 1024])),
        "jobs": jobs,
        "parasitic": parasitic,
        "sweeps": draw(st.integers(1, 4)),
    }


def build(rig) -> BgqMachine:
    machine = BgqMachine(racks=rig["racks"], rng=RngRegistry(rig["seed"]),
                         poll_interval_s=rig["poll"],
                         envdb_shards=rig["shards"])
    machine.envdb.store.capacity_records_per_s = rig["capacity"]
    if rig["mmps_nodes"]:
        machine.run_job(MmpsWorkload(duration=400.0), rig["mmps_nodes"],
                        t_start=20.0)
    boards = machine.node_boards()
    for kind, index, start in rig["jobs"]:
        workload = MmpsWorkload() if kind == "mmps" else GpuNoopWorkload()
        boards[index].board.schedule(workload, start)
    for index, component, level in rig["parasitic"]:
        boards[index].board.add_parasitic(component, ConstantSignal(level))
    return machine


def check_rig(rig) -> BgqMachine:
    machine = build(rig)
    oracle = build(rig)
    store = machine.envdb.store
    reference = ShardedStore(machine.envdb.TABLES, n_shards=rig["shards"],
                             capacity_records_per_s=rig["capacity"])
    dropped: dict[int, int] = {}
    t = 0.0
    for _ in range(rig["sweeps"]):
        t = t + rig["poll"]
        for index, n in per_record_ingest(
                reference, oracle_records(oracle, t), rig["poll"]).items():
            dropped[index] = dropped.get(index, 0) + n
    machine.advance_to(t + rig["poll"] / 2.0)

    assert machine.envdb.polls_completed == rig["sweeps"]
    for table in machine.envdb.TABLES:
        assert exact(store.range(table, -math.inf, math.inf)) == \
            exact(reference.range(table, -math.inf, math.inf))
        assert exact(store.tail(table).readings) == \
            exact(reference.tail(table).readings)
        assert tail_cursors(store, table) == tail_cursors(reference, table)
    assert store.ingest_cursor == reference.ingest_cursor
    assert {i: n for i, n in store.dropped_by_shard.items() if n} == dropped
    return machine


class TestColumnarSweep:
    @given(rig=rigs())
    @settings(max_examples=25, deadline=None)
    def test_sweep_matches_scalar_oracle(self, rig):
        check_rig(rig)

    def test_saturating_rig_drops_and_still_matches(self):
        machine = check_rig({
            "racks": 2, "shards": 2, "poll": 60.0, "seed": 2**63 + 5,
            "capacity": 0.5, "mmps_nodes": 1024,
            "jobs": [("noop", 3, 0.0), ("mmps", 40, 30.0)],
            "parasitic": [(7, Component.BGQ_DRAM, 0.4)], "sweeps": 3,
        })
        assert machine.envdb.dropped_records > 0

    def test_idle_rig_never_evaluates_power_models(self, monkeypatch):
        calls = []
        original = ComponentPowerModel.power
        monkeypatch.setattr(ComponentPowerModel, "power",
                            lambda self, t: calls.append(t) or
                            original(self, t))
        machine = BgqMachine(racks=1, poll_interval_s=60.0)
        machine.advance_to(200.0)
        assert machine.envdb.polls_completed == 3
        assert calls == []
        machine.run_job(MmpsWorkload(), 32, t_start=0.0)
        machine.advance_to(260.0)
        # One loaded board: its seven domains, once per sweep.
        assert len(calls) == 7

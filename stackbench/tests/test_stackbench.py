"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest stackbench/tests
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402  (puts the program's src/ on sys.path)
import workloads  # noqa: E402
from tracing import Recorder, Span, self_times, totals  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


GENERATORS = {
    "service": lambda seed: inputs.service_queries(seed, 8, 7681.0, 32768),
    "fleet": inputs.fleet_horizons,
    "moneq": inputs.moneq_manifests,
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(kind):
    make = GENERATORS[kind]
    first = _take(make(7), 40)
    assert first == _take(make(7), 40)
    assert first != _take(make(8), 40)
    assert inputs.fleet_seed(7) == inputs.fleet_seed(7)
    assert inputs.reduced_manifest(7) == inputs.reduced_manifest(7)


def test_generated_manifests_validate():
    from repro.packs.manifest import scenario_from_mapping

    for manifest in _take(inputs.moneq_manifests(3), 16):
        spec = scenario_from_mapping(manifest)
        assert spec.interval_s >= inputs.MIN_INTERVAL_S
        assert spec.mechanisms == inputs.MECHANISMS


def test_self_time_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),    # overlaps a: union, not sum
        Span("c", 9.0, 12.0, 0, 0),   # runs past the parent: clipped
        Span("root", 20.0, 21.0, -1, 1),
        Span("root", 20.2, 20.6, 5, 1),  # recursion into the same name
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 1, 2.5, 3, 1 - 0.4, 0.4])
    inclusive, self_by, calls = totals(spans)
    assert inclusive["root"] == pytest.approx(11.0)  # nested root counted once
    assert self_by["root"] == pytest.approx(4 + 0.6 + 0.4)
    assert calls == {"root": 3, "a": 1, "leaf": 1, "b": 1, "c": 1}


def test_wrappers_keep_return_values_and_restore():
    class Target:
        def method(self, x):
            return [x, "same"]

        @staticmethod
        def helper(x):
            return x * 2

    recorder = Recorder()
    original = Target.__dict__["method"]
    recorder.wrap(Target, "method", "t.method")
    recorder.wrap(Target, "helper", "t.helper")
    recorder.tally(Target, "method", "t.calls")
    assert Target().method(3) == [3, "same"]
    assert Target.helper(4) == 8
    assert [s.name for s in recorder.spans] == ["t.method", "t.helper"]
    assert recorder.counts == {"t.calls": 1}
    recorder.restore()
    assert Target.__dict__["method"] is original
    assert isinstance(Target.__dict__["helper"], staticmethod)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(layers.METRICS)


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT.fullmatch(metric["unit"])


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload so one run takes about a second."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads.ServiceQuery, "racks", 2)
    monkeypatch.setattr(workloads.ServiceQuery, "shards", 2)
    monkeypatch.setattr(workloads.ServiceQuery, "sweeps", 4)
    monkeypatch.setattr(workloads.FleetSweep, "sites", 1)
    monkeypatch.setattr(workloads.FleetSweep, "racks", 2)
    monkeypatch.setattr(workloads.MoneqChaos, "ticks", 20)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "ONCE_REPS", 1)


def _printed(capsys) -> tuple[dict, list[str]]:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


# Seed 2 is held out: no figure was tuned on it.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(small, capsys, name, seed):
    assert run.main(["--workload", name, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", "0"]) == 0
    result, lines = _printed(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert result["metrics"][metric]["value"] > 0
        assert any(line.split()[1:2] == [metric] and line.endswith(unit)
                   for line in lines)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_emitted(small, capsys, name):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.5",
                     "--trace", "1"]) == 0
    result, lines = _printed(capsys)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        metric: unit for metric, unit, _ in layers.METRICS}
    trace = json.loads(Path(run.TRACE_DIR, f"trace-{name}-seed1.json")
                       .read_text())
    assert trace["traceEvents"]


def test_one_time_part_is_timed_in_a_fresh_interpreter():
    assert run.prepare_in_child("fleet-sweep", 1) > 0


def test_run_without_workload_combines_every_result(monkeypatch, capsys):
    results = {
        "service-query": (True, 0, 5.0),
        "fleet-sweep": (False, 1, 7.0),
        "moneq-chaos": (True, 0, 9.0),
    }

    def fake_run(argv, **kwargs):
        correct, failed, value = results[argv[argv.index("--workload") + 1]]
        line = json.dumps({"correct": correct, "attempted": 4,
                           "failed": failed,
                           "metrics": {"throughput": {"value": value,
                                                      "unit": "items/s"}}})
        return run.subprocess.CompletedProcess(argv, 0, f"# info\n{line}\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--seconds", "1"]) == 1
    result, lines = _printed(capsys)
    assert lines == ["# info"] * 3
    assert result == {
        "correct": False, "attempted": 12, "failed": 1,
        "metrics": {f"{name}.throughput": {"value": value, "unit": "items/s"}
                    for name, (_, _, value) in results.items()}}


def test_peak_memory_is_read_after_memory_ops(monkeypatch):
    class Counting:
        memory_ops = 3

        def ops(self, state):
            return itertools.count()

        def run_op(self, state, op):
            state.append(op)

        def check_op(self, state, index, op, out, verify, acc):
            return 1, True

    done: list[int] = []
    monkeypatch.setattr(run, "peak_rss_mb", lambda: float(len(done)))
    assert run.measure(Counting(), done, limit=5).peak_mb == 3.0
    done.clear()  # a pass shorter than memory_ops reads it at the end
    assert run.measure(Counting(), done, limit=2).peak_mb == 2.0

"""The ``repro bench perf --check`` regression gate.

The real benches take seconds and are noise-dominated in CI, so the
gate's *logic* is tested against stub benches: fresh speedups inside
the tolerance band pass, regressions beyond it fail, and a committed
bench that disappeared from the suite fails loudly.
"""

import json

import pytest

from repro import perfbench


@pytest.fixture
def stub_benches(monkeypatch):
    speeds = {"fast_path": 10.0, "steady_path": 1.0}
    monkeypatch.setattr(perfbench, "ALL_BENCHES", {
        name: (lambda s=s: {"wall_s": 0.001, "speedup_vs_scalar": s})
        for name, s in speeds.items()
    })
    return speeds


def _commit(tmp_path, entries):
    path = tmp_path / "BENCH_stub.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_within_tolerance_passes(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 12.0},
        "steady_path": {"wall_s": 0.001, "speedup_vs_scalar": 1.1},
    })
    failures, results = perfbench.check(path)
    assert failures == []
    assert results["fast_path"]["speedup_vs_scalar"] == 10.0


def test_regression_beyond_tolerance_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 20.0},
    })
    failures, _ = perfbench.check(path)
    assert len(failures) == 1
    assert "fast_path" in failures[0]
    assert "20.000x" in failures[0]


def test_missing_bench_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "retired_path": {"wall_s": 0.001, "speedup_vs_scalar": 2.0},
    })
    failures, _ = perfbench.check(path)
    assert any("retired_path" in f for f in failures)


def test_check_never_rewrites_the_committed_file(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 10.0},
    })
    before = open(path).read()
    perfbench.check(path)
    assert open(path).read() == before


def test_committed_trajectory_matches_current_suite():
    """The committed BENCH_moneq.json names exactly the benches the
    suite still runs (so --check can't silently skip one)."""
    import pathlib

    bench_file = pathlib.Path(__file__).resolve().parent.parent / \
        "BENCH_moneq.json"
    committed = json.loads(bench_file.read_text(encoding="utf-8"))
    assert set(committed) == set(perfbench.ALL_BENCHES)


def test_smoke_check_gates_the_fleet_realtime_floor(monkeypatch):
    """The smoke check carries the fleet sweep's realtime floor (the one
    in repro.fleet.sweep): a sweep below it fails the check."""
    from repro.fleet.sweep import REALTIME_FLOOR

    assert perfbench.SMOKE_FLOORS["fleet"] == REALTIME_FLOOR
    speeds = {name: 2.0 * floor
              for name, floor in perfbench.SMOKE_FLOORS.items()}
    speeds["fleet"] = REALTIME_FLOOR / 4
    monkeypatch.setattr(perfbench, "SMOKE_BENCHES", {
        name: (lambda s=s: {"wall_s": 0.001, "speedup_vs_scalar": s})
        for name, s in speeds.items()
    })
    failures, _ = perfbench.check("unused.json", smoke=True)
    floor_failures = [f for f in failures if f.endswith("x floor")]
    assert floor_failures == [
        f"fleet: smoke speedup {REALTIME_FLOOR / 4:.3f}x below the "
        f"{REALTIME_FLOOR:.1f}x floor"]

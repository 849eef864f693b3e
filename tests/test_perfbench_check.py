"""The ``repro bench perf`` harness: one writer, one checker, one schema.

The real benches take seconds and are noise-dominated in CI, so the
gate's *logic* is tested against stub benches: fresh speedups inside
the slack band pass, regressions beyond it fail, a committed bench
that disappeared from the suite fails loudly, and so does a committed
file that is not there.  The committed trajectory files themselves are
checked against the current registries and the fleet floors.
"""

import json
import pathlib

import pytest

from repro import perfbench

REPO = pathlib.Path(__file__).resolve().parent.parent


def _stubs(speeds, **detail):
    return {
        name: (lambda s=s: {"wall_s": 0.001, "speedup_vs_scalar": s,
                            **detail})
        for name, s in speeds.items()
    }


@pytest.fixture
def stub_benches(monkeypatch):
    speeds = {"fast_path": 10.0, "steady_path": 1.0}
    monkeypatch.setattr(perfbench, "ALL_BENCHES", _stubs(speeds))
    return speeds


def _commit(tmp_path, entries, name="BENCH_stub.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"reps": 1, "benches": entries}))
    return str(path)


def test_within_tolerance_passes(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 12.0},
        "steady_path": {"wall_s": 0.001, "speedup_vs_scalar": 1.1},
    })
    failures, results = perfbench.check("full", path)
    assert failures == []
    assert results["fast_path"]["speedup_vs_scalar"] == 10.0


def test_regression_beyond_tolerance_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 20.0},
    })
    failures, _ = perfbench.check("full", path)
    assert len(failures) == 1
    assert "fast_path" in failures[0]
    assert "20.000x" in failures[0]


@pytest.mark.parametrize("profile, min_slack", [
    ("full", perfbench.CHECK_TOLERANCE),
    ("smoke", perfbench.SMOKE_RELATIVE_TOLERANCE),
])
def test_one_slack_rule_for_both_profiles(tmp_path, monkeypatch, profile,
                                          min_slack):
    """``min(0.90, max(min_slack, 2 x spread))`` in either profile: a
    zero spread keeps the profile's own floor, a wide one widens it,
    and the cap keeps the floor above zero."""
    monkeypatch.setattr(perfbench, "SMOKE_FLOORS", {})
    fresh = 10.0
    monkeypatch.setattr(
        perfbench, "ALL_BENCHES" if profile == "full" else "SMOKE_BENCHES",
        _stubs({"tight": fresh, "wide": fresh, "capped": fresh}))
    # Committed so that the fresh 10x sits just below each floor
    # computed with the slack the spread alone would grant.
    path = _commit(tmp_path, {
        "tight": {"wall_s": 0.001, "spread": 0.0,
                  "speedup_vs_scalar": fresh / (1 - min_slack) * 1.01},
        "wide": {"wall_s": 0.001, "spread": 0.4,
                 "speedup_vs_scalar": fresh / (1 - 0.8) * 0.99},
        "capped": {"wall_s": 0.001, "spread": 5.0,
                   "speedup_vs_scalar": fresh / (1 - 0.9) * 1.01},
    })
    failures, _ = perfbench.check(profile, path)
    assert sorted(f.split(":")[0] for f in failures) == ["capped", "tight"]
    assert any(f"- {min_slack:.0%})" in f for f in failures)
    assert any("- 90%)" in f for f in failures)


def test_missing_bench_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "retired_path": {"wall_s": 0.001, "speedup_vs_scalar": 2.0},
    })
    failures, _ = perfbench.check("full", path)
    assert any("retired_path" in f for f in failures)


@pytest.mark.parametrize("profile", ["full", "smoke"])
def test_missing_committed_file_is_a_failure(tmp_path, monkeypatch,
                                             profile):
    """No committed trajectory is a failure naming the path — never a
    check that silently drops its relative floors — and no bench runs."""
    def never():
        raise AssertionError("a bench ran without a committed file")

    monkeypatch.setattr(perfbench, "ALL_BENCHES", {"a": never})
    monkeypatch.setattr(perfbench, "SMOKE_BENCHES", {"a": never})
    monkeypatch.chdir(tmp_path)
    missing = perfbench.TRAJECTORY_PATHS[profile]
    failures, results = perfbench.check(profile)
    assert failures == [f"committed {profile} trajectory {missing} not found"]
    assert results == {}


def test_check_never_rewrites_the_committed_file(tmp_path, stub_benches):
    path = _commit(tmp_path, {
        "fast_path": {"wall_s": 0.001, "speedup_vs_scalar": 10.0},
    })
    before = open(path).read()
    perfbench.check("full", path)
    assert open(path).read() == before


def test_record_round_trips_through_check(tmp_path, monkeypatch):
    """``record`` writes the one schema — per bench the median wall and
    speedup, the spread, and the bench's detail keys — and ``check``
    reads it back.  The service and fleet benches' own detail keys are
    checked next to those benches (``test_write_bench``,
    ``test_fleet_bench_smoke_writes_committed_shape``)."""
    monkeypatch.setattr(perfbench, "ALL_BENCHES",
                        _stubs({"a": 2.0, "b": 3.0}, requests=10))
    path = tmp_path / "BENCH_perf.json"
    trajectory, results = perfbench.record("full", str(path), reps=2)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(trajectory))
    assert on_disk["reps"] == 2 and set(on_disk["benches"]) == {"a", "b"}
    for name, entry in on_disk["benches"].items():
        assert set(entry) == {"wall_s", "speedup_vs_scalar", "spread",
                              "requests"}
        assert entry["spread"] == 0.0  # same figures twice
        assert entry["requests"] == results[name]["requests"] == 10

    monkeypatch.setattr(perfbench, "ALL_BENCHES", {
        name: (lambda e=entry: dict(e))
        for name, entry in on_disk["benches"].items()})
    failures, _ = perfbench.check("full", str(path))
    assert failures == []


def test_block_bench_raises_when_bytes_diverge(monkeypatch):
    """Divergence is an AssertionError from the bench itself, so no
    caller has to inspect a ``byte_identical`` flag."""
    outputs = iter([("scalar",), ("block",)])
    monkeypatch.setattr(perfbench, "_nvml_outputs",
                        lambda *args: next(outputs))
    with pytest.raises(AssertionError, match="diverged"):
        perfbench.bench_moneq_block(agents=2, ticks=20, scalar_ticks=10)


def test_committed_trajectory_matches_current_suite():
    """Each committed trajectory names exactly the benches its profile
    still runs (so --check can't silently skip one), in the one
    schema."""
    for profile, benches in (("full", perfbench.ALL_BENCHES),
                             ("smoke", perfbench.SMOKE_BENCHES)):
        path = REPO / perfbench.TRAJECTORY_PATHS[profile]
        committed = json.loads(path.read_text(encoding="utf-8"))
        assert set(committed) == {"reps", "benches"}
        assert set(committed["benches"]) == set(benches)
        for entry in committed["benches"].values():
            assert {"wall_s", "speedup_vs_scalar", "spread"} <= set(entry)


def test_committed_fleet_figures_hold_floors():
    """The committed 10x-Mira fleet entry must itself satisfy the
    floors the CLI gates on — stale figures fail here, not in review."""
    from repro.fleet.sweep import CACHE_REDUCTION_FLOOR, REALTIME_FLOOR

    path = REPO / perfbench.TRAJECTORY_PATHS["full"]
    fleet = json.loads(path.read_text(encoding="utf-8"))["benches"]["fleet"]
    assert fleet["sites"] == 10 and fleet["racks"] == 48
    assert fleet["records"] > 0 and fleet["dropped"] == 0
    assert fleet["speedup_vs_scalar"] >= REALTIME_FLOOR
    assert fleet["crossings_reduction"] >= CACHE_REDUCTION_FLOOR
    assert fleet["byte_identical"] is True


def test_smoke_check_gates_the_fleet_realtime_floor(tmp_path, monkeypatch):
    """The smoke check carries the fleet sweep's realtime floor (the one
    in repro.fleet.sweep): a sweep below it fails the check."""
    from repro.fleet.sweep import REALTIME_FLOOR

    assert perfbench.SMOKE_FLOORS["fleet"] == REALTIME_FLOOR
    speeds = {name: 2.0 * floor
              for name, floor in perfbench.SMOKE_FLOORS.items()}
    speeds["fleet"] = REALTIME_FLOOR / 4
    monkeypatch.setattr(perfbench, "SMOKE_BENCHES", _stubs(speeds))
    path = _commit(tmp_path, {}, name="BENCH_smoke.json")
    failures, _ = perfbench.check("smoke", path)
    assert failures == [
        f"fleet: smoke speedup {REALTIME_FLOOR / 4:.3f}x below the "
        f"{REALTIME_FLOOR:.1f}x floor"]

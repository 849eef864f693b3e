"""Byte goldens for the chaos scenario catalog.

The summary lines and metric values below were recorded from the
pre-pack ``run_scenario`` path; any byte of drift means a scenario's
fault timeline, retry schedule or tick grid changed.  They are
regression pins, not round-trips through the code's own formatting.
"""

import pytest

import repro.obs as obs
from repro.chaos import run_scenario
from repro.chaos.scenarios import DEFAULT_DURATION_S

#: (scenario, seed, duration_s, rate, expected summary line).
GOLDENS = [
    ("bus_noise", 7, DEFAULT_DURATION_S, None,
     "[repro chaos run] scenario=bus_noise seed=7 interval_s=0.560 "
     "ticks=21 faults=5 recovered=5 dark=0 retries=5 backoff_s=0.112334 "
     "breaker_opens=0 stale=0"),
    ("bmc_dark", 805381, DEFAULT_DURATION_S, None,
     "[repro chaos run] scenario=bmc_dark seed=805381 interval_s=0.560 "
     "ticks=21 faults=4 recovered=0 dark=13 retries=8 backoff_s=0.262456 "
     "breaker_opens=2 stale=0"),
    ("daemon_wedge", 805381, DEFAULT_DURATION_S, None,
     "[repro chaos run] scenario=daemon_wedge seed=805381 "
     "interval_s=0.560 ticks=21 faults=13 recovered=0 dark=0 retries=0 "
     "backoff_s=0.000000 breaker_opens=0 stale=13"),
    ("bus_noise", 11, 6.0, 0.3,
     "[repro chaos run] scenario=bus_noise seed=11 interval_s=0.560 "
     "ticks=10 faults=7 recovered=7 dark=0 retries=8 backoff_s=0.194979 "
     "breaker_opens=0 stale=0"),
]


@pytest.mark.parametrize(
    "name, seed, duration_s, rate, golden", GOLDENS,
    ids=[f"{name}-seed{seed}-{duration_s:g}s"
         + ("" if rate is None else f"-r{rate:g}")
         for name, seed, duration_s, rate, _ in GOLDENS])
def test_summary_lines_are_byte_identical(name, seed, duration_s, rate,
                                          golden):
    result = run_scenario(name, seed=seed, duration_s=duration_s, rate=rate)
    assert result.summary_line() == golden


def test_summary_line_is_stable_across_runs():
    """Two runs of one (scenario, seed) render the same bytes, and the
    line carries every field of the summary."""
    first = run_scenario("bus_noise", seed=7).summary_line()
    assert first.startswith(
        "[repro chaos run] scenario=bus_noise seed=7 interval_s=0.560 ")
    for field in ("ticks=", "faults=", "recovered=", "dark=", "retries=",
                  "backoff_s=", "breaker_opens=", "stale="):
        assert field in first
    assert run_scenario("bus_noise", seed=7).summary_line() == first


def test_duration_and_rate_overrides_reach_the_summary():
    line = run_scenario("bus_noise", seed=3, duration_s=3.0,
                        rate=0.5).summary_line()
    assert "scenario=bus_noise seed=3" in line
    # A shorter session samples fewer ticks than the default duration.
    assert "ticks=21 " not in line


def test_bus_noise_seed_7_metric_families():
    """From zeroed counters, one bus_noise seed-7 run moves exactly
    these chaos/retry series, by exactly these amounts (a reset keeps
    earlier series at 0; those did not move)."""
    obs.reset()
    run_scenario("bus_noise", seed=7)
    lines = [line for line in obs.dump().splitlines()
             if line.startswith(("repro_chaos", "repro_retry"))
             and not line.endswith(" 0")]
    assert lines == [
        'repro_chaos_faults_injected_total{mechanism="ipmb",'
        'kind="ipmb_drop"} 5',
        'repro_retry_attempts_total{mechanism="ipmb"} 5',
        'repro_retry_backoff_seconds_total{mechanism="ipmb"} '
        "0.11233358588285475",
    ]

"""Skipping clean ticks decides exactly like walking every tick.

``ChannelInjector.cross_block_verdicts`` jumps a closed breaker straight
to the next faulted tick.  The reference here resolves every tick of the
same draws one at a time; both must agree on the verdicts, the fault
timeline, the plan's stats and every chaos/retry metric — across block
boundaries and breaker open/half-open cycles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.chaos import FaultPlan, FaultRule
from repro.chaos.injector import _DARK, _STALE, BREAKER_OPEN_KIND, WEDGED_KIND
from repro.chaos.retry import CLOSED, HALF_OPEN, OPEN
from repro.obs.instruments import (
    CHAOS_BREAKER_TRANSITIONS,
    CHAOS_DARK_READS,
    CHAOS_FAULTS,
    CHAOS_STALE_READS,
    COLLECTOR_ERRORS,
    RETRY_ATTEMPTS,
    RETRY_BACKOFF_SECONDS,
    RETRY_EXHAUSTED,
)

MECHANISM, LABEL = "ipmb", "mic0"
INTERVAL_S = 0.5


def _reference_verdicts(injector, times):
    """Every tick through ``_cross_one``, clean ones included."""
    fault_rule = injector.draw_faults(times)
    dark = np.zeros(times.shape[0], dtype=bool)
    stale = np.zeros(times.shape[0], dtype=bool)
    if injector.rules:
        for i, t in enumerate(times):
            verdict = injector._cross_one(float(t), int(fault_rule[i]))
            dark[i] = verdict == _DARK
            stale[i] = verdict == _STALE
    return dark, stale


def _metrics(kinds) -> dict:
    values = {
        "dark": CHAOS_DARK_READS.value(MECHANISM),
        "stale": CHAOS_STALE_READS.value(MECHANISM),
        "retries": RETRY_ATTEMPTS.value(MECHANISM),
        "backoff": RETRY_BACKOFF_SECONDS.value(MECHANISM),
        "exhausted": RETRY_EXHAUSTED.value(MECHANISM),
    }
    for state in (CLOSED, OPEN, HALF_OPEN):
        values[state] = CHAOS_BREAKER_TRANSITIONS.value(MECHANISM, state)
    for kind in {*kinds, BREAKER_OPEN_KIND}:
        values[f"fault.{kind}"] = CHAOS_FAULTS.value(MECHANISM, kind)
        values[f"error.{kind}"] = COLLECTOR_ERRORS.value(MECHANISM, kind)
    return values


def _run(make_plan, resolve, times, cuts, queries):
    """Resolve ``times`` block by block; returns everything observable."""
    plan = make_plan()
    injector = plan.injector(None, MECHANISM, LABEL).bind(queries)
    # Absolute values from zero, not deltas: float counters (backoff
    # seconds) would round differently on top of earlier totals.
    obs.reset()
    bounds = [0, *cuts, times.shape[0]]
    blocks = [resolve(injector, times[a:b]) for a, b in zip(bounds, bounds[1:])]
    dark = np.concatenate([d for d, _ in blocks])
    stale = np.concatenate([s for _, s in blocks])
    return {
        "dark": dark.tolist(),
        "stale": stale.tolist(),
        "timeline": plan.timeline_lines(),
        "stats": plan.stats,
        "breaker": (injector.breaker.state, injector.breaker.opens),
        "metrics": _metrics([rule.kind for rule in plan.rules]),
    }


def _assert_parity(make_plan, times, cuts, queries):
    fast = _run(make_plan, lambda inj, t: inj.cross_block_verdicts(t),
                times, cuts, queries)
    slow = _run(make_plan, _reference_verdicts, times, cuts, queries)
    assert fast == slow
    return fast


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rate=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0]),
    threshold=st.integers(1, 4),
    cooldown=st.integers(1, 6),
    queries=st.integers(1, 3),
    wedge=st.one_of(st.none(), st.tuples(st.integers(0, 150),
                                         st.integers(1, 60))),
    n=st.integers(1, 200),
    cuts=st.lists(st.integers(1, 199), max_size=5),
)
def test_skipping_clean_ticks_matches_per_tick_reference(
        seed, rate, threshold, cooldown, queries, wedge, n, cuts):
    rules = [FaultRule(MECHANISM, rate)]
    if wedge is not None:
        start = wedge[0] * INTERVAL_S
        rules.insert(0, FaultRule(MECHANISM, 1.0, kind=WEDGED_KIND,
                                  t_start=start,
                                  t_end=start + wedge[1] * INTERVAL_S))
    times = INTERVAL_S * np.arange(1, n + 1, dtype=np.float64)
    _assert_parity(
        lambda: FaultPlan(seed, rules, breaker_threshold=threshold,
                          breaker_cooldown=cooldown),
        times, sorted({c for c in cuts if c < n}), queries)


def test_breaker_cycles_across_block_boundaries():
    """A dead stretch opens the breaker, cooldowns and half-open probes
    straddle block edges, and clean ticks close it again."""
    rules = [FaultRule(MECHANISM, 1.0, t_start=20.0, t_end=40.0),
             FaultRule(MECHANISM, 0.2)]
    times = INTERVAL_S * np.arange(1, 241, dtype=np.float64)
    out = _assert_parity(
        lambda: FaultPlan(7, rules, breaker_threshold=2, breaker_cooldown=5),
        times, [37, 41, 42, 83, 90, 150], 2)
    assert out["breaker"][1] > 1
    assert out["metrics"][OPEN] > 1 and out["metrics"][HALF_OPEN] > 1
    assert out["metrics"][CLOSED] >= 1
    assert any("breaker_open" in line for line in out["timeline"])

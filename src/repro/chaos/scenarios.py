"""Named chaos scenarios: composed fault plans run against the fleet.

A scenario is a recipe: which :class:`~repro.chaos.faults.FaultRule`
set to install, over which slice of a fleet-wide MonEQ session.  Since
the scenario-pack refactor the catalog is **data**: each recipe is a
``kind = "chaos"`` manifest in the repository's ``packs/`` directory
(``bmc_dark.toml``, ``daemon_wedge.toml``, ``bus_noise.toml`` — the
reliability stories the ROADMAP names), and :data:`SCENARIOS` is
derived from those manifests by :func:`repro.packs.catalog.
chaos_scenarios`.  The recipes themselves are unchanged — the rule
tuples a scenario builds are bit-identical to the hand-written
catalog this module used to carry.

``run_scenario`` executes one catalog scenario through the pack
runtime (:func:`repro.packs.runtime.execute_scenario` — the same code
path ``repro pack run`` compiles onto the exec engine), and returns a
:class:`ScenarioResult` whose :meth:`~ScenarioResult.summary_line` is
byte-stable for a given (scenario, seed) — the scenario goldens and
the determinism property suite both pin it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.faults import FaultEvent, FaultPlan, FaultRule
from repro.errors import ChaosError

#: Virtual-time length of a scenario session (the fleet's EMON floor is
#: 0.56 s per tick, so this spans ~21 collection ticks).
DEFAULT_DURATION_S = 12.0
DEFAULT_SEED = 0xC4A05


@dataclass(frozen=True)
class ChaosScenario:
    """One named recipe: fault rules as a function of the run window."""

    name: str
    summary: str
    #: ``rules(duration_s, rate)`` -> the plan's rule tuple.
    rules: Callable[[float, float], tuple[FaultRule, ...]]
    #: Default per-exchange rate where the scenario is rate-shaped.
    default_rate: float = 1.0

    def plan(self, seed: int = DEFAULT_SEED,
             duration_s: float = DEFAULT_DURATION_S,
             rate: float | None = None) -> FaultPlan:
        effective = self.default_rate if rate is None else rate
        return FaultPlan(seed=seed, rules=self.rules(duration_s, effective))


def _load_catalog() -> dict[str, ChaosScenario]:
    # Imported here (not at module top) because the catalog imports
    # this module back for the ChaosScenario class; by the time the
    # call runs, the class above is defined.
    from repro.packs.catalog import chaos_scenarios

    return chaos_scenarios()


#: The chaos catalog, derived from the ``kind = "chaos"`` packs.
SCENARIOS: dict[str, ChaosScenario] = _load_catalog()


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, determinism-comparable."""

    scenario: str
    seed: int
    duration_s: float
    interval_s: float
    ticks: int
    plan: FaultPlan
    #: Output path -> file content for every agent of the session.
    outputs: dict[str, str]
    #: COLLECTOR_ERRORS deltas over the run, (mechanism, kind) -> count.
    error_deltas: dict[tuple[str, str], int]

    @property
    def timeline(self) -> list[FaultEvent]:
        return self.plan.timeline

    def timeline_lines(self) -> list[str]:
        return self.plan.timeline_lines()

    def summary_line(self) -> str:
        """One stable line: equal seeds render equal bytes."""
        s = self.plan.stats
        return (f"[repro chaos run] scenario={self.scenario} "
                f"seed={self.seed} interval_s={self.interval_s:.3f} "
                f"ticks={self.ticks} faults={s.faults} "
                f"recovered={s.recovered} dark={s.dark} "
                f"retries={s.retries} backoff_s={s.backoff_s:.6f} "
                f"breaker_opens={s.breaker_opens} stale={s.stale}")


def run_scenario(name: str, seed: int = DEFAULT_SEED,
                 duration_s: float = DEFAULT_DURATION_S,
                 rate: float | None = None,
                 plan: FaultPlan | None = None) -> ScenarioResult:
    """Run one catalog scenario over a fleet-wide MonEQ session.

    ``plan=None`` (or a caller-supplied plan — the zero-rate
    byte-identity tests pass their own) is activated for exactly the
    session's extent; the session *completes and finalizes* whatever
    the plan does — faulted crossings degrade to dark readings, they
    never raise.
    """
    from repro.packs.catalog import chaos_packs
    from repro.packs.runtime import execute_scenario

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ChaosError(
            f"unknown chaos scenario {name!r}; have {sorted(SCENARIOS)}")
    if plan is None:
        plan = scenario.plan(seed=seed, duration_s=duration_s, rate=rate)

    spec = chaos_packs()[name]
    run = execute_scenario(spec, seed=seed, duration_s=duration_s,
                           plan=plan)
    return ScenarioResult(
        scenario=name, seed=seed, duration_s=duration_s,
        interval_s=run.interval_s, ticks=run.ticks,
        plan=plan, outputs=run.outputs, error_deltas=run.error_deltas,
    )

"""``repro.chaos`` — deterministic fault injection at the channel seam.

The paper's vendor mechanisms fail in vendor-specific ways: IPMB
exchanges are checksum-guarded bus round trips that drop, msr preads
cross a chardev that EINTRs, SCIF is a network transport that times
out, NVML throws transient ``NVML_ERROR_UNKNOWN``, sysfs files vanish
on hot-unplug.  This package models all of that **once**, at the
:class:`~repro.mech.channel.AccessChannel` crossing every mechanism
already goes through:

* :class:`~repro.chaos.faults.FaultPlan` / :class:`~repro.chaos.faults.
  FaultRule` — seeded, per-mechanism fault distributions with optional
  time windows; same seed, same fault timeline, bit for bit;
* :class:`~repro.chaos.retry.RetryPolicy` — bounded retries,
  exponential backoff with deterministic jitter, per-mechanism timeout
  budgets;
* :class:`~repro.chaos.retry.CircuitBreaker` — consecutive failures
  open the breaker and the device reads sensor-dark
  (:data:`~repro.chaos.injector.DARK_READING`) until a half-open probe
  succeeds;
* :mod:`~repro.chaos.scenarios` — the named catalog (``bmc_dark``,
  ``daemon_wedge``, ``bus_noise``), run with ``repro pack run``.

``scenarios`` members are exported lazily (PEP 562): the scenario
runner stands up testbeds, whose backends import the mechanism layer,
whose channel consults this package — eager import would cycle.

With no plan active the hot path pays one ``is None`` check and the
simulator's outputs are byte-identical to a build without this package.
"""

from __future__ import annotations

from repro.chaos.faults import (
    DEFAULT_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    deactivate,
    default_kind,
)
from repro.chaos.injector import BREAKER_OPEN_KIND, DARK_READING, ChannelInjector
from repro.chaos.retry import (
    DEFAULT_POLICIES,
    CircuitBreaker,
    RetryPolicy,
    default_policy,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultEvent",
    "DEFAULT_FAULT_KINDS",
    "default_kind",
    "activate",
    "deactivate",
    "active_plan",
    "RetryPolicy",
    "CircuitBreaker",
    "DEFAULT_POLICIES",
    "default_policy",
    "ChannelInjector",
    "DARK_READING",
    "BREAKER_OPEN_KIND",
    "ChaosScenario",
    "ScenarioResult",
    "SCENARIOS",
    "run_scenario",
]

_SCENARIO_NAMES = {"ChaosScenario", "ScenarioResult", "SCENARIOS",
                   "run_scenario"}


def __getattr__(name: str):
    if name in _SCENARIO_NAMES:
        from repro.chaos import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

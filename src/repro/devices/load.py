"""Load boards: what is running on a device right now.

A :class:`LoadBoard` holds the workloads scheduled onto one device and
exposes summed per-component utilization, clipped to [0, 1].  Collection
*mechanisms* can also inject load — the Xeon Phi's in-band SysMgmt API
runs code on the card per query, which is how the paper's Figure 7 power
gap arises — so boards accept both workloads and standing "parasitic"
utilization contributions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.sim.signals import Signal, change_points, merge_change_points
from repro.workloads.base import ScheduledWorkload, Workload


class LoadBoard:
    """Aggregated utilization of everything scheduled on a device."""

    def __init__(self):
        self._scheduled: list[ScheduledWorkload] = []
        self._parasitic: list[tuple[str, Signal]] = []
        #: Bumped on every mutation; energy-counter caches key on it.
        self.version = 0

    @property
    def scheduled(self) -> list[ScheduledWorkload]:
        return list(self._scheduled)

    @property
    def idle(self) -> bool:
        """True while nothing is scheduled and no parasitic load stands:
        every component's utilization is exactly 0 at all times."""
        return not self._scheduled and not self._parasitic

    def schedule(self, workload: Workload, t_start: float = 0.0) -> ScheduledWorkload:
        """Place a workload on the device starting at ``t_start``."""
        placed = workload.shifted(t_start)
        self._scheduled.append(placed)
        self.version += 1
        return placed

    def add_parasitic(self, component: str, signal: Signal) -> None:
        """Add a standing utilization contribution not owned by any
        workload (e.g. a collection mechanism's on-device footprint)."""
        self._parasitic.append((component, signal))
        self.version += 1

    def utilization(self, component: str, t: np.ndarray | float) -> np.ndarray:
        """Summed, clipped utilization of ``component`` at time(s) ``t``."""
        times = np.asarray(t, dtype=np.float64)
        total = np.zeros_like(times)
        for placed in self._scheduled:
            total = total + placed.utilization(component, times)
        for comp, signal in self._parasitic:
            if comp == component:
                total = total + np.clip(signal.value(times), 0.0, 1.0)
        return np.clip(total, 0.0, 1.0)

    def change_points(self, component: str) -> np.ndarray | None:
        """Times where :meth:`utilization` of ``component`` may change
        (None when any contribution's are unknown)."""
        return merge_change_points([
            *(placed.change_points(component) for placed in self._scheduled),
            *(change_points(signal) for comp, signal in self._parasitic
              if comp == component),
        ])

    def signal(self, component: str) -> "UtilizationSignal":
        """A live :class:`Signal` view of one component's utilization."""
        return UtilizationSignal(self, component)

    def busy_until(self) -> float:
        """End time of the last scheduled workload (0 when empty)."""
        return max((p.t_end for p in self._scheduled), default=0.0)


class UtilizationSignal:
    """Signal adapter over a load board component.

    The adapter is *live*: workloads scheduled after its creation are
    reflected in later evaluations — but note that cached integrals
    (energy counters) must therefore be constructed only after the run's
    schedule is final, which device constructors arrange.
    """

    def __init__(self, board: LoadBoard, component: str):
        if not component:
            raise WorkloadError("component name must be non-empty")
        self.board = board
        self.component = component

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return self.board.utilization(self.component, t)

    def change_points(self) -> np.ndarray | None:
        return self.board.change_points(self.component)

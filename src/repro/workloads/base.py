"""Workload base classes and the canonical component taxonomy.

Components are string keys identifying the hardware sub-units a workload
can stress.  Device power models look up the components they own:
a BG/Q compute card reads the ``bgq.*`` components, an NVIDIA GPU the
``gpu.*`` ones, and so on.  Unknown components are simply idle for a
given device, which is what lets one workload (e.g. offloaded Gaussian
elimination) drive a host CPU and a coprocessor simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.sim.signals import (
    NO_CHANGE,
    PiecewiseConstantSignal,
    Signal,
    SumSignal,
    change_points,
    merge_change_points,
)


class Component:
    """Canonical component names (string constants, namespaced by device)."""

    # Host CPU (RAPL domains map onto these).
    CPU_CORES = "cpu.cores"
    CPU_UNCORE = "cpu.uncore"
    CPU_DRAM = "cpu.dram"
    # NVIDIA GPU board.
    GPU_SM = "gpu.sm"
    GPU_MEM = "gpu.mem"
    GPU_PCIE = "gpu.pcie"
    # Xeon Phi card.
    PHI_CORES = "phi.cores"
    PHI_GDDR = "phi.gddr"
    PHI_PCIE = "phi.pcie"
    # Blue Gene/Q node-card domains (the 7 MonEQ domains).
    BGQ_CHIP_CORE = "bgq.chip_core"
    BGQ_DRAM = "bgq.dram"
    BGQ_LINK_CHIP = "bgq.link_chip"
    BGQ_HSS = "bgq.hss"
    BGQ_OPTICS = "bgq.optics"
    BGQ_PCIE = "bgq.pcie"
    BGQ_SRAM = "bgq.sram"
    # Interconnect (used by the MMPS model and the SPMD runtime).
    NETWORK = "net"

    @classmethod
    def all(cls) -> list[str]:
        return [v for k, v in vars(cls).items()
                if isinstance(v, str) and not k.startswith("_")]


class Workload:
    """Base workload: named utilization signals over a fixed duration.

    Parameters
    ----------
    name:
        Human-readable label, appears in MonEQ output headers.
    duration:
        Active run time in seconds.  Outside [0, duration] all
        utilizations are zero (the device is idle).
    signals:
        Mapping from component name to a utilization :class:`Signal`;
        values are clipped into [0, 1] on evaluation.
    metadata:
        Free-form parameters recorded for provenance (matrix size, ranks).
    """

    def __init__(
        self,
        name: str,
        duration: float,
        signals: Mapping[str, Signal],
        metadata: Mapping[str, object] | None = None,
    ):
        if duration <= 0.0:
            raise WorkloadError(f"workload duration must be positive, got {duration}")
        known = set(Component.all())
        for component in signals:
            if component not in known:
                raise WorkloadError(f"unknown component {component!r}")
        self.name = name
        self.duration = float(duration)
        self.signals = dict(signals)
        self.metadata = dict(metadata or {})

    @property
    def components(self) -> list[str]:
        return sorted(self.signals)

    def utilization(self, component: str, t: np.ndarray | float) -> np.ndarray:
        """Utilization of ``component`` at time(s) ``t``, in [0, 1].

        Zero outside the workload's active window and for components the
        workload does not stress.
        """
        times = np.asarray(t, dtype=np.float64)
        signal = self.signals.get(component)
        if signal is None:
            return np.zeros_like(times)
        active = (times >= 0.0) & (times <= self.duration)
        return np.where(active, np.clip(signal.value(times), 0.0, 1.0), 0.0)

    def change_points(self, component: str) -> np.ndarray | None:
        """Times where :meth:`utilization` of ``component`` may change:
        the signal's own change points plus the active window's edges
        (None when the signal's are unknown)."""
        signal = self.signals.get(component)
        if signal is None:
            return NO_CHANGE
        return merge_change_points(
            (change_points(signal), np.array([0.0, self.duration])))

    def shifted(self, t_start: float) -> "ScheduledWorkload":
        """This workload scheduled to begin at absolute time ``t_start``."""
        return ScheduledWorkload(self, t_start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, duration={self.duration})"


class ScheduledWorkload:
    """A workload placed on the absolute timeline at ``t_start``.

    Device models evaluate utilization in absolute simulation time; this
    adapter translates, so the same workload object can run back-to-back
    in a schedule (the power-aware scheduling extension relies on it).
    """

    def __init__(self, workload: Workload, t_start: float):
        if t_start < 0.0:
            raise WorkloadError(f"start time must be non-negative, got {t_start}")
        self.workload = workload
        self.t_start = float(t_start)

    @property
    def t_end(self) -> float:
        return self.t_start + self.workload.duration

    @property
    def name(self) -> str:
        return self.workload.name

    def utilization(self, component: str, t: np.ndarray | float) -> np.ndarray:
        return self.workload.utilization(component, np.asarray(t, dtype=np.float64) - self.t_start)

    def change_points(self, component: str) -> np.ndarray | None:
        """The workload's change points on the absolute timeline."""
        points = self.workload.change_points(component)
        return None if points is None else points + self.t_start


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of a phased workload.

    ``loads`` maps components to constant utilization levels during the
    phase; components absent from a phase are idle in it.
    """

    name: str
    duration: float
    loads: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.duration <= 0.0:
            raise WorkloadError(f"phase {self.name!r} duration must be positive")
        for component, level in self.loads.items():
            if not 0.0 <= level <= 1.0:
                raise WorkloadError(
                    f"phase {self.name!r}: load for {component} must be in [0,1], got {level}"
                )


class PhasedWorkload(Workload):
    """Workload assembled from an ordered sequence of :class:`Phase`.

    Optional ``modulation`` signals (pulse trains, ramps) are *added* to
    the piecewise-constant phase levels per component; the result is
    still clipped to [0, 1] at evaluation.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        modulation: Mapping[str, Signal] | None = None,
        metadata: Mapping[str, object] | None = None,
    ):
        if not phases:
            raise WorkloadError("phased workload needs at least one phase")
        self.phases = list(phases)
        boundaries = np.cumsum([p.duration for p in phases])
        duration = float(boundaries[-1])
        components = sorted({c for p in phases for c in p.loads})
        signals: dict[str, Signal] = {}
        for component in components:
            levels = [0.0] + [p.loads.get(component, 0.0) for p in phases] + [0.0]
            breakpoints = [0.0] + boundaries.tolist()
            base = PiecewiseConstantSignal(breakpoints, levels)
            extra = (modulation or {}).get(component)
            signals[component] = base if extra is None else SumSignal(base, extra)
        # Modulation-only components (no phase levels) are allowed too.
        for component, extra in (modulation or {}).items():
            if component not in signals:
                signals[component] = extra
        super().__init__(name, duration, signals, metadata)

    def phase_boundaries(self) -> list[tuple[str, float, float]]:
        """(name, t_start, t_end) per phase — the tagging feature's
        natural anchors."""
        out = []
        t = 0.0
        for phase in self.phases:
            out.append((phase.name, t, t + phase.duration))
            t += phase.duration
        return out

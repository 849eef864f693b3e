"""Continuous time signals.

Device power models are built by composing signals: a workload contributes
a utilization signal per component (piecewise phases, ramps, periodic
pulses for the rhythmic structure in the paper's Figure 3), the device maps
utilization to watts, and sensors sample the result.  Every signal
evaluates vectorized over a NumPy array of times, which is what makes
regenerating a 250-second trace at 100 ms resolution cheap.

Piecewise-constant signals may also offer ``change_points()``: the
sorted times where their value *may* change, so a long grid can be
evaluated once per constant run (see :func:`repro.sim.integrate
.run_length_value`).  ``None`` — or no such method — means "unknown":
ramps, pulses and exponential approaches are evaluated densely.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import WorkloadError


def _as_times(t: np.ndarray | float) -> np.ndarray:
    return np.asarray(t, dtype=np.float64)


@runtime_checkable
class Signal(Protocol):
    """A real-valued function of time, vectorized over NumPy arrays."""

    def value(self, t: np.ndarray | float) -> np.ndarray:
        """Evaluate at time(s) ``t`` (seconds); shape follows ``t``."""
        ...


#: Change points of a signal that never changes.
NO_CHANGE = np.zeros(0)
NO_CHANGE.flags.writeable = False


def change_points(signal) -> np.ndarray | None:
    """Times where ``signal`` may change value, or None when unknown.

    Between two consecutive change points the signal's value is one
    float, bit for bit; signals without a ``change_points`` method are
    unknown.
    """
    method = getattr(signal, "change_points", None)
    return None if method is None else method()


def merge_change_points(parts) -> np.ndarray | None:
    """Union of several change-point sets; None if any part is unknown."""
    parts = list(parts)
    if any(part is None for part in parts):
        return None
    return np.unique(np.concatenate([NO_CHANGE, *parts]))


class ConstantSignal:
    """``value(t) == level`` everywhere."""

    def __init__(self, level: float):
        self.level = float(level)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return np.full_like(_as_times(t), self.level, dtype=np.float64)

    def change_points(self) -> np.ndarray:
        return NO_CHANGE


class PiecewiseConstantSignal:
    """Right-continuous step function.

    ``breakpoints`` are the times at which the level changes; ``levels``
    has one more entry than ``breakpoints`` (level before the first break,
    then after each break).
    """

    def __init__(self, breakpoints: Sequence[float], levels: Sequence[float]):
        self.breakpoints = np.asarray(breakpoints, dtype=np.float64)
        self.levels = np.asarray(levels, dtype=np.float64)
        if self.breakpoints.ndim != 1 or self.levels.ndim != 1:
            raise WorkloadError("breakpoints and levels must be 1-D")
        if len(self.levels) != len(self.breakpoints) + 1:
            raise WorkloadError(
                f"need len(levels) == len(breakpoints)+1, got "
                f"{len(self.levels)} vs {len(self.breakpoints)}"
            )
        if np.any(np.diff(self.breakpoints) < 0):
            raise WorkloadError("breakpoints must be non-decreasing")

    def value(self, t: np.ndarray | float) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, _as_times(t), side="right")
        return self.levels[idx]

    def change_points(self) -> np.ndarray:
        return self.breakpoints


class RampSignal:
    """Linear ramp from ``start_level`` to ``end_level`` over [t0, t1],
    clamped outside."""

    def __init__(self, t0: float, t1: float, start_level: float, end_level: float):
        if t1 <= t0:
            raise WorkloadError(f"ramp needs t1 > t0, got [{t0}, {t1}]")
        self.t0, self.t1 = float(t0), float(t1)
        self.start_level, self.end_level = float(start_level), float(end_level)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        frac = np.clip((_as_times(t) - self.t0) / (self.t1 - self.t0), 0.0, 1.0)
        return self.start_level + frac * (self.end_level - self.start_level)


class ExponentialApproachSignal:
    """Exponential approach from ``start_level`` toward ``end_level``
    beginning at ``t0`` with time constant ``tau``; flat before ``t0``.

    Models the slow power rise of a GPU picking up work (paper Figure 4:
    "gradual increase until finally leveling off").
    """

    def __init__(self, t0: float, tau: float, start_level: float, end_level: float):
        if tau <= 0.0:
            raise WorkloadError(f"time constant must be positive, got {tau}")
        self.t0, self.tau = float(t0), float(tau)
        self.start_level, self.end_level = float(start_level), float(end_level)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        dt = np.maximum(_as_times(t) - self.t0, 0.0)
        frac = 1.0 - np.exp(-dt / self.tau)
        return self.start_level + frac * (self.end_level - self.start_level)


class PeriodicPulseSignal:
    """Adds ``amplitude`` during a window of each period, else 0.

    With a negative amplitude and a short duty window this produces the
    "rhythmic drop of about 5 Watts" the paper observes during Gaussian
    elimination (Figure 3); with a small positive amplitude it produces the
    "tiny spikes at regular intervals" between the drops.
    """

    def __init__(
        self,
        period: float,
        duty: float,
        amplitude: float,
        t0: float = 0.0,
        t1: float = np.inf,
        phase: float = 0.0,
    ):
        if period <= 0.0:
            raise WorkloadError(f"period must be positive, got {period}")
        if not 0.0 < duty <= 1.0:
            raise WorkloadError(f"duty must be in (0, 1], got {duty}")
        self.period, self.duty, self.amplitude = float(period), float(duty), float(amplitude)
        self.t0, self.t1, self.phase = float(t0), float(t1), float(phase)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        times = _as_times(t)
        pos = np.mod(times - self.t0 + self.phase, self.period) / self.period
        active = (times >= self.t0) & (times < self.t1) & (pos < self.duty)
        return np.where(active, self.amplitude, 0.0)


class SumSignal:
    """Pointwise sum of component signals."""

    def __init__(self, *components: Signal):
        if not components:
            raise WorkloadError("SumSignal needs at least one component")
        self.components = components

    def value(self, t: np.ndarray | float) -> np.ndarray:
        times = _as_times(t)
        total = np.zeros_like(times, dtype=np.float64)
        for component in self.components:
            total = total + component.value(times)
        return total

    def change_points(self) -> np.ndarray | None:
        return merge_change_points(change_points(c) for c in self.components)


class ScaledSignal:
    """``gain * inner(t) + offset``."""

    def __init__(self, inner: Signal, gain: float = 1.0, offset: float = 0.0):
        self.inner, self.gain, self.offset = inner, float(gain), float(offset)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return self.gain * self.inner.value(t) + self.offset


class ClippedSignal:
    """``inner(t)`` clamped into [lo, hi]."""

    def __init__(self, inner: Signal, lo: float = -np.inf, hi: float = np.inf):
        if hi < lo:
            raise WorkloadError(f"clip bounds inverted: [{lo}, {hi}]")
        self.inner, self.lo, self.hi = inner, float(lo), float(hi)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return np.clip(self.inner.value(t), self.lo, self.hi)

"""Cumulative integration of continuous signals.

Energy counters (RAPL's 32-bit energy-status registers, the Xeon Phi's
internal RAPL implementation) expose the *integral* of power.  The
:class:`CumulativeIntegral` evaluates a signal's running integral on a
cached dense grid and interpolates, so repeated counter reads are O(log n)
after the first and every reader sees one consistent energy history.

Grids are ``dt * k`` for integer ``k``, taken from one read-only array
per ``dt`` (:func:`shared_grid`).  Signals that declare their change
points are evaluated once per constant run (:func:`run_length_value`);
the rest are evaluated at every grid point.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.signals import Signal, change_points

#: Grid points on each side of a change point that are evaluated
#: densely.  Where a composed signal flips can differ from its declared
#: change point by a few ulps (``t - t_start`` rounding); a 1 ms grid
#: step is many orders of magnitude wider, so two points absorb it.
GUARD_POINTS = 2

_GRIDS: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def shared_grid(dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(times, steps)``: at least ``n`` grid points ``dt * k`` and the
    differences between neighbours, from one read-only pair of arrays
    per ``dt`` that every grid of this ``dt`` slices.  Storage grows
    geometrically."""
    grid = _GRIDS.get(dt)
    if grid is None or grid[0].shape[0] < n:
        size = max(n, 1024, 0 if grid is None else 2 * grid[0].shape[0])
        times = dt * np.arange(size).astype(np.float64)
        steps = np.diff(times)
        times.flags.writeable = False
        steps.flags.writeable = False
        grid = _GRIDS[dt] = (times, steps)
    return grid


def run_length_value(signal: Signal, times: np.ndarray) -> np.ndarray:
    """``signal.value(times)`` for a sorted grid, bit for bit, evaluating
    a piecewise-constant signal once per constant run.

    Each run's value comes from its first point and is repeated over the
    run; the :data:`GUARD_POINTS` around every change point are their
    own one-point runs.  Signals whose change points are unknown are
    evaluated at every point.
    """
    points = change_points(signal)
    n = times.shape[0]
    if points is None or n == 0:
        return signal.value(times)
    guard = np.zeros(n, dtype=bool)
    at = np.searchsorted(times, points)
    band = (at[:, None] + np.arange(-GUARD_POINTS, GUARD_POINTS + 1)).ravel()
    guard[band[(band >= 0) & (band < n)]] = True
    # A run starts at 0, at every guard point and right after one.
    starts = guard.copy()
    starts[0] = True
    starts[1:] |= guard[:-1]
    first = np.flatnonzero(starts)
    return np.repeat(signal.value(times[first]), np.diff(first, append=n))


class CumulativeIntegral:
    """Lazy cached cumulative integral of a signal from t=0.

    Parameters
    ----------
    signal:
        The integrand (e.g. package power in watts).
    dt:
        Grid resolution in seconds.  1 ms resolves every feature the
        device models produce (the fastest is RAPL's ~1 ms update).
    """

    def __init__(self, signal: Signal, dt: float = 1e-3):
        if dt <= 0.0:
            raise SimulationError(f"integration dt must be positive, got {dt}")
        self.signal = signal
        self.dt = float(dt)
        self._grid_end = 0.0
        self._grid_n = 0
        self._times = np.zeros(1)
        self._cumulative = np.zeros(1)

    def _extend(self, t_end: float) -> None:
        """Grow the cached grid to cover [0, t_end]."""
        # Extend in generous chunks to amortize signal evaluation.
        target = max(t_end * 1.25, self._grid_end + 64.0 * self.dt)
        n_new = int(np.ceil((target - self._grid_end) / self.dt))
        start, end = self._grid_n, self._grid_n + n_new
        # Grid points come from their integer index (dt * k), never from
        # offsetting the previous chunk's endpoint, and the cumulative
        # sum runs on from the last cached value (the carry is folded
        # into the first step), so the cached history is bit-identical
        # no matter how reads were chunked — which the MonEQ
        # block-sampling engine relies on for scalar/block parity.
        grid, grid_steps = shared_grid(self.dt, end + 1)
        times = grid[:end + 1]
        values = run_length_value(self.signal, times[start:])
        # Trapezoid over each new step, seeded with the last grid point.
        steps = np.add(values[1:], values[:-1])
        np.multiply(steps, 0.5, out=steps)
        np.multiply(steps, grid_steps[start:end], out=steps)
        steps[0] += self._cumulative[-1]
        np.cumsum(steps, out=steps)
        self._times = times
        self._cumulative = np.concatenate((self._cumulative, steps))
        self._grid_n = end
        self._grid_end = float(times[end])

    def value(self, t: np.ndarray | float) -> np.ndarray:
        """Integral of the signal over [0, t]; vectorized over ``t``."""
        times = np.asarray(t, dtype=np.float64)
        if np.any(times < 0.0):
            raise SimulationError("cannot integrate to negative time")
        t_max = float(np.max(times, initial=0.0))
        if t_max > self._grid_end:
            self._extend(t_max)
        return np.interp(times, self._times, self._cumulative)

    def between(self, t0: float, t1: float) -> float:
        """Integral over [t0, t1]."""
        if t1 < t0:
            raise SimulationError(f"integration window inverted: [{t0}, {t1}]")
        ends = self.value(np.array([t0, t1]))
        return float(ends[1] - ends[0])

"""Unit tests for cumulative integration."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.integrate import CumulativeIntegral
from repro.sim.signals import ConstantSignal, RampSignal


def test_constant_signal_integral():
    ci = CumulativeIntegral(ConstantSignal(10.0), dt=0.01)
    assert ci.value(5.0) == pytest.approx(50.0, rel=1e-6)


def test_ramp_integral():
    # Integral of t over [0, 4] = 8.
    ci = CumulativeIntegral(RampSignal(0.0, 100.0, 0.0, 100.0), dt=0.01)
    assert ci.value(4.0) == pytest.approx(8.0, rel=1e-4)


def test_vectorized_monotone():
    ci = CumulativeIntegral(ConstantSignal(3.0), dt=0.1)
    t = np.linspace(0, 10, 53)
    v = ci.value(t)
    assert np.all(np.diff(v) >= 0)
    np.testing.assert_allclose(v, 3.0 * t, rtol=1e-9)


def test_between_window():
    ci = CumulativeIntegral(ConstantSignal(2.0), dt=0.01)
    assert ci.between(1.0, 3.0) == pytest.approx(4.0, rel=1e-6)


def test_between_inverted_rejected():
    ci = CumulativeIntegral(ConstantSignal(1.0))
    with pytest.raises(SimulationError):
        ci.between(2.0, 1.0)


def test_negative_time_rejected():
    ci = CumulativeIntegral(ConstantSignal(1.0))
    with pytest.raises(SimulationError):
        ci.value(-1.0)


def test_bad_dt_rejected():
    with pytest.raises(SimulationError):
        CumulativeIntegral(ConstantSignal(1.0), dt=0.0)


def test_grid_extension_is_consistent():
    """Querying far, then near, then far again returns identical values
    (the cache only grows, never recomputes)."""
    ci = CumulativeIntegral(ConstantSignal(7.0), dt=0.05)
    far1 = ci.value(100.0)
    near = ci.value(1.0)
    far2 = ci.value(100.0)
    assert far1 == far2
    assert near == pytest.approx(7.0, rel=1e-6)


def test_zero_time_is_zero():
    ci = CumulativeIntegral(ConstantSignal(123.0))
    assert ci.value(0.0) == 0.0


def test_cached_history_does_not_depend_on_read_chunking():
    """One read to 100 s and 200 chunked reads cache the same running
    sum, bit for bit (the carry is folded into each chunk's first step,
    not added to a chunk-local cumsum)."""
    from repro.sim.signals import PiecewiseConstantSignal

    signal = PiecewiseConstantSignal([3.3, 41.7, 77.01],
                                     [5.0, 42.5, 17.25, 30.125])
    whole = CumulativeIntegral(signal)
    whole.value(100.0)
    chunked = CumulativeIntegral(signal)
    for t in np.linspace(0.5, 100.0, 200):
        chunked.value(t)
    n = min(whole._cumulative.shape[0], chunked._cumulative.shape[0])
    assert n > 100_000
    assert whole._cumulative[:n].tobytes() == chunked._cumulative[:n].tobytes()


def test_shared_grid_is_read_only_and_index_based():
    from repro.sim.integrate import shared_grid

    times, steps = shared_grid(0.25, 10)
    assert times.shape[0] >= 10 and steps.shape[0] == times.shape[0] - 1
    assert not times.flags.writeable and not steps.flags.writeable
    assert times[:10].tolist() == [0.25 * k for k in range(10)]
    grown, _ = shared_grid(0.25, times.shape[0] + 1)
    assert grown.shape[0] >= 2 * times.shape[0]
    assert grown[:times.shape[0]].tobytes() == times.tobytes()

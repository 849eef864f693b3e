"""Run-length signal evaluation is dense evaluation, bit for bit.

Piecewise-constant signals declare ``change_points()``, and
:func:`repro.sim.integrate.run_length_value` evaluates them once per
constant run (with a dense guard band around every change point).  The
dense ``signal.value`` over every grid point survives here only as the
oracle: over phased workloads with non-representable start times,
parasitic polling footprints (including a stopped one), mid-run power
caps and modulated phases (which must fall back to dense evaluation),
both agree bit for bit under any grid chunking, and the cached
cumulative energy history is identical however reads were chunked.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rapl.domains import RaplDomain
from repro.rapl.package import SANDY_BRIDGE, CpuPackage
from repro.sim.integrate import CumulativeIntegral, run_length_value, shared_grid
from repro.sim.signals import (
    ConstantSignal,
    PeriodicPulseSignal,
    PiecewiseConstantSignal,
    SumSignal,
    change_points,
)
from repro.workloads.base import Component, Phase, PhasedWorkload
from repro.xeonphi.card import PhiCard
from repro.xeonphi.sysmgmt import _PollingFootprint

DT = 1e-3
HORIZON_S = 12.0
COMPONENTS = (Component.CPU_CORES, Component.CPU_UNCORE, Component.CPU_DRAM,
              Component.PHI_CORES, Component.PHI_GDDR)

#: Start times and phase lengths: arbitrary floats, decimal fractions
#: (0.1 is not representable) and exact grid points.
times_s = st.one_of(
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.integers(0, 60).map(lambda k: k * 0.1),
    st.integers(0, 6000).map(lambda k: k / 1000),
)
durations_s = st.one_of(
    st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
    st.integers(1, 30).map(lambda k: k * 0.1),
)
levels = st.one_of(st.just(0.0), st.just(1.0),
                   st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


@st.composite
def phased(draw):
    phases = [
        Phase(f"p{i}", draw(durations_s),
              {c: draw(levels) for c in draw(st.sets(
                  st.sampled_from(COMPONENTS), min_size=1, max_size=4))})
        for i in range(draw(st.integers(1, 4)))
    ]
    modulation = None
    if draw(st.booleans()) and draw(st.booleans()):
        modulation = {draw(st.sampled_from(COMPONENTS)): PeriodicPulseSignal(
            period=draw(st.floats(0.05, 2.0)), duty=0.3, amplitude=-0.2)}
    return PhasedWorkload("w", phases, modulation=modulation)


@st.composite
def scenarios(draw):
    """Signals over a host package and a Phi card driven by the same
    drawn schedule; returns ``{name: signal}``."""
    package, card = CpuPackage(SANDY_BRIDGE), PhiCard()
    for board in (package.board, card.board):
        for _ in range(draw(st.integers(0, 3))):
            board.schedule(draw(phased()), draw(times_s))
    for _ in range(draw(st.integers(0, 2))):
        footprint = _PollingFootprint(draw(levels), draw(times_s))
        card.board.add_parasitic(Component.PHI_CORES, footprint)
        if draw(st.booleans()):
            # What SysMgmtApi.stop_polling does to a live footprint.
            footprint.t_stop = footprint.t_start + draw(durations_s)
            card.board.version += 1
    for limited in (package.pkg_signal, card.power_signal):
        for t in sorted(draw(st.lists(times_s, max_size=3))):
            limited.set_limit(t, draw(st.floats(5.0, 200.0)))
    signals = {f"rapl.{d.value}": package._domain_signals[d]
               for d in RaplDomain}
    signals.update({
        "phi.power": card.power_signal,
        "phi.cores": card.board.signal(Component.PHI_CORES),
        "steps": SumSignal(
            PiecewiseConstantSignal([draw(times_s)], [draw(levels), 2.5]),
            ConstantSignal(draw(levels))),
    })
    return signals


def _assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert got.shape == want.shape
    assert bad.size == 0, (
        f"{bad.size} mismatches; first at {bad[0]}: "
        f"{float(got[bad[0]]).hex()} != {float(want[bad[0]]).hex()}")


def _dense_cumulative(signal, n: int) -> np.ndarray:
    """The oracle: trapezoid over every grid point, one running sum."""
    grid = shared_grid(DT, n)[0][:n]
    values = signal.value(grid)
    return np.concatenate(
        ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))))


@settings(max_examples=40, deadline=None)
@given(signals=scenarios(),
       cuts=st.lists(st.integers(1, int(HORIZON_S / DT) - 1), max_size=6))
def test_run_length_equals_dense_under_any_chunking(signals, cuts):
    n = int(HORIZON_S / DT)
    grid, _ = shared_grid(DT, n)
    bounds = [0, *sorted(set(cuts)), n]
    for name, signal in signals.items():
        for a, b in zip(bounds, bounds[1:]):
            chunk = grid[a:b]
            _assert_bit_identical(run_length_value(signal, chunk),
                                  signal.value(chunk))


@settings(max_examples=30, deadline=None)
@given(signals=scenarios(),
       reads=st.lists(st.floats(0.0, HORIZON_S), min_size=1, max_size=8))
def test_cumulative_is_chunking_invariant(signals, reads):
    for name, signal in signals.items():
        whole = CumulativeIntegral(signal, dt=DT)
        whole.value(HORIZON_S)
        chunked = CumulativeIntegral(signal, dt=DT)
        for t in sorted(reads):
            chunked.value(t)
        chunked.value(HORIZON_S)
        n = min(whole._cumulative.shape[0], chunked._cumulative.shape[0])
        _assert_bit_identical(chunked._cumulative[:n], whole._cumulative[:n])
        _assert_bit_identical(whole._cumulative, _dense_cumulative(
            signal, whole._cumulative.shape[0]))


def test_modulated_phases_fall_back_to_dense():
    pulse = PeriodicPulseSignal(period=0.5, duty=0.3, amplitude=-0.2)
    workload = PhasedWorkload(
        "w", [Phase("p", 2.0, {Component.CPU_CORES: 0.7})],
        modulation={Component.CPU_CORES: pulse})
    package = CpuPackage(SANDY_BRIDGE)
    package.board.schedule(workload, 0.3)
    assert change_points(SumSignal(ConstantSignal(1.0), pulse)) is None
    assert change_points(package.pkg_signal) is None
    # Components the modulation does not touch stay run-length.
    assert change_points(package._domain_signals[RaplDomain.DRAM]) is not None
    grid, _ = shared_grid(DT, 3000)
    _assert_bit_identical(run_length_value(package.pkg_signal, grid[:3000]),
                          package.pkg_signal.value(grid[:3000]))


def test_declared_change_points_cover_the_phase_edges():
    workload = PhasedWorkload("w", [
        Phase("a", 0.3, {Component.CPU_CORES: 0.5}),
        Phase("b", 0.7, {Component.CPU_CORES: 1.0})])
    package = CpuPackage(SANDY_BRIDGE)
    package.board.schedule(workload, 0.1)
    package.pkg_signal.set_limit(2.0, 20.0)
    points = change_points(package.pkg_signal)
    np.testing.assert_allclose(points, [0.0, 0.1, 0.4, 1.1, 2.0])

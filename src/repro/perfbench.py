"""Wall-clock benches of the simulator, behind one registry and schema.

These measure the *simulator's* speed, not the modeled hardware: the
columnar block-sampling engine against per-tick scalar collection, the
heap-scheduled launcher against the linear ``_pick_runnable``
reference, the exec engine's result cache, the monitoring service and
the fleet sweep.  ``python -m repro bench perf`` is the one driver:
:func:`record` measures a profile and writes its trajectory file,
:func:`check` re-measures it against the committed file.  Two profiles
share the registry shape — :data:`ALL_BENCHES` (full sizes, committed
in ``BENCH_perf.json``) and :data:`SMOKE_BENCHES` (CI sizes, committed
in ``BENCH_smoke.json``).  ``benchmarks/`` asserts the speedup floors
on the same functions.

Every bench returns a dict whose first two keys follow the trajectory
schema — ``{"wall_s": <optimized wall>, "speedup_vs_scalar": <x>}`` —
where "scalar" is the pre-optimization path (``block_ticks=1`` scalar
ticking, ``scheduler="linear"``, a cold cache).  Extra keys carry
bench-specific detail and pass through to the trajectory file.  A
bench whose optimized and reference outputs diverge raises
:class:`AssertionError` instead of returning.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable

from repro.core import moneq
from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.fleet.sweep import (
    CACHE_REDUCTION_FLOOR,
    REALTIME_FLOOR,
    fleet_bench,
)
from repro.runtime.launcher import Launcher
from repro.runtime.ops import ANY_SOURCE, Compute, Recv, Send
from repro.runtime.programs import run_mmps
from repro.service.loadgen import bench_service
from repro.workloads.vectoradd import VectorAddWorkload

NVML_INTERVAL_S = 0.060


def _wall(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _nvml_session(agents: int, ticks: int, block_ticks: int, seed: int):
    """``agents`` NVML backends over one shared (cheap) GPU device, with
    just enough buffer for ``ticks`` records each."""
    from repro import testbeds

    node, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backends = []
    for i in range(agents):
        backend = NvmlBackend(gpu)
        backend.label = f"{backend.label}.{i}"
        backends.append(backend)
    config = MoneqConfig(polling_interval_s=NVML_INTERVAL_S,
                         buffer_slots=ticks + 64, block_ticks=block_ticks)
    session = MoneqSession(backends, node.events, config=config, vfs=node.vfs)
    return node, session


def _nvml_outputs(agents: int, ticks: int, block_ticks: int, seed: int):
    node, session = _nvml_session(agents, ticks, block_ticks, seed)
    node.events.run_until(ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2)
    result = session.finalize()
    files = {p: node.vfs.read_text(p) for p in result.output_paths}
    return node.clock.now, result.overhead.ticks, files


def bench_moneq_block(agents: int = 1024, ticks: int = 10_000,
                      scalar_ticks: int = 100, seed: int = 0xB10C) -> dict:
    """The acceptance bench: a 1024-agent, 10k-tick NVML session in
    block mode versus the scalar tick loop (measured on a short slice
    and extrapolated — running 10M scalar reads outright is the very
    cost the engine removes).  Byte-identity is asserted on a reduced
    configuration where running both paths in full is cheap.

    Measured with the channel cache bypassed: the 1024 agents share
    one device, so cache hits would dominate both sides and the ratio
    would stop measuring the block engine (the cache's own win is
    :func:`repro.fleet.cache_ablation`'s figure, floored separately)."""
    from repro.mech.cache import channel_cache_disabled

    with channel_cache_disabled():
        horizon = ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2
        node, session = _nvml_session(agents, ticks, 4096, seed)
        wall_block, _ = _wall(lambda: node.events.run_until(horizon))
        if session.agents[0].count != ticks:
            raise AssertionError(
                f"block run collected {session.agents[0].count} ticks, "
                f"wanted {ticks}"
            )

        slice_horizon = scalar_ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2
        node, session = _nvml_session(agents, scalar_ticks, 1, seed)
        wall_slice, _ = _wall(lambda: node.events.run_until(slice_horizon))
        if session.agents[0].count != scalar_ticks:
            raise AssertionError(
                f"scalar slice collected {session.agents[0].count} ticks, "
                f"wanted {scalar_ticks}"
            )
        scalar_est = wall_slice * (ticks / scalar_ticks)

        if (_nvml_outputs(8, 400, 1, seed)
                != _nvml_outputs(8, 400, 4096, seed)):
            raise AssertionError(
                "block-sampled output diverged from scalar")
    return {
        "wall_s": wall_block,
        "speedup_vs_scalar": scalar_est / wall_block,
        "scalar_wall_s": scalar_est,
        "agents": agents,
        "ticks": ticks,
        "byte_identical": True,
    }


def bench_moneq_full_session(duration_s: float = 60.0, seed: int = 96) -> dict:
    """bench_runtime_perf's full-session profile (60 s RAPL at the 60 ms
    hardware minimum), block mode versus scalar ticking — both paths run
    in full here, so the speedup is measured, not extrapolated."""
    from repro import testbeds

    def profile(block_ticks: int):
        node, _ = testbeds.rapl_node(seed=seed)
        return moneq.profile_run(
            node, duration_s=duration_s,
            config=MoneqConfig(polling_interval_s=0.06, block_ticks=block_ticks),
        )

    wall_scalar, reference = _wall(lambda: profile(1))
    wall_block, result = _wall(lambda: profile(4096))
    if result.overhead.ticks != reference.overhead.ticks:
        raise AssertionError(
            f"block session ticked {result.overhead.ticks}, "
            f"scalar ticked {reference.overhead.ticks}"
        )
    return {
        "wall_s": wall_block,
        "speedup_vs_scalar": wall_scalar / wall_block,
        "scalar_wall_s": wall_scalar,
        "ticks": result.overhead.ticks,
    }


def bench_launcher_fanin(size: int = 4096, nbytes: int = 64,
                         reps: int = 3) -> dict:
    """The acceptance bench for the scheduler: an ANY_SOURCE fan-in of
    ``size`` ranks into rank 0 — the worst case for the seed's linear
    scan (O(n) rescan per step, O(n) source scan per receive).

    Best-of-``reps`` per scheduler: at the CI smoke size (512 ranks)
    the heap run is single-digit milliseconds, and one descheduling
    blip is enough to flip the measured ratio — the minimum wall is
    the one the scheduler actually earned."""
    import gc

    def program(ctx):
        if ctx.rank == 0:
            total = 0
            for _ in range(ctx.size - 1):
                total += yield Recv(source=ANY_SOURCE, tag=1)
            return total
        yield Compute(1e-6 * ((ctx.rank * 13) % 7 + 1))
        yield Send(dest=0, payload=ctx.rank, tag=1, nbytes=nbytes)

    gc.collect()
    wall_heap, heap = min(
        (_wall(lambda: Launcher(program, size=size, scheduler="heap").run())
         for _ in range(reps)), key=lambda pair: pair[0])
    wall_linear, linear = min(
        (_wall(lambda: Launcher(program, size=size, scheduler="linear").run())
         for _ in range(reps)), key=lambda pair: pair[0])
    if [r.value for r in heap] != [r.value for r in linear]:
        raise AssertionError("heap and linear schedulers diverged")
    return {
        "wall_s": wall_heap,
        "speedup_vs_scalar": wall_linear / wall_heap,
        "linear_wall_s": wall_linear,
        "ranks": size,
    }


def bench_launcher_mmps(ranks: int = 2, messages_per_rank: int = 2000) -> dict:
    """bench_runtime_perf's messaging bench: the shipping scheduler
    (``"auto"``) against the always-linear reference.  At 2 ranks the
    heap's push/pop bookkeeping used to *lose* to the two-line scan;
    ``auto`` guards that small-n regression by resolving to the scan
    below :data:`repro.runtime.launcher.AUTO_HEAP_MIN_RANKS` ranks."""
    import gc

    for scheduler in ("auto", "linear"):  # warm caches out of the timing
        run_mmps(ranks=ranks, messages_per_rank=50, scheduler=scheduler)
    gc.collect()  # don't bill a prior bench's garbage to this one
    # Best-of-3: at ~20 ms a run, single samples are noise-dominated.
    wall_auto, result = min(
        (_wall(lambda: run_mmps(ranks=ranks,
                                messages_per_rank=messages_per_rank,
                                scheduler="auto"))
         for _ in range(3)), key=lambda pair: pair[0])
    wall_linear, reference = min(
        (_wall(lambda: run_mmps(ranks=ranks,
                                messages_per_rank=messages_per_rank,
                                scheduler="linear"))
         for _ in range(3)), key=lambda pair: pair[0])
    if result.elapsed_s != reference.elapsed_s:
        raise AssertionError("schedulers produced different virtual timings")
    return {
        "wall_s": wall_auto,
        "speedup_vs_scalar": wall_linear / wall_auto,
        "linear_wall_s": wall_linear,
        "achieved_rate_per_rank": result.achieved_rate_per_rank,
    }


def bench_chaos_hotpath(rows: int = 200_000, reps: int = 5,
                        check_rows: int = 4_096, seed: int = 0xC4A0) -> dict:
    """Guard for the fault-injection seam: with no :class:`FaultPlan`
    active, ``Mechanism.read_block`` must stay a thin wrapper over the
    raw source collect — the chaos hook is one function call returning
    None, never per-row work.

    ``speedup_vs_scalar`` here is ``wall(source.collect) /
    wall(read_block)``: the fraction of a retry-free block read spent
    below the seam.  It sits near 1x when the wrapper is thin and
    collapses toward 0x if the disabled chaos path ever grows per-row
    overhead — the floor catches exactly that regression.  Byte-identity
    of a zero-rate active plan against the disabled path is asserted on
    a reduced grid.
    """
    import numpy as np

    from repro import testbeds
    from repro.chaos.faults import FaultPlan, FaultRule
    from repro.mech.cache import channel_cache_disabled

    node, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backend = NvmlBackend(gpu)
    times = np.arange(rows, dtype=np.float64) * NVML_INTERVAL_S

    with channel_cache_disabled():
        # The channel cache would turn the re-timed reads into pure
        # lookups; this bench measures the chaos seam, so it runs on
        # the uncached path (the cache has its own ablation bench).
        backend.read_block(times)  # warm both paths out of the timing
        wall_block = min(_wall(lambda: backend.read_block(times))[0]
                         for _ in range(reps))
        wall_collect = min(_wall(lambda: backend.source.collect(times))[0]
                           for _ in range(reps))

        check_times = times[:check_rows]
        disabled = backend.read_block(check_times)
        zero_plan = FaultPlan(seed=seed, rules=(FaultRule("nvml", rate=0.0),))
        with zero_plan.active():
            wall_zero, under_plan = _wall(
                lambda: backend.read_block(check_times))
    if under_plan.tobytes() != disabled.tobytes():
        raise AssertionError(
            "zero-rate fault plan changed read_block bytes")
    return {
        "wall_s": wall_block,
        "speedup_vs_scalar": wall_collect / wall_block,
        "collect_wall_s": wall_collect,
        "zero_rate_wall_s": wall_zero,
        "rows": rows,
        "byte_identical": True,
    }


def bench_exec() -> dict:
    """The experiment engine's result cache: the full report generated
    cold and serial (the pre-engine baseline), cold through an 8-worker
    pool, and warm from the content-addressed cache, all into a
    throwaway cache directory.

    ``wall_s`` is the warm wall and ``speedup_vs_scalar`` is cold
    serial / warm.  The rendered markdown must be byte-identical across
    the three runs — the engine's core contract.  Parallel speedup is
    bounded by the host, so ``cpus`` (``os.cpu_count()``) rides along
    as a detail key."""
    import os
    import shutil
    import tempfile

    from repro.exec.engine import Engine
    from repro.experiments import report

    jobs = 8
    cache_root = tempfile.mkdtemp(prefix="repro-exec-bench-")
    try:
        def timed(run_jobs: int, cache: bool) -> tuple[float, str]:
            return _wall(lambda: report.generate_markdown(
                jobs=run_jobs, cache=cache, cache_root=cache_root))

        wall_serial, md_serial = timed(1, cache=False)
        wall_cold, md_cold = timed(jobs, cache=True)
        wall_warm, md_warm = timed(jobs, cache=True)

        engine = Engine(jobs=1, cache=True, cache_root=cache_root)
        engine.run()
        if engine.stats.cache_misses:
            raise AssertionError(
                f"warm engine still missed {engine.stats.cache_misses} "
                f"task(s)")
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if not md_serial == md_cold == md_warm:
        raise AssertionError("engine produced different report bytes "
                             "across cold and warm runs")
    return {
        "wall_s": wall_warm,
        "speedup_vs_scalar": wall_serial / wall_warm,
        "cold_serial_wall_s": wall_serial,
        "cold_parallel_wall_s": wall_cold,
        "jobs": jobs,
        "tasks": engine.stats.cache_hits,
        "cpus": os.cpu_count() or 1,
        "byte_identical": True,
    }


def bench_fleet(smoke: bool = False) -> dict:
    """The fleet layer: a federated sweep (10 Mira-sized sites, or 2
    sites x 4 racks with ``smoke``) plus the channel-cache crossings
    ablation, flattened into one trajectory entry.

    ``speedup_vs_scalar`` is the sweep's realtime factor (virtual
    seconds simulated per wall second) — the fleet-scale face of the
    block-sampling speedups above.  The ablation's invariants (the
    cache must cut channel crossings >=5x on the shared-device consumer
    pattern *and* stay byte-invisible in the MonEQ outputs) are
    asserted here, not floored: they are correctness, not speed."""
    results = fleet_bench(smoke=smoke)
    ablation = results["cache_ablation"]
    if not ablation["byte_identical"]:
        raise AssertionError("channel cache changed MonEQ output bytes")
    if ablation["crossings_reduction"] < CACHE_REDUCTION_FLOOR:
        raise AssertionError(
            f"channel cache cut crossings only "
            f"{ablation['crossings_reduction']:.1f}x, wanted "
            f">={CACHE_REDUCTION_FLOOR:g}x")
    return {
        **results["fleet_sweep"],
        "crossings_reduction": ablation["crossings_reduction"],
        "byte_identical": True,
    }


def bench_pack_overhead(pack: str = "phi-micsmc", reps: int = 3) -> dict:
    """Dispatch overhead of the scenario-pack layer: ``run_pack``
    (resolve the catalog manifest, validate, compile, dispatch) versus
    the same compiled spec run straight through the engine.

    ``speedup_vs_scalar`` is ``wall(engine only) / wall(run_pack)`` —
    ~1.0 when the pack layer is thin (locally ~0.95+, i.e. the manifest
    layer adds under 5% to a direct engine run).  Both sides run
    ``jobs=1`` with the cache off so the measured work is the live
    session itself; the floor catches the pack layer growing per-run
    work (re-validation in a loop, manifest re-reads, O(catalog)
    scans)."""
    from repro.exec.engine import Engine
    from repro.packs import catalog
    from repro.packs import run as pack_run

    raw = catalog.raw_pack(pack)
    spec, _ = pack_run.compile_spec(raw)

    def engine_only():
        Engine(jobs=1, cache=False).run([spec.exp_id])

    def through_packs():
        pack_run.run_pack(pack, jobs=1, cache=False)

    engine_only()  # warm imports and testbed caches out of the timing
    through_packs()
    wall_engine = min(_wall(engine_only)[0] for _ in range(reps))
    wall_pack = min(_wall(through_packs)[0] for _ in range(reps))
    return {
        "wall_s": wall_pack,
        "speedup_vs_scalar": wall_engine / wall_pack,
        "engine_wall_s": wall_engine,
        "pack": pack,
    }


#: The full profile: bench name -> zero-argument callable, in report
#: order.  Committed in ``BENCH_perf.json``.
ALL_BENCHES: dict[str, Callable[[], dict]] = {
    "moneq_block": bench_moneq_block,
    "moneq_full_session": bench_moneq_full_session,
    "launcher_fanin_4096": bench_launcher_fanin,
    "launcher_mmps": bench_launcher_mmps,
    "chaos_hotpath": bench_chaos_hotpath,
    "exec": bench_exec,
    "service": bench_service,
    "fleet": bench_fleet,
}

#: Reduced-size profile for CI smoke runs, small enough to finish in
#: seconds on a shared runner.  Committed in ``BENCH_smoke.json``.
SMOKE_BENCHES: dict[str, Callable[[], dict]] = {
    "moneq_block": lambda: bench_moneq_block(agents=64, ticks=1_000,
                                             scalar_ticks=50),
    "moneq_full_session": lambda: bench_moneq_full_session(duration_s=10.0),
    "launcher_fanin_4096": lambda: bench_launcher_fanin(size=512),
    "launcher_mmps": lambda: bench_launcher_mmps(messages_per_rank=400),
    "chaos_hotpath": lambda: bench_chaos_hotpath(rows=50_000, reps=3),
    "service": lambda: bench_service(racks=8, shards=8, requests=100,
                                     sweeps=16),
    "fleet": lambda: bench_fleet(smoke=True),
    "pack_overhead": bench_pack_overhead,
}

#: Absolute speedup floors a smoke check enforces.  Deliberately far
#: below locally-measured values: a shared CI runner is noisy, and the
#: check exists to catch an optimization being *undone* (speedups
#: collapsing to ~1x), not to benchmark the runner.
SMOKE_FLOORS: dict[str, float] = {
    "moneq_block": 3.0,
    "moneq_full_session": 2.0,
    "launcher_fanin_4096": 1.5,
    # chaos_hotpath's ratio is collect/read_block (<= ~1 by definition):
    # 0.25 means a retry-free read spends at least a quarter of its wall
    # below the fault-injection seam — per-row chaos overhead on the
    # disabled path would push it far under.
    "chaos_hotpath": 0.25,
    # service's ratio is the aggregate cache cold/warm through the HTTP
    # stack (~2.5x measured; the store-level ~85x is mostly absorbed by
    # dispatch + JSON).  1.5x still separates a live cache from a dead
    # one (ratio ~1x).
    "service": 1.5,
    # fleet's ratio is the sweep realtime factor (virtual s / wall s);
    # ~1000x measured locally; the floor is the sweep's own
    # REALTIME_FLOOR (faster than the machines it models).
    "fleet": REALTIME_FLOOR,
    # pack_overhead's ratio is engine-only/run_pack (<= ~1 by
    # definition): locally ~0.95+ (the manifest layer adds <5% to a
    # direct engine run); 0.80 still separates a thin dispatch from a
    # pack layer doing per-run heavy lifting.
    "pack_overhead": 0.80,
}

#: Minimum relative slack a full-profile re-measurement gets against
#: its committed speedup.  Wide because these are single-shot
#: wall-clock measurements on shared machines; the check is for
#: *regressions* (an optimization undone), not run-to-run jitter.
CHECK_TOLERANCE = 0.30

#: Minimum relative slack a smoke re-measurement gets against the
#: committed smoke median.  Wider still — a shared CI runner under
#: load halves speedups without anything regressing.
SMOKE_RELATIVE_TOLERANCE = 0.50

#: Profile name -> the committed trajectory file :func:`record` writes
#: and :func:`check` reads (relative to the working directory).
TRAJECTORY_PATHS: dict[str, str] = {
    "full": "BENCH_perf.json",
    "smoke": "BENCH_smoke.json",
}


def _profile(profile: str) -> tuple[dict[str, Callable[[], dict]], int,
                                    float, dict[str, float]]:
    """``(benches, record_reps, min_slack, absolute_floors)`` of a
    profile, read at call time so tests can swap the registries."""
    if profile == "full":
        return ALL_BENCHES, 1, CHECK_TOLERANCE, {}
    if profile == "smoke":
        return SMOKE_BENCHES, 3, SMOKE_RELATIVE_TOLERANCE, SMOKE_FLOORS
    raise ValueError(f"unknown bench profile {profile!r}; "
                     f"have {sorted(TRAJECTORY_PATHS)}")


def record(profile: str = "full", path: str | None = None,
           reps: int | None = None) -> tuple[dict, dict[str, dict]]:
    """Measure ``profile`` ``reps`` times (full: once, smoke: three
    times by default) and write its trajectory file.

    The file is ``{"reps": N, "benches": {name: {"wall_s",
    "speedup_vs_scalar", "spread", ...detail keys}}}``: per bench the
    median wall and speedup over the repetitions, the relative spread
    ``(max - min) / median`` of the speedups, and the final
    repetition's detail keys.  The spread *is* the runner-variance
    characterization — it tells :func:`check` how much slack each
    bench needs before a low reading means regression rather than
    noise.  ``path`` defaults to the profile's committed file.  Returns
    ``(trajectory, last_results)`` — the latter the final repetition's
    bench dicts, for reporting.
    """
    benches, default_reps, _, _ = _profile(profile)
    reps = max(1, default_reps if reps is None else reps)
    samples: dict[str, list[dict]] = {name: [] for name in benches}
    results: dict[str, dict] = {}
    for _ in range(reps):
        results = {name: fn() for name, fn in benches.items()}
        for name, r in results.items():
            samples[name].append(r)

    def median(values: list[float]) -> float:
        return sorted(values)[len(values) // 2]

    entries: dict[str, dict] = {}
    for name, runs_ in samples.items():
        speeds = [r["speedup_vs_scalar"] for r in runs_]
        mid = median(speeds)
        entries[name] = {
            **{k: round(v, 6) if isinstance(v, float) else v
               for k, v in runs_[-1].items()},
            "wall_s": round(median([r["wall_s"] for r in runs_]), 6),
            "speedup_vs_scalar": round(mid, 3),
            "spread": round((max(speeds) - min(speeds)) / mid
                            if mid else 0.0, 3),
        }
    trajectory = {"reps": reps, "benches": entries}
    with open(TRAJECTORY_PATHS[profile] if path is None else path, "w",
              encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trajectory, results


def check(profile: str = "full", path: str | None = None,
          ) -> tuple[list[str], dict[str, dict]]:
    """Re-run ``profile`` once and compare against its committed file.

    Returns ``(failures, fresh_results)``.  Each committed bench's
    fresh ``speedup_vs_scalar`` must stay within ``min(0.90,
    max(min_slack, 2 x spread))`` of the committed value, where
    ``min_slack`` is :data:`CHECK_TOLERANCE` (full) or
    :data:`SMOKE_RELATIVE_TOLERANCE` (smoke): benches measured stably
    get a tight bound, noisy ones a loose one, and the cap keeps every
    floor positive.  The smoke profile is held to the absolute
    :data:`SMOKE_FLOORS` as well — those catch an optimization undone
    outright; the relative floors catch the slow bleed the wide
    absolute floors would wave through.  A committed bench that is no
    longer benched fails, and so does a missing committed file (before
    any bench runs).  The committed file is never rewritten.
    """
    benches, _, min_slack, floors = _profile(profile)
    path = TRAJECTORY_PATHS[profile] if path is None else path
    try:
        with open(path, encoding="utf-8") as fh:
            committed = json.load(fh)["benches"]
    except FileNotFoundError:
        return [f"committed {profile} trajectory {path} not found"], {}
    results = {name: fn() for name, fn in benches.items()}
    failures = [
        f"{name}: {profile} speedup "
        f"{results[name]['speedup_vs_scalar']:.3f}x below the "
        f"{floor:.1f}x floor"
        for name, floor in floors.items()
        if results[name]["speedup_vs_scalar"] < floor
    ]
    for name, entry in committed.items():
        fresh = results.get(name)
        if fresh is None:
            failures.append(f"{name}: in {path} but no longer benched")
            continue
        slack = min(0.90, max(min_slack, 2.0 * entry.get("spread", 0.0)))
        floor = entry["speedup_vs_scalar"] * (1.0 - slack)
        if fresh["speedup_vs_scalar"] < floor:
            failures.append(
                f"{name}: {profile} speedup "
                f"{fresh['speedup_vs_scalar']:.3f}x fell below "
                f"{floor:.3f}x (committed "
                f"{entry['speedup_vs_scalar']:.3f}x - {slack:.0%})")
    return failures, results

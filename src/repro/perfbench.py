"""Wall-clock benches of the simulator's hot paths.

These measure the *simulator's* speed, not the modeled hardware: the
columnar block-sampling engine against per-tick scalar collection, and
the heap-scheduled launcher against the linear ``_pick_runnable``
reference.  ``python -m repro bench perf`` runs them and writes
``BENCH_moneq.json`` so future changes have a perf baseline to regress
against; ``benchmarks/bench_moneq_block.py`` and
``benchmarks/bench_runtime_perf.py`` assert the speedup floors.

Every bench returns a dict whose first two keys follow the trajectory
schema — ``{"wall_s": <optimized wall>, "speedup_vs_scalar": <x>}`` —
where "scalar" is the pre-optimization path (``block_ticks=1`` scalar
ticking, or ``scheduler="linear"``).  Extra keys carry bench-specific
detail for the CLI report and the benchmark asserts.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable

from repro.core import moneq
from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.fleet.sweep import REALTIME_FLOOR
from repro.runtime.launcher import Launcher
from repro.runtime.ops import ANY_SOURCE, Compute, Recv, Send
from repro.runtime.programs import run_mmps
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

        byte_identical = (_nvml_outputs(8, 400, 1, seed)
                          == _nvml_outputs(8, 400, 4096, seed))
    return {
        "wall_s": wall_block,
        "speedup_vs_scalar": scalar_est / wall_block,
        "scalar_wall_s": scalar_est,
        "agents": agents,
        "ticks": ticks,
        "byte_identical": byte_identical,
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


def bench_service_smoke(racks: int = 8, shards: int = 8,
                        requests: int = 100, sweeps: int = 16) -> dict:
    """The monitoring service at CI-smoke scale: mixed queries through
    the in-process WSGI client against a populated sharded envdb.

    ``speedup_vs_scalar`` is the aggregate cache's cold-build vs
    warm-hit per-query ratio *measured through the whole HTTP stack*
    (dispatch, auth, planning, JSON) — the service-level face of the
    store-level cached-aggregate speedup.  The committed full-size
    figures live in ``BENCH_service.json`` (``python -m repro service
    bench``), not in the moneq trajectory file.
    """
    from repro.service.loadgen import bench_service

    return bench_service(racks=racks, shards=shards, requests=requests,
                         sweeps=sweeps)


def bench_fleet_smoke() -> dict:
    """The fleet layer at CI-smoke scale: a 2-site sweep through the
    federated store plus the channel-cache crossings ablation.

    ``speedup_vs_scalar`` is the sweep's realtime factor (virtual
    seconds simulated per wall second) — the fleet-scale face of the
    block-sampling speedups above.  The ablation's invariants (the
    cache must cut channel crossings >=5x on the shared-device consumer
    pattern *and* stay byte-invisible in the MonEQ outputs) are
    asserted here, not floored: they are correctness, not speed.  The
    committed full-size figures live in ``BENCH_fleet.json``.
    """
    from repro.fleet import fleet_bench
    from repro.fleet.sweep import CACHE_REDUCTION_FLOOR

    results = fleet_bench(json_path=None, smoke=True)
    sweep = results["fleet_sweep"]
    ablation = results["cache_ablation"]
    if not ablation["byte_identical"]:
        raise AssertionError("channel cache changed MonEQ output bytes")
    if ablation["crossings_reduction"] < CACHE_REDUCTION_FLOOR:
        raise AssertionError(
            f"channel cache cut crossings only "
            f"{ablation['crossings_reduction']:.1f}x, wanted "
            f">={CACHE_REDUCTION_FLOOR:g}x")
    return {
        "wall_s": sweep["wall_s"],
        "speedup_vs_scalar": sweep["speedup_vs_scalar"],
        "sites": sweep["sites"],
        "records": sweep["records"],
        "cache_reduction": ablation["crossings_reduction"],
        "byte_identical": ablation["byte_identical"],
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


#: Bench name -> zero-argument callable, in report order.
ALL_BENCHES: dict[str, Callable[[], dict]] = {
    "moneq_block": bench_moneq_block,
    "moneq_full_session": bench_moneq_full_session,
    "launcher_fanin_4096": bench_launcher_fanin,
    "launcher_mmps": bench_launcher_mmps,
    "chaos_hotpath": bench_chaos_hotpath,
}

#: Reduced-size profile for CI smoke runs: same benches, small enough
#: to finish in seconds on a shared runner.  Smoke results are never
#: written to the trajectory file — the committed numbers measure the
#: full profile.
SMOKE_BENCHES: dict[str, Callable[[], dict]] = {
    "moneq_block": lambda: bench_moneq_block(agents=64, ticks=1_000,
                                             scalar_ticks=50),
    "moneq_full_session": lambda: bench_moneq_full_session(duration_s=10.0),
    "launcher_fanin_4096": lambda: bench_launcher_fanin(size=512),
    "launcher_mmps": lambda: bench_launcher_mmps(messages_per_rank=400),
    "chaos_hotpath": lambda: bench_chaos_hotpath(rows=50_000, reps=3),
    "service": bench_service_smoke,
    "fleet": bench_fleet_smoke,
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

#: Relative slack allowed when re-measuring a committed speedup.  Wide
#: because these are single-shot wall-clock measurements on shared
#: machines; the check is for *regressions* (an optimization undone),
#: not run-to-run jitter.
CHECK_TOLERANCE = 0.30

#: Where the committed smoke trajectory lives (see
#: :func:`run_smoke_trajectory`).
SMOKE_TRAJECTORY_PATH = "BENCH_smoke.json"

#: Floor on the relative slack a smoke re-measurement gets against the
#: committed smoke median.  Wide by design — a shared CI runner under
#: load halves speedups without anything regressing; benches whose
#: committed spread is larger get ``2 x spread`` instead (see
#: :func:`_smoke_relative_failures`).
SMOKE_RELATIVE_TOLERANCE = 0.50


def check(json_path: str = "BENCH_moneq.json",
          tolerance: float = CHECK_TOLERANCE,
          smoke: bool = False,
          ) -> tuple[list[str], dict[str, dict]]:
    """Re-run every bench and compare against the committed trajectory.

    Returns ``(failures, fresh_results)`` where each failure names a
    bench whose fresh ``speedup_vs_scalar`` fell more than ``tolerance``
    below the committed value (or that disappeared from the suite).
    The committed file is never rewritten by a check.

    With ``smoke=True`` the reduced :data:`SMOKE_BENCHES` profile runs
    instead, held to the absolute :data:`SMOKE_FLOORS` *and* — when a
    committed :data:`SMOKE_TRAJECTORY_PATH` exists — to relative floors
    against its per-bench medians (``json_path`` names the full-profile
    trajectory and is ignored in smoke mode).  The absolute floors
    catch an optimization being undone outright; the relative check
    catches the slow bleed the wide absolute floors would wave through.
    """
    if smoke:
        results = run(json_path=None, benches=SMOKE_BENCHES)
        failures = [
            f"{name}: smoke speedup "
            f"{results[name]['speedup_vs_scalar']:.3f}x below the "
            f"{floor:.1f}x floor"
            for name, floor in SMOKE_FLOORS.items()
            if results[name]["speedup_vs_scalar"] < floor
        ]
        failures.extend(_smoke_relative_failures(results))
        return failures, results
    with open(json_path, encoding="utf-8") as fh:
        committed = json.load(fh)
    results = run(json_path=None)
    failures: list[str] = []
    for name, entry in committed.items():
        fresh = results.get(name)
        if fresh is None:
            failures.append(f"{name}: in {json_path} but no longer benched")
            continue
        floor = entry["speedup_vs_scalar"] * (1.0 - tolerance)
        if fresh["speedup_vs_scalar"] < floor:
            failures.append(
                f"{name}: speedup {fresh['speedup_vs_scalar']:.3f}x fell "
                f"below {floor:.3f}x (committed "
                f"{entry['speedup_vs_scalar']:.3f}x - {tolerance:.0%})")
    return failures, results


def _smoke_relative_failures(
        results: dict[str, dict],
        trajectory_path: str = SMOKE_TRAJECTORY_PATH) -> list[str]:
    """Relative regressions against the committed smoke trajectory.

    The committed file records each smoke bench's median speedup over
    back-to-back repetitions plus its observed relative spread
    ``(max - min) / median`` — the runner-variance characterization
    :func:`run_smoke_trajectory` measured.  A fresh smoke speedup must
    stay within ``max(SMOKE_RELATIVE_TOLERANCE, 2 x spread)`` of the
    committed median (capped at 90% so the floor stays positive):
    benches the runner measures stably get a tight bound, noisy ones a
    loose one.  No committed file means no relative check.
    """
    try:
        with open(trajectory_path, encoding="utf-8") as fh:
            committed = json.load(fh)
    except FileNotFoundError:
        return []
    failures: list[str] = []
    for name, entry in committed["benches"].items():
        fresh = results.get(name)
        if fresh is None:
            failures.append(
                f"{name}: in {trajectory_path} but no longer smoke-benched")
            continue
        slack = min(0.90, max(SMOKE_RELATIVE_TOLERANCE,
                              2.0 * entry.get("spread", 0.0)))
        floor = entry["speedup_vs_scalar"] * (1.0 - slack)
        if fresh["speedup_vs_scalar"] < floor:
            failures.append(
                f"{name}: smoke speedup "
                f"{fresh['speedup_vs_scalar']:.3f}x fell below "
                f"{floor:.3f}x (committed median "
                f"{entry['speedup_vs_scalar']:.3f}x - {slack:.0%})")
    return failures


def run_smoke_trajectory(json_path: str | None = SMOKE_TRAJECTORY_PATH,
                         reps: int = 3) -> tuple[dict, dict[str, dict]]:
    """Measure the smoke profile ``reps`` times and write the smoke
    trajectory file: per bench the median ``wall_s`` and
    ``speedup_vs_scalar`` plus the relative spread ``(max - min) /
    median`` across the repetitions.

    The spread *is* the runner-variance characterization: committed
    from the same class of machine CI runs on, it tells
    ``check(smoke=True)`` how much slack each bench needs before a
    low reading means regression rather than noise.  Returns
    ``(trajectory, last_results)`` — the latter the final repetition's
    full bench dicts, for reporting.
    """
    samples: dict[str, list[dict]] = {name: [] for name in SMOKE_BENCHES}
    results: dict[str, dict] = {}
    for _ in range(max(1, reps)):
        results = run(json_path=None, benches=SMOKE_BENCHES)
        for name, r in results.items():
            samples[name].append(r)

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    benches: dict[str, dict] = {}
    for name, runs_ in samples.items():
        speeds = [r["speedup_vs_scalar"] for r in runs_]
        mid = median(speeds)
        spread = (max(speeds) - min(speeds)) / mid if mid else 0.0
        benches[name] = {
            "wall_s": round(median([r["wall_s"] for r in runs_]), 6),
            "speedup_vs_scalar": round(mid, 3),
            "spread": round(spread, 3),
        }
    trajectory = {"reps": max(1, reps), "benches": benches}
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return trajectory, results


def run(json_path: str | None = "BENCH_moneq.json",
        benches: dict[str, Callable[[], dict]] | None = None,
        ) -> dict[str, dict]:
    """Run every bench; write the trajectory file (bench name ->
    ``{wall_s, speedup_vs_scalar}``) unless ``json_path`` is None."""
    if benches is None:
        benches = ALL_BENCHES
    results = {name: fn() for name, fn in benches.items()}
    if json_path is not None:
        trajectory = {
            name: {
                "wall_s": round(r["wall_s"], 6),
                "speedup_vs_scalar": round(r["speedup_vs_scalar"], 3),
            }
            for name, r in results.items()
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results

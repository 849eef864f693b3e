"""Command-line entry point.

::

    python -m repro list                # available experiments
    python -m repro table3              # regenerate one table/figure
    python -m repro all                 # regenerate everything
    python -m repro report [--jobs N] [--no-cache] [--cache-root DIR]
                                        # print EXPERIMENTS.md content
                                        # (cached by default; --jobs N
                                        # fans misses over N processes)
    python -m repro exec run <id...> [--jobs N] [--no-cache]
                                        # run experiments through the engine
    python -m repro exec cache stats    # result-cache size and contents
    python -m repro exec cache clear    # drop every cached result
    python -m repro exec bench [json_path]
                                        # engine cold/warm benches ->
                                        # BENCH_exec.json
    python -m repro obs dump [target..] # run exercises, dump metrics+spans
    python -m repro store bench [racks [shards [interval_s]]]
                                        # exercise the sharded envdb store
    python -m repro bench perf [json_path] [--check] [--smoke]
                                        # wall-clock hot-path benches ->
                                        # BENCH_moneq.json perf baseline
                                        # (--check: compare against the
                                        # committed file, exit 1 on
                                        # regression, write nothing;
                                        # --smoke alone: measure the
                                        # reduced profile 3x and write
                                        # BENCH_smoke.json medians+spread;
                                        # --check --smoke: one reduced
                                        # run vs absolute floors AND
                                        # relative floors from the
                                        # committed BENCH_smoke.json,
                                        # writes nothing)
    python -m repro serve [--host H] [--port P] [--racks N]
                          [--shards N] [--sweeps N]
                                        # stand up a populated simulated
                                        # machine and serve the live
                                        # monitoring query service on it
    python -m repro service bench [json_path] [--racks N] [--shards N]
                                        [--requests N] [--sweeps N]
                                        # sustained mixed query load ->
                                        # BENCH_service.json
    python -m repro service smoke       # boot in-process: /ready, one
                                        # planned query, one 403 — the
                                        # CI gate, exit 1 on any miss
    python -m repro mech list           # the declared mechanism registry
                                        # (channel, latency, min interval,
                                        # capabilities per vendor path)
    python -m repro pack list           # the scenario-pack catalog
    python -m repro pack show <name> [--json]
                                        # one validated manifest
    python -m repro pack run <name...> [--smoke] [--json] [--jobs N]
                          [--no-cache] [--cache-root DIR] [--seed N]
                          [--duration S] [--rate R]
                                        # compile manifests onto the
                                        # exec engine and run them
                                        # (--smoke: the fixed CI pair;
                                        # --json: payloads as JSON)

Exit status: 0 on success, 1 when a run or a gate fails, 2 on a usage
error (an unknown command or pack, a malformed flag, or a value the
library rejects, printed as one ``<command>: <message>`` line).
"""

from __future__ import annotations

import sys

from repro.errors import ReproError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import report as report_module


def _obs_command(args: list[str]) -> int:
    """``repro obs dump [target ...]`` — run the named exercises (every
    one of them by default) and print the Prometheus exposition plus the
    finished spans."""
    import repro.obs as obs
    from repro.obs import demo

    if not args or args[0] != "dump":
        print("usage: python -m repro obs dump [target ...]\n"
              f"targets: {' '.join(demo.EXERCISES)} (default: all)",
              file=sys.stderr)
        return 2
    targets = args[1:] or list(demo.EXERCISES)
    unknown = [t for t in targets if t not in demo.EXERCISES]
    if unknown:
        print(f"unknown obs target(s) {unknown}; "
              f"have {sorted(demo.EXERCISES)}", file=sys.stderr)
        return 2
    for target in targets:
        summary = demo.EXERCISES[target]()
        detail = ", ".join(f"{k}={v:g}" for k, v in summary.items())
        print(f"# exercised {target}: {detail}")
    print()
    print(obs.dump())
    spans = obs.get_tracer().render()
    if spans:
        print("# spans")
        print(spans)
    return 0


def _store_command(args: list[str]) -> int:
    """``repro store bench [racks [shards [interval_s]]]`` — stand up a
    sharded envdb, run polling sweeps, exercise every query kind, and
    print the paper-vs-store numbers plus the ``repro_store_*`` metric
    families from the existing exporter."""
    import time

    import repro.obs as obs
    from repro.analysis.tables import format_aggregates, format_table
    from repro.bgq.machine import BgqMachine
    from repro.sim.rng import RngRegistry

    if not args or args[0] != "bench":
        print("usage: python -m repro store bench [racks [shards [interval_s]]]",
              file=sys.stderr)
        return 2
    try:
        racks = int(args[1]) if len(args) > 1 else 4
        shards = int(args[2]) if len(args) > 2 else 4
        interval_s = float(args[3]) if len(args) > 3 else 240.0
    except ValueError:
        print("store bench arguments must be numeric: "
              "[racks [shards [interval_s]]]", file=sys.stderr)
        return 2

    sweeps = 6
    machine = BgqMachine(racks=racks, rng=RngRegistry(0x5708E),
                         poll_interval_s=interval_s, envdb_shards=shards)
    machine.advance_to(interval_s * sweeps)
    envdb = machine.envdb
    store = envdb.store
    window = interval_s * sweeps

    repeats = 20
    t_start = time.perf_counter()
    for _ in range(repeats):
        aggs = envdb.aggregate("bpm", "input_power_w", 0.0, window,
                               window, "R00")
    cached_s = (time.perf_counter() - t_start) / repeats
    rows = store.range("bpm", 0.0, window, "R00-M0-N00")
    latest = store.latest("bpm", "R00")

    print(format_table(
        ("metric", "value"),
        [
            ("racks / shards", f"{racks} / {store.n_shards}"),
            ("poll interval", f"{interval_s:.0f} s x {sweeps} sweeps"),
            ("records ingested", str(store.records_ingested)),
            ("records dropped", str(store.dropped_records)),
            ("batches flushed", str(store.batches_flushed)),
            ("hottest-shard load", f"{envdb.capacity_fraction():.2f}x"),
            ("range rows (one board)", str(len(rows))),
            ("latest locations (R00)", str(len(latest))),
            ("aggregate query (cached)", f"{cached_s * 1e3:.3f} ms"),
        ],
        title=f"[repro store bench] sharded envdb, plan="
              f"{store.plan('aggregate', 'bpm', 'R00-M0').fan_out} shard(s)",
    ))
    print()
    print(format_aggregates(aggs[:8], title="[aggregates] R00, first rows"))
    print()
    store_lines = [line for line in obs.dump().splitlines()
                   if "repro_store" in line]
    print("\n".join(store_lines))
    return 0


def _bench_command(args: list[str]) -> int:
    """``repro bench perf [json_path] [--check] [--smoke]`` — run the
    hot-path wall-clock benches (block-sampling engine, heap scheduler,
    full session).  Without flags, write the full-profile trajectory
    file future PRs regress against; ``--smoke`` alone measures the
    reduced profile three times and writes the smoke trajectory
    (medians plus runner-variance spread); ``--check`` compares fresh
    speedups to the committed file(s) and exits 1 on regression
    without rewriting anything."""
    from repro import perfbench
    from repro.analysis.tables import format_table

    if not args or args[0] != "perf":
        print("usage: python -m repro bench perf [json_path] "
              "[--check] [--smoke]", file=sys.stderr)
        return 2
    checking = "--check" in args
    smoke = "--smoke" in args
    positional = [a for a in args[1:] if a not in ("--check", "--smoke")]

    if checking:
        json_path = positional[0] if positional else "BENCH_moneq.json"
        failures, results = perfbench.check(json_path, smoke=smoke)
    elif smoke:
        # Smoke sizes never touch the full-profile trajectory file —
        # they get their own, medians over repetitions plus spread.
        json_path = (positional[0] if positional
                     else perfbench.SMOKE_TRAJECTORY_PATH)
        _, results = perfbench.run_smoke_trajectory(json_path)
        failures = []
    else:
        json_path = positional[0] if positional else "BENCH_moneq.json"
        failures, results = [], perfbench.run(json_path)
    rows = []
    for name, r in results.items():
        detail = ", ".join(
            f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
            for k, v in r.items()
            if k not in ("wall_s", "speedup_vs_scalar")
        )
        rows.append((name, f"{r['wall_s'] * 1e3:.1f} ms",
                     f"{r['speedup_vs_scalar']:.1f}x", detail))
    if checking and smoke:
        title = ("[repro bench perf] smoke profile vs absolute + "
                 "relative floors")
    elif checking:
        title = f"[repro bench perf] checked against {json_path}"
    elif smoke:
        title = f"[repro bench perf] smoke x3 -> wrote {json_path}"
    else:
        title = f"[repro bench perf] wrote {json_path}"
    print(format_table(("bench", "wall", "vs scalar", "detail"), rows,
                       title=title))
    if not results["moneq_block"]["byte_identical"]:
        print("FAIL: block-sampled output diverged from scalar",
              file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def _int_flags(args: list[str], flags: dict[str, object]
               ) -> tuple[dict[str, object], list[str]]:
    """Parse ``--name value`` pairs out of ``args`` into ``flags``
    (values coerced to the default's type); returns the rest."""
    positional: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        key = arg[2:].replace("-", "_") if arg.startswith("--") else None
        if key in flags:
            if i + 1 >= len(args):
                raise ValueError(f"{arg} needs a value")
            kind = type(flags[key])
            flags[key] = kind(args[i + 1])
            i += 2
        else:
            positional.append(arg)
            i += 1
    return flags, positional


def _serve_command(args: list[str]) -> int:
    """``repro serve`` — build the populated 64-shard rig (reduced with
    ``--racks/--shards/--sweeps``) and serve it under wsgiref."""
    from repro.service import build_rig, serve

    try:
        flags, extra = _int_flags(args, {
            "host": "127.0.0.1", "port": 8340,
            "racks": 64, "shards": 64, "sweeps": 2,
        })
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if extra:
        print(f"serve: unexpected argument(s) {extra}", file=sys.stderr)
        return 2
    machine, app, _ = build_rig(racks=flags["racks"], shards=flags["shards"],
                                sweeps=flags["sweeps"])
    print(f"# rig: {flags['racks']} racks over "
          f"{machine.envdb.store.n_shards} shards, "
          f"{machine.envdb.store.records_ingested} records ingested")
    serve(app, host=flags["host"], port=flags["port"])
    return 0


def _service_command(args: list[str]) -> int:
    """``repro service bench|smoke`` — the load generator (writes
    ``BENCH_service.json``) or the boot-and-probe CI gate."""
    from repro.analysis.tables import format_table

    usage = ("usage: python -m repro service bench [json_path] [--racks N] "
             "[--shards N] [--requests N] [--sweeps N]\n"
             "       python -m repro service smoke")
    if not args:
        print(usage, file=sys.stderr)
        return 2

    if args[0] == "bench":
        from repro.service import write_bench

        try:
            flags, positional = _int_flags(args[1:], {
                "racks": 64, "shards": 64, "requests": 400, "sweeps": 16,
            })
        except ValueError as exc:
            print(f"service bench: {exc}", file=sys.stderr)
            return 2
        json_path = positional[0] if positional else "BENCH_service.json"
        result = write_bench(json_path, racks=flags["racks"],
                             shards=flags["shards"],
                             requests=flags["requests"],
                             sweeps=flags["sweeps"])
        rows = [(key, f"{value:g}" if isinstance(value, float) else str(value))
                for key, value in result.items()]
        print(format_table(("metric", "value"), rows,
                           title=f"[repro service bench] wrote {json_path}"))
        return 0

    if args[0] == "smoke":
        from repro.service import ServiceApp, ServiceClient, build_rig
        from repro.testbeds import fleet_node

        machine, app, client = build_rig(racks=4, shards=4, sweeps=2)
        _, backends = fleet_node(seed=0x510, hostname="smoke-host",
                                 grant_msr_access=False)
        gated = ServiceClient(ServiceApp(machine.envdb.store,
                                         backends=backends))
        checks = []
        ready = client.get("/ready")
        checks.append(("/ready is 200", ready.status == 200))
        query = client.get("/v2/query/latest", {"table": "bpm"})
        payload = query.json() if query.status == 200 else {}
        checks.append(("planned query serves rows",
                       query.status == 200 and payload.get("count", 0) > 0
                       and payload.get("plan", {}).get("fan_out", 0) >= 1))
        denied = gated.get("/v2/mech/rapl_msr/read", {"t": 10.0})
        origin = (denied.json().get("error", {}).get("origin", "")
                  if denied.status == 403 else "")
        checks.append(("unprivileged msr read is a structured 403",
                       denied.status == 403
                       and origin == "repro.host.permissions"))
        stream = client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": 0, "batches": 1})
        lines = list(stream.lines())
        checks.append(("streaming tail opens and ends",
                       stream.status == 200
                       and lines[0].get("marker") == "open"
                       and lines[-1].get("marker") == "end"))
        for label, ok in checks:
            print(f"{'ok' if ok else 'FAIL'} - {label}")
        return 0 if all(ok for _, ok in checks) else 1

    print(usage, file=sys.stderr)
    return 2


def _mech_command(args: list[str]) -> int:
    """``repro mech list`` — print the declared mechanism registry: one
    row per vendor path with its channel, charged latency per read, the
    freshness-derived minimum interval, and the capability count."""
    import repro.core.moneq.backends  # noqa: F401  (registers the fleet)
    from repro.analysis.tables import format_table
    from repro.mech import mechanisms

    if not args or args[0] != "list":
        print("usage: python -m repro mech list", file=sys.stderr)
        return 2
    rows = []
    for spec in mechanisms().values():
        rows.append((
            spec.name,
            spec.platform,
            spec.channel.name,
            f"{spec.read_latency_s * 1e3:.2f} ms"
            + (f" ({spec.queries_per_read}q)"
               if spec.queries_per_read > 1 else ""),
            f"{spec.min_interval_s * 1e3:.0f} ms",
            str(spec.capability.capability_count),
            str(len(spec.fields)),
        ))
    print(format_table(
        ("mechanism", "platform", "channel", "latency/read",
         "min interval", "caps", "fields"),
        rows,
        title=f"[repro mech list] {len(rows)} declared vendor paths",
    ))
    return 0


def _pack_command(args: list[str]) -> int:
    """``repro pack list|show|run`` — the declarative scenario packs:
    inspect the ``packs/`` catalog, show one validated manifest, or
    compile manifests onto the exec engine and run them."""
    import json

    from repro import packs
    from repro.analysis.tables import format_table
    from repro.errors import ExperimentExecutionError, PackError
    from repro.experiments.report import render_block

    usage = ("usage: python -m repro pack list\n"
             "       python -m repro pack show <name> [--json]\n"
             "       python -m repro pack run <name...> [--smoke] [--json]\n"
             "           [--jobs N] [--no-cache] [--cache-root DIR]\n"
             "           [--seed N] [--duration S] [--rate R]")
    if not args:
        print(usage, file=sys.stderr)
        return 2

    if args[0] == "list":
        try:
            catalog = packs.all_packs()
        except PackError as exc:
            print(f"pack list: {exc}", file=sys.stderr)
            return 1
        rows = []
        for spec in catalog.values():
            if spec.kind == "experiments":
                detail = f"{len(spec.experiments)} experiments"
            elif spec.kind == "fleet":
                detail = "smoke sweep" if spec.fleet.smoke else "full sweep"
            else:
                detail = (f"{spec.testbed.kind} / "
                          f"{','.join(spec.mechanisms) or 'all'}")
            rows.append((spec.name, spec.kind, detail, spec.summary))
        print(format_table(
            ("pack", "kind", "detail", "summary"), rows,
            title=f"[repro pack list] {len(rows)} packs in "
                  f"{packs.packs_dir()}"))
        return 0

    if args[0] == "show":
        as_json = "--json" in args
        names = [a for a in args[1:] if a != "--json"]
        if len(names) != 1:
            print("pack show: name exactly one pack", file=sys.stderr)
            return 2
        try:
            raw = packs.run._resolve(names[0])
            spec = packs.scenario_from_mapping(raw, source=names[0])
        except PackError as exc:
            print(f"pack show: {exc}", file=sys.stderr)
            return 2
        if as_json:
            print(json.dumps(raw, indent=2, sort_keys=True))
            return 0
        rows = [
            ("kind", spec.kind),
            ("summary", spec.summary),
            ("seed", str(spec.seed)),
            ("duration", f"{spec.duration_s:g} s"),
        ]
        if spec.kind in ("session", "chaos"):
            rows.append(("testbed", spec.testbed.kind))
            rows.append(("mechanisms",
                         ", ".join(spec.mechanisms) or "(testbed order)"))
            rows.append(("interval",
                         f"{spec.interval_s:g} s" if spec.interval_s
                         is not None else "(mechanism floor)"))
            if spec.workload is not None:
                rows.append(("workload",
                             f"{spec.workload.name}, "
                             f"{len(spec.workload.phases)} phases"))
            if spec.faults is not None:
                rows.append(("fault rules", str(len(spec.faults.rules))))
        elif spec.kind == "experiments":
            rows.append(("experiments", ", ".join(spec.experiments)))
        elif spec.kind == "fleet":
            rows.append(("profile",
                         "smoke" if spec.fleet.smoke else "full"))
        print(format_table(("field", "value"), rows,
                           title=f"[repro pack show] {spec.name}"))
        return 0

    if args[0] == "run":
        as_json = "--json" in args
        smoke = "--smoke" in args
        rest = [a for a in args[1:] if a not in ("--json", "--smoke")]
        overrides = {"seed": None, "duration": None, "rate": None}
        try:
            jobs, cache, cache_root, rest = _report_flags(rest)
            names: list[str] = []
            i = 0
            while i < len(rest):
                arg = rest[i]
                key = arg[2:] if arg.startswith("--") else None
                if key in overrides:
                    if i + 1 >= len(rest):
                        raise ValueError(f"{arg} needs a value")
                    overrides[key] = (int(rest[i + 1]) if key == "seed"
                                      else float(rest[i + 1]))
                    i += 2
                else:
                    names.append(arg)
                    i += 1
        except ValueError as exc:
            print(f"pack run: {exc}", file=sys.stderr)
            return 2
        if smoke:
            if names:
                print("pack run: --smoke runs the fixed CI pair; "
                      "drop the pack names", file=sys.stderr)
                return 2
            names = list(packs.SMOKE_PACKS)
        if not names:
            print("pack run: name at least one pack "
                  "(see 'python -m repro pack list')", file=sys.stderr)
            return 2
        documents = []
        for name in names:
            try:
                result = packs.run_pack(
                    name, jobs=jobs, cache=cache, cache_root=cache_root,
                    seed=overrides["seed"],
                    duration_s=overrides["duration"],
                    rate=overrides["rate"])
            except PackError as exc:
                print(f"pack run: {exc}", file=sys.stderr)
                return 2
            except ExperimentExecutionError as exc:
                print(f"pack run failed: {exc}", file=sys.stderr)
                return 1
            if as_json:
                documents.append({
                    "pack": result.spec.name,
                    "kind": result.spec.kind,
                    "exp_id": result.exp_id or None,
                    "payload": result.payloads.get(result.exp_id),
                    "blocks": {exp_id: render_block(block)
                               for exp_id, block in result.blocks.items()},
                })
                continue
            for block in result.blocks.values():
                print("\n".join(render_block(block)))
            stats = result.stats
            print(f"# pack {result.spec.name}: {stats.executed} executed, "
                  f"{stats.cache_hits} cached, {stats.wall_s * 1e3:.1f} ms "
                  f"(jobs={jobs})")
        if as_json:
            print(json.dumps(documents, indent=2, sort_keys=True))
        return 0

    print(usage, file=sys.stderr)
    return 2


def _report_flags(args: list[str]) -> tuple[int, bool, str | None, list[str]]:
    """Parse the shared ``--jobs N --no-cache --cache-root DIR`` flags;
    returns ``(jobs, cache, cache_root, positional)``."""
    jobs, cache, cache_root = 1, True, None
    positional: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--jobs":
            if i + 1 >= len(args):
                raise ValueError("--jobs needs a value")
            jobs = int(args[i + 1])
            i += 2
        elif arg.startswith("--jobs="):
            jobs = int(arg.split("=", 1)[1])
            i += 1
        elif arg == "--no-cache":
            cache = False
            i += 1
        elif arg == "--cache-root":
            if i + 1 >= len(args):
                raise ValueError("--cache-root needs a value")
            cache_root = args[i + 1]
            i += 2
        elif arg.startswith("--cache-root="):
            cache_root = arg.split("=", 1)[1]
            i += 1
        else:
            positional.append(arg)
            i += 1
    return jobs, cache, cache_root, positional


def _exec_command(args: list[str]) -> int:
    """``repro exec run|cache|bench`` — drive the experiment engine
    directly: run named experiments through the pool and cache, inspect
    or clear the content-addressed result cache, or time the engine's
    cold/warm paths into ``BENCH_exec.json``."""
    from repro.analysis.tables import format_table
    from repro.errors import ExperimentExecutionError
    from repro.exec import Engine, ResultCache

    usage = ("usage: python -m repro exec run <id...> [--jobs N] [--no-cache]\n"
             "       python -m repro exec cache stats|clear\n"
             "       python -m repro exec bench [json_path]")
    if not args:
        print(usage, file=sys.stderr)
        return 2

    if args[0] == "run":
        try:
            jobs, cache, cache_root, exp_ids = _report_flags(args[1:])
        except ValueError as exc:
            print(f"exec run: {exc}", file=sys.stderr)
            return 2
        if not exp_ids:
            print("exec run: name at least one experiment "
                  "(see 'python -m repro list')", file=sys.stderr)
            return 2
        engine = Engine(jobs=jobs, cache=cache, cache_root=cache_root)
        try:
            blocks = engine.run(exp_ids)
        except ExperimentExecutionError as exc:
            print(f"exec run failed: {exc}", file=sys.stderr)
            return 1
        from repro.experiments.report import render_block
        for block in blocks.values():
            print("\n".join(render_block(block)))
        stats = engine.stats
        print(f"# {stats.executed} executed, {stats.cache_hits} cached, "
              f"{stats.retries} retried, {stats.wall_s * 1e3:.1f} ms "
              f"(jobs={jobs})")
        return 0

    if args[0] == "cache":
        cache = ResultCache()
        if len(args) > 1 and args[1] == "clear":
            removed = cache.clear()
            print(f"removed {removed} cached result(s) from {cache.root}")
            return 0
        if len(args) > 1 and args[1] == "stats":
            stats = cache.stats()
            rows = [(exp_id, str(n)) for exp_id, n
                    in sorted(stats.experiments.items())]
            rows.append(("total entries", str(stats.entries)))
            rows.append(("total bytes", str(stats.total_bytes)))
            print(format_table(
                ("experiment", "entries"), rows,
                title=f"[repro exec cache] {stats.root}"))
            return 0
        print("usage: python -m repro exec cache stats|clear",
              file=sys.stderr)
        return 2

    if args[0] == "bench":
        from repro.exec import bench as exec_bench
        json_path = args[1] if len(args) > 1 else "BENCH_exec.json"
        results = exec_bench.run(json_path)
        rows = [(name, f"{r['wall_s'] * 1e3:.1f} ms",
                 ", ".join(f"{k}={v:g}" if isinstance(v, (int, float))
                           else f"{k}={v}"
                           for k, v in r.items() if k != "wall_s"))
                for name, r in results["runs"].items()]
        rows.append(("byte_identical", str(results["byte_identical"]), ""))
        rows.append(("cpus", str(results["cpus"]), ""))
        print(format_table(("run", "wall", "detail"), rows,
                           title=f"[repro exec bench] wrote {json_path}"))
        return 0 if results["byte_identical"] else 1

    print(usage, file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help", "help"):
        print(__doc__.strip())
        return 0
    try:
        return _dispatch(args)
    except ReproError as exc:
        # A rejected argument value (racks 0, --jobs 0, an interval
        # outside the envdb range, ...) is a usage error, not a crash.
        print(f"{args[0]}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: list[str]) -> int:
    command = args[0]
    if command == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    if command == "obs":
        return _obs_command(args[1:])
    if command == "store":
        return _store_command(args[1:])
    if command == "bench":
        return _bench_command(args[1:])
    if command == "serve":
        return _serve_command(args[1:])
    if command == "service":
        return _service_command(args[1:])
    if command == "mech":
        return _mech_command(args[1:])
    if command == "pack":
        return _pack_command(args[1:])
    if command == "exec":
        return _exec_command(args[1:])
    if command == "report":
        try:
            jobs, cache, cache_root, extra = _report_flags(args[1:])
        except ValueError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        if extra:
            print(f"report: unexpected argument(s) {extra}", file=sys.stderr)
            return 2
        report_module.main(jobs=jobs, cache=cache, cache_root=cache_root)
        return 0
    if command == "all":
        for name, module in ALL_EXPERIMENTS.items():
            print(f"==== {name} " + "=" * (60 - len(name)))
            module.main()
            print()
        return 0
    module = ALL_EXPERIMENTS.get(command)
    if module is None:
        print(f"unknown experiment {command!r}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    module.main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

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
    python -m repro obs dump [target..] # run exercises, dump metrics+spans
    python -m repro bench perf [json_path] [--check] [--smoke]
                                        # the wall-clock benches: write
                                        # BENCH_perf.json (full profile,
                                        # one run) or, with --smoke,
                                        # BENCH_smoke.json (CI profile,
                                        # medians+spread of 3 runs);
                                        # --check: re-measure against
                                        # the committed file, exit 1 on
                                        # regression, write nothing
    python -m repro serve [--host H] [--port P] [--racks N]
                          [--shards N] [--sweeps N]
                                        # stand up a populated simulated
                                        # machine and serve the live
                                        # monitoring query service on it
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


def _bench_command(args: list[str]) -> int:
    """``repro bench perf [json_path] [--check] [--smoke]`` — the one
    wall-clock bench driver.  Without ``--check``, measure the full
    profile once (or, with ``--smoke``, the reduced profile three
    times) and write its trajectory file; ``--check`` re-measures the
    profile against the committed file and exits 1 on regression
    without rewriting anything."""
    from repro import perfbench
    from repro.analysis.tables import format_table

    if not args or args[0] != "perf":
        print("usage: python -m repro bench perf [json_path] "
              "[--check] [--smoke]", file=sys.stderr)
        return 2
    flags = [a for a in args[1:] if a.startswith("--")]
    positional = [a for a in args[1:] if not a.startswith("--")]
    unknown = [f for f in flags if f not in ("--check", "--smoke")]
    if unknown or len(positional) > 1:
        print(f"bench: unexpected argument(s) {unknown + positional[1:]}",
              file=sys.stderr)
        return 2
    checking = "--check" in flags
    profile = "smoke" if "--smoke" in flags else "full"
    json_path = (positional[0] if positional
                 else perfbench.TRAJECTORY_PATHS[profile])

    try:
        if checking:
            failures, results = perfbench.check(profile, json_path)
            title = f"[repro bench perf] {profile} profile vs {json_path}"
        else:
            trajectory, results = perfbench.record(profile, json_path)
            failures = []
            title = (f"[repro bench perf] {profile} profile "
                     f"x{trajectory['reps']} -> wrote {json_path}")
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    rows = []
    for name, r in results.items():
        detail = ", ".join(
            f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
            for k, v in r.items()
            if k not in ("wall_s", "speedup_vs_scalar")
        )
        rows.append((name, f"{r['wall_s'] * 1e3:.1f} ms",
                     f"{r['speedup_vs_scalar']:.1f}x", detail))
    if rows:
        print(format_table(("bench", "wall", "vs scalar", "detail"), rows,
                           title=title))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
    """``repro service smoke`` — the boot-and-probe CI gate."""
    if args != ["smoke"]:
        print("usage: python -m repro service smoke", file=sys.stderr)
        return 2

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
        if jobs < 1:
            # A usage error, as for ``exec run --jobs 0`` — not the run
            # failure (exit 1) the engine would report it as.
            print(f"pack: jobs must be >= 1, got {jobs}", file=sys.stderr)
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
    """``repro exec run|cache`` — drive the experiment engine directly:
    run named experiments through the pool and cache, or inspect or
    clear the content-addressed result cache."""
    from repro.analysis.tables import format_table
    from repro.errors import ExperimentExecutionError
    from repro.exec import Engine, ResultCache

    usage = ("usage: python -m repro exec run <id...> [--jobs N] [--no-cache]\n"
             "       python -m repro exec cache stats|clear")
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
        # A rejected argument value (racks 0, --jobs 0, ...) is a
        # usage error, not a crash.
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

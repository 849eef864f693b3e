"""The repository's benchmark: end-to-end and per-layer metrics of the
monitoring stack on three seeded workloads.

Run from the repository root::

    python3 stackbench/run.py --workload service-query --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
set-up time, peak resident memory over set-up and a fixed number of
operations, and throughput, the last as the median over groups of
operations that each hold the workload's input mix once; median and
tail operation latency are printed beside them.
``--trace 1`` runs the same operations twice, untraced and then with
spans around every layer's entry points, and reports the per-layer
metrics plus the tracing overhead; the spans are written as Chrome
trace-event JSON under ``.stackbench-out/``.  Without ``--workload``
every workload runs, each in its own process, and the last line
combines them: metrics are keyed ``<workload>.<metric>`` and the exit
status is 1 unless every workload is correct.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Each workload runs
in a single process with no extra threads, so peak memory and the
process-global ``repro.obs`` counters belong to that workload alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports no program code)

#: How many times each run repeats the workload's build for ``setup_s``.
SETUP_REPS = 5
#: How many fresh interpreters, this one included, time the workload's
#: one-time part (imports, registries, first use) for ``setup_s``.
ONCE_REPS = 3

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("throughput", "items/s"))

TRACE_DIR = ".stackbench-out"


@dataclass
class Pass:
    """What one measured pass over a workload's operations produced."""

    latencies: list[float] = field(default_factory=list)
    #: Items (requests, records, rows) each operation delivered.
    op_items: list[int] = field(default_factory=list)
    failed: int = 0
    acc: dict = field(default_factory=dict)
    #: Peak resident memory (MiB) once ``memory_ops`` operations ran.
    peak_mb: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def items(self) -> int:
        return sum(self.op_items)

    def groups(self, size: int) -> list[tuple[list[float], list[int]]]:
        """Consecutive complete groups of ``size`` operations (the whole
        pass when it is shorter than one group)."""
        whole = len(self.latencies) // size * size
        return ([(self.latencies[i:i + size], self.op_items[i:i + size])
                 for i in range(0, whole, size)]
                or [(self.latencies, self.op_items)])


def measure(workload, state, seconds: float | None = None,
            limit: int | None = None, verify: bool = True,
            recorder=None) -> Pass:
    """Run operations until ``seconds`` pass or ``limit`` ran; time each
    ``run_op`` alone and check its result outside the timed call.

    Peak memory is read after the workload's first ``memory_ops``
    operations (or at the end, if fewer ran): a fixed amount of work,
    so a faster program is not charged for the memory that the extra
    operations it fits into the run leave behind."""
    result = Pass()
    ops = workload.ops(state)
    deadline = time.perf_counter() + (seconds or 0.0)
    while (len(result.latencies) < limit if limit is not None
           else time.perf_counter() < deadline):
        index = len(result.latencies)
        op = next(ops)
        if recorder is not None:
            recorder.request = index
        started = time.perf_counter()
        try:
            out = workload.run_op(state, op)
        except Exception:  # an operation that raises counts as failed
            result.latencies.append(time.perf_counter() - started)
            result.op_items.append(0)
            result.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        result.latencies.append(time.perf_counter() - started)
        items, ok = workload.check_op(state, index, op, out, verify,
                                      result.acc)
        result.op_items.append(items)
        result.failed += not ok
        if len(result.latencies) == workload.memory_ops:
            result.peak_mb = peak_rss_mb()
    result.peak_mb = result.peak_mb or peak_rss_mb()
    return result


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for q in (99, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            return q, ordered[math.ceil(len(ordered) * q / 100) - 1]
    return None


def host_facts() -> dict:
    import numpy

    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    """This process image's peak resident set (VmHWM).  Not ru_maxrss:
    Linux carries that across exec from the launching process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def prepare(name: str, seed: int):
    """The workload, prepared, and the seconds its one-time part took."""
    started = time.perf_counter()
    workload = WORKLOADS[name](seed)
    workload.prepare()
    return workload, time.perf_counter() - started


def prepare_in_child(name: str, seed: int) -> float:
    """Seconds the one-time part takes in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--prepare-only"], capture_output=True, text=True, check=True,
        timeout=120)
    return float(child.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    attempted = failed = 0
    info: list[str] = []

    if not trace:
        once = [prepare_in_child(name, seed) for _ in range(ONCE_REPS - 1)]
        workload, once_s = prepare(name, seed)
        once.append(once_s)
        builds = []
        for _ in range(SETUP_REPS):
            # Free the previous build first, so peak memory is that of
            # one build and not of two.
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup()
            builds.append(time.perf_counter() - t0)
        gc.collect()
        run = measure(workload, state, seconds=seconds)
        checks, bad = workload.verify(state)
        lat = run.latencies
        # The median over groups that each hold the workload's whole
        # input mix once, so a stretch of the run on a contended host,
        # or one unlucky operation, moves it less than a mean would.
        groups = run.groups(workload.group)
        metrics = {
            "setup_s": statistics.median(once) + statistics.median(builds),
            "peak_rss_mb": run.peak_mb,
            "throughput": statistics.median(
                sum(items) / sum(times) for times, items in groups),
        }
        units = dict(END_TO_END)
        info.append(f"ops={len(lat)} groups={len(groups)} "
                    f"{workload.item}s={run.items} "
                    f"mean_throughput={run.items / run.busy_s:.4f} "
                    f"op_p50_ms={statistics.median(lat) * 1e3:.4f}")
        info.append("setup_once_s=" + ",".join(f"{o:.3f}" for o in once)
                    + " setup_builds_s=" + ",".join(f"{b:.3f}" for b in builds))
        tail = tail_percentile(lat)
        if tail is not None:
            info.append(f"op_p{tail[0]}_ms={tail[1] * 1e3:.4f} "
                        f"({len(lat)} ops, "
                        f"{len(lat) - math.ceil(len(lat) * tail[0] / 100)} "
                        f"beyond)")
    else:
        import layers
        from tracing import Recorder, totals

        workload, _ = prepare(name, seed)
        state = workload.setup()
        gc.collect()
        run = measure(workload, state, seconds=seconds)
        checks, bad = workload.verify(state)
        del state
        gc.collect()
        recorder = Recorder()
        layers.install(recorder)
        try:
            before = layers.snapshot()
            t0 = time.perf_counter()
            traced = measure(workload, workload.setup(),
                             limit=len(run.latencies), verify=False,
                             recorder=recorder)
            wall_s = time.perf_counter() - t0
            after = layers.snapshot()
        finally:
            recorder.restore()
        metrics = layers.compute(
            totals(recorder.spans), recorder.counts, before, after, wall_s,
            traced.busy_s / run.busy_s - 1.0,
            workload.extras(traced.acc, len(traced.latencies)))
        units = {name: unit for name, unit, _ in layers.METRICS}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.json")
        recorder.write_chrome(path)
        info.append(f"ops={len(run.latencies)} spans={len(recorder.spans)} "
                    f"traced_wall_s={wall_s:.3f} trace={path}")
        attempted += len(traced.latencies)
        failed += traced.failed

    attempted += len(run.latencies) + checks
    failed += run.failed + bad
    print(f"# host: {json.dumps(host_facts(), sort_keys=True)}")
    for line in info:
        print(f"# {name}: {line}")
    for metric, value in metrics.items():
        print(f"{name:14s} {metric:28s} {value:16.6f} {units[metric]}")
    print(f"{name:14s} {'failed_frac':28s} {failed / attempted:16.6f} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0:
            # A workload that could not run leaves no result to combine.
            if lines:
                print("\n".join(lines), flush=True)
            return child.returncode
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.prepare_only:
        if args.workload is None:
            parser.error("--prepare-only needs --workload")
        print(prepare(args.workload, args.seed)[1])
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmarks of the experiment execution engine.

The cold pass runs all 13 experiments (15 tasks) through the pool; the
warm pass must serve the same bytes from the content-addressed cache at
a >= 10x speedup over cold-serial.  Parallel speedup is *not* asserted:
it is bounded by the host's core count, and the ``exec`` entry of
`BENCH_perf.json` records `cpus` next to the walls for that reason.
"""

from repro.experiments import report
from repro.perfbench import bench_exec


def test_engine_warm_cache_speedup(benchmark):
    """Cold serial vs warm cache on the full report: the cache must buy
    >= 10x, with byte-identical markdown across every run."""
    results = benchmark.pedantic(bench_exec, rounds=1, iterations=1)
    assert results["byte_identical"], (
        "engine produced different report bytes across runs")
    assert results["speedup_vs_scalar"] >= 10.0, (
        f"warm cache only {results['speedup_vs_scalar']:.1f}x over "
        f"cold serial")
    assert results["tasks"] == 15


def test_report_generation_wall(benchmark):
    """The serial no-cache report pass — the pre-engine baseline cost."""
    md = benchmark.pedantic(report.generate_markdown, rounds=1, iterations=1)
    assert md.startswith("# EXPERIMENTS")

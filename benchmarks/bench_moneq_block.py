"""Acceptance bench for the columnar block-sampling engine.

The engine's promise is a constant-factor rewrite: identical bytes out,
an order of magnitude (or more) less wall-clock in.  This bench runs
the 1024-agent, 10k-tick configuration from the issue and holds the
line at 10x over the scalar tick loop (measured on a slice and
extrapolated — the full scalar run is ~10M Python-level reads, which is
exactly the cost being removed).  `python -m repro bench perf` runs the
same measurements outside pytest and records them in BENCH_perf.json.
"""

from repro.perfbench import bench_moneq_block, bench_moneq_full_session


def test_block_sampling_speedup_at_scale(benchmark):
    """1024 agents x 10k ticks: >= 10x over scalar, bytes identical."""
    result = benchmark.pedantic(bench_moneq_block, rounds=1, iterations=1)
    assert result["byte_identical"], "block output diverged from scalar"
    assert result["speedup_vs_scalar"] >= 10.0, (
        f"block sampling only {result['speedup_vs_scalar']:.1f}x over scalar"
    )


def test_full_session_profits_from_blocks(benchmark):
    """The ordinary 60 s profile_run also gets faster end to end (both
    paths run in full here — no extrapolation)."""
    result = benchmark.pedantic(bench_moneq_full_session, rounds=1, iterations=1)
    assert result["speedup_vs_scalar"] > 1.5

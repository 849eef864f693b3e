"""Benchmarks of the federated fleet sweep and the channel cache.

The smoke-sized sweep and ablation run live here (2 sites x 4 racks,
200 ticks); the committed 10x-Mira figures live in the ``fleet`` entry
of ``BENCH_perf.json`` and are validated against the same floors by
``tests/test_perfbench_check.py`` — the sweep must simulate faster than
realtime and the freshness cache must cut access-channel crossings
>= 5x on the shared-device consumer pattern, byte-identically.
"""

from repro.fleet import fleet_bench
from repro.fleet.sweep import CACHE_REDUCTION_FLOOR, REALTIME_FLOOR


def test_fleet_sweep_smoke_floors(benchmark, report):
    """2-site smoke sweep + ablation: realtime floor, >= 5x crossings
    reduction, byte-identical cache-on/off outputs."""
    results = benchmark.pedantic(lambda: fleet_bench(smoke=True),
                                 rounds=1, iterations=1)
    sweep = results["fleet_sweep"]
    ablation = results["cache_ablation"]
    assert sweep["speedup_vs_scalar"] >= REALTIME_FLOOR, (
        f"fleet sweep only {sweep['speedup_vs_scalar']:.1f}x realtime")
    assert ablation["crossings_reduction"] >= CACHE_REDUCTION_FLOOR, (
        f"cache only cut crossings "
        f"{ablation['crossings_reduction']:.1f}x (< 5x)")
    assert ablation["byte_identical"], (
        "cache-on run diverged from cache-off bytes")
    report("fleet sweep (smoke)", [
        ("realtime factor", ">= 2x",
         f"{sweep['speedup_vs_scalar']:.0f}x"),
        ("crossings cut", ">= 5x (Sec. IV poll sharing)",
         f"{ablation['crossings_reduction']:.1f}x"),
        ("cache visible in bytes", "never",
         "no" if ablation["byte_identical"] else "YES"),
    ])

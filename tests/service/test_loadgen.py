"""The load generator at reduced scale (the smoke-bench profile)."""

import json

from repro import perfbench
from repro.service import bench_service


class TestBenchService:
    def test_reduced_profile(self):
        result = bench_service(racks=2, shards=2, requests=20,
                               sweeps=1, seed=7)
        assert result["requests"] == 20
        assert result["sustained_qps"] > 0
        assert result["speedup_vs_scalar"] > 0
        assert result["rows_returned"] > 0
        assert result["streamed_rows"] > 0
        assert result["store_records"] > 0
        assert result["racks"] == 2 and result["shards"] == 2
        assert result["wall_s"] >= result["query_wall_s"] > 0

    def test_write_bench(self, tmp_path, monkeypatch):
        """The service entry ``bench perf`` writes carries the bench's
        own figures through to disk."""
        result = bench_service(racks=2, shards=2, requests=10,
                               sweeps=1, seed=7)
        monkeypatch.setattr(perfbench, "ALL_BENCHES",
                            {"service": lambda: result})
        path = tmp_path / "BENCH_perf.json"
        perfbench.record("full", str(path), reps=1)
        committed = json.loads(path.read_text())["benches"]
        assert set(committed) == {"service"}
        assert committed["service"]["requests"] == 10
        assert committed["service"]["sustained_qps"] == round(
            result["sustained_qps"], 6)

"""Compiling packs onto the engine: cache behavior, byte-identity
across cold/warm/fanned runs, and the paper-core reproduction."""

import pathlib

import pytest

from repro.errors import PackError
from repro.experiments.report import render_block
from repro.packs import compile_spec, load_pack, run_pack
from repro.packs.catalog import raw_pack

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def block_texts(result) -> list[str]:
    return ["\n".join(render_block(block))
            for block in result.blocks.values()]


def test_compile_is_idempotent_and_override_aware():
    raw = raw_pack("phi-micsmc")
    first, scenario = compile_spec(raw)
    again, _ = compile_spec(raw)
    assert again is first or again == first
    assert first.exp_id.startswith("pack:phi-micsmc@")
    assert scenario.kind == "session"
    reseeded, _ = compile_spec(raw, seed=999)
    assert reseeded.exp_id != first.exp_id  # a different run, a new id


def test_manifest_duration_over_the_buffer_does_not_compile():
    """``duration_s`` over the interval the session will poll at (here
    the micsmc floor, 0.1 s) may not exceed MonEQ's record buffer."""
    from repro.core.moneq.config import MoneqConfig

    raw = {**raw_pack("phi-micsmc"), "duration_s": 1e7}
    with pytest.raises(PackError, match=r"'phi-micsmc': duration_s 1e\+07 "
                       r"s is 100000000 ticks at the 0\.1 s"):
        compile_spec(raw)
    fits = MoneqConfig.buffer_slots * 0.1
    compile_spec({**raw_pack("phi-micsmc"), "duration_s": fits})
    with pytest.raises(PackError, match="--duration"):
        compile_spec(raw_pack("phi-micsmc"), duration_s=fits + 1.0)


def test_experiments_packs_do_not_compile():
    with pytest.raises(PackError, match="paper-core"):
        compile_spec(raw_pack("paper-core"))


@pytest.mark.tier1
def test_cold_warm_and_fanned_runs_render_identical_blocks(tmp_path):
    cold = run_pack("phi-micsmc", jobs=1, cache_root=str(tmp_path))
    assert (cold.stats.executed, cold.stats.cache_hits) == (1, 0)
    warm = run_pack("phi-micsmc", jobs=1, cache_root=str(tmp_path))
    assert (warm.stats.executed, warm.stats.cache_hits) == (0, 1)
    fanned = run_pack("phi-micsmc", jobs=8, cache=False,
                      cache_root=str(tmp_path))
    assert fanned.stats.executed == 1
    assert block_texts(cold) == block_texts(warm) == block_texts(fanned)
    payload = cold.payloads[cold.exp_id]
    assert payload["kind"] == "session" and payload["ticks"] > 0


@pytest.mark.tier1
def test_paper_core_reproduces_experiments_md_blocks(tmp_path):
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    result = run_pack("paper-core", jobs=2, cache_root=str(tmp_path))
    spec = load_pack("paper-core")
    assert list(result.blocks) == list(spec.experiments)
    for exp_id in spec.experiments:
        text = "\n".join(render_block(result.blocks[exp_id]))
        assert text in committed, f"{exp_id} block drifted from the report"


def test_pack_run_matches_the_live_chaos_path():
    """The engine-dispatched payload must agree with the live
    ``run_scenario`` path byte for byte — same timeline, same plan
    stats, same tick grid (both execute
    ``repro.packs.runtime.execute_scenario``)."""
    from dataclasses import asdict

    from repro.chaos import run_scenario

    result = run_pack("bmc_dark", jobs=1, cache=False)
    payload = result.payloads[result.exp_id]
    live = run_scenario("bmc_dark")
    assert payload["timeline"] == live.timeline_lines()
    live_stats = asdict(live.plan.stats)
    live_stats.pop("faults_by_key")
    assert payload["stats"] == live_stats
    assert (payload["interval_s"], payload["ticks"]) == (
        live.interval_s, live.ticks)
    assert payload["outputs"] == [[path, live.outputs[path]]
                                  for path in sorted(live.outputs)]


def test_fleet_packs_never_cache(tmp_path, monkeypatch):
    calls = []

    def canned_bench(smoke=False):
        calls.append(smoke)
        return {"fleet_sweep": {"wall_s": 0.5, "speedup_vs_scalar": 10.0},
                "cache_ablation": {"hit_rate": 0.9,
                                   "crossings_reduction": 8.0,
                                   "byte_identical": True}}

    import repro.fleet

    monkeypatch.setattr(repro.fleet, "fleet_bench", canned_bench)
    for _ in range(2):
        result = run_pack("fleet-sweep", jobs=1, cache=True,
                          cache_root=str(tmp_path))
        assert result.stats.cache_hits == 0  # wall-clock: forced cold
    assert calls == [True, True]


def test_run_pack_accepts_a_raw_manifest_mapping(tmp_path, monkeypatch):
    def canned_bench(smoke=False):
        return {"fleet_sweep": {"smoke": smoke},
                "cache_ablation": {}}

    import repro.fleet

    monkeypatch.setattr(repro.fleet, "fleet_bench", canned_bench)
    raw = raw_pack("fleet-sweep")
    raw = {**raw, "fleet": {"smoke": False}}
    result = run_pack(raw, jobs=1, cache_root=str(tmp_path))
    assert result.payloads[result.exp_id]["fleet_sweep"]["smoke"] is False


def test_pack_runs_metric_counts_dispatches():
    from repro.obs.instruments import PACK_RUNS

    key = ("phi-micsmc", "session")
    before = PACK_RUNS.samples().get(key, 0.0)
    run_pack("phi-micsmc", jobs=1, cache=False)
    assert PACK_RUNS.samples().get(key, 0.0) == before + 1

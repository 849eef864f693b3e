"""Unit and integration tests for MonEQ sessions."""

import numpy as np
import pytest

from repro.core.moneq import (
    MoneqConfig,
    NvmlBackend,
    PhiMicrasBackend,
    PhiSysMgmtBackend,
    RaplMsrBackend,
    finalize,
    initialize,
    profile_run,
)
from repro.core.moneq.backends import RAPL_MSR_SPEC, SYSMGMT_SPEC
from repro.core.moneq.session import MoneqSession
from repro.errors import (
    ConfigError,
    MoneqBufferFullError,
    MoneqStateError,
)
from repro.testbeds import gpu_node, multi_device_node, phi_node, rapl_node
from repro.workloads.vectoradd import VectorAddWorkload


class TestConfig:
    def test_defaults_valid(self):
        config = MoneqConfig()
        assert config.polling_interval_s is None
        assert config.buffer_slots > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            MoneqConfig(polling_interval_s=0.0)
        with pytest.raises(ConfigError):
            MoneqConfig(buffer_slots=0)
        with pytest.raises(ConfigError):
            MoneqConfig(output_dir="relative/path")

    def test_memory_footprint_constant_in_scale(self):
        config = MoneqConfig(buffer_slots=1000)
        assert config.memory_bytes_per_agent(4) == 1000 * 8 * 5


class TestTwoLineUsage:
    def test_rapl_quickstart(self):
        node, _ = rapl_node(seed=1)
        session = initialize(node)                      # line 1
        node.events.run_until(node.clock.now + 30.0)
        result = finalize(session)                      # line 2
        trace = result.trace("pkg_w")
        assert len(trace) > 100
        assert trace.mean() > 5.0

    def test_default_interval_is_hardware_minimum(self):
        node, _ = rapl_node(seed=1)
        session = initialize(node)
        assert session.interval_s == RAPL_MSR_SPEC.min_interval_s

    def test_interval_below_hardware_floor_rejected(self):
        node, _ = rapl_node(seed=1)
        with pytest.raises(ConfigError):
            initialize(node, MoneqConfig(polling_interval_s=0.001))

    def test_node_without_devices_rejected(self):
        from repro.host.node import Node

        with pytest.raises(ConfigError):
            initialize(Node("empty"))

    def test_profile_run_driver(self):
        node, _ = rapl_node(seed=2)
        result = profile_run(node, duration_s=10.0)
        assert result.overhead.ticks == len(result.trace("pkg_w"))

    def test_profile_run_duration_validated(self):
        node, _ = rapl_node(seed=2)
        with pytest.raises(ConfigError):
            profile_run(node, duration_s=0.0)


class TestCollection:
    def test_tick_count_matches_interval(self):
        node, _ = rapl_node(seed=3)
        result = profile_run(node, duration_s=6.0)
        assert result.overhead.ticks == pytest.approx(6.0 / 0.060, abs=2)

    def test_rapl_power_from_counter_deltas(self):
        """The backend derives watts from energy deltas; once the
        workload is running the pkg series sits in the Figure 3 band."""
        node, workload = rapl_node(seed=4)
        result = profile_run(node, duration_s=40.0)
        trace = result.trace("pkg_w")
        busy = trace.between(10.0, 35.0)
        assert 30.0 < busy.mean() < 55.0

    def test_first_rapl_sample_is_zero_power(self):
        # No previous counter read -> no delta to report.
        node, _ = rapl_node(seed=5)
        result = profile_run(node, duration_s=5.0)
        assert result.trace("pkg_w").values[0] == 0.0

    def test_buffer_full_raises(self):
        node, _ = rapl_node(seed=6)
        with pytest.raises(MoneqBufferFullError):
            profile_run(node, duration_s=10.0,
                        config=MoneqConfig(buffer_slots=10))

    def test_gpu_session_fields(self):
        node, gpu, _ = gpu_node(seed=7)
        gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
        session = initialize(node)
        node.events.run_until(node.clock.now + 60.0)
        result = finalize(session)
        trace_set = result.traces[next(iter(result.traces))]
        assert "board_w" in trace_set and "die_temp_c" in trace_set

    def test_collection_cost_charged_to_clock(self):
        node, _ = rapl_node(seed=8)
        session = initialize(node)
        t0 = node.clock.now
        node.events.run_until(t0 + 6.0)
        result = finalize(session)
        assert result.overhead.collection_s == pytest.approx(
            result.overhead.ticks * session.agents[0].backend.query_latency_s
        )
        # Collection cost is charged within the run window plus the
        # finalize I/O tail afterwards (a tick landing exactly on the
        # horizon may push one query cost past it).
        per_tick = session.agents[0].backend.query_latency_s
        assert node.clock.now == pytest.approx(
            t0 + 6.0 + result.overhead.finalize_s, abs=2 * per_tick
        )


class TestMultiDevice:
    def test_cpu_gpu_phi_profiled_together(self):
        node, rig = multi_device_node(seed=9)
        session = initialize(node)
        node.events.run_until(node.clock.now + 5.0)
        result = finalize(session)
        platforms = {a.backend.platform for a in session.agents}
        assert platforms == {"RAPL", "NVML", "Xeon Phi"}
        assert len(result.traces) == 3
        assert len(result.output_paths) == 3

    def test_mixed_session_uses_slowest_minimum(self):
        node, _ = multi_device_node(seed=10)
        session = initialize(node)
        assert session.interval_s == RAPL_MSR_SPEC.min_interval_s  # 60 ms governs

    def test_duplicate_labels_rejected(self):
        node, _ = rapl_node(seed=11)
        package = node.device("cpu")
        backends = [RaplMsrBackend(package, "x"), RaplMsrBackend(package, "x")]
        with pytest.raises(ConfigError):
            MoneqSession(backends, node.events)


class TestTagging:
    def test_tags_injected_into_output(self):
        node, _ = rapl_node(seed=12)
        session = initialize(node)
        node.events.run_until(node.clock.now + 1.0)
        session.start_tag("work-loop-1")
        node.events.run_until(node.clock.now + 2.0)
        session.end_tag("work-loop-1")
        result = finalize(session)
        content = node.vfs.read_text(result.output_paths[0])
        assert "#TAG_START work-loop-1" in content
        assert "#TAG_END work-loop-1" in content

    def test_tag_context_manager(self):
        node, _ = rapl_node(seed=13)
        session = initialize(node)
        with session.tag("phase"):
            node.events.run_until(node.clock.now + 1.0)
        result = finalize(session)
        assert result.tags[0].name == "phase"
        assert result.tags[0].t_end > result.tags[0].t_start

    def test_open_tag_at_finalize_rejected(self):
        node, _ = rapl_node(seed=14)
        session = initialize(node)
        session.start_tag("never-closed")
        with pytest.raises(MoneqStateError):
            session.finalize()

    def test_tag_misuse_rejected(self):
        node, _ = rapl_node(seed=15)
        session = initialize(node)
        with pytest.raises(MoneqStateError):
            session.end_tag("not-open")
        session.start_tag("x")
        with pytest.raises(MoneqStateError):
            session.start_tag("x")

    def test_tag_window_slices_trace(self):
        node, _ = rapl_node(seed=22)
        session = initialize(node)
        node.events.run_until(node.clock.now + 2.0)
        with session.tag("loop"):
            node.events.run_until(node.clock.now + 3.0)
        node.events.run_until(node.clock.now + 2.0)
        result = finalize(session)
        window = result.tag_window("loop", "pkg_w")
        full = result.trace("pkg_w")
        assert 0 < len(window) < len(full)
        tag = result.tags[0]
        assert window.times[0] >= tag.t_start
        assert window.times[-1] <= tag.t_end

    def test_tag_window_unknown_tag_rejected(self):
        node, _ = rapl_node(seed=23)
        session = initialize(node)
        result = finalize(session)
        with pytest.raises(MoneqStateError, match="no closed tag"):
            result.tag_window("nope", "pkg_w")

    def test_tagging_disabled_config(self):
        node, _ = rapl_node(seed=16)
        session = initialize(node, MoneqConfig(tagging_enabled=False))
        with pytest.raises(MoneqStateError):
            session.start_tag("x")


class TestLifecycle:
    def test_double_finalize_rejected(self):
        node, _ = rapl_node(seed=17)
        session = initialize(node)
        session.finalize()
        with pytest.raises(MoneqStateError):
            session.finalize()

    def test_result_trace_requires_agent_name_when_ambiguous(self):
        node, _ = multi_device_node(seed=18)
        session = initialize(node)
        node.events.run_until(node.clock.now + 2.0)
        result = finalize(session)
        with pytest.raises(MoneqStateError):
            result.trace("board_w")  # 3 agents: must name one

    def test_output_files_parse_back(self):
        from repro.core.moneq.output import parse_agent_file

        node, _ = rapl_node(seed=19)
        result = profile_run(node, duration_s=3.0)
        fields, table, markers = parse_agent_file(
            node.vfs.read_text(result.output_paths[0])
        )
        assert fields == ["pkg_w", "pp0_w", "pp1_w", "dram_w"]
        assert table.shape[1] == 5
        assert len(table) == result.overhead.ticks


class TestPhiBackends:
    def test_sysmgmt_backend_opens_polling_session(self):
        rig = phi_node(seed=20)
        backend = PhiSysMgmtBackend(rig.sysmgmt)
        session = MoneqSession([backend], rig.node.events, node_count=1,
                               vfs=rig.node.vfs)
        # The in-band footprint is live on the card during the session.
        baseline = rig.card.model.idle_w
        rig.node.events.run_until(rig.node.clock.now + 10.0)
        assert float(rig.card.true_power(rig.node.clock.now)) > baseline
        session.finalize()

    def test_micras_backend_cheap(self):
        rig = phi_node(seed=21)
        backend = PhiMicrasBackend(rig.micras)
        assert backend.query_latency_s < 1e-4

    def test_sysmgmt_overhead_at_paper_interval(self):
        """14.2 ms per query at the 100 ms minimum interval ~ 14 %."""
        backend_latency = SYSMGMT_SPEC.min_interval_s
        from repro.xeonphi.sysmgmt import SYSMGMT_QUERY_LATENCY_S

        assert SYSMGMT_QUERY_LATENCY_S / backend_latency == pytest.approx(
            0.142, rel=0.01
        )

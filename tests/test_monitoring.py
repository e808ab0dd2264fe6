"""Unit tests for monitors, consolidation, transmission, history, agent."""

import pytest

from repro.hardware import (NodeState, SimulatedNode, WorkloadGenerator,
                            WorkloadSegment)
from repro.monitoring import (
    BinaryCodec,
    Consolidator,
    HistoryStore,
    Monitor,
    MonitorContext,
    NodeAgent,
    PER_SAMPLE_CPU_SECONDS,
    TextCodec,
    Transmitter,
    Update,
    builtin_registry,
)
from repro.monitoring.agent import ERRORS_KEPT
from repro.monitoring.monitors import BUILTIN_MONITORS, builtin_sample
from repro.monitoring.scheduler import AgentScheduler
from repro.sim import RandomStreams


class TestBuiltinRegistry:
    def test_over_40_monitors(self):
        assert len(builtin_registry()) > 40  # the paper's "over 40"

    def test_static_dynamic_split(self):
        reg = builtin_registry()
        static = {name for name in reg.names if reg.get(name).static}
        assert "cpu_model" in static and "mem_total_bytes" in static
        assert "cpu_util_pct" not in static

    def test_evaluate_all_on_running_node(self, loaded_node):
        reg = builtin_registry()
        ctx = MonitorContext(node=loaded_node, t=10.0)
        values = reg.evaluate_all(ctx)
        assert values["hostname"] == "testnode"
        assert values["cpu_util_pct"] == pytest.approx(60.0, abs=0.5)
        assert values["udp_echo"] == 1
        assert values["node_state"] == "up"

    def test_udp_echo_zero_when_hung(self, loaded_node):
        loaded_node.hang()
        ctx = MonitorContext(node=loaded_node, t=10.0)
        assert builtin_registry().evaluate_all(ctx)["udp_echo"] == 0

    def test_duplicate_name_rejected(self):
        reg = builtin_registry()
        with pytest.raises(ValueError):
            reg.add(Monitor(name="hostname", fn=lambda c: "x"))

    def test_replace_and_remove(self):
        reg = builtin_registry()
        reg.replace(Monitor(name="hostname", fn=lambda c: "patched"))
        reg.remove("udp_echo")
        assert "udp_echo" not in reg
        assert "hostname" in reg

    def test_table_describes_each_value_of_the_builtin_sample(self, node):
        values = builtin_sample(MonitorContext(node=node, t=1.0))
        assert list(values) == sorted(BUILTIN_MONITORS)
        assert builtin_registry().names == list(values)


class TestSamplerWorkCounts:
    """The built-in sample reads each model input once per tick (the
    reference model reads it once per value).  Counts, not timings: they
    are exact on any machine."""

    def test_idle_sample_reads_each_input_once(self, kernel, node,
                                               segment_scans, monkeypatch):
        kernel.run(until=60.0)
        calls = []
        is_running = SimulatedNode.is_running
        monkeypatch.setattr(
            SimulatedNode, "is_running",
            lambda self, t=None: calls.append(t) or is_running(self, t))
        values = builtin_sample(MonitorContext(node=node, t=kernel.now))
        assert values["node_up"] == 1
        assert len(segment_scans) <= 1  # was 12 demand computations
        # The sampler asks once and hands the flag to jiffies, loadavg,
        # the thermal integral and uptime (was 5, and 16 before that).
        assert len(calls) == 1

    def test_busy_sample_adds_one_scan_to_the_integrators(
            self, kernel, node, segment_scans):
        gen = WorkloadGenerator(RandomStreams(5)("w"))
        node.workload.extend(gen.hpc_job(0.0, phases=8, tag="job")
                             + gen.background_noise(0.0, 5000.0))
        assert len(node.workload) == 17
        ticks = [5.0 * k for k in range(1, 46)]
        for t in ticks:
            kernel.run(until=t)
            before = len(segment_scans)
            builtin_sample(MonitorContext(node=node, t=t))
            # jiffies and the thermal integral each probe every interval
            # since boot (still O(change points) per tick); the sampler
            # itself adds one read, where it used to add ten.
            intervals = len(node.workload.change_points(0.0, t)) + 1
            assert len(segment_scans) - before <= 1 + 2 * intervals
        assert intervals > 3
        assert len(segment_scans) <= 415  # was 821 over the same ticks


class TestConsolidator:
    def test_first_update_releases_everything(self):
        c = Consolidator()
        delta = c.update({"a": 1, "b": 2}, t=0.0)
        assert delta == {"a": 1, "b": 2}

    def test_unchanged_values_suppressed(self):
        c = Consolidator()
        c.update({"a": 1, "b": 2}, t=0.0)
        delta = c.update({"a": 1, "b": 3}, t=1.0)
        assert delta == {"b": 3}
        assert c.suppressed == 1

    def test_static_sent_once(self):
        c = Consolidator()
        assert "model" in c.update({"model": "P3"}, t=0.0)
        assert "model" not in c.update({"model": "P3"}, t=1.0)

    def test_static_resent_on_actual_change(self):
        c = Consolidator()
        c.update({"image": "v1"}, t=0.0)
        delta = c.update({"image": "v2"}, t=1.0)  # node was recloned
        assert delta == {"image": "v2"}

    def test_deadband_absorbs_jitter(self):
        c = Consolidator(deadband=0.05)
        c.update({"temp": 100.0}, t=0.0)
        assert c.update({"temp": 102.0}, t=1.0) == {}   # 2% < 5%
        assert c.update({"temp": 110.0}, t=2.0) == {"temp": 110.0}

    def test_deadband_relative_to_transmitted_value(self):
        # Creep must not escape the deadband by many small steps.
        c = Consolidator(deadband=0.10)
        c.update({"v": 100.0}, t=0.0)
        for i, v in enumerate([103.0, 106.0, 109.0]):
            assert c.update({"v": v}, t=float(i + 1)) == {}
        assert c.update({"v": 111.0}, t=9.0) == {"v": 111.0}

    def test_suppression_ratio(self):
        c = Consolidator()
        c.update({"a": 1}, t=0.0)
        c.update({"a": 1}, t=1.0)
        c.update({"a": 1}, t=2.0)
        assert c.suppression_ratio == pytest.approx(2 / 3)

    def test_cache_serves_simultaneous_requests(self):
        c = Consolidator(cache_ttl=1.0)
        calls = []

        def regather():
            calls.append(1)
            return {"x": 42}

        c.snapshot(0.0, regather)
        c.snapshot(0.5, regather)   # within ttl: cached
        c.snapshot(0.9, regather)
        assert len(calls) == 1
        assert c.cache_hits == 2 and c.cache_misses == 1

    def test_cache_expires(self):
        c = Consolidator(cache_ttl=1.0)
        calls = []
        c.snapshot(0.0, lambda: calls.append(1) or {"x": 1})
        c.snapshot(2.0, lambda: calls.append(1) or {"x": 2})
        assert len(calls) == 2

    def test_force_full_retransmit(self):
        c = Consolidator()
        c.update({"s": 1, "d": 2}, t=0.0)
        c.force_full_retransmit()
        delta = c.update({"s": 1, "d": 2}, t=1.0)
        assert delta == {"s": 1, "d": 2}

    def test_invalid_deadband(self):
        with pytest.raises(ValueError):
            Consolidator(deadband=-0.1)


class TestCodecs:
    VALUES = {"cpu_util_pct": 61.5, "mem_used_bytes": 123456789,
              "node_state": "up", "udp_echo": 1}

    def test_text_roundtrip(self):
        codec = TextCodec()
        payload = codec.encode("n001", 42.0, self.VALUES)
        host, t, values = codec.decode(payload)
        assert host == "n001" and t == 42.0
        assert values == self.VALUES

    def test_text_uncompressed_roundtrip(self):
        codec = TextCodec(compress=False)
        payload = codec.encode("n001", 1.0, self.VALUES)
        assert b"cpu_util_pct" in payload  # human readable
        assert codec.decode(payload)[2] == self.VALUES

    def test_compression_shrinks_text(self):
        plain = TextCodec(compress=False)
        packed = TextCodec(compress=True)
        big = {f"metric_{i:03d}": i * 1.5 for i in range(100)}
        raw = plain.encode("host", 0.0, big)
        small = packed.encode("host", 0.0, big)
        assert len(small) < len(raw) / 2  # "very effective on text"

    def test_binary_roundtrip(self):
        codec = BinaryCodec()
        host, t, values = codec.decode(
            codec.encode("n002", 7.5, self.VALUES))
        assert host == "n002" and t == 7.5
        assert values == self.VALUES

    def test_binary_smaller_than_raw_text(self):
        # Realistic monitor payload: large byte counters, where a fixed
        # 8-byte double beats its 12+-digit decimal rendering.
        big = {f"metric_{i:03d}": 123456789000 + i * 9999
               for i in range(50)}
        raw_text = TextCodec(compress=False).encode("h", 0.0, big)
        binary = BinaryCodec().encode("h", 0.0, big)
        assert len(binary) < len(raw_text)

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError):
            TextCodec(compress=False).decode(b"garbage\n")


class _Int(int):
    pass


#: one value per case, in the 9-field schema's last slot ("i", a 2-byte
#: bitmap) and schemaless under "v": the i32/i64/double edges, bool,
#: signed zero, non-finite doubles, text, a non-scalar, an int subclass.
_PINNED_VALUES = (
    (0, "0300000000", "010000000000000000"),
    (2**31 - 1, "03ffffff7f", "010000c0ffffffdf41"),
    (2**31, "040000008000000000", "01000000000000e041"),
    (-2**31, "0300000080", "01000000000000e0c1"),
    (-2**31 - 1, "04ffffff7fffffffff", "01000020000000e0c1"),
    (2**63 - 1, "04ffffffffffffff7f", "01000000000000e043"),
    (2**63, "01000000000000e043", "01000000000000e043"),
    (-2**63, "040000000000000080", "01000000000000e0c3"),
    (True, "0301000000", "01000000000000f03f"),
    (False, "0300000000", "010000000000000000"),
    (1.5, "01000000000000f83f", "01000000000000f83f"),
    (-0.0, "010000000000000080", "010000000000000080"),
    (float("nan"), "01000000000000f87f", "01000000000000f87f"),
    (float("inf"), "01000000000000f07f", "01000000000000f07f"),
    (float("-inf"), "01000000000000f0ff", "01000000000000f0ff"),
    ("nœud-€", "0209006ec59375642de282ac", "0209006ec59375642de282ac"),
    ("", "020000", "020000"),
    (None, "0204004e6f6e65", "0204004e6f6e65"),
    (_Int(7), "0307000000", "010000000000001c40"),
)
_PIN_SCHEMA = ("a", "b", "c", "d", "e", "f", "g", "h", "i")


class TestBinaryCodecBytes:
    """The binary wire contract, pinned: a change to these bytes is a
    change to the protocol, never a side effect."""

    @pytest.mark.parametrize("value,schema_hex,plain_hex", _PINNED_VALUES)
    def test_value_bytes(self, value, schema_hex, plain_hex):
        # "S", host_len 1, t 1.0, no extras, "h", bitmap with bit 8 set
        schema_head = "5301000000000000f03f0000" + "68" + "0001"
        # host_len 1, t 1.0, one value, "h", <B 1> "v"
        plain_head = "01000000000000f03f0100" + "68" + "0176"
        schema = BinaryCodec(schema=_PIN_SCHEMA).encode("h", 1.0,
                                                        {"i": value})
        plain = BinaryCodec().encode("h", 1.0, {"v": value})
        assert schema.hex() == schema_head + schema_hex
        assert plain.hex() == plain_head + plain_hex

    def test_empty_frames(self):
        assert BinaryCodec(schema=_PIN_SCHEMA).encode("n1", 0.0, {}).hex() \
            == "5302000000000000000000006e310000"
        assert BinaryCodec().encode("n1", 0.0, {}).hex() \
            == "02000000000000000000006e31"

    def test_mixed_frame_with_extras(self):
        """Schema values in slot order, then off-schema extras sorted by
        name, each behind its UTF-8 name; schemaless sorts every name."""
        values = {"c": 3, "a": 0.25, "i": "up", "zz": 7, "ünï": False}
        assert BinaryCodec(schema=_PIN_SCHEMA).encode(
            "nœud", 2.5, values).hex() == (
            "5305000000000000044002006ec5937564" "0501"
            "01000000000000d03f" "0303000000" "0202007570"
            "027a7a" "0307000000" "05c3bc6ec3af" "0300000000")
        assert BinaryCodec().encode("nœud", 2.5, values).hex() == (
            "05000000000000044005006ec5937564"
            "0161" "01000000000000d03f" "0163" "010000000000000840"
            "0169" "0202007570" "027a7a" "010000000000001c40"
            "05c3bc6ec3af" "010000000000000000")


def _update(node, values):
    return Update(hostname=node.hostname, time=1.0, values=values)


class TestTransmitter:
    def test_counts_bytes_and_frames(self, kernel, node):
        tx = Transmitter(None, node, None)
        payload, event = tx.transmit_update(_update(node, {"a": 1}))
        assert tx.frames_sent == 1
        assert tx.bytes_sent == len(payload)
        assert event is None  # no fabric wired

    def test_empty_delta_sends_nothing(self, kernel, node):
        tx = Transmitter(None, node, None)
        payload, event = tx.transmit_update(_update(node, {}))
        assert payload == b"" and tx.frames_sent == 0

    def test_compression_ratio_tracked(self, kernel, node):
        tx = Transmitter(None, node, None)
        tx.transmit_update(_update(node, {f"m{i}": i for i in range(50)}))
        assert tx.compression_ratio > 1.0

    def test_binary_codec_sends_its_packed_size(self, kernel, node):
        """Every codec answers ``encode_counted``; the transmitter never
        asks which one it holds."""
        tx = Transmitter(None, node, None, codec=BinaryCodec())
        payload, _ = tx.transmit_update(_update(node, {"a": 1, "b": "x"}))
        assert BinaryCodec().decode(payload) == (
            node.hostname, 1.0, {"a": 1, "b": "x"})
        assert tx.raw_bytes == tx.bytes_sent == len(payload)


class TestHistoryStore:
    def test_record_and_series(self):
        store = HistoryStore()
        store.record("n1", 1.0, {"cpu": 50.0})
        store.record("n1", 2.0, {"cpu": 60.0})
        t, v = store.series("n1", "cpu")
        assert list(v) == [50.0, 60.0]

    def test_non_numeric_skipped(self):
        store = HistoryStore()
        store.record("n1", 1.0, {"state": "up", "cpu": 1.0})
        assert len(store.series("n1", "state")[0]) == 0
        assert len(store.series("n1", "cpu")[0]) == 1

    def test_bools_stored_as_numbers(self):
        store = HistoryStore()
        store.record("n1", 1.0, {"ok": True})
        assert store.series("n1", "ok")[1][0] == 1.0

    def test_window(self):
        store = HistoryStore()
        for i in range(20):
            store.record("n1", float(i), {"m": float(i)})
        t, v = store.window("n1", "m", 5.0, 9.0)
        assert list(t) == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_latest_and_missing(self):
        store = HistoryStore()
        assert store.latest("n1", "m") is None
        store.record("n1", 3.0, {"m": 9.0})
        assert store.latest("n1", "m") == (3.0, 9.0)

    def test_compare_nodes(self):
        store = HistoryStore()
        store.record("a", 1.0, {"cpu": 10.0})
        store.record("b", 1.0, {"cpu": 90.0})
        result = store.compare_nodes(["a", "b", "c"], "cpu")
        assert result == {"a": 10.0, "b": 90.0}

    def test_correlation_of_coupled_metrics(self):
        store = HistoryStore()
        for i in range(50):
            store.record("n", float(i),
                         {"load": float(i % 10),
                          "temp": 20.0 + 2.0 * (i % 10)})
        assert store.correlate("n", "load", "temp") > 0.99

    def test_correlation_needs_data(self):
        import math
        store = HistoryStore()
        assert math.isnan(store.correlate("n", "a", "b"))

    def test_graph_shapes(self):
        store = HistoryStore()
        for i in range(100):
            store.record("n", float(i), {"m": float(i)})
        centers, mean, lo, hi = store.graph("n", "m", buckets=10)
        assert len(centers) == len(mean) == 10


class TestNodeAgent:
    def _agent(self, kernel, node, **kw):
        return NodeAgent(kernel, node, builtin_registry(), **kw)

    def test_sample_once_produces_delta(self, kernel, loaded_node):
        agent = self._agent(kernel, loaded_node)
        delta = agent.sample_once()
        assert "cpu_util_pct" in delta
        assert agent.samples_taken == 1

    def test_second_sample_mostly_suppressed(self, kernel, loaded_node):
        agent = self._agent(kernel, loaded_node)
        first = agent.sample_once()
        second = agent.sample_once()  # same instant: nothing changed
        assert len(second) < len(first) / 4

    def test_periodic_loop_delivers_to_server(self, kernel, loaded_node):
        updates = []
        agent = self._agent(kernel, loaded_node, interval=5.0,
                            on_sample=lambda u: updates.append(u.time))
        AgentScheduler(kernel).register(agent)
        kernel.run(until=31.0)
        assert len(updates) >= 2  # first full + at least one delta

    def test_agent_charges_cpu_overhead(self, kernel, loaded_node):
        agent = self._agent(kernel, loaded_node, interval=1.0)
        AgentScheduler(kernel).register(agent)
        expected = PER_SAMPLE_CPU_SECONDS / 1.0
        assert loaded_node.cpu.overhead == pytest.approx(expected)
        agent.stop()
        assert loaded_node.cpu.overhead == 0.0

    def test_agent_silent_while_node_down(self, kernel, loaded_node):
        updates = []
        agent = self._agent(kernel, loaded_node, interval=5.0,
                            on_sample=lambda u: updates.append(u.time))
        AgentScheduler(kernel).register(agent)
        kernel.run(until=11)
        loaded_node.crash("dead")
        count = len(updates)
        kernel.run(until=60)
        assert len(updates) == count

    def test_plugin_error_skipped_and_recorded(self, kernel, loaded_node):
        reg = builtin_registry()

        def broken(ctx):
            raise RuntimeError("plugin exploded")

        reg.add(Monitor(name="broken", fn=broken, source="plugin"))
        agent = NodeAgent(kernel, loaded_node, reg)
        delta = agent.sample_once()
        assert "broken" not in delta
        assert "cpu_util_pct" in delta  # others unaffected
        assert agent.errors and agent.errors[0][1] == "broken"

    def test_failing_builtin_sample_recorded_and_plugins_still_report(
            self, kernel, loaded_node):
        """A failing built-in sample is recorded under its name, and the
        plug-ins still report."""
        reg = builtin_registry()
        reg.add(Monitor(name="gpu_count", fn=lambda c: 2, source="plugin"))

        def exploding(ctx):
            raise KeyError("no such sensor")

        reg.sample = exploding
        agent = NodeAgent(kernel, loaded_node, reg)
        assert agent.evaluate() == {"gpu_count": 2}
        assert agent.errors == [
            (kernel.now, "builtin", str(KeyError("no such sensor")))]

    def test_errors_keep_only_the_newest_rows(self, kernel, loaded_node):
        reg = builtin_registry()

        def broken(ctx):
            raise RuntimeError(f"tick {ctx.t}")

        reg.add(Monitor(name="broken", fn=broken, source="plugin"))
        agent = NodeAgent(kernel, loaded_node, reg)
        for _ in range(ERRORS_KEPT + 10):
            kernel.run(until=kernel.now + 5.0)
            assert "cpu_util_pct" in agent.evaluate()
        assert len(agent.errors) == ERRORS_KEPT
        assert agent.errors[-1] == (kernel.now, "broken",
                                    f"tick {kernel.now}")
        assert agent.errors[0][0] == kernel.now - 5.0 * (ERRORS_KEPT - 1)

    def test_gather_proc_agrees_with_monitors(self, kernel, loaded_node):
        """The text-gathering path and the direct model reads agree."""
        agent = self._agent(kernel, loaded_node)
        proc = agent.gather_proc()
        values = agent.evaluate()
        now = kernel.now
        assert proc["/proc/meminfo"]["MemUsed"] == \
            values["mem_used_bytes"]
        assert proc["/proc/net/dev"]["eth0_rx_bytes"] == \
            values["net_rx_bytes"]
        assert proc["/proc/uptime"]["uptime"] == pytest.approx(
            values["uptime_seconds"], abs=0.1)

    def test_invalid_interval(self, kernel, loaded_node):
        with pytest.raises(ValueError):
            self._agent(kernel, loaded_node, interval=0.0)

    def test_cohort_shares_one_codec_and_builds_procfs_on_demand(
            self, kernel, make_node_set):
        registry = builtin_registry()
        first, second = (NodeAgent(kernel, n, registry)
                         for n in make_node_set(2))
        assert first.transmitter.codec is second.transmitter.codec
        first.sample_once()
        assert "procfs" not in vars(first)     # sampling never needs it
        assert first.procfs is first.procfs
        assert first.procfs.node is first.node

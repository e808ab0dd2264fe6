"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
from bisect import bisect_right
from collections import deque
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro import ClusterWorX
from repro.core.statestore import Snapshot, StateStore, Update
from repro.faults import LINK_DOWN, SHARD_HANG, SHARD_SLOW, FaultPlane
from repro.faults.invariants import (digest, empty_shards_not_stale,
                                     ingest_counts, observables,
                                     ownership_partition,
                                     published_view_immutable,
                                     rollup_matches_parts,
                                     updates_conserved)
from repro.federation import DEAD
from repro.federation.views import FederatedSnapshot
from repro.gateway import BinaryWire, GatewayState, JsonWire
from repro.gateway.shell import _drain_buffer
from repro.gateway.wire import EVENT_SCHEMA, STATS_SCHEMA, SUMMARY_SCHEMA
from repro.hardware import (FaultKind, SimulatedNode, Workload,
                            WorkloadGenerator, WorkloadSegment)
from repro.icebox.security import IPFilter
from repro.monitoring import (BinaryCodec, Consolidator, HistoryStore,
                              MonitorContext, TextCodec, builtin_registry)
from repro.monitoring.gathering import parse_apriori, parse_generic
from repro.procfs import ProcFilesystem
from repro.remote.nodeset import NodeSet
from repro.sim import RandomStreams, SimKernel
from repro.util import ByteRingBuffer, TimeSeriesRing
from tests.test_federation import check_routing_table

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

segments = st.builds(
    WorkloadSegment,
    start=st.floats(0, 1000, allow_nan=False),
    duration=st.floats(0.1, 500, allow_nan=False),
    cpu=st.floats(0, 2, allow_nan=False),
    memory=st.integers(0, 4 << 30),
    net_tx=st.floats(0, 1e8, allow_nan=False),
    net_rx=st.floats(0, 1e8, allow_nan=False),
)

metric_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           whitelist_characters="_"),
    min_size=1, max_size=24).filter(lambda s: not s[0].isdigit())

metric_values = st.one_of(
    st.integers(-2**53, 2**53),
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
)


ring_values = st.floats(-1e9, 1e9, allow_nan=False)


class TestWorkloadProperties:
    @given(st.lists(segments, max_size=12),
           st.floats(0, 2000, allow_nan=False),
           st.floats(0, 2000, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_integral_equals_sum_of_subintervals(self, segs, a, b):
        assume(a < b)
        w = Workload()
        w.extend(segs)
        mid = (a + b) / 2
        whole = w.integrate("cpu", a, b)
        split = w.integrate("cpu", a, mid) + w.integrate("cpu", mid, b)
        assert whole == pytest.approx(split, rel=1e-9, abs=1e-9)

    @given(st.lists(segments, max_size=12),
           st.floats(0, 2000, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_demand_never_negative(self, segs, t):
        w = Workload()
        w.extend(segs)
        demand = w.demand(t)
        assert all(v >= 0 for v in demand.values())

    @given(st.lists(segments, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_demand_constant_between_change_points(self, segs):
        w = Workload()
        w.extend(segs)
        points = [0.0] + w.change_points(0.0, 4000.0) + [4000.0]
        for a, b in zip(points[:-1], points[1:]):
            if b - a < 1e-6:
                continue
            mid1 = a + (b - a) * 0.25
            mid2 = a + (b - a) * 0.75
            assert w.demand(mid1) == w.demand(mid2)


class TestThermalProperties:
    @given(st.floats(0, 1, allow_nan=False),
           st.floats(1, 3000, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_temperature_bounded_by_equilibria(self, load, t):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "p", node_id=1)
        node.power_on()
        node.workload.add(WorkloadSegment(start=0, duration=1e6, cpu=load))
        temp = node.thermal.temperature(t)
        spec = node.thermal.spec
        lo = spec.ambient - 1e-6
        hi = spec.ambient + spec.k_load * load + 1e-6
        assert lo <= temp <= hi

    @given(st.floats(0.05, 1, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_time_to_reach_consistent_with_temperature(self, load):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "p", node_id=1)
        node.power_on()
        node.workload.add(WorkloadSegment(start=0, duration=1e6, cpu=load))
        node.thermal.fan_failure(0.0)
        eq = node.thermal.equilibrium(0.0)
        target = (node.thermal.spec.ambient + eq) / 2
        eta = node.thermal.time_to_reach(target, 0.0)
        assume(eta is not None and eta > 0)
        assert node.thermal.temperature(eta) == pytest.approx(target,
                                                              abs=0.05)


# One step of a generated node history: a state change at the current
# instant, or a move of the clock (by an arbitrary amount, or exactly
# onto the next segment start/end).
_tags = st.sampled_from(["job", "ramp", "x"])
_offsets = st.floats(-150.0, 150.0, allow_nan=False)
node_steps = st.one_of(
    st.tuples(st.just("advance"), st.floats(0.0, 300.0, allow_nan=False)),
    st.tuples(st.just("next_point"), st.none()),
    st.tuples(st.just("hpc_job"),
              st.tuples(_offsets, st.integers(1, 4), st.integers(0, 999))),
    st.tuples(st.just("memory_ramp"), _offsets),
    st.tuples(st.just("segment"), st.tuples(
        _offsets, st.floats(0.5, 400.0, allow_nan=False),
        st.floats(0.0, 2.5, allow_nan=False), st.integers(0, 3 << 30),
        st.floats(0.0, 2e7, allow_nan=False),
        st.floats(0.0, 6e7, allow_nan=False))),
    st.tuples(st.just("remove_tagged"), _tags),
    st.tuples(st.just("truncate_tagged"), _tags),
    st.tuples(st.just("leak"), st.floats(1e3, 1e8, allow_nan=False)),
    st.tuples(st.just("nic_degrade"), st.floats(0.01, 1.0, allow_nan=False)),
    st.tuples(st.just("overhead"), st.floats(0.0, 0.5, allow_nan=False)),
    # One branch each, so a state transition is as likely as any step.
    *(st.tuples(st.just(kind), st.none()) for kind in (
        "psu_fail", "fan_failure", "fan_repair", "crash", "hang",
        "power_off", "power_on", "reset")),
)


def _apply_step(node, kind, arg):
    kernel = node.kernel
    now = kernel.now
    if kind == "advance":
        kernel.run(until=now + arg)
    elif kind == "next_point":
        ahead = node.workload.change_points(now, math.inf)
        if ahead:
            kernel.run(until=ahead[0])
    elif kind == "hpc_job":
        offset, phases, seed = arg
        gen = WorkloadGenerator(RandomStreams(seed)("oracle"))
        node.workload.extend(gen.hpc_job(now + offset, phases=phases,
                                         tag="job"))
    elif kind == "memory_ramp":
        gen = WorkloadGenerator(RandomStreams(0)("oracle"))
        node.workload.extend(gen.memory_ramp(now + arg, steps=4))
    elif kind == "segment":
        offset, duration, cpu, memory, net, disk = arg
        node.workload.add(WorkloadSegment(
            start=now + offset, duration=duration, cpu=cpu, memory=memory,
            net_tx=net, net_rx=net / 2, disk_read=disk,
            disk_write=disk / 3, tag="x"))
    elif kind == "remove_tagged":
        node.workload.remove_tagged(arg)
    elif kind == "truncate_tagged":
        node.workload.truncate_tagged(arg, at=now)
    elif kind == "leak":
        node.memory.inject_leak(now, arg)
    elif kind == "nic_degrade":
        node.nic.degrade(arg)
    elif kind == "overhead":
        node.cpu.set_overhead("oracle", arg)
    elif kind == "psu_fail":
        node.psu.fail()
    elif kind == "crash":
        node.crash("oracle")
    else:
        getattr(node, kind)()


class TestSamplerOracle:
    """The hoisted builtin sampler against the generic per-monitor loop,
    and ``demand`` against an independent sum, over generated histories."""

    @given(st.lists(node_steps, min_size=1, max_size=25), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_fast_sampler_and_demand_match_their_oracles(
            self, steps, diskless):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "oracle", node_id=11,
                             diskless=diskless)
        node.power_on()
        registry = builtin_registry()
        for kind, arg in steps:
            _apply_step(node, kind, arg)
            # kernel.now is, in turn, boot_completed_at, arbitrary
            # instants, and exact segment starts and ends.
            t = kernel.now
            ctx = MonitorContext(node=node, t=t)
            fast = registry.fast_sampler(ctx)
            generic = registry.evaluate_all(ctx)
            # repr: 0 and 0.0 are equal but differ on the text wire.
            assert [(k, repr(v)) for k, v in fast.items()] == \
                [(k, repr(v)) for k, v in generic.items()]
            scanned = dict.fromkeys(
                ("cpu", "memory", "net_tx", "net_rx", "disk_read",
                 "disk_write"), 0.0)
            for seg in node.workload.active(t):
                for key in scanned:
                    scanned[key] += getattr(seg, key)
            scanned["memory"] = int(scanned["memory"])
            assert dict(node.workload.demand(t)) == scanned


class TestRingBufferProperties:
    @given(st.lists(st.binary(min_size=0, max_size=300), max_size=30),
           st.integers(1, 256))
    @settings(max_examples=80, deadline=None)
    def test_byte_ring_equals_tail_of_concatenation(self, chunks, cap):
        buf = ByteRingBuffer(cap)
        everything = b""
        for chunk in chunks:
            buf.write(chunk)
            everything += chunk
        assert buf.snapshot() == everything[-cap:] if everything \
            else buf.snapshot() == b""
        assert len(buf) <= cap
        assert buf.total_written == len(everything)

    @given(st.lists(st.tuples(st.floats(0, 1e6, allow_nan=False),
                              st.floats(-1e9, 1e9, allow_nan=False)),
                    max_size=200),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_timeseries_ring_keeps_last_k(self, pairs, cap):
        pairs = sorted(pairs)
        ring = TimeSeriesRing(cap)
        series = ring.new()
        ring.extend(series, pairs)
        t, v = ring.arrays(series)
        expected = pairs[-cap:]
        assert len(t) == len(expected)
        assert np.allclose(t, [p[0] for p in expected])
        assert np.allclose(v, [p[1] for p in expected])

    @given(st.sampled_from([1, 2, 3, 5, 8, 64]),
           st.lists(st.one_of(
               st.tuples(st.just("append"), ring_values),
               st.tuples(st.just("extend"),
                         st.lists(ring_values, max_size=12)),
               st.tuples(st.just("arrays")),
               st.tuples(st.just("latest")),
               st.tuples(st.just("window"), st.floats(-2, 80),
                         st.floats(-2, 80)),
               st.tuples(st.just("downsample"), st.integers(1, 7))),
               max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_timeseries_ring_matches_deque_model(self, cap, ops):
        """Any sequence of writes and reads agrees with a
        ``deque(maxlen=capacity)`` of pairs — through growth, the wrap
        seam and ``head == 0`` — and no read leaves the ``bytearray``
        exported (the growing ``append`` that follows would raise
        BufferError)."""
        ring = TimeSeriesRing(cap)
        series = ring.new()
        model = deque(maxlen=cap)
        clock = 0.0

        def write(values):
            nonlocal clock
            pairs = []
            for value in values:
                clock += 0.5
                pairs.append((clock, value))
            return pairs

        for op, *args in ops:
            if op == "append":
                (pair,) = write(args)
                ring.append(series, *pair)
                model.append(pair)
                continue
            if op == "extend":
                pairs = write(args[0])
                ring.extend(series, iter(pairs))
                model.extend(pairs)
                continue
            held = list(model)
            if op == "arrays":
                t, v = ring.arrays(series)
                assert list(zip(t.tolist(), v.tolist())) == held
                assert t.flags.c_contiguous and v.flags.c_contiguous
                assert t.flags.owndata and v.flags.owndata
            elif op == "latest":
                assert ring.latest(series) == (held[-1] if held else None)
            elif op == "window":
                t, v = ring.window(series, *args)
                assert list(zip(t.tolist(), v.tolist())) == [
                    p for p in held if args[0] <= p[0] <= args[1]]
            else:
                got = ring.downsample(series, args[0])
                want = _downsample_model(held, args[0])
                for got_col, want_col in zip(got, want):
                    assert got_col.tolist() == pytest.approx(
                        want_col, nan_ok=True)
            assert ring.held(series) == len(model)
            (pair,) = write([float(len(held))])
            ring.append(series, *pair)  # must not raise: nothing exported
            model.append(pair)
        t, v = ring.arrays(series)
        assert list(zip(t.tolist(), v.tolist())) == list(model)

    def test_extend_rejects_a_ragged_pair(self):
        ring = TimeSeriesRing(4)
        with pytest.raises(ValueError):
            ring.extend(ring.new(), [(1.0, 2.0), (3.0,)])


def _downsample_model(pairs, buckets):
    """Plain-loop (centers, mean, min, max) over equal time bins."""
    if not pairs:
        return [], [], [], []
    lo, hi = pairs[0][0], pairs[-1][0]
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, buckets + 1).tolist()
    bins = [[] for _ in range(buckets)]
    for t, v in pairs:
        bins[min(max(bisect_right(edges, t) - 1, 0),
                 buckets - 1)].append(v)
    nan = float("nan")
    return ([(a + b) / 2.0 for a, b in zip(edges, edges[1:])],
            [sum(b) / len(b) if b else nan for b in bins],
            [min(b) if b else nan for b in bins],
            [max(b) if b else nan for b in bins])


# -- HistoryStore against a dict-of-lists model ----------------------------

HISTORY_CAPACITY = 3
history_hosts = st.sampled_from(["n1", "n2", "n10"])
history_values = st.dictionaries(
    st.sampled_from(["load", "temp", "up", "kernel"]),
    st.one_of(st.integers(-2**53, 2**53),
              st.floats(-1e9, 1e9, allow_nan=False),
              st.booleans(),
              st.sampled_from(["2.4.18", "up"])),
    max_size=4)


def _history_text(model):
    return "".join(
        f"{host} {metric} {t!r} {v!r}\n"
        for host in sorted(model) for metric in sorted(model[host])
        for t, v in model[host][metric])


_partial_rows = st.fixed_dictionaries({}, optional={
    "udp_echo": st.integers(0, 1),
    "cpu_util_pct": st.floats(0, 100),
    "mem_used_bytes": st.integers(0, 1 << 30),
    "mem_total_bytes": st.just(1 << 30),
    "cpu_temp_c": st.floats(20, 60)})


class TestStoreRollupProperties:
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.one_of(st.none(), _partial_rows)),
                    max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_running_rollup_is_the_sum_of_the_rows(self, ops):
        """Partial updates and forget-and-rejoin in any order: the
        store's O(1) running rollup is the sum recomputed over its rows
        after every step (``None`` forgets the host)."""
        store = StateStore()
        hosts = [f"n{i}" for i in range(6)]
        for host in hosts:
            store.track(host)
        server = SimpleNamespace(cluster_summary=store.summary,
                                 current_all=store.snapshot,
                                 managed_hostnames=hosts)
        for step, (index, values) in enumerate(ops):
            if values is None:
                store.forget(hosts[index])
                store.track(hosts[index])
            else:
                store.apply(Update(hostname=hosts[index], time=step,
                                   values=values))
            assert rollup_matches_parts(server) == []


class TestHistoryStoreModel:
    @given(st.lists(st.one_of(
        st.tuples(st.just("record"), history_hosts, history_values),
        st.tuples(st.just("forget"), history_hosts),
        st.tuples(st.just("migrate"), history_hosts),
        st.tuples(st.just("adopt_twice"), history_hosts),
        st.tuples(st.just("text_roundtrip"))), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_history_store_matches_dict_of_lists(self, ops):
        store = HistoryStore(capacity=HISTORY_CAPACITY)
        peer = HistoryStore(capacity=HISTORY_CAPACITY)
        model = {}          # host -> metric -> [(t, v)], newest last
        clock = 0.0
        for op, *args in ops:
            clock += 1.0
            if op == "record":
                host, values = args
                store.record(host, clock, values)
                for metric, value in values.items():
                    if isinstance(value, str):
                        continue
                    kept = model.setdefault(host, {}).setdefault(
                        metric, [])
                    kept.append((clock, float(value)))
                    del kept[:-HISTORY_CAPACITY]
            elif op == "forget":
                store.forget(args[0])
                model.pop(args[0], None)
            elif op == "migrate":
                # there and back again: a drain moves the host to a
                # peer shard, a second drain brings it home
                host = args[0]
                peer.adopt_host(host, store.export_host(host))
                store.forget(host)
                assert host not in store.hostnames
                store.adopt_host(host, peer.export_host(host))
                peer.forget(host)
                assert len(peer) == 0
            elif op == "adopt_twice":
                # adopting onto existing series appends, within capacity
                host = args[0]
                store.adopt_host(host, store.export_host(host))
                for kept in model.get(host, {}).values():
                    kept.extend(list(kept))
                    del kept[:-HISTORY_CAPACITY]
            else:
                store = HistoryStore.import_text(
                    store.export_text(), capacity=HISTORY_CAPACITY)

            assert store.hostnames == sorted(model)
            assert store.metric_names == sorted(
                {m for table in model.values() for m in table})
            assert len(store) == sum(map(len, model.values()))
            assert store.export_text() == _history_text(model)
            for host in ("n1", "n2", "n10"):
                exported = store.export_host(host)
                assert sorted(exported) == sorted(model.get(host, {}))
                for metric in ("load", "temp", "up", "kernel"):
                    want = model.get(host, {}).get(metric, [])
                    t, v = store.series(host, metric)
                    assert list(zip(t.tolist(), v.tolist())) == want
                    assert store.latest(host, metric) == (
                        want[-1] if want else None)

    @given(st.sampled_from([1, 3, 64]),
           st.lists(st.tuples(history_hosts, history_values), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_adopting_an_export_into_an_empty_store_reproduces_it(
            self, capacity, records):
        """The fail-over migration path: every series of a host, grown,
        full or wrapped, reads back the same from an empty store that
        adopted its export — with one bulk extend per metric."""
        source = HistoryStore(capacity=capacity)
        for clock, (host, values) in enumerate(records):
            source.record(host, float(clock), values)
        extend = TimeSeriesRing.extend
        for host in source.hostnames:
            exported = source.export_host(host)
            target = HistoryStore(capacity=capacity)
            with patch.object(TimeSeriesRing, "extend", autospec=True,
                              side_effect=extend) as spy:
                target.adopt_host(host, exported)
            assert spy.call_count == len(exported)
            assert target.hostnames == [host]
            assert target.export_host(host).keys() == exported.keys()
            for metric, (t, v) in exported.items():
                got = target.series(host, metric)
                assert [col.tolist() for col in got] == [t.tolist(),
                                                         v.tolist()]
                assert target.latest(host, metric) == source.latest(
                    host, metric)
                for got_col, want_col in zip(
                        target.graph(host, metric, 4),
                        source.graph(host, metric, 4)):
                    assert got_col.tolist() == pytest.approx(
                        want_col.tolist(), nan_ok=True)


class TestCodecProperties:
    @given(st.dictionaries(metric_names, metric_values, max_size=30),
           st.floats(0, 1e8, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_text_codec_roundtrip(self, values, t):
        codec = TextCodec()
        host, t2, decoded = codec.decode(codec.encode("host1", t, values))
        assert host == "host1"
        assert t2 == pytest.approx(t, abs=1e-3)
        assert set(decoded) == set(values)
        for k, v in values.items():
            assert decoded[k] == pytest.approx(v, rel=1e-9, abs=1e-9)

    @given(st.dictionaries(metric_names, metric_values, max_size=30),
           st.floats(0, 1e8, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_binary_codec_roundtrip(self, values, t):
        codec = BinaryCodec()
        host, t2, decoded = codec.decode(codec.encode("h", t, values))
        assert host == "h" and t2 == pytest.approx(t)
        for k, v in values.items():
            assert decoded[k] == pytest.approx(float(v), rel=1e-12)


# -- the binary gateway wire ------------------------------------------------

_WIRE_METRICS = ("cpu", "mem", "temp", "state", "net_rx", "load", "fan",
                 "disk", "up")
#: the schema each kind is packed with; every other kind is schemaless.
_WIRE_SCHEMAS = {"summary": SUMMARY_SCHEMA, "stats": STATS_SCHEMA,
                 "event": EVENT_SCHEMA, "host": _WIRE_METRICS,
                 "delta": _WIRE_METRICS}
_WIRE_KINDS = ("summary", "host", "delta", "event", "stats", "hosts",
               "error", "end", "evicted", "history", "shard")
_wire_values = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from([2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**63 - 1,
                     2**63, -2**63, -2**63 - 1]),
    st.floats(), st.booleans(), st.text(max_size=8))


@st.composite
def _wire_frames(draw):
    kind = draw(st.sampled_from(_WIRE_KINDS))
    names = st.one_of(st.sampled_from(_WIRE_SCHEMAS.get(kind, ("status",))),
                      st.text(min_size=1, max_size=8))  # off-schema extras
    return (kind, draw(st.text(max_size=12)),
            draw(st.floats(allow_nan=False)),
            draw(st.dictionaries(names, _wire_values, max_size=12)))


def _wire_normalised(value, packs_ints):
    """What a value reads back as: a bool as its int; an int packed as a
    double (schemaless frames, or beyond int64) and every integral
    double as an int."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int) and not (packs_ints
                                       and -2**63 <= value < 2**63):
        value = float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _exact(values):
    """Values keyed for exact comparison: type and repr (NaN equals
    NaN, ``-0.0`` differs from ``0.0``, ``1`` from ``1.0``)."""
    return {name: (type(v), repr(v)) for name, v in values.items()}


class TestBinaryWireProperties:
    @given(st.lists(_wire_frames(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_schema_mode_roundtrip_is_exact(self, frames):
        wire = BinaryWire(metric_schema=_WIRE_METRICS)
        decoded = wire.decode(wire.encode(frames))
        assert len(decoded) == len(frames)
        for (kind, subject, t, values), got in zip(frames, decoded):
            packs_ints = kind in _WIRE_SCHEMAS
            assert got[:3] == (kind, subject, t)
            assert _exact(got[3]) == _exact(
                {name: _wire_normalised(v, packs_ints)
                 for name, v in values.items()})

    @given(_wire_frames())
    @settings(max_examples=100, deadline=None)
    def test_truncated_or_padded_frame_is_rejected(self, frame):
        """Every non-empty strict prefix of a one-frame body, and the
        body with a byte after it, is a ValueError — never a short
        value or a ``struct.error``; the same for the bare codec frame
        (in both modes), whose empty prefix is malformed too."""
        kind, subject, t, values = frame
        wire = BinaryWire(metric_schema=_WIRE_METRICS)
        body = wire.encode([frame])
        for cut in range(1, len(body)):
            with pytest.raises(ValueError):
                wire.decode(body[:cut])
        with pytest.raises(ValueError):
            wire.decode(body + b"\x00")
        for codec in (BinaryCodec(), BinaryCodec(schema=_WIRE_METRICS)):
            payload = codec.encode(subject, t, values)
            for cut in range(len(payload)):
                with pytest.raises(ValueError):
                    codec.decode(payload[:cut])
            with pytest.raises(ValueError):
                codec.decode(payload + b"\x00")

    @given(st.lists(_wire_frames(), min_size=1, max_size=6),
           st.lists(st.integers(0, 1 << 16), max_size=8),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_burst_split_anywhere_drains_the_same_frames(self, frames,
                                                        cuts, binary):
        """A stream client fed one burst in arbitrary chunks yields the
        frames the whole burst decodes to, and keeps no remainder."""
        wire = BinaryWire(metric_schema=_WIRE_METRICS) if binary \
            else JsonWire()
        burst = b"".join(wire.encode_stream(frame) for frame in frames)
        points = sorted({cut % (len(burst) + 1) for cut in cuts})
        buffer, got = b"", []
        for start, stop in zip([0] + points, points + [len(burst)]):
            buffer, decoded = _drain_buffer(buffer + burst[start:stop],
                                            wire)
            got.extend(decoded)
        assert buffer == b""
        assert repr(got) == repr(_drain_buffer(burst, wire)[1])
        if binary:
            assert repr(got) == repr(wire.decode(burst))


class TestConsolidatorProperties:
    @given(st.lists(st.dictionaries(metric_names, metric_values,
                                    min_size=1, max_size=10),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_replaying_deltas_reconstructs_state(self, updates):
        """The server only ever sees deltas; applying them in order must
        reproduce the node's final state — the core correctness contract
        of change suppression."""
        consolidator = Consolidator()
        replica = {}
        truth = {}
        for i, update in enumerate(updates):
            truth.update(update)
            delta = consolidator.update(update, t=float(i))
            replica.update(delta)
        for key, value in truth.items():
            assert replica[key] == value

    @given(st.dictionaries(metric_names, metric_values, min_size=1,
                           max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_identical_update_releases_nothing(self, update):
        c = Consolidator()
        c.update(update, t=0.0)
        assert c.update(dict(update), t=1.0) == {}


# -- Consolidator against "latest value seen per name" ---------------------

CONSOLIDATOR_NAMES = ("load", "temp", "up", "image", "zero")
consolidator_values = st.one_of(
    # close enough together that a 5 % band holds some steps back
    st.sampled_from([100.0, 101.0, 104.0, 106.0, 0.0, 1e-13, -100.0,
                     float("nan")]),
    st.integers(99, 102), st.booleans(), st.sampled_from(["v1", "v2"]))
consolidator_gathers = st.one_of(
    st.fixed_dictionaries(dict.fromkeys(CONSOLIDATOR_NAMES,
                                        consolidator_values)),
    st.dictionaries(st.sampled_from(CONSOLIDATOR_NAMES),
                    consolidator_values, max_size=4))
#: seconds to the next operation: inside and outside a 1 s cache_ttl.
consolidator_steps = st.sampled_from([0.0, 0.4, 2.5])


class _TwoTableConsolidator:
    """The reference: every name's latest value seen, kept whole beside
    the last value sent — the layout the one-table consolidator
    replaced."""

    def __init__(self, deadband):
        self.deadband = deadband
        self.seen, self.sent = {}, {}
        self.cache_time = None
        self.counters = dict.fromkeys(
            ("values_seen", "values_released", "cache_hits",
             "cache_misses"), 0)

    def _differs(self, name, new):
        if name not in self.sent:
            return True
        old = self.sent[name]
        numeric = all(isinstance(x, (int, float)) for x in (old, new))
        if self.deadband and numeric and not isinstance(new, bool):
            scale = abs(old) if old != 0 else max(abs(new), 1e-12)
            return not abs(new - old) / scale <= self.deadband
        return new != old

    def update(self, values, t):
        self.seen.update(values)
        delta = {name: value for name, value in values.items()
                 if self._differs(name, value)}
        self.sent.update(delta)
        self.counters["values_seen"] += len(values)
        self.counters["values_released"] += len(delta)
        self.cache_time = t
        return delta

    def snapshot(self, t, fresh=None):
        if self.cache_time is not None and t - self.cache_time <= 1.0:
            self.counters["cache_hits"] += 1
            return dict(self.seen)
        self.counters["cache_misses"] += 1
        self.seen.update(fresh or {})
        self.cache_time = t
        return dict(self.seen)


def _same_values(got, want):
    """Dict equality that lets a NaN equal a NaN."""
    return got.keys() == want.keys() and all(
        got[k] == want[k] or (got[k] != got[k] and want[k] != want[k])
        for k in want)


class TestConsolidatorModel:
    @given(st.sampled_from([0.0, 0.05]),
           st.lists(st.tuples(consolidator_steps, st.one_of(
               st.tuples(st.just("update"), consolidator_gathers),
               st.tuples(st.just("snapshot"),
                         st.none() | consolidator_gathers),
               st.tuples(st.just("retransmit")))), max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_consolidator_matches_latest_value_seen(self, deadband, ops):
        """Complete and partial gathers, cached and regathered
        snapshots and forced retransmits, exact and with a deadband:
        deltas, the current view and the four counters equal a
        reference that keeps the latest value seen per name."""
        real = Consolidator(deadband=deadband, cache_ttl=1.0)
        model = _TwoTableConsolidator(deadband)
        clock = 0.0
        for step, (op, *args) in ops:
            clock += step
            if op == "update":
                delta = real.update(args[0], clock)
                assert _same_values(delta, model.update(args[0], clock))
            elif op == "snapshot":
                fresh = args[0]
                calls = []
                view = real.snapshot(clock, None if fresh is None else
                                     lambda: calls.append(1) or fresh)
                misses = model.counters["cache_misses"]
                assert _same_values(view, model.snapshot(clock, fresh))
                # regathered exactly when the cache missed
                assert len(calls) == (fresh is not None) * (
                    model.counters["cache_misses"] - misses)
            else:
                real.force_full_retransmit()
                model.sent.clear()
            # the current view, read without a regather on both sides
            assert _same_values(real.snapshot(clock),
                                model.snapshot(clock))
            assert {name: getattr(real, name)
                    for name in model.counters} == model.counters
            assert real.suppressed == (model.counters["values_seen"]
                                       - model.counters["values_released"])
            if not deadband and op == "update" \
                    and len(args[0]) == len(CONSOLIDATOR_NAMES):
                # exact comparison holds nothing back: after a complete
                # gather the overlay is empty and one table is all
                assert not real._held


class TestProcfsProperties:
    @given(st.floats(0, 0.99, allow_nan=False),
           st.integers(0, 3 << 30))
    @settings(max_examples=30, deadline=None)
    def test_parsers_agree_across_node_states(self, cpu, memory):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "p", node_id=1)
        node.power_on()
        node.workload.add(WorkloadSegment(start=0, duration=1e5, cpu=cpu,
                                          memory=memory))
        kernel.run(until=37.0)
        fs = ProcFilesystem(node)
        text = fs.read_text("/proc/meminfo")
        generic = parse_generic("/proc/meminfo", text)
        apriori = parse_apriori("/proc/meminfo", text)
        assert generic["MemTotal"] == pytest.approx(apriori["MemTotal"],
                                                    abs=1024)
        assert generic["MemFree"] == pytest.approx(apriori["MemFree"],
                                                   abs=1024)


class TestIPFilterProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    @settings(max_examples=80, deadline=None)
    def test_address_matches_its_own_prefix(self, addr, bits):
        octets = [(addr >> s) & 0xFF for s in (24, 16, 8, 0)]
        dotted = ".".join(map(str, octets))
        f = IPFilter(default_allow=False)
        f.allow(f"{dotted}/{bits}")
        assert f.permits(dotted)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_deny_all_rule(self, addr):
        octets = [(addr >> s) & 0xFF for s in (24, 16, 8, 0)]
        dotted = ".".join(map(str, octets))
        f = IPFilter(default_allow=True)
        f.deny("0.0.0.0/0")
        assert not f.permits(dotted)


class TestFabricConservation:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(1, 10_000_000)),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_bytes_are_conserved(self, transfers):
        """Every byte offered to the fabric is delivered exactly once,
        regardless of how flows overlap and share bandwidth."""
        from repro.network import NetworkFabric
        from repro.hardware import SimulatedNode

        kernel = SimKernel()
        fabric = NetworkFabric(kernel)
        nodes = [SimulatedNode(kernel, f"f{i}", node_id=i + 1)
                 for i in range(4)]
        for node in nodes:
            node.power_on()
            fabric.attach(node)
        expected_rx = {n.hostname: 0 for n in nodes}
        total = 0
        for src_i, dst_i, nbytes in transfers:
            if src_i == dst_i:
                dst_i = (dst_i + 1) % 4
            fabric.unicast(nodes[src_i], nodes[dst_i], nbytes)
            expected_rx[nodes[dst_i].hostname] += nbytes
            total += nbytes
        kernel.run()
        assert fabric.total_bytes("unicast") == pytest.approx(total)
        for node in nodes:
            assert node.nic._fabric_rx == expected_rx[node.hostname]
        assert fabric.active_flows == 0


# One step of a fabric.message() interleaving.  The advances straddle the
# 0.2 ms latency, so reads land before, between and after deliveries;
# 128 B on a NIC degraded to half rate and 256 B on a healthy one are due
# at the bit-identical instant with different values.
_message_steps = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from([0, 64, 128, 256, 256, 1460, 5000]),
              st.sampled_from(["monitoring", "other"])),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 1e-5, 2e-4, 2.1e-4, 2.2048e-4, 1e-3,
                               5.0])),
    st.tuples(st.just("degrade"), st.integers(0, 3),
              st.sampled_from([0.5, 1.0])),
)


class TestMessageReferenceModel:
    @given(st.lists(_message_steps, min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_batched_delivery_equals_one_timer_per_datagram(self, steps):
        """``fabric.message`` shares one timer per (instant, size); at
        every read instant the NIC counters, the tag ledger and every
        returned event are what one timer per datagram would give."""
        from repro.network import NetworkFabric

        kernel = SimKernel()
        fabric = NetworkFabric(kernel)
        nodes = [SimulatedNode(kernel, f"m{i}", node_id=i + 1)
                 for i in range(4)]
        fabric.attach_all(nodes)
        sent = []       # the model: (due, src, dst, nbytes, tag)
        fired = []      # what the waiters saw: (index, instant, value)

        def check():
            now = kernel.now
            due = [d for d in sent if d[0] <= now]
            for i, node in enumerate(nodes):
                tx = [n for _, src, _, n, _ in due if src == i]
                rx = [n for _, _, dst, n, _ in due if dst == i]
                assert node.nic.tx_bytes(now) == sum(tx)
                assert node.nic.rx_bytes(now) == sum(rx)
                assert node.nic.tx_packets(now) == sum(tx) // 1460 + sum(
                    max(1, n // 1460) for n in tx)
                assert node.nic.rx_packets(now) == sum(rx) // 1460 + sum(
                    max(1, n // 1460) for n in rx)
            for tag in ("monitoring", "other"):
                assert fabric.total_bytes(tag) == sum(
                    n for *_, n, t in due if t == tag)
            assert sorted(fired) == sorted(
                (index, d[0], d[3]) for index, d in enumerate(sent)
                if d[0] <= now)

        for step in steps:
            if step[0] == "send":
                _, src, dst, nbytes, tag = step
                delay = fabric.latency + nbytes / nodes[src].nic.effective_rate
                event = fabric.message(nodes[src], nodes[dst], nbytes,
                                       tag=tag)
                event.callbacks.append(
                    lambda ev, index=len(sent): fired.append(
                        (index, kernel.now, ev.value)))
                sent.append((kernel.now + delay, src, dst, nbytes, tag))
            elif step[0] == "advance":
                kernel.run(until=kernel.now + step[1])
                check()
            else:
                nodes[step[1]].nic.degrade(step[2])
        kernel.run()
        check()
        assert len(fired) == len(sent)


#: on and off the phases of every interval below; duplicates are likely,
#: so several groups land at one instant.
_instants = st.sampled_from([1.0, 2.5, 3.7, 5.0, 7.5, 10.0, 12.3, 20.0])
_intervals = st.sampled_from([1.0, 2.0, 2.5, 5.0])
_groups = st.tuples(_intervals, st.integers(1, 4))


class TestAgentSchedulerSchedule:
    @given(cohort=st.lists(_groups, max_size=3, unique_by=lambda g: g[0]),
           adds=st.lists(st.tuples(_instants, _groups), max_size=5,
                         unique_by=lambda a: (a[0], a[1][0])),
           stops=st.lists(st.tuples(_instants, st.integers(0, 30)),
                          max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_scheduler_ticks_when_one_process_per_agent_would(
            self, cohort, adds, stops):
        """The shared driver's ``(time, hostname)`` tick log is the log
        of one kernel process per agent — for a start-up cohort, for
        groups hot-added at any instant (each opens its own phase and
        samples first at the add instant) and across stops.  Agents of
        one interval added at one instant form one contiguous group, as
        the facade adds them."""
        from repro.monitoring import NodeAgent
        from repro.monitoring.scheduler import AgentScheduler

        registry = builtin_registry()
        ops = sorted([(0.0, "add", group) for group in cohort]
                     + [(t, "add", group) for t, group in adds]
                     + [(t, "stop", index) for t, index in stops],
                     key=lambda op: op[0])

        def scheduled(kernel, log):
            scheduler = AgentScheduler(kernel)
            agents = []

            def add(interval):
                name = f"a{len(agents)}"
                agent = NodeAgent(
                    kernel, SimulatedNode(kernel, name,
                                          node_id=len(agents) + 1),
                    registry, interval=interval)
                agent.tick = lambda: log.append((kernel.now, name))
                agents.append(agent)
                scheduler.register(agent)

            return add, lambda index: agents[index].stop(), agents

        def one_process_each(kernel, log):
            alive = []

            def loop(index, interval):
                while alive[index]:
                    log.append((kernel.now, f"a{index}"))
                    yield kernel.timeout(interval)

            def add(interval):
                alive.append(True)
                kernel.process(loop(len(alive) - 1, interval))

            def stop(index):
                alive[index] = False

            return add, stop, alive

        logs = []
        for driver in (scheduled, one_process_each):
            kernel, log = SimKernel(), []
            add, stop, members = driver(kernel, log)
            for t, kind, arg in ops:
                kernel.run(until=t)
                if kind == "add":
                    for _ in range(arg[1]):
                        add(arg[0])
                elif members:
                    stop(arg % len(members))
            kernel.run(until=40.0)
            logs.append(log)
        assert logs[0] == logs[1]


# ---------------------------------------------------------------------------
# all-hosts /v1/query: a table written row by row == the frames it stands for
# ---------------------------------------------------------------------------

class _Int(int):
    """``json`` writes an int subclass by ``int.__repr__``, never this."""

    def __repr__(self):
        return "not-json"


class _Float(float):
    def __repr__(self):
        return "not-json"


#: text a JSON writer must escape — quotes, backslashes, control
#: characters, non-ASCII — and ``%``, a row template's own syntax.
_awkward_text = st.text(alphabet='ab_"\\%\x00\x1f\n\té€\U0001f600',
                        max_size=5)
_field_names = st.one_of(st.sampled_from(["cpu", "mem", "temp", "a%s"]),
                         _awkward_text.filter(bool))
_host_names = st.one_of(st.sampled_from([f"n{i}" for i in range(12)]),
                        _awkward_text.filter(bool))
_table_values = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324,
                     2.2250738585072014e-308 / 3]),
    st.integers(-2**200, 2**200), st.integers(2**63, 2**80),
    st.booleans(), st.none(),
    st.builds(_Int, st.integers(-2**70, 2**70)),
    st.builds(_Float, st.floats()),
    _awkward_text,
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from("ba"), st.none(), max_size=2))


def _state_over(snapshot, now):
    """A GatewayState whose server is nothing but ``snapshot``."""
    server = SimpleNamespace(
        store=SimpleNamespace(snapshot=lambda: snapshot),
        engine=SimpleNamespace(active_events=tuple),
        cluster_summary=dict,
        kernel=SimpleNamespace(now=now),
        degraded_info=lambda: {"degraded": False})
    return GatewayState(server)


def _frames_before_tables(view, nodes, metrics):
    """What ``/v1/query`` answered as a frame list: one frame per host,
    the host's values projected to ``metrics`` when any are given."""
    snapshot = view.snapshot
    wanted = ([h for h in NodeSet(nodes) if h in snapshot] if nodes
              else list(view.hostnames))
    frames = []
    for hostname in wanted:
        values = snapshot[hostname]
        if metrics:
            values = {m: values[m] for m in metrics if m in values}
        frames.append(("host", hostname, view.sim_time, values))
    return frames


class TestQueryTableProperties:
    @given(st.dictionaries(_host_names,
                           st.dictionaries(_field_names, _table_values,
                                           max_size=6),
                           max_size=8),
           st.integers(0, 3), st.randoms(use_true_random=False),
           st.one_of(st.none(), st.lists(_field_names, max_size=5)),
           st.one_of(st.none(),
                     st.lists(st.sampled_from(
                         [f"n{i}" for i in range(14)]), max_size=4)),
           st.floats(0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_table_body_is_the_frame_list_body(self, hosts, shards, rnd,
                                               metrics, nodes, now):
        """Flat (``shards == 0``) or split over shard parts: the table
        iterates to the frames the route answered before, and both wires
        write it to those frames' bytes."""
        if shards:
            parts = [{} for _ in range(shards)]
            for hostname, values in hosts.items():
                parts[rnd.randrange(shards)][hostname] = values
            snapshot = FederatedSnapshot(
                [Snapshot(part, 1, now, 1) for part in parts])
        else:
            snapshot = Snapshot(hosts, 1, now, 1)
        state = _state_over(snapshot, now)
        nodes = ",".join(nodes) if nodes else None
        table = state.query(nodes, metrics)
        frames = _frames_before_tables(state.view, nodes, metrics)
        assert len(table) == len(frames)
        assert list(table) == frames
        assert JsonWire().encode(table) == JsonWire().encode(frames)
        for wire in (BinaryWire(), BinaryWire(metric_schema=("cpu", "mem"))):
            assert wire.encode(table) == wire.encode(frames)


# ---------------------------------------------------------------------------
# the control plane answers as one server would (repro.faults.invariants)
# ---------------------------------------------------------------------------

def _cluster(seed, n_nodes, shards, **options):
    """An unstarted cluster — flat for ``shards == 0`` — with a rule that
    fires on every host and one that node faults trip."""
    topology = {"topology": "federation", "shards": shards,
                "topology_options": options} if shards else {}
    cwx = ClusterWorX(n_nodes=n_nodes, seed=seed, monitor_interval=5.0,
                      **topology)
    cwx.add_threshold("hot", metric="cpu_temp_c", op=">", threshold=20.0,
                      notify=False)
    cwx.add_threshold("dark", metric="udp_echo", op="<", threshold=1,
                      notify=False)
    return cwx


def _run_cluster(seed, n_nodes, shards, faults, horizon=60.0):
    cwx = _cluster(seed, n_nodes, shards)
    cwx.start()
    nodes = cwx.cluster.nodes
    for at, index, kind in faults:
        cwx.cluster.faults.schedule(nodes[index % len(nodes)], kind,
                                    cwx.kernel.now + at)
    cwx.run(horizon)
    return cwx


_node_faults = st.lists(st.tuples(st.floats(0, 50), st.integers(0, 23),
                                  st.sampled_from(FaultKind.ALL)),
                        max_size=4)


class TestFlatFederationOracle:
    @given(st.integers(0, 2**16), st.integers(4, 24), st.integers(1, 4),
           _node_faults)
    @settings(max_examples=25, deadline=None)
    def test_federation_answers_as_one_server(self, seed, n_nodes, shards,
                                              faults):
        """Any seed, size, shard count and node-fault schedule, no
        control-plane fault: the federation's summary, event log and
        host rows are the flat server's, its shard monitor never moved,
        and a rerun's digest is its own."""
        flat = _run_cluster(seed, n_nodes, 0, faults)
        fed = _run_cluster(seed, n_nodes, shards, faults)
        assert observables(fed.server) == observables(flat.server)
        assert fed.server.monitor.transitions == []
        assert ownership_partition(fed.server) == []
        assert rollup_matches_parts(fed.server) == []
        again = _run_cluster(seed, n_nodes, shards, faults)
        assert digest(again.server) == digest(fed.server)


#: series the server's sweep writes too: when it writes them depends on
#: what its store has heard, so an outage legitimately moves them.
_SWEEP_METRICS = ("udp_echo", "node_state")


def _agent_history(server, host):
    return {metric: [list(part) for part in series]
            for metric, series in server.history.export_host(host).items()
            if metric not in _SWEEP_METRICS}


def _row(server, host):
    return dict(server.store.get(host)), server.store.last_agent_seen(host)


def _watch(server, hosts=None):
    seqs = {}  # host -> the agent seqs a subscriber saw
    server.subscribe(lambda update: update.source == "agent" and seqs
                     .setdefault(update.hostname, []).append(update.seq),
                     hosts=hosts)
    return seqs


@settings(max_examples=60, stateful_step_count=10, deadline=None)
class FederationMachine(RuleBasedStateMachine):
    """A federation under operators and control-plane faults, fail-over
    on or off, beside a flat server given the same nodes, node faults
    and membership, with a gateway publishing the federation.  After
    every step the invariants hold.  At the end every agent update is
    conserved and a forgotten host's watch fell silent; when none was
    dropped, each host's agent seqs (cluster-wide and host-filtered
    watch), row, freshness and agent-written history equal the flat
    run's — across a fail-over by declared assumption A1
    (``repro.faults.invariants``) — and every routing-table entry
    answers its declaration."""

    @initialize(seed=st.integers(0, 2**16), n_nodes=st.integers(4, 12),
                shards=st.integers(2, 4),
                auto_failover=st.sampled_from([True, True, False]))
    def build(self, seed, n_nodes, shards, auto_failover):
        self.runs = []
        for count in (0, shards):
            cwx = _cluster(seed, n_nodes, count,
                           auto_failover=auto_failover)
            watches = (_watch(cwx.server),
                       _watch(cwx.server, cwx.cluster.hostnames[::3]))
            cwx.start()
            self.runs.append((cwx, watches, list(cwx.agents.values())))
        self.flat, self.fed = self.runs[0][0], self.runs[1][0]
        self.plane = FaultPlane(self.fed.kernel, federation=self.fed.server)
        self.state = GatewayState(self.fed.server)
        self.silenced = {}

    def _shard(self, index):
        return self.fed.server.shards[index % len(self.fed.server.shards)]

    @rule(seconds=st.floats(1.0, 30.0))
    def run(self, seconds):
        for cwx, _, _ in self.runs:
            cwx.run(seconds)

    @rule(index=st.integers(0, 3),
          how=st.sampled_from(["drain", "fail_over"]))
    def drain(self, index, how):
        """Moved hosts keep row and freshness, unless held ones land."""
        server, shard = self.fed.server, self._shard(index)
        if shard.active and sum(s.active for s in server.shards) > 1:
            held = bool(shard.channel.held)
            before = {host: _row(shard.server, host)
                      for host in shard.hostnames}
            getattr(server, how)(shard.index)
            assert held or {host: _row(server.owner_of(host).server, host)
                            for host in before} == before
            assert not shard.active and (how == "drain" or (
                shard.health == DEAD
                and server.failovers[-1][1:3] == (shard.index, "manual")))

    @rule()
    def add_node(self):
        for cwx, _, agents in self.runs:
            agents.append(cwx.agents[cwx.add_node()])

    @rule(pick=st.integers(0, 63))
    def forget_node(self, pick):
        """A host forgotten while its agent reports on (``unrouted``)."""
        hosts = self.fed.server.managed_hostnames
        if len(hosts) > 2:
            host = hosts[pick % len(hosts)]
            self.silenced[host] = list(self.runs[1][1][0].get(host, ()))
            for cwx, _, _ in self.runs:
                cwx.server.forget_node(host)

    @rule(pick=st.integers(0, 63), kind=st.sampled_from(FaultKind.ALL))
    def node_fault(self, pick, kind):
        hosts = self.fed.server.managed_hostnames
        for cwx, _, _ in self.runs:
            cwx.inject_fault(hosts[pick % len(hosts)], kind)

    @rule(index=st.integers(0, 3), start=st.floats(0.0, 10.0),
          duration=st.floats(1.0, 40.0),
          kind=st.sampled_from([SHARD_HANG, LINK_DOWN, SHARD_SLOW]))
    def outage(self, index, start, duration, kind):
        self.plane.outage(self._shard(index).index,
                          self.fed.kernel.now + start, duration, kind)

    @rule(index=st.integers(0, 3), start=st.floats(0.0, 10.0),
          duration=st.one_of(st.none(), st.floats(1.0, 40.0)))
    def kill_shard(self, index, start, duration):
        self.plane.kill_shard(self._shard(index).index,
                              self.fed.kernel.now + start, duration)

    @invariant()
    def answers_as_one_server(self):
        server = self.fed.server
        assert ownership_partition(server) == []
        assert rollup_matches_parts(server) == []
        assert rollup_matches_parts(self.flat.server) == []
        assert empty_shards_not_stale(server) == []
        # the router holds an update no longer than the fail-over deadline
        window = server.monitor.down_after + server.monitor.interval
        assert all(not shard.channel.held or shard.channel.held[-1].time
                   - shard.channel.held[0].time <= window
                   for shard in server.shards)
        with self.state.lock:
            reused = self.state.publish_reuses
            view = self.state.refresh()
        # exempt a republished view: draining an unreachable shard that
        # owns no hosts moves no generation, so the same instant reuses it
        assert self.state.publish_reuses > reused or \
            view.hostnames == tuple(sorted(server.current_all()))
        assert published_view_immutable(view) == []

    def teardown(self):
        if not hasattr(self, "runs"):
            return
        for cwx, (seqs, _), agents in self.runs:  # the federation's last
            cwx.run(60.0)  # every outage over, every kill failed over
            ledger = ingest_counts(cwx.server, agents)
            assert updates_conserved(applied=sum(map(len, seqs.values())),
                                     **ledger) == []
        self.answers_as_one_server()
        server, flat = self.fed.server, self.flat.server
        # a killed shard was found dead; a drained one holds nothing
        assert all(shard.health == DEAD for shard in server.shards
                   if shard.active and shard.channel.killed)
        assert not any(shard.channel.held for shard in server.shards
                       if not shard.active)
        (_, flat_watches, _), (_, watches, _) = self.runs
        for host, seen in self.silenced.items():
            assert watches[0].get(host, []) == seen, host
        hosts = server.managed_hostnames
        if ledger["dropped_ingests"] == ledger["held"] == 0:
            for host in hosts:
                owner = server.owner_of(host).server
                assert [watch.get(host) for watch in watches] == \
                    [watch.get(host) for watch in flat_watches], host
                assert _row(owner, host) == _row(flat, host)
                assert _agent_history(owner, host) == \
                    _agent_history(flat, host), host
        check_routing_table(server, hosts[0], tuple(
            shard.index for shard in server.shards if not shard.channel.up))


TestFederationMachine = FederationMachine.TestCase

"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import pickle
import struct
from bisect import bisect_right
from collections import deque
from itertools import combinations, groupby
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
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
from repro.federation.channel import ShardChannel
from repro.federation.views import FederatedSnapshot, FederatedStore
from repro.gateway import BinaryWire, GatewayState, JsonWire
from repro.gateway.shell import _drain_buffer
from repro.gateway.wire import EVENT_SCHEMA, STATS_SCHEMA, SUMMARY_SCHEMA
from repro.hardware import (FaultKind, SimulatedNode, Workload,
                            WorkloadGenerator, WorkloadSegment)
from repro.icebox.security import IPFilter
from repro.monitoring import (BinaryCodec, Consolidator, HistoryStore,
                              Monitor, MonitorContext, NodeAgent, TextCodec,
                              builtin_registry)
from repro.monitoring.gathering import parse_apriori, parse_generic
from repro.monitoring.monitors import builtin_sample
from repro.procfs import ProcFilesystem
from repro.remote.nodeset import NodeSet
from repro.resilience.health import HealthState
from repro.sim import RandomStreams, SimKernel
from repro.util import ByteRingBuffer, TimeSeriesRing
from repro.util.ringbuffer import downsample, downsample_bytes, window
from tests.json_oracle import oracle_body
from tests.monitor_reference import REFERENCE, reference_values
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


ring_values = st.one_of(st.floats(-1e9, 1e9, allow_nan=False),
                        st.sampled_from([math.nan, math.inf, -math.inf]))


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


#: plug-in names that sort before, between and after the built-ins, and
#: built-in names to override or drop.
_plugin_names = st.sampled_from(["aa_quota", "disk_quota", "mem_zz",
                                 "zz_gpu"])
_any_names = st.one_of(_plugin_names, st.sampled_from(sorted(REFERENCE)))
#: what a plug-in returns: exact scalars (``0`` and ``0.0`` differ on the
#: text wire), a read of the context, or several values at once.
_plugin_values = st.sampled_from([0, 0.0, 1.5, "up", "t", "dict"])
registry_ops = st.one_of(
    st.tuples(st.just("add"), _any_names, _plugin_values),
    st.tuples(st.just("replace"), _any_names, _plugin_values),
    st.tuples(st.just("remove"), _any_names, st.none()),
)


def _plugin_fn(name, value):
    if value == "t":
        return lambda ctx: round(ctx.t, 3)
    if value == "dict":
        return lambda ctx: {name + "_a": 1, name + "_b": ctx.node.hostname}
    return lambda ctx: value


def _apply_op(registry, model, kind, name, value):
    """One registry operation, and the same one on the reference's
    ``name -> function`` map, as a per-monitor registry applies it: both
    must raise the same error or neither."""
    fn = _plugin_fn(name, value)
    outcomes = []
    for target in (registry, model):
        try:
            if kind == "remove":
                if target is model:
                    del model[name]
                else:
                    registry.remove(name)
            elif target is registry:
                getattr(registry, kind)(Monitor(name, fn, source="plugin"))
            elif kind == "add" and name in model:
                raise ValueError(name)
            else:
                model[name] = fn
        except (KeyError, ValueError) as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]


def _listed(values):
    # repr: 0 and 0.0 are equal but differ on the text wire.
    return [(k, repr(v)) for k, v in values.items()]


class TestSamplerOracle:
    """The one-call built-in sample against the reference model's
    per-monitor loop (``tests/monitor_reference.py``), on its own and
    under a plug-in overlay, and ``demand`` against an independent sum,
    over generated histories."""

    @given(st.lists(node_steps, min_size=1, max_size=25), st.booleans(),
           st.lists(st.tuples(st.integers(0, 24), registry_ops),
                    max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_fast_sampler_and_demand_match_their_oracles(
            self, steps, diskless, ops):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "oracle", node_id=11,
                             diskless=diskless)
        node.power_on()
        registry = builtin_registry()
        agent = NodeAgent(kernel, node, registry)
        model = dict(REFERENCE)
        for index, (kind, arg) in enumerate(steps):
            for at, op in ops:
                if at == index:
                    _apply_op(registry, model, *op)
            _apply_step(node, kind, arg)
            # kernel.now is, in turn, boot_completed_at, arbitrary
            # instants, and exact segment starts and ends.
            t = kernel.now
            ctx = MonitorContext(node=node, t=t)
            assert _listed(builtin_sample(ctx)) == \
                _listed(reference_values(REFERENCE, ctx))
            # Overrides win, dropped keys are absent, and the plug-ins'
            # keys (overrides included) follow the built-ins', in name
            # order.
            expected = _listed(reference_values(model, ctx))
            assert _listed(registry.evaluate_all(ctx)) == expected
            assert _listed(agent.evaluate()) == expected
            scanned = dict.fromkeys(
                ("cpu", "memory", "net_tx", "net_rx", "disk_read",
                 "disk_write"), 0.0)
            for seg in node.workload.active(t):
                for key in scanned:
                    scanned[key] += getattr(seg, key)
            scanned["memory"] = int(scanned["memory"])
            assert dict(node.workload.demand(t)) == scanned
        assert not agent.errors


#: the state a generated history ends in, and the step that takes a
#: freshly booted node there.
_END_STEPS = {"up": None, "hung": "hang", "off": "power_off",
              "crashed": "crash"}


def _both_forms(node, t):
    """The four reads the built-in sample takes with the running flag
    it read once: each ``t`` form, then each ``*_from`` form fed
    ``node.is_running(t)``.  Reprs, so that equal means bit for bit
    (``0.0`` and ``-0.0`` differ); a read that raises (a temperature
    before the thermal anchor) gives its exception type."""
    def read(fn, *args):
        try:
            return repr(fn(*args))
        except ValueError as exc:
            return type(exc)

    running = node.is_running(t)
    cpu, thermal = node.cpu, node.thermal
    return ([read(cpu.jiffies, t), read(cpu.loadavg, t),
             read(thermal.temperature, t), read(node.uptime, t)],
            [read(cpu.jiffies_from, running, t),
             read(cpu.loadavg_from, running, t),
             read(thermal.temperature_from, running, t),
             read(node.uptime_from, running, t)])


class TestReadOnceForms:
    """``CPU.jiffies_from``, ``CPU.loadavg_from``,
    ``ThermalModel.temperature_from`` and ``SimulatedNode.uptime_from``
    against their ``t`` forms, at the current instant and at instants
    around it (before the boot included), over generated histories
    that end with an ``hpc_job`` on a node UP, HUNG, OFF or CRASHED.
    ``TestSamplerOracle`` fences the whole sample; this fences each
    form on its own."""

    @given(st.floats(0.0, 100.0, allow_nan=False),
           st.lists(node_steps.filter(
               lambda step: step[0] not in ("psu_fail", "fan_failure")),
               max_size=12),
           st.tuples(_offsets, st.integers(1, 4), st.integers(0, 999)),
           st.sampled_from(sorted(_END_STEPS)),
           st.lists(st.floats(0.0, 300.0, allow_nan=False), max_size=3),
           st.lists(_offsets, min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_from_forms_equal_their_t_forms(
            self, boot_at, steps, job, end, advances, offsets):
        kernel = SimKernel()
        node = SimulatedNode(kernel, "oracle", node_id=11)
        kernel.run(until=boot_at)
        node.power_on()

        def check():
            now = kernel.now
            instants = [now] + [now + offset for offset in offsets]
            if node.boot_completed_at is not None:
                instants.append(node.boot_completed_at - 1.0)
            for t in instants:
                t_forms, from_forms = _both_forms(node, t)
                assert from_forms == t_forms, (node.state, t)

        for kind, arg in steps:
            _apply_step(node, kind, arg)
            check()
        # A fresh boot (no PSU or fan fault was generated, so it
        # succeeds), a job's segments, then the end state.
        node.power_off()
        node.power_on()
        _apply_step(node, "hpc_job", job)
        if _END_STEPS[end] is not None:
            _apply_step(node, _END_STEPS[end], None)
        assert node.state.value == end
        check()
        for step in advances:
            _apply_step(node, "advance", step)
            check()


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
    @example(8, [("extend", [0.1, 0.2, 0.4]), ("downsample", 1)])
    @example(8, [("extend", [1.0, math.nan, -math.inf, math.inf]),
                 ("downsample", 2)])
    @example(8, [("extend", [1.0, 2.0, 3.0]), ("downsample", 4),
                 ("downsample", 4), ("downsample", 4)])
    @example(8, [("extend", [-0.0]), ("downsample", 3)])
    @settings(max_examples=150, deadline=None)
    def test_timeseries_ring_matches_deque_model(self, cap, ops):
        """Any sequence of writes and reads agrees with a
        ``deque(maxlen=capacity)`` of pairs — through growth, the wrap
        seam and ``head == 0`` — and no read leaves the ``bytearray``
        exported (the growing ``append`` that follows would raise
        BufferError).  A downsample is the model's to the bit, NaN and
        infinities included: a mean whose last bit differs (the first
        example's ``0.7 / 3``) fails it; and the plain loop's over the
        series's bytes is numpy's to the bit, signed zeros and NaN
        payloads included (the third example reads 3, 4 and 5 samples
        into 4 buckets; in the fourth a lone ``-0.0`` has mean ``0.0``,
        each sum starting at ``0.0``, and minimum ``-0.0``)."""
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
                assert _same(zip(t.tolist(), v.tolist()), held)
                assert t.flags.c_contiguous and v.flags.c_contiguous
                assert t.flags.owndata and v.flags.owndata
            elif op == "latest":
                assert _same([ring.latest(series)], held[-1:] or [None])
            elif op == "window":
                t, v = window(*ring.arrays(series), *args)
                assert _same(zip(t.tolist(), v.tolist()), [
                    p for p in held if args[0] <= p[0] <= args[1]])
            else:
                got = [col.tolist()
                       for col in downsample(*ring.arrays(series), args[0])]
                want = _downsample_model(held, args[0])
                assert _same(zip(*got), zip(*want))
                assert _bits(downsample_bytes(bytes(series), args[0])) \
                    == _bits(got)
            assert ring.held(series) == len(model)
            (pair,) = write([float(len(held))])
            ring.append(series, *pair)  # must not raise: nothing exported
            model.append(pair)
        t, v = ring.arrays(series)
        assert _same(zip(t.tolist(), v.tolist()), model)

    @given(st.sampled_from([1, 2, 3, 8, 64]),
           st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.0, 2.75, 40.0]),
                              ring_values), max_size=70),
           st.integers(1, 70))
    @example(8, [(0.0, 1.0), (0.0, 2.0), (40.0, 3.0), (0.0, 4.0)], 5)
    @example(8, [(0.0, 0.0)] + [(0.0, 7.0)] * 5 + [(2.75, -0.0), (0.0, 1.0)],
             9)
    @settings(max_examples=150, deadline=None)
    def test_downsample_bytes_is_numpys_with_adopted_samples(
            self, cap, steps, buckets):
        """An adopted history appends samples older than the one before
        them — ``2.75`` s older falls inside the span, ``40`` s before
        it — and the loop bisects each of them: its columns are numpy's
        to the bit, and the model's while the ends ascend.  In the
        first example a sample from before the start falls in the first
        bucket; in the second an adopted ``-0.0`` joins the first
        bucket's ``0.0``, and its minimum and maximum are the later
        zero, as ``ufunc.at`` keeps it."""
        ring = TimeSeriesRing(cap)
        series = ring.new()
        pairs, clock = [], 0.0
        for older, value in steps:
            clock += 0.5
            pairs.append((clock - older, value))
        ring.extend(series, pairs)
        got = downsample_bytes(bytes(series), buckets)
        want = [col.tolist()
                for col in downsample(*ring.arrays(series), buckets)]
        assert _bits(got) == _bits(want)
        held = pairs[-cap:]
        if held and held[0][0] <= held[-1][0]:
            assert _same(zip(*got), zip(*_downsample_model(held, buckets)))

    def test_extend_rejects_a_ragged_pair(self):
        ring = TimeSeriesRing(4)
        with pytest.raises(ValueError):
            ring.extend(ring.new(), [(1.0, 2.0), (3.0,)])


def _same(got, want):
    """Equal rows of floats (or None), a NaN equal to a NaN and, by
    ``==``, 0.0 to -0.0: which zero a bin holding both reports is the
    ``ufunc``'s choice."""
    def key(row):
        return row and tuple("nan" if x != x else x for x in row)
    return list(map(key, got)) == list(map(key, want))


def _bits(columns):
    """Columns of floats as their bytes: equal only bit for bit, so a
    ``-0.0`` is not ``0.0`` and one NaN payload is not another."""
    return [struct.pack(f"<{len(column)}d", *column) for column in columns]


def _downsample_model(pairs, buckets):
    """Plain-loop (centers, mean, min, max) over equal time bins: each
    sum added up in sample order, a NaN in a bin its min and max."""
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

    def total(values):
        result = 0.0
        for value in values:
            result += value
        return result

    def extreme(pick, values):
        return nan if any(map(math.isnan, values)) else pick(values)

    return ([(a + b) / 2.0 for a, b in zip(edges, edges[1:])],
            [total(b) / len(b) if b else nan for b in bins],
            [extreme(min, b) if b else nan for b in bins],
            [extreme(max, b) if b else nan for b in bins])


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
#: characters, non-ASCII — and ``%`` and ``,``, format and separator
#: syntax to any writer that pastes pieces together.
_awkward_text = st.text(alphabet='ab_",\\%\x00\x1f\n\té€\U0001f600',
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
    """A GatewayState whose server is nothing but ``snapshot`` (and a
    bus nothing is published on)."""
    server = SimpleNamespace(
        store=SimpleNamespace(snapshot=lambda: snapshot,
                              generation=snapshot.generation),
        subscribe=StateStore().subscribe,
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


def _snapshot_over(hosts, shards, rnd, now):
    """Flat (``shards == 0``), or each host on a random one of
    ``shards`` parts."""
    if not shards:
        return Snapshot(hosts, 1, now, 1)
    parts = [{} for _ in range(shards)]
    for hostname, values in hosts.items():
        parts[rnd.randrange(shards)][hostname] = values
    return FederatedSnapshot([Snapshot(part, 1, now, 1) for part in parts])


def _check_table_bodies(snapshot, now, nodes, metrics):
    """The table iterates to the frames the route answered before, and
    both wires write it to those frames' bytes."""
    state = _state_over(snapshot, now)
    table = state.query(nodes, metrics)
    frames = _frames_before_tables(state.view, nodes, metrics)
    assert len(table) == len(frames)
    assert list(table) == frames
    assert JsonWire().encode(table) == JsonWire().encode(frames) \
        == oracle_body(frames)
    for wire in (BinaryWire(), BinaryWire(metric_schema=("cpu", "mem"))):
        assert wire.encode(table) == wire.encode(frames)


_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e300, 5e-324, 2.2250738585072014e-308 / 3]))
_wide_ints = st.one_of(st.integers(-2**70, 2**70), st.integers(2**63, 2**80))
#: one value a column writer must not write by its neighbours' type
#: (``int.__repr__(True)`` is ``1``, ``float.__repr__(nan)`` is ``nan``).
_odd_values = st.sampled_from([math.nan, math.inf, -math.inf, True, False,
                               None, _Int(2**64), _Float(0.5)])


@st.composite
def _column(draw, n_rows):
    """``n_rows`` values of one exact type — finite floats, ints or
    text — or finite floats or ints with one odd value among them."""
    kind = draw(st.sampled_from(["float", "int", "text", "mixed"]))
    values = draw(st.lists(
        {"float": _finite_floats, "int": _wide_ints, "text": _awkward_text,
         "mixed": st.one_of(_finite_floats, _wide_ints)}[kind],
        min_size=n_rows, max_size=n_rows))
    if kind == "mixed" and values:
        values[draw(st.integers(0, n_rows - 1))] = draw(_odd_values)
    return values


@st.composite
def _shared_field_hosts(draw):
    """Hosts that all hold one field set (the benchmark's shape): none,
    one or many rows, each field a :func:`_column`."""
    n_rows = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 30)))
    fields = draw(st.lists(_field_names, unique=True, min_size=1,
                           max_size=4))
    columns = [draw(_column(n_rows)) for _ in fields]
    return {f"n{row:02d}": {field: column[row]
                            for field, column in zip(fields, columns)}
            for row in range(n_rows)}, fields


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
        """Flat or split over shard parts, each host's fields drawn
        alone (partial rows, many groups)."""
        _check_table_bodies(_snapshot_over(hosts, shards, rnd, now), now,
                            ",".join(nodes) if nodes else None, metrics)

    @given(_shared_field_hosts(), st.integers(0, 3),
           st.randoms(use_true_random=False), st.booleans(),
           st.floats(0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_shared_field_set_bodies_are_the_frame_list_bodies(
            self, hosts_fields, shards, rnd, project, now):
        """Every host holds every field, so the rows are one group and
        each column is written by the writer its exact types pick: the
        benchmark's shape, with the odd values that must fall back."""
        hosts, fields = hosts_fields
        _check_table_bodies(_snapshot_over(hosts, shards, rnd, now), now,
                            None, fields if project else None)

    def test_view_after_a_fail_over_reads_as_the_owners(self):
        """Kill one of 8 shards and let the monitor detect and drain it.
        The drain deals the dead shard's hosts out one at a time, so
        sorted hosts change owner more often than there are shards; the
        view still answers every row as its owner does and writes the
        frame list's bodies."""
        cwx = ClusterWorX(n_nodes=64, seed=1610, monitor_interval=5.0,
                          topology="federation", shards=8)
        cwx.start()
        FaultPlane(cwx.kernel, federation=cwx.server).kill_shard(
            1, cwx.kernel.now + 1.0)
        cwx.run(40)
        server = cwx.server
        assert [row[1] for row in server.failovers] == [1]
        snapshot = server.store.snapshot()
        parts = [set(part) for part in snapshot._parts]
        assert all(a.isdisjoint(b) for a, b in combinations(parts, 2))
        hostnames = tuple(sorted(snapshot))
        assert len(hostnames) == 64
        assert len(list(groupby(hostnames, server.owner_of))) > 8
        read = {subject: dict(zip(names, row))
                for names, subjects, columns in snapshot.columns(hostnames)
                for subject, *row in zip(subjects, *columns)}
        for hostname in hostnames:
            owned = dict(server.owner_of(hostname).server.store.get(hostname))
            assert dict(snapshot[hostname]) == read[hostname] == owned
        for nodes in (None, "cluster-n[0005-0040]",
                      "cluster-n[0003,0020-0024,9999]"):
            for metrics in (None, ["cpu_util_pct", "mem_used_bytes", "x"]):
                _check_table_bodies(snapshot, cwx.kernel.now, nodes,
                                    metrics)



# ---------------------------------------------------------------------------
# frame lists: JsonWire's column-wise body == the stdlib encoder's
# ---------------------------------------------------------------------------

#: a frame's ``t``: finite floats (the ``"%.3f"`` path, unless one is
#: 1e11 or more), any floats, ints and odd numbers.
_frame_times = st.one_of(
    st.floats(-1e12, 1e12), st.floats(), _wide_ints,
    _odd_values.filter(lambda value: value is not None),
    st.sampled_from([0.0005, -0.0005, 2.0625, 99999999999.9995, -0.0]))


@st.composite
def _frame_run(draw):
    """Frames whose values have one key set (a run, as history rows
    are): ``str`` or ``int`` keys, each field a :func:`_column` or any
    values, in one insertion order or each frame its own."""
    n_rows = draw(st.integers(1, 12))
    names = draw(st.one_of(
        st.lists(_field_names, unique=True, max_size=4),
        st.lists(st.integers(-3, 12), unique=True, min_size=1,
                 max_size=3)))
    columns = [draw(st.one_of(
        _column(n_rows), st.lists(_table_values, min_size=n_rows,
                                  max_size=n_rows)))
               for _ in names]
    kinds = draw(st.one_of(
        st.builds(lambda kind: [kind] * n_rows,
                  st.sampled_from(["history", "event", "host"])),
        st.lists(_awkward_text, min_size=n_rows, max_size=n_rows)))
    subjects = draw(st.lists(st.one_of(_host_names, st.integers(0, 9)),
                             min_size=n_rows, max_size=n_rows))
    times = draw(st.one_of(
        st.lists(st.floats(0, 1e6), min_size=n_rows, max_size=n_rows),
        st.lists(_frame_times, min_size=n_rows, max_size=n_rows)))
    reorder = draw(st.booleans())
    frames = []
    for row in range(n_rows):
        items = [(name, column[row]) for name, column in zip(names, columns)]
        if reorder and draw(st.booleans()):
            items.reverse()
        frames.append((kinds[row], subjects[row], times[row], dict(items)))
    return frames


class TestJsonListBodies:
    @given(st.lists(_frame_run(), max_size=4), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_list_body_is_the_stdlib_encoders(self, runs, cut):
        """Runs of frames with one key set each, then cut to none, one
        or all of their frames: NaN and infinities, bools and None, int
        and float subclasses, escaped and non-ASCII text, plug-in lists
        and dicts, ``int`` keys."""
        frames = [frame for run in runs for frame in run]
        frames = [frames[:0], frames[:1], frames][cut]
        assert JsonWire().encode(frames) == oracle_body(frames)

    @given(st.lists(st.floats(), min_size=2, max_size=40),
           st.floats(-1e11, 1e11))
    @settings(max_examples=300, deadline=None)
    def test_rounded_times_are_written_as_round_writes_them(self, times,
                                                           shift):
        """The ``t`` column of history rows, every float a candidate:
        what ``"%.3f"`` writes must be ``round(t, 3)``'s repr."""
        frames = [("history", "n1/cpu", t + shift if math.isfinite(t)
                   else t, {"mean": t}) for t in times]
        assert JsonWire().encode(frames) == oracle_body(frames)


# ---------------------------------------------------------------------------
# the all-hosts body JsonWire keeps: a long-lived wire writes what a fresh
# one writes, on every view of a changing world
# ---------------------------------------------------------------------------

_MEMO_FIELDS = ("cpu", "mem", "temp")
#: stands for the world's one mutable plug-in value (a list).
_PLUG = "<plug>"
_memo_values = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.text(alphabet='a"\\\x1fé', max_size=3), st.just(_PLUG))
_host_index = st.integers(0, 9)
_part_index = st.integers(0, 2)
_set_step = st.tuples(st.just("set"), _host_index,
                      st.sampled_from(_MEMO_FIELDS + ("plug", "other")),
                      _memo_values)
#: a shard unreachable for 1 to 4 steps
_outage_step = st.tuples(st.just("outage"), _part_index, st.integers(1, 4))
#: the steps that keep the hostnames tuple (the log's path) drawn more
#: often than those that replace it.
_memo_step = st.one_of(
    _set_step, _set_step, _set_step,
    st.tuples(st.just("resend"), _host_index),
    st.tuples(st.just("add"), _host_index),
    st.tuples(st.just("remove"), _host_index),
    st.tuples(st.just("project"), st.one_of(st.none(), st.lists(
        st.sampled_from(_MEMO_FIELDS + ("plug", "gone")), min_size=1,
        max_size=3))),
    st.tuples(st.just("nodes"), st.lists(_host_index, min_size=1,
                                         max_size=3)),
    st.tuples(st.just("plug"), _host_index),
    st.tuples(st.just("drain"), _part_index),
    _outage_step, _outage_step,
    st.tuples(st.just("stall"), st.integers(1, 4)),
    st.tuples(st.just("stall"), st.integers(1, 4)),
    st.tuples(st.just("publish")), st.tuples(st.just("publish")))
#: each step, and when the bodies are written: after the publish that
#: ends it, before (the serving thread reads mid-slice), or not at all.
_memo_steps = st.lists(st.tuples(_memo_step, st.sampled_from(
    ["after", "after", "before", "none"])), min_size=10, max_size=30)


class _MemoWorld:
    """Hosts in real state stores, published through a gateway state:
    one store, or (``shards``) one per stub shard under a federated
    store, each shard's channel taken down by an outage while its store
    still takes writes (the sweep's) until it ends.  A drain moves a
    part's hosts silently, as the federation's does.  It is also the
    clock, and it keeps what the change log must say: every update
    applied, and where each published view's updates begin."""

    def __init__(self, n_hosts, shards):
        self.now = 0.0
        self.plug = [0]
        self.stores = [StateStore() for _ in range(max(shards, 1))]
        self.part = {}
        self.shards = [SimpleNamespace(index=i, name=f"s{i}", active=True,
                                       server=SimpleNamespace(store=store))
                       for i, store in enumerate(self.stores)]
        for shard in self.shards:
            shard.channel = ShardChannel(self, shard)
        store = FederatedStore(
            self.shards, lambda hostname: self.shards[self.part[hostname]]
            if hostname in self.part else None) if shards \
            else self.stores[0]
        #: (hostname, keys) of every update applied, in order.
        self.applied = []
        for i in range(n_hosts):
            self._write(f"n{i}", {"cpu": i / 3, "mem": 2**40 + i,
                                  "temp": 30.0 + i})
        self.state = GatewayState(SimpleNamespace(
            store=store, kernel=self, subscribe=store.subscribe,
            cluster_summary=dict,
            engine=SimpleNamespace(active_events=tuple),
            degraded_info=lambda: {"degraded": False}))
        #: view number -> len(applied) when it was published.
        self.published = {0: len(self.applied)}

    def _write(self, hostname, values):
        part = self.part.setdefault(hostname,
                                    int(hostname[1:]) % len(self.stores))
        self.stores[part].apply(Update(hostname, self.now, values))
        self.applied.append((hostname, set(values)))

    def changed(self, first, last, fields):
        """The hosts an update on ``fields`` reached between views."""
        return {hostname for hostname, keys in self.applied[
            self.published[first]:self.published[last]] if keys & fields}

    def apply(self, step):
        kind, *args = step
        hosts = sorted(self.part)
        host = hosts[args[0] % len(hosts)] if hosts and kind in (
            "set", "plug", "resend", "remove") else None
        if kind == "plug" and host:         # a plug-in's list in a column
            self._write(host, {"cpu": self.plug})
        elif kind == "set" and host:
            field, value = args[1:]
            self._write(host, {field: self.plug if value == _PLUG
                               else value})
        elif kind == "resend" and host:     # equal values, new objects
            row = self.stores[self.part[host]].get(host)
            self._write(host, pickle.loads(pickle.dumps(dict(row))))
        elif kind == "add" and f"n{args[0]}" not in self.part:
            self._write(f"n{args[0]}", {"cpu": 0.5, "mem": 7,
                                        "temp": 1e300})
        elif kind == "remove" and host:
            self.stores[self.part.pop(host)].forget(host)
        elif kind == "drain" and len(self.stores) > 1:
            source = args[0] % len(self.stores)
            target = (source + 1) % len(self.stores)
            for hostname in sorted(self.part):
                if self.part[hostname] == source:
                    row = dict(self.stores[source].get(hostname))
                    self.stores[source].forget(hostname)
                    self.stores[target].restore(hostname, row,
                                                time=self.now)
                    self.part[hostname] = target
        elif kind == "outage":
            self.shards[args[0] % len(self.shards)].channel.down_until = \
                self.now + 1.25 * args[1]
        elif kind == "stall":
            self.state.stall(self.now + 1.25 * args[0])

    def publish(self):
        self.now += 1.25
        with self.state.lock:
            view = self.state.refresh()
        self.published.setdefault(view.number, len(self.applied))


#: the steps around the change log alone: writes on the fields a body
#: projects, outages, stalls, projection switches and bare publishes.
#: (drawn uniformly: an outage must outlast a write and a body on its
#: shard, which small-value shrinking toward 0 and 1 rarely lines up)
_log_write = st.tuples(st.just("set"), st.sampled_from(range(6)),
                       st.sampled_from(_MEMO_FIELDS), st.floats(-10, 10))
_log_outage = st.tuples(st.just("outage"), st.sampled_from(range(3)),
                        st.sampled_from(range(1, 6)))
_log_step = st.one_of(
    _log_write, _log_write, _log_outage, _log_outage,
    st.tuples(st.just("stall"), st.integers(1, 4)),
    st.tuples(st.just("project"), st.lists(st.sampled_from(_MEMO_FIELDS),
                                           min_size=1, max_size=3)),
    st.tuples(st.just("publish")))


def _replay(world, metrics, steps):
    """Write the bodies of ``steps`` with one long-lived wire: each must
    be a fresh wire's and the frame list's, and each change log answer
    the hosts an update on the fields reached between the two views.
    Each all-hosts body is written twice: the second is equal, and is
    the first object whenever the wire found nothing changed."""
    wire = JsonWire()
    for step, when in [(("publish",), "after"), *steps]:
        world.apply(step)
        if step[0] == "project":
            metrics = step[1]
        queries = [None]
        if step[0] == "nodes":
            queries.insert(0, ",".join(f"n{i}" for i in step[1]))
        if when != "before":
            world.publish()
        for nodes in queries if when != "none" else ():
            table = world.state.query(nodes, metrics)
            memo = wire._memo
            if table.changed_since is not None and memo is not None \
                    and memo.number is not None:
                changed = table.changed_since(memo.number)
                assert changed is None or changed == world.changed(
                    memo.number, table.number, set(table.fields))
            body = wire.encode(table)
            assert body == JsonWire().encode(table)
            assert body == JsonWire().encode(list(table)) \
                == oracle_body(list(table))
            if table.number is not None:
                kept = wire._memo
                again = wire.encode(table)
                assert again == body
                if kept is not None and kept.body is body \
                        and wire._memo.pieces is kept.pieces:
                    assert again is body
        if when == "before":
            world.publish()


class TestJsonWireMemo:
    @given(st.integers(0, 6), st.sampled_from([0, 2, 3]),
           st.lists(st.sampled_from(_MEMO_FIELDS), min_size=1, max_size=3),
           _memo_steps)
    # A shard's store written while it is down, then back.
    @example(4, 2, ["temp"], [(("publish",), "after")] * 2 + [
        (("outage", 1, 3), "after"), (("set", 1, "temp", 1.5), "after"),
        (("publish",), "after")])
    # A write read mid-slice by the query that asks for its field.
    @example(3, 0, None, [(("project", ["mem"]), "none"),
                          (("set", 0, "mem", 2), "before"),
                          (("publish",), "after")])
    # A write the view has not published yet.
    @example(3, 0, ["cpu"], [(("publish",), "after")] * 2 + [
        (("set", 2, "cpu", 0.5), "before")])
    @settings(max_examples=300, deadline=None)
    def test_long_lived_wire_writes_what_a_fresh_one_writes(
            self, n_hosts, shards, metrics, steps):
        """One wire kept across every view of a generated history —
        values changed, kept, or re-sent equal as new objects, on
        projected fields or others; hosts added and removed; projections
        switched; NodeSet queries in between; a plug-in's list in a
        column; a shard's hosts drained onto another part; a
        shard down while its store takes writes, then back; publication
        stalled; several publishes between two bodies — writes every
        all-hosts and NodeSet body exactly as a fresh wire and the frame
        list do.  Whenever the change log answers, it names exactly the
        hosts an update on the fields reached between the two views."""
        _replay(_MemoWorld(n_hosts, shards), metrics, steps)

    @given(st.integers(2, 6), st.sampled_from([0, 2, 3]),
           st.lists(st.tuples(_log_step, st.sampled_from(
               ["after", "after", "before", "none"])),
               min_size=4, max_size=20))
    @settings(max_examples=1000, deadline=None)
    def test_log_histories_write_what_a_fresh_wire_writes(
            self, n_hosts, shards, steps):
        """The same over histories of the change log's own hazards only
        — writes on the projected fields during outages and stalls,
        bodies mid-slice, projection switches — where membership never
        changes, so the kept body stays on the log's path."""
        _replay(_MemoWorld(n_hosts, shards), list(_MEMO_FIELDS), steps)


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


#: the all-hosts queries a long-lived wire writes beside a fresh one: the
#: benchmark's projection (``benchmarks/perf/workloads.py``), a second
#: one, and every field.
_GATEWAY_QUERIES = (["cpu_util_pct", "cpu_temp_c", "mem_used_bytes"],
                    ["load_1min", "mem_free_bytes", "node_state"], None)


def _write_path(wire, table):
    """How ``wire`` writes ``table``'s all-hosts body, as an event
    label: the kept one's rows (same view), from the change log (and
    whether it names a row), or whole."""
    memo = wire._memo
    if memo is None or memo.subjects is not table.subjects \
            or memo.fields != table.fields:
        return "write: first body on these hosts and fields"
    if memo.number == table.number:
        return "write: same view"
    if table.changed_since is not None:
        changed = table.changed_since(memo.base)
        if changed is not None:
            return "write: log read, " + (
                "rows changed" if changed else "no row changed")
    return "write: whole, the log cannot answer"


@settings(max_examples=60, stateful_step_count=10, deadline=None)
class FederationMachine(RuleBasedStateMachine):
    """A federation under operators and control-plane faults, fail-over
    on or off, beside a flat server given the same nodes, node faults
    and membership and jobs, with a gateway publishing the federation.
    After every step the invariants hold, and after every slice of a run
    a long-lived JSON wire per all-hosts query writes what a fresh one
    writes.  At the end every agent update is conserved and a forgotten
    host's watch fell silent; when none was dropped, each host's agent
    seqs (cluster-wide and host-filtered watch), row, freshness and
    agent-written history equal the flat run's — across a fail-over by
    declared assumption A1 (``repro.faults.invariants``) — and every
    routing-table entry answers its declaration."""

    @initialize(seed=st.integers(0, 2**16), n_nodes=st.integers(4, 12),
                shards=st.integers(2, 4),
                auto_failover=st.sampled_from([True, True, False]),
                job=st.integers(0, 2**16))
    def build(self, seed, n_nodes, shards, auto_failover, job):
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
        self.readers = [(metrics, GatewayState(self.fed.server), JsonWire())
                        for metrics in _GATEWAY_QUERIES]
        self.silenced = {}
        self.load(job, job)
        self.load(job + 1, job)

    def _shard(self, index):
        return self.fed.server.shards[index % len(self.fed.server.shards)]

    @rule(seconds=st.floats(1.0, 30.0))
    def run(self, seconds):
        """In slices of at most 5 s, the gateway's wires read after each
        (the monitor interval: a slice moves a loaded node's row once)."""
        while seconds > 0:
            for cwx, _, _ in self.runs:
                cwx.run(min(seconds, 5.0))
            seconds -= 5.0
            self.long_lived_wires_write_fresh_bodies()

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
                shard.health == HealthState.DRAINED
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

    @rule(pick=st.integers(0, 63), seed=st.integers(0, 2**16))
    def load(self, pick, seed):
        """The same job, from now on, on the same node of both runs."""
        hosts = self.fed.server.managed_hostnames
        for cwx, _, _ in self.runs:
            job = WorkloadGenerator(np.random.default_rng(seed)).hpc_job(
                cwx.kernel.now, phases=6, phase_duration=(10.0, 40.0))
            cwx.cluster.node(hosts[pick % len(hosts)]).workload.extend(job)

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

    def long_lived_wires_write_fresh_bodies(self):
        for metrics, state, wire in self.readers:
            with state.lock:
                state.refresh()
            for _ in range(2):              # the second on the same view
                table = state.query(None, metrics)
                event(_write_path(wire, table))
                assert wire.encode(table) == JsonWire().encode(
                    list(table)) == oracle_body(list(table))

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
        # a killed shard was found down; a drained one holds nothing
        assert all(shard.health == HealthState.DOWN
                   for shard in server.shards
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

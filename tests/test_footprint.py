"""Deterministic footprint guards for what the process keeps per node.

RSS and wall time are not assertable in tier-1; allocation sizes, object
counts and executed-bytecode counts are.  The byte ceilings sit about a
third above what the layouts measure here per node — 5.7 KB history +
ring, 0.18 KB event engine, 1.6 KB consolidator — so a return of
per-value objects, key tuples (19.1 and 6.1 KB), a second value table
per agent (3.1 KB) or an engine copy of the store's rows (1.8 KB) fails
here before it shows up as `peak_rss_mb` in the repo benchmark.  The collector-tracked object count is what every full
collection, and so every build, walks: 50 per node, with its ceiling a
third above too.  It was 99 with each of a node's 46 history series an
`array` subclass (CPython tracks every instance of a class; a series is
now a plain `bytearray`, which it never tracks) and 140 with a wrapper
beside every ring buffer and a finished boot process kept per node.
`make mem-ledger` prints the full tables these rows come from.

The last guard is the per-update path's: a steady-state agent tick runs
no collection of any generation and a handful of kernel events.  One
timer, closure and callback list per monitoring datagram (about ten
collector-tracked objects each, all alive until the clock moved) gave one
kernel event per update and ~20 gen-0 plus 2 gen-1 collections per
2 000-node tick.  The serving side's one O(N) request, an all-hosts
`/v1/query`, holds the same line: no collection while it is answered,
and, for hosts that share their fields, no Python step per row.
"""

import gc
import os
import sys
import tracemalloc
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from repro import ClusterWorX
from repro.core.server import CONSOLE_KEPT
from repro.core.statestore import Snapshot
from repro.events import EventEngine, ThresholdRule
from repro.events.engine import FiredEvent
from repro.federation import FederatedSnapshot
from repro.gateway import GatewayState, JsonWire, build_router, parse_request
from repro.gateway.wire import FrameTable
from repro.monitoring import (HistoryStore, Monitor, NodeAgent,
                              builtin_registry)
from repro.monitoring.agent import ERRORS_KEPT
from repro.sim.kernel import Process
from repro.util import RecordLog, TimeSeriesRing
from repro.util.ringbuffer import downsample
from tests.json_oracle import oracle_body

N_NODES = 200
INTERVAL = 5.0
HISTORY_FILES = ("monitoring/history.py", "util/ringbuffer.py")
ENGINE_FILES = ("events/engine.py",)
AGENT_FILES = ("monitoring/consolidation.py",)


def _kb_per_node(snapshot, suffixes):
    total = sum(stat.size for stat in snapshot.statistics("filename")
                if stat.traceback[0].filename.replace("\\", "/")
                .endswith(suffixes))
    return total / 1024 / N_NODES


def _warm_cluster(n_nodes, intervals=2.5):
    """The repo benchmark's ``steady_*`` shape, by default run through
    the boot tick and two more."""
    cwx = ClusterWorX(n_nodes=n_nodes, seed=1610, self_healing=True,
                      monitor_interval=INTERVAL)
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=85.0, action="none")
    cwx.start()
    cwx.run(intervals * INTERVAL)
    gc.collect()
    return cwx


def test_server_state_per_node_stays_small():
    tracemalloc.start()
    try:
        cwx = _warm_cluster(N_NODES)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert min(a.samples_taken for a in cwx.agents.values()) == 3
    assert _kb_per_node(snapshot, HISTORY_FILES) <= 7.6
    assert _kb_per_node(snapshot, ENGINE_FILES) <= 0.24
    assert _kb_per_node(snapshot, AGENT_FILES) <= 2.2


def test_collector_tracked_objects_per_node_stay_few():
    """What one more node adds to every full collection's walk, as the
    difference of two cluster sizes; and nothing finished is kept — no
    ``boot:*`` process outlives its node's boot."""
    sizes = (100, 300)
    _warm_cluster(8)    # what only the first build in a process allocates
    counts = [len(gc.get_objects())]
    clusters = []
    for n_nodes in sizes:
        clusters.append(_warm_cluster(n_nodes))
        counts.append(len(gc.get_objects()))
    small, large = (after - before
                    for before, after in zip(counts, counts[1:]))
    assert (large - small) / (sizes[1] - sizes[0]) <= 67
    assert not [p.name for p in gc.get_objects()
                if isinstance(p, Process) and p.name.startswith("boot:")]


@pytest.fixture(scope="module")
def fleet():
    """2 000 nodes past warm-up: rings and deltas settle."""
    return _warm_cluster(2000, 3.5)


def test_history_series_are_not_collector_tracked(fleet):
    """Every series the warm fleet recorded is a plain ``bytearray``,
    which no collection walks: 46 per node that an ``array`` subclass,
    slots or not, put on every collection's list."""
    tables = fleet.server.history._series
    assert len(tables) == 2000
    series = [kept for table in tables.values() for kept in table.values()]
    assert len(series) == 46 * 2000
    assert {type(kept) for kept in series} == {bytearray}
    assert {gc.is_tracked(kept) for kept in series} == {False}


@contextmanager
def _collections():
    """Collections per generation while the ``with`` body runs."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        yield counts
    finally:
        gc.callbacks.remove(count)


@pytest.fixture(scope="module")
def steady_ticks(fleet):
    """Three steady-state agent ticks of 2 000 nodes: collections per
    generation over the whole window, and per tick (kernel events,
    distinct frame sizes sent)."""
    ticks = 3
    cwx = fleet
    agents = list(cwx.agents.values())
    per_tick = []
    with _collections() as collections:
        for _ in range(ticks):
            sent = [a.transmitter.bytes_sent for a in agents]
            events = cwx.kernel.events_processed
            cwx.run(INTERVAL)
            per_tick.append((
                cwx.kernel.events_processed - events,
                len({a.transmitter.bytes_sent - before
                     for a, before in zip(agents, sent)})))
    assert min(a.samples_taken for a in agents) >= 3 + ticks
    return collections, per_tick


def test_steady_tick_runs_no_collection(steady_ticks):
    collections, _ = steady_ticks
    assert collections == [0, 0, 0]


def test_steady_tick_costs_one_kernel_event_per_frame_size(steady_ticks):
    """One delivery timer per distinct frame size, plus the cohort's own
    timer and the sweep's — not one event per update."""
    _, per_tick = steady_ticks
    for events, frame_sizes in per_tick:
        assert events <= frame_sizes + 4


@pytest.mark.parametrize("metrics", [
    "?metrics=cpu_util_pct,cpu_temp_c,mem_used_bytes", ""])
def test_all_hosts_query_runs_no_collection(fleet, metrics):
    """One all-hosts JSON ``/v1/query``, handler and encode, keeps no
    collector-tracked object per row alive: the body is written straight
    off the snapshot.  Row tuples, projected dicts, frames and the
    encoder's per-frame objects, all alive until the body was built,
    ran 13 gen-0 and 1 gen-1 collections here."""
    router = build_router(GatewayState(fleet.server), dict)
    request = parse_request(
        f"GET /v1/query{metrics} HTTP/1.1\r\n\r\n".encode("latin-1"))
    route, params = router.resolve(request.path)
    wire = JsonWire()
    gc.collect()
    with _collections() as collections:
        body = wire.encode(route.handler(request, params)[1])
    assert body.count(b'"kind":"host"') == 2000
    assert collections == [0, 0, 0]


def _bytecodes_executed(fn, *args):
    """How many bytecodes ``fn(*args)`` runs in Python frames, with the
    collector off: the Python callbacks a collection runs (Hypothesis
    registers one) are not the code measured."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


def _filled(n_hosts, kernel, make_node_set):
    history = HistoryStore()
    engine = EventEngine(kernel)
    engine.add_rule(ThresholdRule(name="hot", metric="m0", op=">",
                                  threshold=0.5, action="none",
                                  notify=False))
    values = {f"m{i}": float(i) for i in range(40)}
    for node in make_node_set(n_hosts):
        history.record(node.hostname, 1.0, values)
        engine.feed(node, values, values)
    return history, engine


@pytest.mark.parametrize("operation", [
    lambda history, engine: history.export_host("n003"),
    lambda history, engine: history.forget("n003"),
    lambda history, engine: engine.forget_node("n003"),
], ids=["export_host", "forget", "forget_node"])
def test_one_hosts_work_does_not_grow_with_the_fleet(
        operation, kernel, make_node_set):
    """Dropping or exporting one host touches that host's table only:
    the same bytecode count beside 9 other hosts as beside 199.  (The
    flat ``{(host, metric): …}`` maps scanned every key of every host;
    their comprehension kept only the matches, so allocation alone could
    not see it — executed work can.)"""
    small = _bytecodes_executed(
        operation, *_filled(10, kernel, make_node_set))
    large = _bytecodes_executed(
        operation, *_filled(N_NODES, kernel, make_node_set))
    assert 0 < small == large


def _three_metric_table(n_hosts, n_parts=0):
    """An all-hosts table of the benchmark's three metrics, over a flat
    snapshot or, with ``n_parts``, over a federated view whose hosts are
    dealt round-robin over that many parts: the owner map a fail-over's
    drain leaves, where neighbouring hosts have different owners."""
    hosts = {f"n{i:05d}": {"cpu_util_pct": i / 7, "cpu_temp_c": 30.0 + i,
                           "mem_used_bytes": 2**33 + i}
             for i in range(n_hosts)}
    if n_parts:
        names = list(hosts)
        snapshot = FederatedSnapshot([
            Snapshot({h: hosts[h] for h in names[k::n_parts]}, 1, 1.0, 1)
            for k in range(n_parts)])
    else:
        snapshot = Snapshot(hosts, 1, 1.0, 1)
    return FrameTable("host", 1.0, tuple(sorted(hosts)), snapshot,
                      ("cpu_temp_c", "cpu_util_pct", "mem_used_bytes"))


def test_all_hosts_table_is_written_without_a_python_step_per_row():
    """Reading and writing a table whose hosts share one field set is a
    fixed number of Python steps and C passes over the rows: the same
    bytecode count for 10 rows as for 2 000.  (The row writer ran a
    template lookup and a value writer per row.)"""
    encode = JsonWire().encode
    small = _bytecodes_executed(encode, _three_metric_table(10))
    large = _bytecodes_executed(encode, _three_metric_table(2000))
    assert 0 < small == large


def test_dealt_federated_table_is_written_without_a_python_step_per_row():
    """The same over 7 parts with the hosts dealt among them.  (The
    federated view read each run of one owner's hosts on its own: a part
    read, group and merge per host once they are dealt.)"""
    encode = JsonWire().encode
    small = _bytecodes_executed(encode, _three_metric_table(10, 7))
    large = _bytecodes_executed(encode, _three_metric_table(2000, 7))
    assert 0 < small == large


def _history_frames(n_rows):
    """``n_rows`` frames as the graph route answers a series: bin
    centers, and every bin but the first empty (NaN)."""
    nan = float("nan")
    return [("history", "n0001/cpu_util_pct", 24.868 + row / 60,
             {"mean": 0.01, "min": 0.01, "max": 0.01} if not row
             else {"mean": nan, "min": nan, "max": nan})
            for row in range(n_rows)]


def test_history_list_is_written_without_a_python_step_per_frame():
    """A history body of 60 rows and one of the history's 4 096 run the
    same bytecodes: each field of the frames is one column written by
    one ``map``.  (Each frame was a dict for the stdlib encoder, and a
    NaN column fell back to a Python call per value.)"""
    encode = JsonWire().encode
    small = _bytecodes_executed(encode, _history_frames(60))
    large = _bytecodes_executed(encode, _history_frames(4096))
    assert 0 < small == large


def test_downsample_runs_the_same_bytecodes_for_any_bucket_count():
    """Bucketing is a fixed number of numpy calls: 2 bins and 600 run
    the same bytecodes.  (Each non-empty bin took two reductions in a
    Python loop.)"""
    ring = TimeSeriesRing(4096)
    series = ring.new()
    ring.extend(series, ((t * 0.5, float(t % 7)) for t in range(3000)))
    t, v = ring.arrays(series)
    few = _bytecodes_executed(downsample, t, v, 2)
    many = _bytecodes_executed(downsample, t, v, 600)
    assert 0 < few == many


def _numpy_calls(fn, *args):
    """The numpy functions and methods ``fn(*args)`` calls: a Python
    frame in numpy's package, or a C function numpy defines or that
    is bound to a numpy object (a ufunc object's own call is neither;
    every numpy path calls some of both)."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(
                _NUMPY_DIR):
            calls.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or \
                type(owner).__module__
            if module.startswith("numpy") or getattr(
                    owner, "__name__", "").startswith("numpy"):
                calls.append(arg.__name__)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


_NUMPY_DIR = os.path.dirname(np.__file__)


def test_a_graph_calls_no_numpy_function():
    """A graph is a plain loop over one ``bytes`` copy of the series,
    shorter than its buckets (the benchmark's one-sample
    ``cpu_util_pct`` in 60) or not: numpy's some twenty calls run cold
    after each sim slice.  The history's own graph takes numpy's path,
    which the probe sees."""
    cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
    cwx.start()
    cwx.run(20)
    state = GatewayState(cwx.server)
    host = cwx.cluster.hostnames[0]
    history = cwx.server.history
    assert len(history.series(host, "cpu_util_pct")[0]) == 1
    n = len(history.series(host, "uptime_seconds")[0])
    assert n > 2
    assert _numpy_calls(state.history_graph, host, "cpu_util_pct") == []
    for buckets in (2, n, n + 1):
        assert _numpy_calls(partial(state.history_graph, buckets=buckets),
                            host, "uptime_seconds") == []
    assert "linspace" in _numpy_calls(history.graph, host,
                                      "uptime_seconds", 2)


def _all_hosts(table, changed=None, t=None):
    """``table`` as the all-hosts table of view 1, or (``changed`` a
    count) of view 2 over the same hostnames tuple, with ``changed``
    rows' values replaced by new objects (every ``step``-th row, so the
    patched rows are spread), the change log naming them, and read at
    ``t`` (``table``'s when None)."""
    snapshot, moved, number = table.snapshot, (), 1
    if changed is not None:
        hosts = dict(snapshot._hosts)
        step = len(hosts) // max(changed, 1)
        moved = set(table.subjects[::step][:changed])
        for hostname in moved:
            hosts[hostname] = {field: value + 1
                               for field, value in hosts[hostname].items()}
        snapshot, number = Snapshot(hosts, 2, 2.0, 1), 2
    return FrameTable(table.kind, table.t if t is None else t,
                      table.subjects, snapshot, table.fields,
                      number=number,
                      changed_since={1: moved}.get)


def _second_body_bytecodes(n_hosts, changed, t=None):
    """Bytecodes of the next view's body written right after the one
    for the same hosts and fields, with ``changed`` rows' values new
    objects, read at ``t`` (the first body's when None)."""
    table = _all_hosts(_three_metric_table(n_hosts))
    wire = JsonWire()
    wire.encode(table)
    return _bytecodes_executed(wire.encode, _all_hosts(table, changed, t))


def test_unchanged_all_hosts_body_is_reused_without_a_python_step_per_row():
    """The next view's all-hosts body after one over the same hosts and
    fields, the change log naming no row, is the kept body: the same
    bytecode count for 10 rows as for 2 000."""
    small = _second_body_bytecodes(10, 0)
    large = _second_body_bytecodes(2000, 0)
    assert 0 < small == large


def test_changed_rows_are_patched_without_a_python_step_per_row():
    """Reading, writing and patching the k rows of 2 000 the change log
    names is a fixed number of Python steps: the same bytecode count for
    1 as for 500."""
    one = _second_body_bytecodes(2000, 1)
    many = _second_body_bytecodes(2000, 500)
    assert 0 < one == many


def test_a_filtered_table_leaves_the_kept_all_hosts_body():
    """A NodeSet-filtered table written between two all-hosts ones
    neither uses nor replaces the body the wire keeps: the next view's
    all-hosts body costs what it costs with nothing between."""
    table = _all_hosts(_three_metric_table(2000))
    wire = JsonWire()
    wire.encode(table)
    wire.encode(FrameTable(table.kind, table.t, table.subjects[:16],
                           table.snapshot, table.fields))
    assert _bytecodes_executed(wire.encode, _all_hosts(table, 0)) \
        == _second_body_bytecodes(2000, 0)


def test_next_views_body_is_joined_without_a_python_step_per_row():
    """The same on the next view, whose ``t`` differs, so the kept body
    cannot be handed back and the rows are joined again: a fixed number
    of Python steps with no row changed, 10 rows or 2 000, and with 1 or
    500 of 2 000 changed."""
    small = _second_body_bytecodes(10, 0, t=2.0)
    large = _second_body_bytecodes(2000, 0, t=2.0)
    assert 0 < small == large
    one = _second_body_bytecodes(2000, 1, t=2.0)
    many = _second_body_bytecodes(2000, 500, t=2.0)
    assert 0 < one == many


@pytest.mark.parametrize("n_hosts", [10, 2000])
def test_a_second_body_on_one_view_is_the_kept_body(n_hosts):
    """A second all-hosts query on the view the last body was written
    for gets that very body: no row is joined, encoded or copied."""
    table = _all_hosts(_three_metric_table(n_hosts))
    wire = JsonWire()
    body = wire.encode(table)
    assert wire.encode(table) is body
    assert wire.encode(_all_hosts(table)) is body
    assert body == JsonWire().encode(list(table)) \
        == oracle_body(list(table))


def test_the_kept_body_pins_no_value_it_wrote():
    """A wire that wrote, and keeps, the bodies of two views holds no
    reference to any value it wrote: every cell's reference count is
    what it was before."""
    first = _all_hosts(_three_metric_table(50))
    second = _all_hosts(first, 5)
    cells = [value for table in (first, second)
             for row in table.snapshot._hosts.values()
             for value in row.values()]
    before = list(map(sys.getrefcount, cells))
    wire = JsonWire()
    for table in (first, second, second):
        wire.encode(table)
    assert list(map(sys.getrefcount, cells)) == before


#: what ``bytes.join`` holds per piece while it joins (a ``Py_buffer``,
#: 80 bytes on 64-bit CPython), freed when the body is built.
JOIN_BYTES_PER_PIECE = 80


@pytest.mark.parametrize("n_fields", [3, 55])
def test_next_views_unchanged_body_is_one_copy(n_fields):
    """The body of the next view, no row changed since the last body
    (the change log names none), is the kept rows joined once, straight
    into the bytes sent: the traced peak is one body, ``bytes.join``'s
    table of its pieces and a quarter body to spare.  Joining a text
    body and encoding it held two bodies."""
    hosts = {f"n{i:05d}": {f"m{k:02d}": i / 7 + k for k in range(n_fields)}
             for i in range(2000)}
    subjects = tuple(sorted(hosts))
    tables = [FrameTable("host", float(number), subjects,
                         Snapshot(hosts, number, float(number), 1),
                         tuple(sorted(hosts[subjects[0]])),
                         number=number, changed_since={1: ()}.get)
              for number in (1, 2)]
    wire = JsonWire()
    wire.encode(tables[0])
    tracemalloc.start()
    try:
        body = wire.encode(tables[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert body == JsonWire().encode(list(tables[1])) \
        == oracle_body(list(tables[1]))
    assert peak < 1.25 * len(body) + JOIN_BYTES_PER_PIECE * len(subjects) \
        + 4096, (peak, len(body))


class _CountingRow(dict):
    """A host row that counts the cells read out of it."""

    reads = 0

    def __getitem__(self, key):
        _CountingRow.reads += 1
        return dict.__getitem__(self, key)


def _reads_after_a_body(n_hosts, changed):
    """Cells read writing the all-hosts body of the view after one the
    wire wrote over the same hosts and fields, when the change log names
    ``changed`` rows (every ``step``-th, their values new objects); the
    body must be the one a fresh wire writes."""
    first = _three_metric_table(n_hosts)
    rows = {hostname: _CountingRow(row)
            for hostname, row in first.snapshot._hosts.items()}
    subjects = first.subjects
    moved = set(subjects[::max(1, n_hosts // changed)][:changed]) \
        if changed else set()
    after = dict(rows)
    for hostname in moved:
        after[hostname] = _CountingRow(
            {field: value + 1 for field, value in rows[hostname].items()})
    tables = [FrameTable("host", float(number), subjects,
                         Snapshot(hosts, number, float(number), 1),
                         first.fields, number=number,
                         changed_since={1: moved}.get)
              for number, hosts in ((1, rows), (2, after))]
    wire = JsonWire()
    wire.encode(tables[0])
    _CountingRow.reads = 0
    body = wire.encode(tables[1])
    reads = _CountingRow.reads
    assert body == JsonWire().encode(tables[1])
    return reads


@pytest.mark.parametrize("n_hosts", [10, 2000])
def test_unchanged_logged_body_reads_no_row(n_hosts):
    """The all-hosts body after one over the same hosts and fields,
    with no change logged between their views, reads no cell at all:
    the rows are neither read nor compared."""
    assert _reads_after_a_body(n_hosts, 0) == 0


@pytest.mark.parametrize("changed", [1, 37, 500])
def test_logged_changes_cost_their_rows_reads(changed):
    """k rows named by the change log cost k reads per field, whatever
    the size of the table around them."""
    assert _reads_after_a_body(2000, changed) == 3 * changed


#: ``NodeAgent.evaluate``'s bytecodes on an idle built-in-only node (the
#: ``node`` fixture at t=60), counted under CPython 3.11: 1 541 at the
#: commit before the built-in set became one monitor (a hoisted sampler
#: beside 55 per-value lambdas), 1 540 while the sample still read the
#: running flag once per model, 1 459 since it reads it once.  Every
#: benchmark workload runs this path, so it may not grow.
BUILTIN_ONLY_EVALUATE_CEILING = 1459


def _idle_agent(kernel, node):
    kernel.run(until=60.0)
    return NodeAgent(kernel, node, builtin_registry())


def test_builtin_only_evaluate_runs_no_more_bytecodes_than_before(
        kernel, node):
    agent = _idle_agent(kernel, node)
    assert _bytecodes_executed(agent.evaluate) \
        <= BUILTIN_ONLY_EVALUATE_CEILING


#: Python calls (``sys.settrace`` "call" events: function entries and
#: generator resumes) per agent update over one cohort tick of a
#: 50-node idle cluster, sweep and kernel included, under CPython 3.11:
#: 108 while each update read the running flag six times, summed the CPU
#: overhead four times, wrapped its record in a frozen dataclass with a
#: ``__post_init__`` and asked every unfiltered subscriber ``wants()``;
#: 94 since.
IDLE_UPDATE_CALLS_CEILING = 94


def _calls_per_update(cwx):
    """Python calls per agent update over one cohort tick, with the
    collector off (its Python callbacks are not the code measured)."""
    agents = list(cwx.agents.values())
    before = sum(agent.samples_taken for agent in agents)
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(tracer)
    try:
        cwx.run(INTERVAL)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    updates = sum(agent.samples_taken for agent in agents) - before
    assert updates == len(agents)
    return calls / updates


def test_an_idle_update_makes_no_more_python_calls_than_pinned():
    """The per-update path of every benchmark workload: sample,
    consolidate, frame, send, merge, publish to history and the event
    engine.  Each input is read once and no check is restated per hop;
    a call creeping back in fails here before it costs throughput."""
    assert _calls_per_update(_warm_cluster(50)) \
        <= IDLE_UPDATE_CALLS_CEILING


def test_a_plugin_node_pays_the_builtin_sample_plus_its_plugin(
        kernel, node):
    """One trivial plug-in adds a fixed few dozen bytecodes to a tick,
    not a per-monitor loop over the built-ins (55 calls, ~3 650 more)."""
    agent = _idle_agent(kernel, node)
    builtin_only = _bytecodes_executed(agent.evaluate)
    agent.registry.add(Monitor("disk_quota", lambda ctx: 1))
    assert _bytecodes_executed(agent.evaluate) <= builtin_only + 60


# -- bounded logs ---------------------------------------------------------------

def _event_log_reader(topology, n_events):
    """``/v1/events/log?limit=100`` over a 4-node cluster whose fired
    log holds ``n_events`` events (split over the shards' logs on a
    federation), newest last."""
    options = ({"topology": "federation", "shards": 2}
               if topology == "federation" else {})
    cwx = ClusterWorX(n_nodes=4, seed=5, monitor_interval=30.0, **options)
    cwx.start()
    engines = ([shard.server.engine for shard in cwx.server.shards]
               if topology == "federation" else [cwx.server.engine])
    host = cwx.cluster.hostnames[0]
    for i in range(n_events):
        engines[i % len(engines)].fired.append(FiredEvent(
            time=float(i), rule="hot", node=host, value=1.0,
            action="none", action_ok=True))
    router = build_router(GatewayState(cwx.server), dict)
    request = parse_request(b"GET /v1/events/log?limit=100 HTTP/1.1\r\n\r\n")
    route, params = router.resolve(request.path)
    return partial(route.handler, request, params)


@pytest.mark.parametrize("topology", ["flat", "federation"])
def test_an_event_log_read_costs_its_limit_not_the_history(topology):
    """The read walks the log from its newest end and stops at the
    limit: the same bytecodes over 500 fired events as over 5 000 (it
    filtered every event ever fired, under the slice lock)."""
    small = _event_log_reader(topology, 500)
    large = _event_log_reader(topology, 5000)
    assert len(small()[1]) == len(large()[1]) == 100
    assert 0 < _bytecodes_executed(small) == _bytecodes_executed(large)


def _blocks(make):
    """The allocator blocks one ``make()`` result holds, each rounded up
    to pymalloc's 16-byte alignment (a second build, so a bound's class
    already exists)."""
    make()
    tracemalloc.start()
    try:
        kept = make()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    assert gc.is_tracked(kept)
    return [-(-trace.size // 16) * 16 for trace in traces]


@pytest.mark.parametrize("bound", [ERRORS_KEPT, CONSOLE_KEPT],
                         ids=["agent errors", "console archive"])
def test_a_fresh_per_node_log_takes_the_block_a_list_took(bound):
    """An agent's errors and a node's console archive exist once per
    node: a fresh one is one block of an empty list's size,
    collector-tracked like the list (a second field, or a ``__dict__``,
    would take a larger block)."""
    list_block = -(-sys.getsizeof([]) // 16) * 16
    assert _blocks(partial(RecordLog, bound)) == [list_block]

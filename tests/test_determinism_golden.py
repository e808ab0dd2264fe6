"""Determinism regression suite for the E16 hot path.

The hot path (timer-wheel kernel, shared agent scheduler, metric-indexed
event engine, hoisted builtin sampler) must stay
*observably invisible*: it replays, byte for byte, the golden traces
captured before it replaced the heap-only kernel, per-agent processes
and full rule scan.  See ``tests/goldentrace.py`` for the scenarios and
the trace format.  The inline oracles below were frozen from that
pre-overhaul machinery as reconstructed in-tree at commit c58187c, the
last one that could run it.
"""

import inspect

import pytest

from tests import goldentrace as gt
from tests.monitor_reference import REFERENCE, reference_values
from repro import ClusterWorX
from repro.core.statestore import StateStore
from repro.monitoring.monitors import MonitorContext
from repro.sim import SimKernel

# -- golden traces ---------------------------------------------------------
def test_monitoring_schedule_matches_golden():
    """Same seed => the exact pre-rework update/event schedule."""
    golden = gt.read_golden(gt.MONITORING_GOLDEN)
    assert gt.monitoring_trace() == golden


def test_chaos_report_matches_golden():
    """Same seed => the exact pre-rework chaos-campaign report."""
    golden = gt.read_golden(gt.CHAOS_GOLDEN)
    assert gt.chaos_trace() == golden


def test_first_and_last_subscribers_receive_one_update_sequence(
        monkeypatch):
    """Every subscriber sees the same updates in the same order.  A
    recorder subscribed as the store is built (ahead of the server's
    own consumers) and the golden recorder (subscribed last) must read
    the same trace: a health update a critical rule causes mid-delivery
    comes after the sweep update that caused it, for both."""
    first, stores = [], []
    build = StateStore.__init__

    def build_then_subscribe(store):
        build(store)
        stores.append(store)
        store.subscribe(lambda u: first.append(gt.update_line(u)),
                        name="first")

    monkeypatch.setattr(StateStore, "__init__", build_then_subscribe)
    last = [line for line in gt.monitoring_trace().splitlines()
            if line.startswith("U ")]
    names = [sub.name for sub in stores[0].subscriptions]
    assert len(stores) == 1 and names[0] == "first"
    assert names[-1] == "golden-trace"
    assert any(" health " in line for line in last)
    assert first == last


#: what the single-heap kernel logged for the scenario below.
HEAP_KERNEL_TIMER_LOG = [
    (1.0, "doomed"), (2.0, "doomed"), (3.0, "doomed"), (4.0, "doomed"),
    (5.0, "a"), (5.0, "b"), (5.0, "doomed"), (6.0, "doomed"),
    (7.0, "doomed"), (7.5, "c"), (8.0, "doomed"), (9.0, "doomed"),
    (10.0, "a"), (10.0, "b"), (10.0, "doomed"), (11.0, "doomed"),
    (12.0, "killed"), (15.0, "c"), (15.0, "a"), (15.0, "b"),
    (20.0, "a"), (20.0, "b"), (22.5, "c"), (25.0, "a"), (25.0, "b"),
    (30.0, "c"), (30.0, "a"), (30.0, "b"), (35.0, "a"), (35.0, "b"),
    (37.5, "c"), (40.0, "a"), (40.0, "b"), (45.0, "c"), (45.0, "a"),
    (45.0, "b"), (50.0, "a"), (52.5, "c"), (55.0, "a"), (60.0, "c"),
    (60.0, "a"),
]


def test_both_kernels_agree_on_interleaved_timers():
    """Directed cross-check: the wheel scheduler replays an interleaved
    mix of timeouts, processes, and a kill landing on a pending timeout
    in the order the heap scheduler did."""
    kernel = SimKernel()
    log = []

    def ticker(name, interval, stop_at):
        while kernel.now < stop_at:
            yield kernel.timeout(interval)
            log.append((kernel.now, name))

    kernel.process(ticker("a", 5.0, 60.0))
    kernel.process(ticker("b", 5.0, 45.0))
    kernel.process(ticker("c", 7.5, 60.0))

    def canceller():
        victim = kernel.process(ticker("doomed", 1.0, 60.0))
        yield kernel.timeout(12.0)
        victim.kill()
        log.append((kernel.now, "killed"))

    kernel.process(canceller())
    kernel.run(until=70.0)
    assert log == HEAP_KERNEL_TIMER_LOG


def test_knob_surface_is_pinned():
    """There is one hot path: none of these constructors carries an
    implementation switch, so a new knob is a conscious diff here."""
    from repro.core.server import ClusterWorXServer
    from repro.events.engine import EventEngine
    from repro.federation import FederationServer
    from repro.gateway import GatewayService, GatewayState, SimDriver
    from repro.gateway.metrics import GatewayMetrics
    from repro.monitoring.scheduler import AgentScheduler
    from repro.monitoring.transmission import TextCodec
    from repro.remote.engine import TaskEngine

    def keywords(cls):
        return set(inspect.signature(cls.__init__).parameters) - {"self"}

    assert keywords(ClusterWorX) == {
        "n_nodes", "seed", "name", "firmware", "monitor_interval",
        "deadband", "segment_capacity", "plugin_dir", "self_healing",
        "topology", "shards", "partition", "topology_options"}
    assert keywords(SimKernel) == {"start_time"}
    assert keywords(EventEngine) == {"kernel", "dispatcher", "notifier"}
    assert keywords(AgentScheduler) == {"kernel"}
    assert keywords(FederationServer) == {
        "kernel", "cluster", "shards", "registry", "notifier", "images",
        "shard_down_after", "auto_failover"}
    assert keywords(ClusterWorXServer) == {
        "kernel", "cluster", "registry", "notifier", "self_healing",
        "suspect_after", "down_after", "nodes", "images"}
    assert keywords(TaskEngine) == {
        "kernel", "cluster", "target", "fanout", "retries",
        "failure_policy", "rng"}
    assert keywords(TextCodec) == {"compress"}
    assert keywords(GatewayService) == {
        "server", "cluster", "host", "port", "policy", "max_watchers",
        "idle_timeout"}
    assert keywords(SimDriver) == {"server", "state"}
    assert keywords(GatewayState) == {"server", "resolver"}
    assert keywords(GatewayMetrics) == set()


# -- topology equivalence --------------------------------------------------
def test_monitoring_trace_single_shard_federation_is_flat():
    """A 1-shard federation must be *observably identical* to the flat
    topology: same golden update/event schedule, byte for byte."""
    golden = gt.read_golden(gt.MONITORING_GOLDEN)
    assert gt.monitoring_trace(topology="federation",
                               shards=1) == golden


def test_chaos_trace_single_shard_federation_is_flat():
    """Fault handling, recovery playbooks and notifications take the
    exact same path through one shard as through the flat server."""
    golden = gt.read_golden(gt.CHAOS_GOLDEN)
    assert gt.chaos_trace(topology="federation", shards=1) == golden


# -- satellite regressions -------------------------------------------------
def test_trigger_untriggered_source_raises():
    """Event.trigger() on a pending source must fail loudly, not
    propagate a bogus pending sentinel."""
    kernel = SimKernel()
    source = kernel.event()
    target = kernel.event()
    with pytest.raises(RuntimeError, match="source event not triggered"):
        target.trigger(source)
    # and the happy path still works
    source.succeed("payload")
    kernel.run()
    target.trigger(source)
    assert target.value == "payload"


def test_fast_sampler_matches_generic_loop():
    """Each agent's one-call built-in sample returns exactly what the
    reference model's per-monitor loop returns — same keys, same order,
    same values."""
    cwx = ClusterWorX(n_nodes=4, seed=99)
    cwx.start()
    cwx.run(12.5)
    cwx.inject_fault(cwx.cluster.hostnames[1], "fan_failure")
    cwx.run(20.0)
    for agent in cwx.agents.values():
        ctx = MonitorContext(node=agent.node, t=cwx.kernel.now)
        generic = reference_values(REFERENCE, ctx)
        values = agent.evaluate()
        assert list(values) == list(generic)
        assert values == generic
    assert not any(agent.errors for agent in cwx.agents.values())


def test_plugin_registration_keeps_builtin_sample_hoisted(node):
    """A node with a plug-in still takes every built-in value from one
    call of the built-in sample, and adds the plug-in's after it."""
    from repro.monitoring import Monitor, NodeAgent, builtin_registry

    registry = builtin_registry()
    registry.add(Monitor("custom_metric", lambda ctx: 1))
    calls = []
    sample = registry.sample
    registry.sample = lambda ctx: calls.append(ctx.t) or sample(ctx)
    values = NodeAgent(node.kernel, node, registry).evaluate()
    assert calls == [node.kernel.now]
    assert list(values)[-1] == "custom_metric"
    assert values["custom_metric"] == 1 and len(values) == len(registry)


def test_scheduler_matches_per_agent_processes():
    """One shared driver takes the samples N processes took: 13 per
    agent (t=0..60 at 5 s cadence)."""
    cwx = ClusterWorX(n_nodes=30, seed=5)
    cwx.start()
    cwx.run(60.0)
    assert [agent.samples_taken for agent in cwx.agents.values()] \
        == [13] * 30


def test_scheduler_prunes_stopped_agents():
    cwx = ClusterWorX(n_nodes=10, seed=5)
    cwx.start()
    cwx.run(10.0)
    assert cwx.scheduler.agent_count == 10
    cwx.remove_node(cwx.cluster.hostnames[0])
    cwx.run(10.0)
    assert cwx.scheduler.agent_count == 9


def test_reregistering_a_listed_agent_does_not_list_it_twice():
    """Stopped and re-registered between two ticks, an agent is still in
    its bucket: it is re-activated there, not appended a second time
    (which sampled it twice per interval forever)."""
    cwx = ClusterWorX(n_nodes=3, seed=5)
    cwx.start()
    cwx.run(2.0)
    agent = next(iter(cwx.agents.values()))
    taken = agent.samples_taken
    agent.stop()
    cwx.scheduler.register(agent)
    cwx.run(10.0)                       # two ticks of the 5 s cadence
    assert agent.running
    assert agent.samples_taken - taken == 2
    assert cwx.scheduler.agent_count == 3


#: what the parent of the one-sweep-order change (7361b86) logged for
#: the scenario below with the pass's updates collected and applied at
#: the end of the pass: fired events, the sentinel publishes with the
#: store generation each saw, and the summary.  Times are sim-seconds
#: after ``start()`` returns.
SWEEP_PASS_FIRED = [
    (20.0, "echo-lost", "cluster-n0001", 0, "reboot", True),
    (20.0, "crashed", "cluster-n0001", "crashed", "none", True),
    (20.0, "echo-lost", "cluster-n0002", 0, "reboot", True),
    (20.0, "echo-lost", "cluster-n0004", 0, "reboot", True),
    (20.0, "crashed", "cluster-n0004", "crashed", "none", True),
]
SWEEP_PASS_PUBLISHES = [
    (20.0, "cluster-n0001", 1, 28), (20.0, "cluster-n0002", 2, 29),
    (20.0, "cluster-n0004", 3, 30), (30.0, "cluster-n0001", 4, 37),
    (30.0, "cluster-n0002", 5, 38), (30.0, "cluster-n0004", 6, 39),
    (50.0, "cluster-n0001", 7, 55), (50.0, "cluster-n0002", 8, 56),
    (50.0, "cluster-n0004", 9, 57),
]
SWEEP_PASS_SUMMARY = {
    "nodes_total": 6, "nodes_up": 6, "nodes_down": 0,
    "cpu_util_mean_pct": 0.0, "mem_used_bytes": 603979776,
    "mem_total_bytes": 6442450944, "cpu_temp_max_c": 22.0,
    "generation": 63, "events_active": 0,
}


def test_interleaved_sweep_reproduces_the_end_of_pass_batch():
    """Without self-healing the sweep used to collect a pass's sentinel
    updates and apply them after the loop; it now ingests each as it
    finds it.  Three faults found by one pass, with a rule that resets
    the node from inside that pass: same firings in the same order, same
    generation at every publish, same summary."""
    cwx = ClusterWorX(n_nodes=6, seed=23, monitor_interval=5.0)
    cwx.add_threshold("echo-lost", metric="udp_echo", op="==",
                      threshold=0, action="reboot", severity="critical")
    cwx.add_threshold("crashed", metric="node_state", op="==",
                      threshold="crashed", action="none")
    cwx.start()
    t0 = cwx.kernel.now
    store = cwx.server.store
    publishes = []
    store.subscribe(
        lambda u: u.source == "sweep" and publishes.append(
            (round(u.time - t0, 6), u.hostname, u.seq, store.generation)),
        name="oracle")
    cwx.run(12.0)
    hosts = cwx.cluster.hostnames
    cwx.cluster.node(hosts[1]).crash("oops")
    cwx.cluster.node(hosts[4]).crash("oops")
    cwx.cluster.node(hosts[2]).hang()
    cwx.run(40.0)
    assert [(round(e.time - t0, 6), e.rule, e.node, e.value, e.action,
             e.action_ok) for e in cwx.fired_events()] == SWEEP_PASS_FIRED
    assert publishes == SWEEP_PASS_PUBLISHES
    assert cwx.server.cluster_summary() == SWEEP_PASS_SUMMARY


def test_console_search_returns_sorted_hosts():
    cwx = ClusterWorX(n_nodes=5, seed=3)
    cwx.start()
    cwx.run(30.0)
    hits = cwx.server.console_search("Linux")
    assert hits
    hosts = [hostname for hostname, _t, _text in hits]
    assert hosts == sorted(hosts)
    assert cwx.server.console_search("no-such-needle-xyzzy") == []
    # a forgotten node leaves the search, and the sweep order of the
    # rest (tracking order) is untouched
    tracked = [n.hostname for n in cwx.server.managed_nodes]
    victim = sorted(set(hosts))[1]
    cwx.server.forget_node(victim)
    remaining = [hostname for hostname, _t, _text
                 in cwx.server.console_search("Linux")]
    assert remaining == [h for h in hosts if h != victim]
    assert [n.hostname for n in cwx.server.managed_nodes] == \
        [h for h in tracked if h != victim]


#: what the unindexed engine (every rule scanned on every update) fired
#: for the scenario below.
FULL_SCAN_FIRED = [
    (89.85991862857142, "hot", "cluster-n0002", 32.26),
    (109.85991862857142, "warm", "cluster-n0003", 22.0),
    (109.85991862857142, "warm", "cluster-n0004", 22.0),
    (109.85991862857142, "warm", "cluster-n0005", 22.0),
    (114.85991862857142, "lost", "cluster-n0007", 0),
    (169.85991862857142, "warm", "cluster-n0004", 22.0),
    (179.85991862857142, "hot", "cluster-n0002", 47.81),
]


def test_indexed_engine_matches_full_scan():
    """Metric-indexed evaluation fires the events a full scan fired,
    including add_rule mid-stream and mark_fixed re-fires."""
    cwx = ClusterWorX(n_nodes=20, seed=11)
    hosts = cwx.cluster.hostnames
    cwx.add_threshold("hot", metric="cpu_temp_c", op=">",
                      threshold=30.0, action="none", hold_time=10.0)
    cwx.start()
    cwx.run(20.0)
    cwx.inject_fault(hosts[2], "fan_failure")
    cwx.run(60.0)
    # rules added mid-stream must see remembered values: idle hosts sit
    # at a constant 22 C that change suppression never re-sends
    cwx.add_threshold("warm", metric="cpu_temp_c", op=">",
                      threshold=21.0, action="none", hosts=hosts[3:6])
    cwx.add_threshold("lost", metric="udp_echo", op="==",
                      threshold=0, action="none")
    cwx.inject_fault(hosts[7], "kernel_panic")
    cwx.run(60.0)
    engine = cwx.server.engine
    engine.mark_fixed("hot", hosts[2])    # still breached: re-matures
    engine.mark_fixed("warm", hosts[4])   # unchanged value: re-fires
    cwx.run(30.0)
    assert [(e.time, e.rule, e.node, e.value) for e in engine.fired] \
        == FULL_SCAN_FIRED

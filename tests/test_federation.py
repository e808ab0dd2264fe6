"""The sharded control plane by example: partition planning, routing,
rollup cost, drain's contract and the federated read surface with its
declared routing table.  Ownership, rollup and flat equivalence are
also checked over generated schedules in ``tests/test_properties.py``."""

import inspect
from collections.abc import Mapping

import numpy as np
import pytest

from repro import ClusterWorX
from repro.core.statestore import Update
from repro.events.engine import FiredEvent
from repro.events.rules import ThresholdRule
from repro.federation import (FederatedEvents, FederatedHealth,
                              FederatedHistory, FederatedRecovery,
                              FederatedStore, FederationServer,
                              RollupCache, plan_partitions)
from repro.gateway import GatewayState, WatchClient, WatchHub
from repro.remote.engine import TaskEngine
from repro.resilience.health import HealthRecord, HealthState
from repro.resilience.orchestrator import RecoveryRecord


def make_fed(n=20, shards=4, seed=7, **kwargs):
    cwx = ClusterWorX(n_nodes=n, seed=seed, monitor_interval=5.0,
                      topology="federation", shards=shards, **kwargs)
    cwx.start()
    return cwx


class TestConstruction:
    def test_facade_builds_a_federation(self):
        cwx = make_fed()
        assert isinstance(cwx.server, FederationServer)
        assert cwx.topology == "federation"
        assert len(cwx.server.shards) == 4

    def test_shards_own_nodes_exclusively_and_exhaustively(self):
        cwx = make_fed(n=22, shards=4)
        seen = []
        for shard in cwx.server.shards:
            owned = shard.server.managed_hostnames
            assert owned, "empty shard in a 22-node/4-shard split"
            seen.extend(owned)
        assert sorted(seen) == sorted(cwx.cluster.hostnames)
        assert len(seen) == len(set(seen))
        for hostname in seen:
            owner = cwx.server.owner_of(hostname)
            assert owner.server.store.is_tracked(hostname)

    def test_prefix_partition_routes_by_rack(self):
        cwx = ClusterWorX(
            n_nodes=20, seed=7, topology="federation",
            partition={"cluster-n000": "rack0", "cluster-n001": "rack1"})
        names = sorted(s.name for s in cwx.server.shards)
        assert names == ["rack0", "rack1"]
        for shard in cwx.server.shards:
            prefix = "cluster-n000" if shard.name == "rack0" \
                else "cluster-n001"
            assert all(h.startswith(prefix)
                       for h in shard.server.managed_hostnames)

    def test_plan_partitions_is_deterministic(self):
        cluster = make_fed(n=10, shards=3).cluster
        plan = plan_partitions(cluster, shards=3)
        assert plan == plan_partitions(cluster, shards=3)
        assert [name for name, _ in plan] == \
            ["shard0", "shard1", "shard2"]
        assert [len(ns) for _, ns in plan] == [4, 3, 3]

    def test_flat_topology_rejects_shard_options(self):
        with pytest.raises(ValueError):
            ClusterWorX(n_nodes=4, shards=2)
        with pytest.raises(ValueError):
            ClusterWorX(n_nodes=4, partition={"node": "a"})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match=r"unknown topology 'mesh' "
                           r"\(registered: \['federation', 'flat'\]\)"):
            ClusterWorX(n_nodes=4, topology="mesh")


class TestIngestRouting:
    def test_updates_land_on_the_owning_shard_only(self):
        cwx = make_fed()
        cwx.run(30)
        for shard in cwx.server.shards:
            owned = set(shard.server.managed_hostnames)
            assert set(shard.server.store.tracked) == owned
            for hostname in owned:
                assert shard.server.store.get(hostname)
        assert cwx.server.unrouted_updates == 0

    def test_unowned_update_dropped_not_guessed(self):
        cwx = make_fed()
        gen = cwx.server.store.generation
        cwx.server.ingest(Update(hostname="ghost", time=1.0,
                                 values={"x": 1}, source="agent"))
        assert cwx.server.unrouted_updates == 1
        assert cwx.server.store.generation == gen
        assert all("ghost" not in s.server.store.tracked
                   for s in cwx.server.shards)


class TestAggregation:
    def test_summary_matches_flat_exactly(self):
        flat = ClusterWorX(n_nodes=20, seed=7, monitor_interval=5.0)
        flat.start()
        fed = make_fed(n=20, shards=4, seed=7)
        flat.run(120)
        fed.run(120)
        assert fed.server.cluster_summary() == \
            flat.server.cluster_summary()

    def test_summary_cost_is_o_shards(self):
        cwx = make_fed(n=20, shards=4)
        cwx.run(60)
        rollups = cwx.server.store.rollups
        assert isinstance(rollups, RollupCache)
        cwx.server.cluster_summary()
        refreshes = rollups.refreshes
        # nothing changed: repeated summaries touch no shard rollup
        for _ in range(5):
            cwx.server.cluster_summary()
        assert rollups.refreshes == refreshes
        assert rollups.reuses >= 5 * 4
        # one shard changes: exactly one rollup refresh, not four
        victim = cwx.server.shards[2].server.managed_hostnames[0]
        cwx.server.ingest(Update(hostname=victim, time=cwx.kernel.now,
                                 values={"x": 1}, source="agent"))
        cwx.server.cluster_summary()
        assert rollups.refreshes == refreshes + 1

    def test_event_log_merges_in_time_order(self):
        cwx = make_fed()
        cwx.add_threshold("warm", metric="cpu_temp_c", op=">",
                          threshold=-1.0, notify=False)
        cwx.run(30)
        log = cwx.server.engine.event_log()
        assert len(log) == 20
        times = [e.time for e in log]
        assert times == sorted(times)
        assert cwx.server.engine.active_count() == 20

    def test_snapshot_merges_all_shards(self):
        cwx = make_fed()
        cwx.run(30)
        snap = cwx.server.current_all()
        assert sorted(snap) == sorted(cwx.cluster.hostnames)
        assert len(snap) == 20
        host = cwx.cluster.hostnames[0]
        assert snap[host]["node_up"] == 1


class TestClientSurface:
    def test_client_session_works_unmodified(self):
        cwx = make_fed()
        cwx.run(30)
        session = cwx.client()
        view = session.cluster_view()
        assert len(view) == 20
        assert session.cluster_summary()["nodes_up"] == 20
        seen = []
        sub = session.watch(seen.append)
        cwx.run(15)
        assert seen and sub.active
        session.logout()
        assert not sub.active

    def test_watch_filters_route_to_owning_shards(self):
        cwx = make_fed()
        # one target per shard: the subscription fans out to each owner
        targets = [s.server.managed_hostnames[0]
                   for s in cwx.server.shards]
        seen = []
        sub = cwx.server.subscribe(seen.append, hosts=targets)
        assert len(sub.parts) == 4
        cwx.run(30)
        assert {u.hostname for u in seen} == set(targets)

    def test_remote_run_spans_shards(self):
        """One run reaches every shard's nodes from the federation's
        own engine; no shard engine sees a share of it."""
        cwx = make_fed()
        task = cwx.remote_run("uname -r", "@all")
        assert task.ok
        assert len(task.results) == 20
        assert cwx.server.remote.runs == [task]
        assert not any(s.server.remote.runs for s in cwx.server.shards)
        assert task.complete and task.makespan > 0.0

    def test_threshold_rules_fire_on_every_shard(self):
        cwx = make_fed()
        cwx.add_threshold("warm", metric="cpu_temp_c", op=">",
                          threshold=-1.0, notify=False)
        cwx.run(30)
        fired_hosts = {e.node for e in cwx.fired_events()}
        assert fired_hosts == set(cwx.cluster.hostnames)


def _remote_run(**topology):
    cwx = ClusterWorX(n_nodes=64, seed=3, monitor_interval=5.0,
                      **topology)
    cwx.start()
    return cwx.remote_run("uname -r", "@all", fanout=8)


class TestRemoteRuns:
    """Remote runs ride the fabric as cloning does: ``server.remote`` is
    the flat TaskEngine under either topology, one ``fanout`` window
    over every node."""

    @pytest.mark.parametrize("topology", [
        {}, {"topology": "federation", "shards": 4}])
    def test_facade_remote_is_a_task_engine(self, topology):
        cwx = ClusterWorX(n_nodes=8, seed=7, **topology)
        assert type(cwx.remote) is TaskEngine
        assert cwx.remote is cwx.server.remote

    @pytest.mark.parametrize("shards", [1, 4])
    def test_run_equals_flat(self, shards):
        """Same seed, same run: statuses, outputs, makespan and report.
        ``fanout`` is the one window asked for, not one per shard."""
        flat = _remote_run()
        fed = _remote_run(topology="federation", shards=shards)
        assert fed.results == flat.results
        assert fed.counts() == flat.counts() == {"ok": 64}
        assert fed.makespan == flat.makespan
        assert fed.report() == flat.report()
        assert fed.max_in_flight == flat.max_in_flight == 8


class TestMembership:
    def test_add_node_lands_on_least_loaded_shard(self):
        cwx = make_fed(n=10, shards=4)  # sizes 3,3,2,2
        before = [s.n_nodes for s in cwx.server.shards]
        assert before == [3, 3, 2, 2]
        hostname = cwx.add_node()
        assert cwx.server.owner_of(hostname).index == 2
        assert [s.n_nodes for s in cwx.server.shards] == [3, 3, 3, 2]

    def test_forget_node_vanishes_within_one_slice(self):
        """The satellite regression: a forgotten node must drop out of
        the federated summary and an active gateway watch stream by the
        next published slice — no ghost contributions, no late deltas
        delivered after the refresh."""
        cwx = make_fed()
        state = GatewayState(cwx.server)
        hub = WatchHub(cwx.server)
        watcher = hub.register(WatchClient())
        cwx.run(30)
        with state.lock:  # as the gateway's driver publishes
            state.refresh()
        victim = cwx.cluster.hostnames[0]
        assert victim in state.hostnames()
        assert any(h == victim for h, _, _ in watcher.drain())
        cwx.server.forget_node(victim)
        with state.lock:
            state.refresh()  # ONE slice boundary
        assert victim not in state.hostnames()
        assert state.view.summary["nodes_total"] == 19
        summary = cwx.server.cluster_summary()
        assert summary["nodes_total"] == 19
        assert victim not in cwx.server.managed_hostnames
        # the watch stream goes quiet for the victim even though its
        # agent keeps sampling: the shard drops untracked ingests
        watcher.drain()
        cwx.run(30)
        assert all(h != victim for h, _, _ in watcher.drain())
        hub.close()


class TestDrain:
    def test_drain_migrates_state_and_preserves_summary(self):
        cwx = make_fed()
        cwx.run(60)
        before = cwx.server.cluster_summary()
        victims = list(cwx.server.shards[1].server.managed_hostnames)
        values_before = {h: dict(cwx.server.store.get(h))
                         for h in victims}
        moved = cwx.server.drain(1)
        assert sorted(moved) == sorted(victims)
        assert not cwx.server.shards[1].active
        assert cwx.server.shards[1].n_nodes == 0
        after = cwx.server.cluster_summary()
        assert after["nodes_total"] == before["nodes_total"]
        assert after["nodes_up"] == before["nodes_up"]
        assert after["cpu_temp_max_c"] == before["cpu_temp_max_c"]
        assert after["mem_used_bytes"] == before["mem_used_bytes"]
        for hostname in victims:
            owner = cwx.server.owner_of(hostname)
            assert owner.index != 1 and owner.active
            assert dict(cwx.server.store.get(hostname)) == \
                values_before[hostname]

    def test_drain_carries_history_and_freshness(self):
        cwx = make_fed()
        cwx.run(60)
        victim = cwx.server.shards[0].server.managed_hostnames[0]
        seen = cwx.server.last_seen(victim)
        t, v = cwx.server.history.series(victim, "cpu_temp_c")
        assert len(t) > 0
        cwx.server.drain(0)
        assert cwx.server.last_seen(victim) == seen
        t2, v2 = cwx.server.history.series(victim, "cpu_temp_c")
        assert list(t2) == list(t) and list(v2) == list(v)
        # the adopting shard is not allowed to insta-declare it stale
        assert victim not in cwx.server.stale_nodes(15.0)

    def test_updates_flow_to_the_new_owner_after_drain(self):
        cwx = make_fed()
        cwx.run(30)
        victims = list(cwx.server.shards[3].server.managed_hostnames)
        gen_before = cwx.server.store.generation
        cwx.server.drain(3)
        cwx.run(30)
        assert cwx.server.store.generation > gen_before
        for hostname in victims:
            owner = cwx.server.owner_of(hostname)
            assert owner.server.store.last_seen(hostname) is not None
        assert cwx.server.rebalances[-1][0] == 3

    def test_drain_is_idempotent_and_last_shard_protected(self):
        cwx = make_fed(n=8, shards=2)
        cwx.server.drain(0)
        assert cwx.server.drain(0) == {}
        with pytest.raises(ValueError):
            cwx.server.drain(1)

    def test_summary_still_matches_flat_after_drain(self):
        flat = ClusterWorX(n_nodes=12, seed=9, monitor_interval=5.0)
        flat.start()
        fed = make_fed(n=12, shards=3, seed=9)
        flat.run(60)
        fed.run(60)
        fed.server.drain(1)
        flat.run(60)
        fed.run(60)
        flat_summary = flat.server.cluster_summary()
        fed_summary = fed.server.cluster_summary()
        # drain re-seeds migrated state (one restore write per node), so
        # the write counter diverges; every observable metric must not.
        flat_summary.pop("generation")
        fed_summary.pop("generation")
        assert fed_summary == flat_summary


class TestKnobs:
    def test_self_healing_fans_out(self):
        cwx = make_fed(n=8, shards=2)
        assert not cwx.server.self_healing
        cwx.server.self_healing = True
        assert all(s.server.self_healing for s in cwx.server.shards)

    def test_shard_stats_rows(self):
        cwx = make_fed()
        cwx.run(30)
        rows = cwx.server.shard_stats()
        assert [r["index"] for r in rows] == [0, 1, 2, 3]
        assert sum(r["nodes"] for r in rows) == 20
        assert all(r["active"] for r in rows)
        assert sum(r["updates_received"] for r in rows) == \
            cwx.server.updates_received

    def test_chaos_campaign_runs_unmodified(self):
        """The harness duck-types against the server surface — a
        federation must take faults, heal, and score identically in
        kind (no errors, every fault classified)."""
        from repro.resilience import ChaosCampaign

        cwx = ClusterWorX(n_nodes=12, seed=21, monitor_interval=5.0,
                          topology="federation", shards=3)
        report = ChaosCampaign(cwx, n_faults=4, horizon=120.0,
                               settle=1500.0).execute()
        assert len(report.faults) == 4
        assert all(f.outcome for f in report.faults)
        flat = ClusterWorX(n_nodes=12, seed=21, monitor_interval=5.0)
        flat_report = ChaosCampaign(flat, n_faults=4, horizon=120.0,
                                    settle=1500.0).execute()
        assert report.outcome_counts() == flat_report.outcome_counts()

    def test_clone_spans_shard_boundaries(self):
        cwx = make_fed(n=8, shards=2)
        cwx.run(30)
        report = cwx.clone("compute-harddisk")
        assert len(report.cloned) == 8 and not report.failed
        cwx.run(30)
        view = cwx.client().cluster_view()
        for host in cwx.cluster.hostnames:
            assert view[host]["disk_image"] == "compute-harddisk"


# -- characterisation: the federated read surface, frozen -------------------
# Frozen from the hand-written views at 0698297, before they were
# replaced by the routing table: every public name of the five views,
# answered for a host whose owner is reachable, for the same host with
# the owner's channel killed (not yet drained), and for a hostname no
# shard owns.  ``killed``/``unowned`` list only the rows that differ
# from ``reachable``.  Regenerate a row by printing ``_walk(...)``.
# The intended changes since the freeze: under ``killed`` (the owner
# is shard 0) ``engine.rules`` read ``[]`` and ``remote.nodeset("@all")``
# raised NodeSetParseError, because any-one reads stopped at the first
# *active* shard — which a killed, not yet drained shard still is.  The
# rules now try the next active shard, and ``remote`` is the flat
# engine, which asks no shard; both rows equal ``reachable``.  And a
# watch registers on the killed owner too (a bus registration is not a
# read, it delivers once the shard answers), so under ``killed``
# ``store.subscribe`` and ``store.rehome`` list shard 0's part as
# ``reachable`` does; only the subscription count, an *each* read that
# skips the killed shard, still differs.
VIEWS = {"store": FederatedStore, "engine": FederatedEvents,
         "history": FederatedHistory, "health": FederatedHealth,
         "recovery": FederatedRecovery}
_DUNDERS = ("__init__", "__contains__", "__len__")


def _surface(cls):
    """Public name -> ``"property"`` or its parameter list: names,
    kinds and defaults (annotations are documentation, not surface)."""
    out = {}
    for name in dir(cls):
        if name.startswith("_") and name not in _DUNDERS:
            continue
        member = inspect.getattr_static(cls, name)
        if isinstance(member, property):
            out[name] = "property"
            continue
        sig = inspect.signature(member)
        out[name] = str(sig.replace(
            return_annotation=inspect.Signature.empty,
            parameters=[param.replace(annotation=inspect.Parameter.empty)
                        for param in sig.parameters.values()]))
    return out


def _norm(value):
    if isinstance(value, np.ndarray):
        return _norm(value.tolist())
    if isinstance(value, float) and value != value:
        return "nan"
    if isinstance(value, (list, tuple)):
        return type(value)(_norm(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return {"set": sorted(value)}
    if isinstance(value, Mapping):
        return {key: _norm(item) for key, item in value.items()}
    if isinstance(value, FiredEvent):
        return (value.time, value.rule, value.node)
    if isinstance(value, HealthRecord):
        return (value.hostname, value.state.value, value.since,
                len(value.history))
    if isinstance(value, RecoveryRecord):
        return (value.hostname, value.reason, value.outcome,
                [(a.rung, a.ok) for a in value.attempts])
    if isinstance(value, HealthState):
        return value.value
    return value


def _make_reference():
    cwx = ClusterWorX(n_nodes=8, seed=7, name="c", monitor_interval=5.0,
                      topology="federation", shards=4,
                      self_healing=True)
    cwx.start()
    hosts = cwx.cluster.hostnames
    cwx.add_threshold("hot", metric="cpu_temp_c", op=">", threshold=20.0,
                      notify=False, hosts=[hosts[0], hosts[3], hosts[6]])
    cwx.run(10)
    cwx.inject_fault(hosts[0], "kernel_panic")
    cwx.run(30)
    # recovery logs are empty in so short a run: seed two shards' logs
    # with interleaved rows so the by-time merge has something to order
    for index, t in ((2, 3.0), (0, 2.0), (2, 1.0)):
        recovery = cwx.server.shards[index].server.recovery
        recovery.notifications.append((t, hosts[2 * index], "drill"))
        recovery.notifications.sort()
        recovery.errors.append((t, hosts[2 * index], "probe", "boom"))
        recovery.errors.sort()
    # prime the per-shard last-good snapshot parts the degraded store
    # reads serve from
    cwx.server.current_all()
    return cwx


def _walk(cwx, host):
    server = cwx.server
    shards = server.shards
    store, engine, history = server.store, server.engine, server.history
    health, recovery = server.health, server.recovery
    metric = "uptime_seconds"
    peer = cwx.cluster.hostnames[2]

    class Rows(dict):
        """Normalises at record time: later mutators must not leak
        into an earlier row through a shared object."""

        def __setitem__(self, name, value):
            super().__setitem__(name, _norm(value))

    rows = Rows()

    def where(fsub):
        return [shard.index for part in fsub.parts for shard in shards
                if part.store is shard.server.store]

    def few(values):
        return {"n": len(values),
                **{key: values[key] for key in ("hostname", "node_state")
                   if key in values}}

    # -- store reads
    rows["store.tracked"] = store.tracked
    rows["store.is_tracked"] = store.is_tracked(host)
    rows["store.get"] = few(store.get(host))
    rows["store.last_seen"] = store.last_seen(host)
    rows["store.last_agent_seen"] = store.last_agent_seen(host)
    rows["store.hostnames"] = store.hostnames
    rows["store.__contains__"] = host in store
    rows["store.__len__"] = len(store)
    rows["store.generation"] = store.generation
    rows["store.summary"] = store.summary()
    snap = store.snapshot()
    rows["store.snapshot"] = [repr(snap), sorted(snap),
                              few(snap.get(host, {}))]
    rows["store.subscriptions"] = [sub.name for sub in store.subscriptions]
    for name in ("updates_applied", "full_copies", "cow_forks",
                 "snapshots_taken", "snapshot_reuses", "notifications",
                 "errors", "detached"):
        rows["store." + name] = getattr(store, name)
    # -- engine reads
    rows["engine.rules"] = [rule.name for rule in engine.rules]
    rows["engine.fired"] = engine.fired
    rows["engine.active_events"] = engine.active_events()
    rows["engine.active_count"] = engine.active_count()
    rows["engine.is_triggered"] = engine.is_triggered("hot", host)
    rows["engine.event_log"] = engine.event_log()
    rows["engine.event_log(node,limit)"] = engine.event_log(
        since=1.0, rule="hot", node=host, limit=1)
    rows["engine.event_log(limit)"] = engine.event_log(limit=2)
    # -- history reads
    rows["history.series"] = history.series(host, metric)
    rows["history.window"] = history.window(host, metric, 0.0, 30.0)
    rows["history.latest"] = history.latest(host, metric)
    rows["history.graph"] = history.graph(host, metric, 2)
    rows["history.correlate"] = history.correlate(host, metric,
                                                  "cpu_idle_jiffies")
    rows["history.trend"] = history.trend(host, metric, window=20.0)
    rows["history.forecast"] = history.forecast(host, metric, 100.0)
    rows["history.compare_nodes"] = history.compare_nodes(
        [host, peer, "ghost"], metric)
    rows["history.metric_names"] = len(history.metric_names)
    rows["history.hostnames"] = history.hostnames
    # -- health / recovery reads
    rows["health.record"] = health.record(host)
    rows["health.state"] = health.state(host)
    rows["health.counts"] = health.counts()
    rows["recovery.notifications"] = recovery.notifications
    rows["recovery.errors"] = recovery.errors
    rows["recovery.record_for"] = recovery.record_for(host)
    # -- the remote engine, which no shard outage reaches
    rows["remote.fanout"] = server.remote.fanout
    rows["remote.nodeset"] = str(server.remote.nodeset("@all"))
    # -- mutators, each followed by the read that shows its effect
    rows["engine.mark_fixed"] = [engine.mark_fixed("hot", host),
                                 engine.is_triggered("hot", host)]
    heard = []
    rows["engine.add_listener"] = [
        engine.add_listener(heard.append),
        [heard.append in shard.server.engine._listeners
         for shard in shards]]
    rows["health.add_listener"] = [
        health.add_listener(heard.append),
        [heard.append in shard.server.health._listeners
         for shard in shards]]
    extra = ThresholdRule(name="extra", metric="load_1min", op=">",
                          threshold=99.0)
    rows["engine.add_rule"] = [
        engine.add_rule(extra),
        [len(shard.server.engine.rules) for shard in shards]]
    rows["engine.remove_rule"] = [
        engine.remove_rule("extra"),
        [len(shard.server.engine.rules) for shard in shards]]
    rows["engine.forget_node"] = [engine.forget_node(host),
                                  engine.active_events()]
    rows["history.forget"] = [history.forget(host),
                              history.series(host, metric),
                              history.hostnames]
    rows["recovery.forget"] = [recovery.forget(host),
                               recovery.record_for(host)]
    # -- subscription bus
    seen = []
    base = len(store.subscriptions)
    filtered = store.subscribe(seen.append, name="w",
                               hosts=[host, peer], metrics=[metric])
    spanning = store.subscribe(seen.append, name="all")
    rows["store.subscribe"] = [
        type(filtered).__name__, where(filtered), where(spanning),
        filtered.active, len(store.subscriptions) - base]
    source = server.owner_of(host) or shards[0]
    rows["store.rehome"] = [store.rehome(source), where(filtered),
                            where(spanning),
                            len(store.subscriptions) - base]
    filtered.cancel()
    spanning.cancel()
    rows["store.subscribe.cancelled"] = [
        filtered.active, spanning.active,
        len(store.subscriptions) - base]
    return dict(rows)


ORACLE = {'reachable': {'store.tracked': {'set': ['c-n0000', 'c-n0001',
                                         'c-n0002', 'c-n0003',
                                         'c-n0004', 'c-n0005',
                                         'c-n0006', 'c-n0007']},
               'store.is_tracked': True,
               'store.get': {'n': 57,
                             'hostname': 'c-n0000',
                             'node_state': 'booting'},
               'store.last_seen': 54.85991862857143,
               'store.last_agent_seen': 34.85991862857143,
               'store.hostnames': ['c-n0000', 'c-n0001', 'c-n0002',
                                   'c-n0003', 'c-n0004', 'c-n0005',
                                   'c-n0006', 'c-n0007'],
               'store.__contains__': True,
               'store.__len__': 8,
               'store.generation': 77,
               'store.summary': {'nodes_total': 8,
                                 'nodes_up': 7,
                                 'nodes_down': 1,
                                 'cpu_util_mean_pct': 0.0,
                                 'mem_used_bytes': 805306368,
                                 'mem_total_bytes': 8589934592,
                                 'cpu_temp_max_c': 22.0,
                                 'generation': 77},
               'store.snapshot': ['FederatedSnapshot(gen=77, shards=4, '
                                  'hosts=8)',
                                  ['c-n0000', 'c-n0001', 'c-n0002',
                                   'c-n0003', 'c-n0004', 'c-n0005',
                                   'c-n0006', 'c-n0007'],
                                  {'n': 57,
                                   'hostname': 'c-n0000',
                                   'node_state': 'booting'}],
               'store.subscriptions': ['history', 'events', 'history',
                                       'events', 'history', 'events',
                                       'history', 'events'],
               'store.updates_applied': 69,
               'store.full_copies': 0,
               'store.cow_forks': 0,
               'store.snapshots_taken': 4,
               'store.snapshot_reuses': 0,
               'store.notifications': 138,
               'store.errors': [],
               'store.detached': [],
               'engine.rules': ['hot'],
               'engine.fired': [(24.859918628571428, 'hot', 'c-n0000'),
                                (24.859918628571428, 'hot', 'c-n0003'),
                                (24.859918628571428, 'hot', 'c-n0006')],
               'engine.active_events': [('hot', 'c-n0000'),
                                        ('hot', 'c-n0003'),
                                        ('hot', 'c-n0006')],
               'engine.active_count': 3,
               'engine.is_triggered': True,
               'engine.event_log': [(24.859918628571428, 'hot',
                                     'c-n0000'),
                                    (24.859918628571428, 'hot',
                                     'c-n0003'),
                                    (24.859918628571428, 'hot',
                                     'c-n0006')],
               'engine.event_log(node,limit)': [(24.859918628571428,
                                                 'hot', 'c-n0000')],
               'engine.event_log(limit)': [(24.859918628571428, 'hot',
                                            'c-n0003'),
                                           (24.859918628571428, 'hot',
                                            'c-n0006')],
               'history.series': ([24.859918628571428,
                                   29.859918628571428,
                                   34.85991862857143],
                                  [0.0, 5.0, 10.0]),
               'history.window': ([24.859918628571428,
                                   29.859918628571428],
                                  [0.0, 5.0]),
               'history.latest': (34.85991862857143, 10.0),
               'history.graph': ([27.359918628571428,
                                  32.35991862857143],
                                 [0.0, 7.5], [0.0, 5.0], [0.0, 10.0]),
               'history.correlate': 0.9999998329995412,
               'history.trend': (0.9999999999999998,
                                 -24.859918628571414),
               'history.forecast': 75.14008137142855,
               'history.compare_nodes': {'c-n0000': 5.0,
                                         'c-n0002': 20.0},
               'history.metric_names': 47,
               'history.hostnames': ['c-n0000', 'c-n0001', 'c-n0002',
                                     'c-n0003', 'c-n0004', 'c-n0005',
                                     'c-n0006', 'c-n0007'],
               'health.record': ('c-n0000', 'recovering',
                                 44.85991862857143, 2),
               'health.state': 'recovering',
               'health.counts': {'healthy': 0,
                                 'suspect': 0,
                                 'down': 0,
                                 'recovering': 1,
                                 'quarantined': 0},
               'recovery.notifications': [(1.0, 'c-n0004', 'drill'),
                                          (2.0, 'c-n0000', 'drill'),
                                          (3.0, 'c-n0004', 'drill')],
               'recovery.errors': [(1.0, 'c-n0004', 'probe', 'boom'),
                                   (2.0, 'c-n0000', 'probe', 'boom'),
                                   (3.0, 'c-n0004', 'probe', 'boom')],
               'recovery.record_for': ('c-n0000', 'node_state=crashed',
                                       'active',
                                       [('probe', False),
                                        ('probe', False),
                                        ('ice_reset', True)]),
               'remote.fanout': 64,
               'remote.nodeset': 'c-n[0000-0007]',
               'engine.mark_fixed': [None, False],
               'engine.add_listener': [None, [True, True, True, True]],
               'health.add_listener': [None, [True, True, True, True]],
               'engine.add_rule': [None, [2, 2, 2, 2]],
               'engine.remove_rule': [None, [1, 1, 1, 1]],
               'engine.forget_node': [None,
                                      [('hot', 'c-n0003'),
                                       ('hot', 'c-n0006')]],
               'history.forget': [None, ([], []),
                                  ['c-n0001', 'c-n0002', 'c-n0003',
                                   'c-n0004', 'c-n0005', 'c-n0006',
                                   'c-n0007']],
               'recovery.forget': [None,
                                   ('c-n0000', 'node_state=crashed',
                                    'aborted',
                                    [('probe', False), ('probe', False),
                                     ('ice_reset', True)])],
               'store.subscribe': ['FederatedSubscription', [0, 1],
                                   [0, 1, 2, 3], True, 6],
               'store.rehome': [2, [1, 0], [1, 2, 3], 5],
               'store.subscribe.cancelled': [False, False, 0]},
 'killed': {'store.last_seen': None,
            'store.last_agent_seen': None,
            'store.generation': 62,
            'store.summary': {'nodes_total': 8,
                              'nodes_up': 6,
                              'nodes_down': 2,
                              'cpu_util_mean_pct': 0.0,
                              'mem_used_bytes': 603979776,
                              'mem_total_bytes': 6442450944,
                              'cpu_temp_max_c': 22.0,
                              'generation': 62},
            'store.subscriptions': ['history', 'events', 'history',
                                    'events', 'history', 'events'],
            'store.updates_applied': 54,
            'store.snapshots_taken': 3,
            'store.notifications': 108,
            'engine.fired': [(24.859918628571428, 'hot', 'c-n0003'),
                             (24.859918628571428, 'hot', 'c-n0006')],
            'engine.active_events': [('hot', 'c-n0003'),
                                     ('hot', 'c-n0006')],
            'engine.active_count': 2,
            'engine.is_triggered': False,
            'engine.event_log': [(24.859918628571428, 'hot', 'c-n0003'),
                                 (24.859918628571428, 'hot',
                                  'c-n0006')],
            'engine.event_log(node,limit)': [],
            'history.series': ([], []),
            'history.window': ([], []),
            'history.latest': None,
            'history.graph': ([], [], [], []),
            'history.correlate': 'nan',
            'history.trend': ('nan', 'nan'),
            'history.forecast': 'nan',
            'history.compare_nodes': {'c-n0002': 20.0},
            'history.metric_names': 46,
            'history.hostnames': ['c-n0002', 'c-n0003', 'c-n0004',
                                  'c-n0005', 'c-n0006', 'c-n0007'],
            'health.record': None,
            'health.state': None,
            'health.counts': {'healthy': 0,
                              'suspect': 0,
                              'down': 0,
                              'recovering': 0,
                              'quarantined': 0},
            'recovery.notifications': [(1.0, 'c-n0004', 'drill'),
                                       (3.0, 'c-n0004', 'drill')],
            'recovery.errors': [(1.0, 'c-n0004', 'probe', 'boom'),
                                (3.0, 'c-n0004', 'probe', 'boom')],
            'recovery.record_for': None,
            'engine.add_listener': [None, [False, True, True, True]],
            'health.add_listener': [None, [False, True, True, True]],
            'engine.add_rule': [None, [1, 2, 2, 2]],
            'history.forget': [None, ([], []),
                               ['c-n0002', 'c-n0003', 'c-n0004',
                                'c-n0005', 'c-n0006', 'c-n0007']],
            'recovery.forget': [None, None],
            'store.subscribe': ['FederatedSubscription', [0, 1],
                                [0, 1, 2, 3], True, 4],
            'store.rehome': [2, [1, 0], [1, 2, 3], 4]},
 'unowned': {'store.is_tracked': False,
             'store.get': {'n': 0},
             'store.last_seen': None,
             'store.last_agent_seen': None,
             'store.__contains__': False,
             'store.snapshot': ['FederatedSnapshot(gen=77, shards=4, '
                                'hosts=8)',
                                ['c-n0000', 'c-n0001', 'c-n0002',
                                 'c-n0003', 'c-n0004', 'c-n0005',
                                 'c-n0006', 'c-n0007'],
                                {'n': 0}],
             'engine.is_triggered': False,
             'engine.event_log(node,limit)': [],
             'history.series': ([], []),
             'history.window': ([], []),
             'history.latest': None,
             'history.graph': ([], [], [], []),
             'history.correlate': 'nan',
             'history.trend': ('nan', 'nan'),
             'history.forecast': 'nan',
             'history.compare_nodes': {'c-n0002': 20.0},
             'health.record': None,
             'health.state': 'healthy',
             'recovery.record_for': None,
             'engine.forget_node': [None,
                                    [('hot', 'c-n0000'),
                                     ('hot', 'c-n0003'),
                                     ('hot', 'c-n0006')]],
             'history.forget': [None, ([], []),
                                ['c-n0000', 'c-n0001', 'c-n0002',
                                 'c-n0003', 'c-n0004', 'c-n0005',
                                 'c-n0006', 'c-n0007']],
             'recovery.forget': [None, None]}}

SURFACE = {'FederatedStore': {'__contains__': '(self, hostname)',
                    '__init__': '(self, shards, owner_of)',
                    '__len__': '(self)',
                    'cow_forks': 'property',
                    'detached': 'property',
                    'errors': 'property',
                    'full_copies': 'property',
                    'generation': 'property',
                    'get': '(self, hostname)',
                    'hostnames': 'property',
                    'is_tracked': '(self, hostname)',
                    'last_agent_seen': '(self, hostname)',
                    'last_seen': '(self, hostname)',
                    'notifications': 'property',
                    'rehome': '(self, source, owner_of=None)',
                    'snapshot': '(self)',
                    'snapshot_reuses': 'property',
                    'snapshots_taken': 'property',
                    'subscribe': "(self, callback, *, name='?', "
                                 'hosts=None, metrics=None)',
                    'subscriptions': 'property',
                    'summary': '(self)',
                    'tracked': 'property',
                    'updates_applied': 'property'},
 'FederatedEvents': {'__init__': '(self, shards, owner_of)',
                     'active_count': '(self)',
                     'active_events': '(self)',
                     'add_listener': '(self, listener)',
                     'add_rule': '(self, rule)',
                     'event_log': '(self, *, since=0.0, rule=None, '
                                  'node=None, limit=None)',
                     'fired': 'property',
                     'forget_node': '(self, hostname)',
                     'is_triggered': '(self, rule_name, hostname)',
                     'mark_fixed': '(self, rule_name, hostname)',
                     'remove_rule': '(self, name)',
                     'rules': 'property'},
 'FederatedHistory': {'__init__': '(self, shards, owner_of)',
                      'compare_nodes': '(self, hostnames, metric)',
                      'correlate': '(self, hostname, metric_a, metric_b)',
                      'forecast': '(self, hostname, metric, at, *, '
                                  'window=None)',
                      'forget': '(self, hostname)',
                      'graph': '(self, hostname, metric, buckets=60)',
                      'hostnames': 'property',
                      'latest': '(self, hostname, metric)',
                      'metric_names': 'property',
                      'series': '(self, hostname, metric)',
                      'trend': '(self, hostname, metric, *, window=None)',
                      'window': '(self, hostname, metric, t0, t1)'},
 'FederatedHealth': {'__init__': '(self, shards, owner_of)',
                     'add_listener': '(self, listener)',
                     'counts': '(self)',
                     'record': '(self, hostname)',
                     'state': '(self, hostname)'},
 'FederatedRecovery': {'__init__': '(self, shards, owner_of)',
                       'errors': 'property',
                       'forget': '(self, hostname)',
                       'notifications': 'property',
                       'record_for': '(self, hostname)'}}


class TestViewCharacterisation:
    @pytest.mark.parametrize("situation",
                             ["reachable", "killed", "unowned"])
    def test_every_public_name_answers_as_frozen(self, situation):
        cwx = _make_reference()
        host = cwx.cluster.hostnames[0]
        assert cwx.server.owner_of(host).index == 0
        if situation == "killed":
            cwx.server.owner_of(host).channel.killed = True
        rows = _walk(cwx, "nope" if situation == "unowned" else host)
        expected = {**ORACLE["reachable"], **ORACLE[situation]}
        assert list(rows) == list(expected)
        for name, value in rows.items():
            assert value == expected[name], (situation, name)

    def test_walk_covers_every_public_name(self):
        rows = ORACLE["reachable"]
        for prefix, cls in VIEWS.items():
            for name in _surface(cls):
                assert name == "__init__" or f"{prefix}.{name}" in rows, \
                    (prefix, name)

    def test_public_surface_is_pinned(self):
        """Names, property-ness and signatures: a table entry must be
        indistinguishable from the method it replaced."""
        assert {cls.__name__: _surface(cls)
                for cls in VIEWS.values()} == SURFACE

    def test_unowned_host_policies(self):
        """Three policies for a hostname no shard owns, kept as they
        are: store/engine/recovery and ``health.record`` answer without
        asking anyone; ``history.*`` and ``health.state`` ask shard 0 —
        so the answer depends on whether shard 0 is up; subscriptions
        fall to the first active shard."""
        cwx = _make_reference()
        server = cwx.server
        calls = [s.channel.calls for s in server.shards]
        assert server.store.get("nope") == {}
        assert server.engine.is_triggered("hot", "nope") is False
        assert server.recovery.record_for("nope") is None
        assert server.health.record("nope") is None
        assert [s.channel.calls for s in server.shards] == calls
        assert server.health.state("nope") is HealthState.HEALTHY
        assert server.history.latest("nope", "uptime_seconds") is None
        assert [s.channel.calls for s in server.shards] == \
            [calls[0] + 2] + calls[1:]
        fsub = server.store.subscribe(lambda update: None, hosts=["nope"])
        assert [part.store for part in fsub.parts] == \
            [server.shards[0].server.store]
        server.shards[0].channel.killed = True
        assert server.health.state("nope") is None
        assert server.history.latest("nope", "uptime_seconds") is None
        # a killed owner's host drops out of a cross-node read
        hosts = cwx.cluster.hostnames
        assert list(server.history.compare_nodes(
            [hosts[0], hosts[2], "nope"], "uptime_seconds")) == [hosts[2]]


# -- the declared table, enumerated -----------------------------------------
#: a value for every parameter name a table entry can take.
_ARGUMENTS = {
    "hostname": "c-n0000", "metric": "uptime_seconds",
    "metric_a": "uptime_seconds", "metric_b": "cpu_idle_jiffies",
    "t0": 0.0, "t1": 30.0, "at": 100.0, "rule_name": "hot",
    "name": "extra", "listener": print,
    "rule": ThresholdRule(name="extra", metric="load_1min", op=">",
                          threshold=99.0)}
#: public names that stay hand-written beside the table.
_HANDWRITTEN = {"__init__", "generation", "summary", "snapshot",
                "subscribe", "rehome", "rules", "event_log",
                "compare_nodes"}


def _table(cls):
    """``(name, is_attribute, is_command, entry, route)`` per declared
    entry; commands (``-> None``) last so reads see unmutated state."""
    rows = []
    for name, member in vars(cls).items():
        is_attribute = isinstance(member, property)
        entry = member.fget if is_attribute else member
        if hasattr(entry, "route"):
            is_command = not is_attribute and inspect.signature(
                entry).return_annotation == "None"
            rows.append((name, is_attribute, is_command, entry,
                         entry.route))
    return sorted(rows, key=lambda row: row[2])


def _arguments(entry, host):
    values = {**_ARGUMENTS, "hostname": host}
    return [values[param.name]
            for param in inspect.signature(entry).parameters.values()
            if param.name != "self" and param.default is param.empty]


def check_routing_table(server, host, dead=()):
    """Every declared entry answers its declaration: an *each* answer is
    the declared merge over the shards' own organs read directly, an
    *owner* answer is ``host``'s owner's.  The shards in ``dead`` do not
    answer: their share is the declared default — or last good part —
    and nothing raises.  ``engine.rules``, the one any-one read, is the
    first answering active shard's.  Commands run last; they mutate."""
    answering = [shard.server.engine.rules for shard in server.shards
                 if shard.active and shard.index not in dead]
    assert server.engine.rules == (answering[0] if answering else [])
    for organ, cls in VIEWS.items():
        view = getattr(server, organ)
        for name, is_attribute, is_command, entry, (verb, *spec) \
                in _table(cls):
            args = () if is_attribute else _arguments(entry, host)

            def share(shard, default, last_good, *key):
                if shard.index not in dead:
                    member = getattr(getattr(shard.server, organ), name)
                    return member if is_attribute else member(*args)
                if last_good is None:
                    return default
                return last_good(view._last_part(shard), *key)

            if is_command:
                expected = None
            elif verb == "each":
                merge, default, policy = spec
                expected = merge([
                    share(shard, default, policy.get("last_good"))
                    for shard in server.shards])
            else:
                default, policy = spec
                expected = share(server.owner_of(host), default,
                                 policy.get("last_good"), host)
            answer = getattr(view, name) if is_attribute \
                else getattr(view, name)(*args)
            assert _norm(answer) == _norm(expected), (dead, organ, name)


class TestRoutingTable:
    def test_every_public_name_is_declared_or_known_handwritten(self):
        for cls in VIEWS.values():
            declared = {row[0] for row in _table(cls)}
            assert declared.isdisjoint(_HANDWRITTEN)
            assert declared | _HANDWRITTEN >= set(_surface(cls)), cls
        with pytest.raises(AttributeError):
            ClusterWorX(n_nodes=2, topology="federation").server \
                .store.not_a_store_method

    @pytest.mark.parametrize("dead", [(), (0,), (1,), (2,), (3,),
                                      (0, 1, 2, 3)])
    def test_every_entry_answers_its_declaration(self, dead):
        """On the reference federation, healthy and with shards killed;
        the federation state machine in ``tests/test_properties.py``
        runs the same check at each generated schedule's end."""
        cwx = _make_reference()
        for index in dead:
            cwx.server.shards[index].channel.killed = True
        check_routing_table(cwx.server, _ARGUMENTS["hostname"], dead)

"""The sharded control plane: partition planning, ingest routing,
cross-shard aggregation, drain/rebalance, and flat-equivalence."""

import pytest

from repro import ClusterWorX
from repro.core.statestore import Update
from repro.events.rules import ThresholdRule
from repro.federation import (FederationServer, RollupCache,
                              plan_partitions)
from repro.gateway import GatewayState, WatchClient, WatchHub


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
        with pytest.raises(ValueError):
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

    def test_ingest_many_batches_per_owner(self):
        cwx = make_fed(n=8, shards=2)
        names = cwx.cluster.hostnames
        batch = [Update(hostname=h, time=1.0, values={"x": i},
                        source="agent")
                 for i, h in enumerate(names)]
        applied = cwx.server.ingest_many(batch)
        assert applied == len(names)
        for i, h in enumerate(names):
            assert cwx.server.store.get(h)["x"] == i


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
        cwx = make_fed()
        task = cwx.remote_run("uname -r", "@all")
        assert task.ok
        assert len(task.results) == 20
        assert len(task.runs) == 4  # one sub-run per owning shard
        assert task.complete and task.makespan > 0.0

    def test_threshold_rules_fire_on_every_shard(self):
        cwx = make_fed()
        cwx.add_threshold("warm", metric="cpu_temp_c", op=">",
                          threshold=-1.0, notify=False)
        cwx.run(30)
        fired_hosts = {e.node for e in cwx.fired_events()}
        assert fired_hosts == set(cwx.cluster.hostnames)


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
        state.refresh()
        victim = cwx.cluster.hostnames[0]
        assert victim in state.hostnames()
        assert any(h == victim for h, _, _ in watcher.drain())
        cwx.server.forget_node(victim)
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

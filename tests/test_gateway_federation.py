"""The gateway over a sharded control plane: /v1/shards, published-view
merging, and watch fan-in across shard buses (ordering, coalescing,
slow-consumer eviction)."""

import asyncio
import json

from repro import ClusterWorX
from repro.gateway import (GatewayService, GatewayState, WatchClient,
                           WatchHub, WatchPolicy, fetch)
from repro.gateway.httpd import parse_request
from repro.gateway.routes import build_router
from repro.gateway.wire import JsonWire


def make_fed(n=12, shards=3, seed=5, interval=5.0):
    cwx = ClusterWorX(n_nodes=n, seed=seed, monitor_interval=interval,
                      topology="federation", shards=shards)
    cwx.start()
    return cwx


class TestShardStats:
    def test_federated_rows(self):
        cwx = make_fed()
        cwx.run(30)
        state = GatewayState(cwx.server)
        rows = state.shards()
        assert [r["index"] for r in rows] == [0, 1, 2]
        assert sum(r["nodes"] for r in rows) == 12

    def test_flat_server_reports_one_synthetic_shard(self):
        cwx = ClusterWorX(n_nodes=4, seed=5, monitor_interval=5.0)
        cwx.start()
        cwx.run(30)
        rows = GatewayState(cwx.server).shards()
        assert len(rows) == 1
        assert rows[0]["name"] == "flat" and rows[0]["nodes"] == 4

    def test_flat_server_answers_the_topology_questions_itself(self):
        """The flat server gives the trivial answers, so the gateway
        asks without probing — and a flat cluster's /v1/shards and
        /v1/summary bodies are what they were when GatewayState built
        the synthetic row from its own view."""
        cwx = ClusterWorX(n_nodes=4, seed=5, monitor_interval=5.0)
        cwx.start()
        cwx.run(30)
        assert cwx.server.degraded_info() == {
            "degraded": False, "stale_shards": [], "staleness_s": 0.0}
        state = GatewayState(cwx.server)
        router = build_router(state, lambda: {})
        view = state.view
        row = {
            "index": 0, "name": "flat", "active": True,
            "health": "healthy", "heartbeat_age": 0.0,
            "nodes": len(view.hostnames),
            "updates_received": cwx.server.updates_received,
            "generation": view.generation,
            "events_active": cwx.server.engine.active_count()}
        assert cwx.server.shard_stats() == [row]
        bodies = {}
        for path in ("/v1/shards", "/v1/summary"):
            request = parse_request(
                f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii"))
            route, params = router.resolve(request.path)
            status, frames = route.handler(request, params)
            assert status == 200
            bodies[path] = JsonWire().encode(frames)
        assert bodies["/v1/shards"] == JsonWire().encode(
            [("shard", "flat", view.sim_time, row)])
        summary = dict(cwx.server.cluster_summary(),
                       sim_time=round(view.sim_time, 3))
        assert bodies["/v1/summary"] == JsonWire().encode(
            [("summary", "cluster", view.sim_time, summary)])
        # healthy: the degraded keys are absent, not false
        assert b"degraded" not in bodies["/v1/summary"]
        assert b"stale" not in bodies["/v1/summary"]
        assert b"degraded" not in bodies["/v1/shards"]


class TestWatchFanIn:
    """One hub subscription spans every shard bus; the merged stream
    must behave exactly like the flat one."""

    def test_hub_sees_every_shard_and_orders_by_time(self):
        cwx = make_fed()
        hub = WatchHub(cwx.server)
        wide = hub.register(WatchClient())
        cwx.run(30)
        frames = wide.drain()
        hosts = {h for h, _, _ in frames}
        # deltas arrived from nodes of ALL three shards
        for shard in cwx.server.shards:
            assert hosts & set(shard.server.managed_hostnames), \
                f"no deltas from {shard.name}"
        # the merged feed is globally time-ordered: shard buses publish
        # synchronously at ingest, so fan-in preserves kernel order
        times = [t for _, t, _ in frames]
        assert times == sorted(times)
        hub.close()

    def test_host_filter_narrows_to_one_shard_per_target(self):
        cwx = make_fed()
        targets = [s.server.managed_hostnames[0]
                   for s in cwx.server.shards[:2]]
        hub = WatchHub(cwx.server)
        narrow = hub.register(WatchClient(hosts=targets))
        cwx.run(30)
        assert {h for h, _, _ in narrow.drain()} == set(targets)
        hub.close()

    def test_coalescing_merges_across_shards(self):
        cwx = make_fed()
        hub = WatchHub(cwx.server,
                       policy=WatchPolicy(queue_limit=3,
                                          evict_backlog=10 ** 6))
        slow = hub.register(WatchClient(policy=hub.policy))
        cwx.run(60)
        frames = slow.drain()
        assert slow.coalesced > 0
        # coalesced tails must cover hosts from more than one shard —
        # the overflow map is per *host*, not per shard bus
        tail_hosts = {h for h, _, _ in frames[3:]}
        owners = {cwx.server.owner_of(h).index for h in tail_hosts}
        assert len(owners) > 1
        hub.close()

    def test_slow_consumer_evicted_once_streams_isolated(self):
        cwx = make_fed()
        hub = WatchHub(cwx.server,
                       policy=WatchPolicy(queue_limit=1,
                                          evict_backlog=1))
        doomed = hub.register(WatchClient(policy=hub.policy))
        healthy = hub.register(WatchClient())
        cwx.run(60)
        assert doomed.evicted
        assert hub.evictions == 1
        assert doomed.drain() == []
        healthy_frames = healthy.drain()
        assert len(healthy_frames) > 0
        # the healthy stream still spans every shard after the eviction
        hosts = {h for h, _, _ in healthy_frames}
        for shard in cwx.server.shards:
            assert hosts & set(shard.server.managed_hostnames)
        hub.close()

    def test_close_cancels_every_shard_subscription(self):
        cwx = make_fed()
        hub = WatchHub(cwx.server)
        hub.register(WatchClient())
        active = [s for s in cwx.server.store.subscriptions
                  if s.name == "gateway"]
        assert len(active) == len(cwx.server.shards)  # one per bus
        hub.close()
        assert all(not s.active for s in active)


class TestServiceOverFederation:
    def test_rest_surface_and_shards_endpoint(self):
        async def scenario():
            cwx = make_fed(n=8, shards=2, seed=11)
            cwx.run(30.0)
            service = GatewayService(cwx.server, cluster=cwx.cluster)
            await service.start()
            service.driver.start()
            status, _, body = await fetch(
                "127.0.0.1", service.port, "/v1/summary")
            assert status == 200
            assert json.loads(body)["values"]["nodes_total"] == 8

            status, _, body = await fetch(
                "127.0.0.1", service.port, "/v1/shards")
            assert status == 200
            rows = json.loads(body)
            assert isinstance(rows, list) and len(rows) == 2
            assert [r["values"]["name"] for r in rows] == \
                ["shard0", "shard1"]
            assert sum(r["values"]["nodes"] for r in rows) == 8

            host = cwx.cluster.hostnames[0]
            status, _, body = await fetch(
                "127.0.0.1", service.port, f"/v1/hosts/{host}")
            assert status == 200
            assert json.loads(body)["subject"] == host
            service.driver.stop()
            await service.stop()
        asyncio.run(scenario())

"""Gateway tests: wire codecs, HTTP plumbing, watch backpressure,
published-view reuse, and the full asyncio service over real sockets."""

import asyncio
import json
import logging
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterWorX
from repro.core.statestore import Snapshot, Update
from repro.faults import FaultPlane
from repro.gateway import (BINARY_CONTENT_TYPE, BinaryWire, GatewayService,
                           GatewayState, HttpError, JsonWire, Router,
                           WatchClient, WatchHub, WatchPolicy, build_router,
                           fetch, negotiate, parse_request,
                           read_stream_frames)
from repro.gateway import routes
from repro.gateway import state as gateway_state
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.wire import FrameTable
from repro.hardware import WorkloadSegment
from repro.monitoring import Monitor
from repro.remote.nodeset import NodeSet
from tests.json_oracle import oracle_body


def up(host, t, **values):
    return Update(hostname=host, time=t, values=values)


# -- wire ---------------------------------------------------------------------

class TestWire:
    def frames(self):
        return [("summary", "cluster", 12.5,
                 {"nodes_total": 16, "nodes_up": 15, "nodes_down": 1,
                  "cpu_util_mean_pct": 42.25, "mem_used_bytes": 1 << 33,
                  "mem_total_bytes": 1 << 34, "cpu_temp_max_c": 61.5,
                  "generation": 941, "events_active": 2,
                  "sim_time": 12.5})]

    def test_json_roundtrip(self):
        wire = JsonWire()
        frames = self.frames()
        decoded = wire.decode(wire.encode(frames))
        assert decoded[0][0] == "summary"
        assert decoded[0][3]["nodes_up"] == 15

    def test_binary_roundtrip(self):
        wire = BinaryWire()
        frames = self.frames()
        decoded = wire.decode(wire.encode(frames))
        kind, subject, t, values = decoded[0]
        assert (kind, subject, t) == ("summary", "cluster", 12.5)
        assert values == dict(frames[0][3])

    def test_binary_summary_under_60pct_of_json(self):
        frames = self.frames()
        json_len = len(JsonWire().encode(frames))
        bin_len = len(BinaryWire().encode(frames))
        assert bin_len <= 0.6 * json_len, (bin_len, json_len)

    def test_delta_roundtrip_with_metric_schema(self):
        schema = ("cpu_util_pct", "cpu_temp_c", "net_tx_bytes")
        wire = BinaryWire(metric_schema=schema)
        frames = [("delta", "node007", 99.0,
                   {"cpu_util_pct": 55.5, "plugin_metric": 7})]
        decoded = wire.decode(wire.encode(frames))
        assert decoded[0][1] == "node007"
        # off-schema fields ride along self-described
        assert decoded[0][3]["plugin_metric"] == 7

    def test_multi_frame_stream_self_delimits(self):
        wire = BinaryWire()
        payload = b"".join(
            wire.encode_stream(("delta", f"n{i}", float(i), {"x": i}))
            for i in range(5))
        decoded = wire.decode(payload)
        assert [f[1] for f in decoded] == [f"n{i}" for i in range(5)]

    def test_sse_event_format(self):
        event = JsonWire().encode_stream(("delta", "n1", 3.0, {"x": 1}))
        assert event.startswith(b"data: ") and event.endswith(b"\n\n")
        json.loads(event[len(b"data: "):])

    def test_an_older_views_all_hosts_table_is_written_whole(self):
        """A table of a view older than the kept body's is written from
        its own rows, even where the change log would answer for it
        (the kept body's view re-served a part frozen since view 3)."""
        def table(number, b_value):
            rows = {"a": {"x": 1.0}, "b": {"x": b_value}}
            return FrameTable("host", float(number), ("a", "b"),
                              Snapshot(rows, number, float(number), 1),
                              ("x",), number=number,
                              base=3, changed_since=lambda since: set())
        wire = JsonWire()
        wire.encode(table(5, 3.0))
        older = table(4, 2.0)
        assert wire.encode(older) == JsonWire().encode(list(older)) \
            == oracle_body(list(older))

    def test_a_value_json_cannot_hold_is_written_as_its_text(self):
        """A plug-in's set is written as its ``str`` in a body, a table
        and an event, as the binary wire writes it."""
        tags = {"gpu", "ib"}
        frame = ("delta", "n1", 3.0, {"tags": tags, "x": 1})
        event = JsonWire().encode_stream(frame)
        assert json.loads(event[len(b"data: "):])["values"]["tags"] \
            == str(tags)
        table = FrameTable("host", 3.0, ("n1",), Snapshot(
            {"n1": {"tags": tags, "x": 1}}, 1, 3.0, 1))
        for body in (JsonWire().encode([frame]), JsonWire().encode(table)):
            assert json.loads(body)["values"] == {"tags": str(tags), "x": 1}
        assert BinaryWire().decode(BinaryWire().encode([frame]))[0][3] \
            == {"tags": str(tags), "x": 1}

    def test_negotiate(self):
        binary, text = BinaryWire(), JsonWire()
        assert negotiate(BINARY_CONTENT_TYPE, binary, text) is binary
        assert negotiate(f"{BINARY_CONTENT_TYPE}, */*", binary, text) \
            is binary
        assert negotiate("application/json", binary, text) is text
        assert negotiate("*/*", binary, text) is text
        assert negotiate(None, binary, text) is text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BinaryWire().encode([("nope", "x", 0.0, {})])

    def test_frame_bytes_pinned(self):
        """``<I length> <B kind>`` then the codec frame (the codec's
        bytes are pinned in the monitoring tests)."""
        wire = BinaryWire(metric_schema=("a", "b", "c", "d", "e", "f",
                                         "g", "h", "i"))
        delta = wire.encode_frame(("delta", "n1", 4.0, {"b": 2**40, "x": 1}))
        assert delta.hex() == (
            "21000000" "03" "5302000000000000104001006e31" "0200"
            "040000000000010000" "0178" "0301000000")
        end = wire.encode_frame(("end", "heartbeat", 4.0, {}))
        assert end.hex() == ("15000000" "08"
                             "0900000000000010400000686561727462656174")


# -- httpd --------------------------------------------------------------------

class TestHttpd:
    def test_parse_request(self):
        raw = (b"GET /v1/query?nodes=n%5B1-4%5D&metrics=a,b HTTP/1.1\r\n"
               b"Host: x\r\nAccept: application/json\r\n\r\n")
        req = parse_request(raw)
        assert req.path == "/v1/query"
        assert req.param("nodes") == "n[1-4]"
        assert req.accept == "application/json"
        assert req.keep_alive

    def test_connection_close_honored(self):
        req = parse_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_non_get_rejected(self):
        with pytest.raises(HttpError) as info:
            parse_request(b"POST /v1/summary HTTP/1.1\r\n\r\n")
        assert info.value.status == 405

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as info:
            parse_request(b"garbage\r\n\r\n")
        assert info.value.status == 400

    def test_router_captures_and_404(self):
        router = Router()
        router.add("/v1/hosts/{hostname}", lambda req, p: p)
        router.add("/v1/history/{hostname}/{metric}", lambda req, p: p)
        route, params = router.resolve("/v1/hosts/node001")
        assert params == {"hostname": "node001"}
        route, params = router.resolve("/v1/history/n1/cpu_temp_c")
        assert params == {"hostname": "n1", "metric": "cpu_temp_c"}
        with pytest.raises(HttpError):
            router.resolve("/v1/nope")


# -- watch backpressure -------------------------------------------------------

class TestWatchClient:
    def test_fifo_then_coalesce(self):
        client = WatchClient(policy=WatchPolicy(queue_limit=3,
                                                evict_backlog=10))
        for i in range(3):
            assert client.push(up("a", float(i), x=i)) == (i == 0)
        # overflow: merges per host instead of growing the queue
        client.push(up("a", 3.0, x=3))
        client.push(up("a", 4.0, y=9))
        out = client.drain()
        assert len(out) == 4  # 3 verbatim + 1 merged for host a
        merged = out[-1]
        assert merged[0] == "a" and merged[1] == 4.0
        assert merged[2]["x"] == 3 and merged[2]["y"] == 9
        assert client.coalesced == 2 and client.dropped == 1

    def test_eviction_past_backlog(self):
        client = WatchClient(policy=WatchPolicy(queue_limit=1,
                                                evict_backlog=2))
        client.push(up("a", 0.0, x=0))
        client.push(up("b", 1.0, x=1))   # coalesced host 1
        client.push(up("c", 2.0, x=2))   # coalesced host 2
        assert not client.evicted
        client.push(up("d", 3.0, x=3))   # third distinct host: evict
        assert client.evicted
        assert client.drain() == []

    def test_filters(self):
        client = WatchClient(hosts=["a"], metrics=["x"])
        assert client.wants(up("a", 0.0, x=1))
        assert not client.wants(up("b", 0.0, x=1))
        assert not client.wants(up("a", 0.0, y=1))

    def test_drain_preserves_order_and_wakeup_edges(self):
        client = WatchClient()
        assert client.push(up("a", 0.0, x=0)) is True
        assert client.push(up("b", 1.0, x=1)) is False
        assert [h for h, _, _ in client.drain()] == ["a", "b"]
        assert client.push(up("c", 2.0, x=2)) is True  # edge again


class TestWatchHub:
    def test_host_indexed_dispatch(self):
        cwx = ClusterWorX(n_nodes=4, seed=1, monitor_interval=5.0)
        hub = WatchHub(cwx.server)
        names = cwx.cluster.hostnames
        narrow = hub.register(WatchClient(hosts=[names[0]]))
        wide = hub.register(WatchClient())
        cwx.start()
        cwx.run(30)
        narrow_hosts = {h for h, _, _ in narrow.drain()}
        wide_hosts = {h for h, _, _ in wide.drain()}
        assert narrow_hosts == {names[0]}
        assert len(wide_hosts) == 4
        assert hub.active_watchers == 2
        hub.unregister(narrow)
        assert hub.active_watchers == 1
        # totals survive unregistration (cumulative for /stats)
        assert hub.totals()["watch_frames"] > 0
        hub.close()
        assert hub.active_watchers == 0

    def test_eviction_counted_once_and_stream_isolated(self):
        cwx = ClusterWorX(n_nodes=4, seed=2, monitor_interval=5.0)
        hub = WatchHub(cwx.server,
                       policy=WatchPolicy(queue_limit=1, evict_backlog=1))
        slow = hub.register(WatchClient(policy=hub.policy))
        healthy = hub.register(WatchClient())
        cwx.start()
        cwx.run(60)
        assert slow.evicted
        assert hub.evictions == 1
        assert len(healthy.drain()) > 0, \
            "healthy watcher starved by peer eviction"
        hub.close()


# -- published-view state -----------------------------------------------------

class TestGatewayState:
    def test_refresh_reuses_view_when_nothing_changed(self):
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        with state.lock:    # refresh() is called under the slice lock
            view1 = state.refresh()
            view2 = state.refresh()
        assert view2 is view1
        assert state.publish_reuses >= 1
        cwx.run(10)
        with state.lock:
            view3 = state.refresh()
        assert view3 is not view1
        assert view3.generation > view1.generation
        assert cwx.server.store.full_copies == 0

    def test_a_membership_change_is_published_once(self):
        """``track`` moves the store's generation without a write; the
        next refresh publishes a view at that generation, and the one
        after it reuses that view."""
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        cwx.server.store.track("ghost")
        with state.lock:
            tracked = state.refresh()
            assert tracked.generation == cwx.server.store.generation
            assert state.refresh() is tracked
        assert (state.publishes, state.publish_reuses) == (1, 1)

    def test_hot_reads_come_from_the_frozen_view(self):
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        state.refresh()
        route, params = build_router(state, dict).resolve("/v1/summary")
        frozen, before = state.view, route.handler(None, params)
        cwx.run(30)  # sim moves on; the view must not
        assert state.view is frozen
        assert route.handler(None, params) == before
        assert before[1][0][3] is frozen.summary

    def test_query_filters_nodes_and_metrics(self):
        cwx = ClusterWorX(n_nodes=6, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(30)
        state = GatewayState(cwx.server,
                             resolver=cwx.cluster.group_resolver())
        state.refresh()
        names = cwx.cluster.hostnames
        table = state.query(f"{names[0]},{names[1]}", ["cpu_util_pct"])
        assert len(table) == 2
        frames = list(table)
        assert [f[1] for f in frames] == sorted([names[0], names[1]])
        for kind, _, t, values in frames:
            assert (kind, t) == ("host", state.view.sim_time)
            assert set(values) <= {"cpu_util_pct"}

    def test_change_log_names_the_hosts_updated_between_views(self):
        """A projected all-hosts query starts the change log, on one bus
        subscription, when the published view is the world as it is.
        The log then names the hosts a published update on those fields
        reached between two views; it answers None for a view before it
        began, for other fields, or once more than half the hosts
        changed.  A query after the sim moved on past the view starts
        none; ``close()`` cancels the subscription."""
        cwx = ClusterWorX(n_nodes=6, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(30)
        store = cwx.server.store
        state = GatewayState(cwx.server)
        fields = ("cpu_util_pct",)

        def subscribed():
            return [sub.name for sub in store.subscriptions
                    if sub.name == "gateway-changes"]

        first = state.view
        table = state.query(None, list(fields))
        assert (table.number, table.changed_since(0)) == (0, set())
        assert subscribed() == ["gateway-changes"]
        a, b = cwx.cluster.hostnames[:2]
        now = cwx.kernel.now
        store.apply(Update(a, now, {"cpu_util_pct": 99.0}))
        store.apply(Update(b, now, {"cpu_temp_c": 99.0}))
        with state.lock:
            second = state.refresh()
        assert state.changed_since(first.number, second, fields) == {a}
        assert state.changed_since(second.number, second, fields) == set()
        assert state.changed_since(first.number, second,
                                   ("cpu_temp_c",)) is None
        cwx.run(5)                      # past the view: no log starts
        assert state.query(None, ["cpu_temp_c"]).changed_since(
            second.number) is None
        assert state.changed_since(first.number, second, fields) == {a}
        with state.lock:
            third = state.refresh()
        assert state.query(None, ["cpu_temp_c"]).changed_since(
            third.number) == set()
        assert state.changed_since(second.number, third,
                                   ("cpu_temp_c",)) is None
        assert subscribed() == ["gateway-changes"]
        # Past half the hosts changed, the log is dropped: a body reads
        # every row anyway.
        now = cwx.kernel.now
        for host in cwx.cluster.hostnames[:4]:
            store.apply(Update(host, now, {"cpu_temp_c": 98.0}))
        with state.lock:
            fourth = state.refresh()
        assert state.changed_since(third.number, fourth,
                                   ("cpu_temp_c",)) is None
        state.close()
        assert subscribed() == []
        assert state.changed_since(fourth.number, fourth,
                                   ("cpu_temp_c",)) is None

    def test_one_busy_host_keeps_a_small_fleets_change_log(self):
        """Eight nodes, one of them loaded: within one slice its updates
        outnumber half the hosts, but they name one host, so the log is
        kept and names it.  (The log was dropped once its entries passed
        half the hosts, and the next body was written whole.)"""
        cwx = ClusterWorX(n_nodes=8, seed=4, monitor_interval=1.0)
        busy = cwx.cluster.hostnames[0]
        cwx.start()
        now = cwx.kernel.now
        cwx.cluster.node(busy).workload.extend(
            WorkloadSegment(start=now + i, duration=1.0,
                            cpu=0.2 + 0.1 * (i % 5)) for i in range(60))
        cwx.run(5)
        state = GatewayState(cwx.server)
        fields = ("cpu_util_pct",)
        first = state.query(None, list(fields))
        cwx.run(6)
        with state.lock:
            view = state.refresh()
        log = state._changes
        assert log is not None and len(log.entries) > 4
        assert state.changed_since(first.number, view, fields) == {busy}

    def test_a_failed_over_federation_starts_the_change_log(self):
        """Sixteen nodes in four shards, shard 1 killed and drained: the
        store's generation still counts the drained shard's writes and
        the view's does not, yet nothing was applied since the view, so
        a projected query starts the log.  (It compared generations and
        never started it after a fail-over.)"""
        cwx = ClusterWorX(n_nodes=16, seed=4, monitor_interval=5.0,
                          topology="federation", shards=4)
        cwx.start()
        FaultPlane(cwx.kernel, federation=cwx.server).kill_shard(
            1, cwx.kernel.now + 1.0)
        cwx.run(60)
        assert [row[1] for row in cwx.server.failovers] == [1]
        state = GatewayState(cwx.server)
        assert cwx.server.store.generation != state.view.generation
        table = state.query(None, ["cpu_util_pct"])
        assert state._changes is not None
        assert table.changed_since(table.number) == set()

    def test_a_projected_query_never_waits_for_a_slice(self):
        """While the sim thread holds the slice lock for half a second, a
        projected all-hosts query answers off the published view at once
        and leaves the change log unstarted; the next query after the
        slice starts it.  (Starting the log waited for the lock.)"""
        cwx = ClusterWorX(n_nodes=8, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        held = threading.Event()

        def slice_():
            with state.lock:
                held.set()
                time.sleep(0.5)

        sim = threading.Thread(target=slice_)
        sim.start()
        held.wait()
        t0 = time.perf_counter()
        table = state.query(None, ["cpu_util_pct"])
        body = JsonWire().encode(table)
        elapsed = time.perf_counter() - t0
        started = state._changes is not None
        sim.join()
        assert elapsed < 0.05, elapsed
        assert body == oracle_body(list(table))
        assert not started
        state.query(None, ["cpu_util_pct"])
        assert state._changes is not None

    def test_history_reads_bucket_and_window_outside_the_slice_lock(
            self, monkeypatch):
        """The slice lock covers the copy-out of a series only: the
        bucketing (the plain loop's, for a series of fewer samples than
        buckets and of more) and the windowing run on the fresh copy
        after it is released, and answer what the history's own graph
        and window do."""
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
        cwx.start()
        cwx.run(60)
        state = GatewayState(cwx.server)
        held = []

        def unlocked(name):
            read = getattr(gateway_state, name)

            def check(*args):
                held.append((name, state.lock.locked()))
                return read(*args)
            monkeypatch.setattr(gateway_state, name, check)

        for name in ("downsample_bytes", "window"):
            unlocked(name)
        host = cwx.cluster.hostnames[0]
        history = cwx.server.history
        n = len(history.series(host, "uptime_seconds")[0])
        sizes = (2, n, n + 1)
        graphs = [state.history_graph(host, "uptime_seconds", buckets=buckets)
                  for buckets in sizes]
        samples = state.history_window(host, "uptime_seconds", 20.0, 50.0)
        assert held == [("downsample_bytes", False)] * 3 + [("window", False)]
        for graph, buckets in zip(graphs, sizes):
            assert repr(graph) == repr([
                column.tolist()
                for column in history.graph(host, "uptime_seconds", buckets)])
            assert len(graph[0]) == buckets
        assert samples == [
            column.tolist()
            for column in history.window(host, "uptime_seconds", 20.0, 50.0)]
        assert n > 2 and samples[0]

    def test_a_plugin_list_changed_in_place_reaches_the_body(self):
        """A plug-in that appends to the one list it returns every
        sample: the store holds a copy taken at the sample, never the
        plug-in's object, so after each publish a long-lived wire's
        all-hosts body — projected on the plug-in, or every field — is
        a fresh wire's."""
        seen = []

        def grow(ctx):
            seen.append(round(ctx.t))
            return seen

        cwx = ClusterWorX(n_nodes=4, seed=4, monitor_interval=5.0)
        cwx.registry.add(Monitor("seen", grow))
        cwx.start()
        cwx.run(10)
        state = GatewayState(cwx.server)
        wires = {("seen",): JsonWire(), None: JsonWire()}
        bodies = []
        for _ in range(4):
            cwx.run(5)
            with state.lock:
                state.refresh()
            for fields, wire in wires.items():
                table = state.query(None, fields and list(fields))
                bodies.append(wire.encode(table))
                assert bodies[-1] == JsonWire().encode(list(table)) \
                    == oracle_body(list(table))
        host = cwx.cluster.hostnames[0]
        assert cwx.server.store.get(host)["seen"] is not seen
        assert len(set(bodies)) == len(bodies)

    def test_folded_hosts_cached_per_generation(self):
        cwx = ClusterWorX(n_nodes=5, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        state.refresh()
        folded = state.folded_hosts()
        assert "[" in folded  # actually folded to range algebra
        assert state.folded_hosts() is folded  # cached

    def test_unchanged_membership_sorts_and_folds_once(self, monkeypatch):
        """K publishes over an unchanged membership carry one hostnames
        tuple forward and fold it once; a hot-add and a removal each
        sort and fold again."""
        folds = []
        fold = NodeSet.fold
        monkeypatch.setattr(
            NodeSet, "fold", lambda self: folds.append(1) or fold(self))
        cwx = ClusterWorX(n_nodes=5, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        names, folded = state.view.hostnames, state.folded_hosts()
        for _ in range(4):
            cwx.run(5)
            with state.lock:
                state.refresh()
            assert state.view.hostnames is names
            assert state.folded_hosts() is folded
        assert state.publishes == 4 and len(folds) == 1

        added = cwx.add_node()
        cwx.run(60)                     # boots, then its first update
        with state.lock:
            state.refresh()
        grown = state.view.hostnames
        assert grown == tuple(sorted(names + (added,)))
        assert state.folded_hosts() != folded and len(folds) == 2

        cwx.remove_node(names[0])
        cwx.run(5)
        with state.lock:
            state.refresh()
        assert state.view.hostnames == grown[1:]
        assert state.folded_hosts() == fold(NodeSet(",".join(grown[1:])))
        assert len(folds) == 3

    def test_hosts_count_and_fold_come_from_one_view(self):
        """A publish that changes the membership between the route's
        read of the view and its fold cannot pair one membership's
        count with another's nodes."""
        cwx = ClusterWorX(n_nodes=5, seed=4, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        state = GatewayState(cwx.server)
        fold, victim = state.folded_hosts, state.view.hostnames[0]

        def publish_then_fold(*args):
            if victim in state.view.hostnames:
                cwx.remove_node(victim)
                cwx.run(5)
                with state.lock:
                    state.refresh()
            return fold(*args)

        state.folded_hosts = publish_then_fold
        route, params = build_router(state, dict).resolve("/v1/hosts")
        _, frames = route.handler(None, params)
        values = frames[0][3]
        assert len(state.view.hostnames) == 4      # the publish happened
        assert values["count"] == 5
        assert len(NodeSet(values["nodes"])) == values["count"]

    def test_fold_takes_each_name_literally(self):
        """Folding the hostnames tuple gives what folding its joined
        string did, over a mixed membership: two prefixes, zero-padded
        and unpadded widths, and one name without a number."""
        names = tuple(sorted(
            [f"rack-a{i:03d}" for i in (1, 2, 3, 7, 10, 11, 99, 100)]
            + [f"b{i}" for i in (1, 2, 3, 9, 10, 12)]
            + ["b07", "b008", "login"]))
        state = GatewayState(SimpleNamespace(
            store=SimpleNamespace(snapshot=lambda: Snapshot({}, 0, 0.0, 0)),
            engine=SimpleNamespace(active_events=tuple),
            cluster_summary=dict, kernel=SimpleNamespace(now=0.0),
            degraded_info=lambda: {"degraded": False}))
        folded = state.folded_hosts(names)
        assert folded == NodeSet(",".join(names)).fold()
        assert sorted(NodeSet(folded)) == sorted(names)
        assert state.folded_hosts(()) == ""


# -- query parameters ---------------------------------------------------------

@pytest.fixture(scope="module", params=["flat", "federation"])
def routed(request):
    """A router over a small cluster whose one rule has fired on every
    node, so the event log holds entries to limit."""
    topology = ({"topology": "federation", "shards": 2}
                if request.param == "federation" else {})
    cwx = ClusterWorX(n_nodes=4, seed=5, monitor_interval=5.0, **topology)
    cwx.add_threshold("warm", metric="cpu_temp_c", op=">", threshold=0.0,
                      action="none")
    cwx.start()
    cwx.run(20)
    assert len(cwx.server.engine.event_log()) >= 2
    return cwx.cluster.hostnames[0], build_router(GatewayState(cwx.server),
                                                  dict)


@pytest.mark.parametrize("path, status, frames", [
    ("/v1/history/{host}/cpu_temp_c?buckets=4", 200, 4),
    ("/v1/history/{host}/cpu_temp_c?t0=abc", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?t0=0&t1=nan", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=0", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=-3", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=nan", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=inf", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=4096", 200, 4096),
    ("/v1/history/{host}/cpu_temp_c?buckets=4097", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=1e6", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=2.9", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=3.0", 200, 3),
    ("/v1/history/{host}/cpu_temp_c?buckets=1_0", 400, 0),
    ("/v1/history/{host}/cpu_temp_c?buckets=%202%20", 400, 0),
    ("/v1/events/log?limit=1", 200, 1),
    ("/v1/events/log?limit=0", 200, 0),
    ("/v1/events/log?limit=-1", 400, 0),
    ("/v1/events/log?limit=nan", 400, 0),
    ("/v1/events/log?limit=inf", 400, 0),
    ("/v1/events/log?limit=2.5", 400, 0),
    ("/v1/events/log?since=-inf", 400, 0),
])
def test_malformed_numeric_parameters_are_400s(routed, path, status,
                                               frames):
    """What the shell would answer: a handler's HttpError is its status,
    any other exception a 500."""
    host, router = routed
    request = parse_request(
        f"GET {path.format(host=host)} HTTP/1.1\r\n\r\n".encode("latin-1"))
    route, params = router.resolve(request.path)
    try:
        got = route.handler(request, params)
    except HttpError as exc:
        got = (exc.status, [])
    except Exception:
        got = (500, [])
    assert (got[0], len(got[1])) == (status, frames)


def _in_grammar(raw):
    """The numeric parameter grammar, spelled without a regex: an
    optional sign, then ASCII digits around at most one point, with at
    least one digit."""
    body = raw[1:] if raw[:1] in ("+", "-") else raw
    digits = body.replace(".", "", 1)
    return digits != "" and all(c in "0123456789" for c in digits)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123456789+-._ eEinfa\t\u0663\uff11", max_size=6),
    st.from_regex(r"\A[+-]?[0-9]{0,3}\.?[0-9]{0,3}\Z")))
def test_a_numeric_parameter_is_accepted_exactly_in_its_grammar(raw):
    request = SimpleNamespace(param=lambda name: raw)
    try:
        value = routes._float_param(request, "x", None)
    except HttpError as exc:
        assert exc.status == 400
        assert not _in_grammar(raw), raw
    else:
        assert _in_grammar(raw), raw
        assert value == float(raw)


# -- request metrics ----------------------------------------------------------

class TestGatewayMetrics:
    def test_counters_and_quantiles(self):
        m = GatewayMetrics()
        m.start(100.0)
        for i in range(100):
            m.record(200, latency_s=(i + 1) / 1000.0, bytes_out=10)
        m.record(404, latency_s=0.5, bytes_out=5)
        values = m.values(now=201.0)
        assert values["requests"] == 101
        assert values["errors"] == 1
        assert values["bytes_out"] == 1005
        assert values["qps"] == pytest.approx(1.0, rel=0.01)
        assert values["latency_p50_ms"] == pytest.approx(50.0, rel=0.1)
        assert values["latency_p99_ms"] >= values["latency_p50_ms"]


# -- the full service over real sockets ---------------------------------------

async def _start_service(n_nodes=8, seed=11, *, monitors=(), **options):
    cwx = ClusterWorX(n_nodes=n_nodes, seed=seed, monitor_interval=5.0)
    for monitor in monitors:
        cwx.registry.add(monitor)
    cwx.start()
    cwx.run(30.0)
    service = GatewayService(cwx.server, cluster=cwx.cluster, **options)
    await service.start()
    service.driver.start()
    return cwx, service


async def _stop_service(service):
    service.driver.stop()
    await service.stop()


async def _get(reader, writer, path="/v1/summary"):
    """One keep-alive GET on an open connection: (head, body).  Plain
    awaits only (no ``wait_for``), so the client creates no Task."""
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1"))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int([line for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length")
                  ][0].split(b":")[1])
    return head, await reader.readexactly(length)


async def _open_watch(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /v1/watch HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10.0)
    assert b"200 OK" in head
    return reader, writer


class TestServiceEndToEnd:
    def test_rest_surface(self):
        async def scenario():
            cwx, service = await _start_service()
            host = cwx.cluster.hostnames[0]
            status, ctype, body = await fetch(
                "127.0.0.1", service.port, "/v1/summary")
            assert status == 200 and ctype == "application/json"
            frame = json.loads(body)
            assert frame["values"]["nodes_total"] == 8

            status, _, body = await fetch(
                "127.0.0.1", service.port, f"/v1/hosts/{host}")
            assert status == 200
            assert json.loads(body)["subject"] == host

            status, _, _ = await fetch(
                "127.0.0.1", service.port, "/v1/hosts/ghost")
            assert status == 404

            status, _, body = await fetch(
                "127.0.0.1", service.port,
                f"/v1/history/{host}/cpu_temp_c?buckets=4")
            assert status == 200

            status, _, body = await fetch(
                "127.0.0.1", service.port, "/stats")
            stats = json.loads(body)["values"]
            assert stats["requests"] >= 4
            assert stats["publishes"] >= 1
            await _stop_service(service)
            assert cwx.server.store.full_copies == 0
        asyncio.run(scenario())

    def test_a_set_valued_plugin_is_served_on_both_wires(self):
        """Plug-ins whose values are sets: the host and the unprojected
        all-hosts query answer on both wires with the same text, and a
        watch stream carries a set that changes.  (The JSON encode ran outside the handler's guard
        and raised: the client got no response at all.)"""
        async def scenario():
            cwx, service = await _start_service(monitors=[
                Monitor("tags", lambda ctx: {"gpu", "ib"}),
                Monitor("slots", lambda ctx: {int(ctx.t)})])
            host = cwx.cluster.hostnames[0]
            tags = str({"gpu", "ib"})
            for path in (f"/v1/hosts/{host}", "/v1/query"):
                status, _, body = await fetch(
                    "127.0.0.1", service.port, path)
                assert status == 200
                frames = service.json_wire.decode(body)
                status, _, body = await fetch(
                    "127.0.0.1", service.port, path,
                    accept=BINARY_CONTENT_TYPE)
                assert status == 200
                assert [values["tags"] for *_, values in frames] \
                    == [values["tags"] for *_, values in
                        service.binary_wire.decode(body)] \
                    == [tags] * len(frames)
            reader, writer = await _open_watch(service.port)
            values = {}
            while "slots" not in values:    # a new set every sample
                line = await asyncio.wait_for(reader.readuntil(b"\n\n"),
                                              10.0)
                values = json.loads(line[len(b"data: "):])["values"]
            assert values["slots"].startswith("{")
            writer.close()
            await _stop_service(service)
        asyncio.run(scenario())

    def test_an_encode_failure_answers_500(self, caplog):
        """A body the wire fails to write is answered as a handler's
        failure is, its traceback logged, and the connection serves
        on."""
        async def scenario():
            cwx, service = await _start_service()
            encode = service.json_wire.encode
            calls = []

            def fail_once(frames):
                if not calls:
                    calls.append(frames)
                    raise TypeError("not serializable")
                return encode(frames)

            service.json_wire.encode = fail_once
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            with caplog.at_level(logging.ERROR, "repro.gateway.shell"):
                head, body = await _get(reader, writer)
            assert head.startswith(b"HTTP/1.1 500")
            assert json.loads(body)["values"]["message"] \
                == "TypeError: not serializable"
            [record] = [record for record in caplog.records
                        if record.name == "repro.gateway.shell"]
            assert "GET /v1/summary" in record.getMessage()
            assert record.exc_info[0] is TypeError
            assert "fail_once" in caplog.text   # the traceback's frame
            head, body = await _get(reader, writer)
            assert head.startswith(b"HTTP/1.1 200")
            writer.close()
            await _stop_service(service)
        asyncio.run(scenario())

    def test_a_repeated_all_hosts_query_resends_the_kept_response(self):
        """A second all-hosts query on one view is written as the very
        response object sent the first time — no body-sized block is
        allocated or freed — and a new view, a closing connection or a
        query the wire keeps no body for is formatted afresh."""
        cwx = ClusterWorX(n_nodes=8, seed=11, monitor_interval=5.0)
        cwx.start()
        cwx.run(30.0)
        service = GatewayService(cwx.server, cluster=cwx.cluster)
        written = []

        async def drain():
            pass

        writer = SimpleNamespace(write=written.append, drain=drain)

        def serve(path, close=False):
            head = f"GET {path} HTTP/1.1\r\nHost: x" + (
                "\r\nConnection: close" if close else "")
            asyncio.run(service._serve_request(
                parse_request(head.encode("latin-1")), writer, 0.0))
            return written[-1]

        query = "/v1/query?metrics=cpu_util_pct"
        first = serve(query)
        assert serve(query) is first
        closing = serve(query, close=True)
        assert closing is not first and b"Connection: close" in closing
        assert serve("/v1/query?nodes=cluster-n0001") is not first
        assert serve("/v1/summary") == serve("/v1/summary")
        cwx.run(5.0)
        with service.state.lock:
            service.state.refresh()
        assert serve(query) is not first
        assert serve(query) is written[-2]

    def test_binary_negotiation_and_size(self):
        async def scenario():
            cwx, service = await _start_service()
            _, jtype, jbody = await fetch(
                "127.0.0.1", service.port, "/v1/summary")
            _, btype, bbody = await fetch(
                "127.0.0.1", service.port, "/v1/summary",
                accept=BINARY_CONTENT_TYPE)
            assert jtype == "application/json"
            assert btype == BINARY_CONTENT_TYPE
            frames = service.binary_wire.decode(bbody)
            assert frames[0][3]["nodes_total"] == 8
            assert len(bbody) <= 0.6 * len(jbody), (len(bbody),
                                                    len(jbody))
            await _stop_service(service)
        asyncio.run(scenario())

    def test_watch_stream_delivers_filtered_deltas(self):
        async def scenario():
            cwx, service = await _start_service()
            target = cwx.cluster.hostnames[0]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            writer.write(f"GET /v1/watch?hosts={target} HTTP/1.1\r\n"
                         f"Host: x\r\nAccept: {BINARY_CONTENT_TYPE}\r\n"
                         "\r\n".encode("latin-1"))
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200 OK" in head
            frames = await read_stream_frames(
                reader, service.binary_wire, 3, timeout=30.0)
            assert len(frames) >= 3
            assert {f[1] for f in frames} == {target}
            writer.close()
            await _stop_service(service)
        asyncio.run(scenario())

    def test_stop_leaves_no_gateway_subscription(self):
        """The watch hub's and the change log's bus subscriptions both
        end with the service."""
        async def scenario():
            cwx, service = await _start_service()

            def subscribed():
                return sorted(sub.name for sub in
                              cwx.server.store.subscriptions
                              if sub.name.startswith("gateway"))

            for _ in range(200):   # the log starts between two slices
                status, _, _ = await fetch(
                    "127.0.0.1", service.port,
                    "/v1/query?metrics=cpu_util_pct")
                assert status == 200
                if len(subscribed()) == 2:
                    break
                await asyncio.sleep(0.01)
            assert subscribed() == ["gateway", "gateway-changes"]
            await _stop_service(service)
            assert subscribed() == []
        asyncio.run(scenario())

    def test_keep_alive_pipelines_requests(self):
        async def scenario():
            cwx, service = await _start_service()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            for _ in range(3):
                head, body = await _get(reader, writer)
                assert b"200 OK" in head
                assert json.loads(body)["kind"] == "summary"
            writer.close()
            await _stop_service(service)
            assert service.connections == 1
        asyncio.run(scenario())


class TestConnectionLifecycle:
    """Idle reaping, ``stop()`` and the over-long head, over real sockets."""

    def test_keep_alive_requests_create_no_tasks(self):
        # Each request on an open connection is read by the connection's
        # own handler task: no per-request Task (a ``wait_for`` around
        # the head read made one per request).
        async def scenario():
            cwx, service = await _start_service()
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            await _get(reader, writer)  # the handler task is running
            created = []

            def counting(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting)
            try:
                for _ in range(20):
                    head, _ = await _get(reader, writer)
                    assert b"200 OK" in head
            finally:
                loop.set_task_factory(None)
            writer.close()
            await _stop_service(service)
            return created
        assert asyncio.run(scenario()) == []

    def test_idle_connection_is_closed_after_idle_timeout(self):
        async def scenario():
            cwx, service = await _start_service(idle_timeout=0.3)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            t0 = time.perf_counter()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            waited = time.perf_counter() - t0
            writer.close()
            await _stop_service(service)
            return waited
        assert 0.25 <= asyncio.run(scenario()) < 2.0

    def test_each_response_restarts_the_idle_clock(self):
        async def scenario():
            cwx, service = await _start_service(idle_timeout=0.3)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.9:
                await asyncio.sleep(0.1)
                head, _ = await _get(reader, writer)
                assert b"200 OK" in head
            writer.close()
            await _stop_service(service)
            assert service.connections == 1
        asyncio.run(scenario())

    def test_watch_stream_outlives_idle_timeout(self):
        async def scenario():
            cwx, service = await _start_service(idle_timeout=0.3)
            reader, writer = await _open_watch(service.port)
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 3 * service.idle_timeout:
                assert await asyncio.wait_for(reader.read(65536), 10.0)
            assert service.hub.active_watchers == 1
            writer.close()
            await _stop_service(service)
        asyncio.run(scenario())

    def test_stop_closes_accepted_connections(self):
        async def scenario():
            cwx, service = await _start_service()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            head, _ = await _get(reader, writer)
            assert b"200 OK" in head
            w_reader, w_writer = await _open_watch(service.port)
            await _stop_service(service)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert service.hub.active_watchers == 0
            writer.write(b"GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n")
            try:
                after_stop = await asyncio.wait_for(reader.read(), 10.0)
            except ConnectionError:
                after_stop = b""
            # the stream's buffered frames, then EOF
            await asyncio.wait_for(w_reader.read(), 10.0)
            assert w_reader.at_eof()
            writer.close()
            w_writer.close()
            return after_stop
        assert asyncio.run(scenario()) == b""

    def test_oversized_head_is_a_431(self, caplog):
        async def scenario():
            cwx, service = await _start_service()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            writer.write(b"GET /v1/summary HTTP/1.1\r\nHost: x\r\nX-Pad: "
                         + b"a" * 70000 + b"\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await _stop_service(service)
            return raw
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            raw = asyncio.run(scenario())
        head = raw.partition(b"\r\n\r\n")[0]
        assert head.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"Connection: close" in head
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

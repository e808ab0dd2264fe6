"""Tests for the tier-2 typed datapath: StateStore rollups, snapshots,
subscriptions, and the server/client integration built on them."""

import math

import numpy as np
import pytest

from repro.core import ClusterWorX, connect
from repro.core.statestore import (ERRORS_KEPT, SUBSCRIBER_ERROR_LIMIT,
                                   Sample, Snapshot, StateStore, Update)
from repro.events.engine import EventEngine
from repro.events.rules import ThresholdRule
from repro.faults.invariants import rollup_matches_parts
from repro.slurm import LiveUtilization
from repro.util.recordlog import RecordLog


def up(host, t, **values):
    values.setdefault("udp_echo", 1)
    return Update(hostname=host, time=t, values=values)


class TestUpdate:
    def test_values_frozen(self):
        u = Update(hostname="a", time=1.0, values={"x": 1})
        with pytest.raises(TypeError):
            u.values["x"] = 2

    def test_values_copied_from_source(self):
        src = {"x": 1}
        u = Update(hostname="a", time=1.0, values=src)
        src["x"] = 99
        assert u.values["x"] == 1

    def test_sample_is_update(self):
        assert Sample is Update

    def test_defaults(self):
        u = Update(hostname="a", time=0.0, values={})
        assert u.source == "agent" and u.seq == 0


class TestRollup:
    def brute_force(self, store):
        """Recompute the summary the pre-store way: full rescan."""
        snap = store.snapshot()
        total = len(store.tracked) or len(snap)
        ups = sum(1 for h in snap if snap[h].get("udp_echo") == 1)
        cpus = [float(snap[h]["cpu_util_pct"]) for h in snap
                if "cpu_util_pct" in snap[h]]
        temps = [float(snap[h]["cpu_temp_c"]) for h in snap
                 if "cpu_temp_c" in snap[h]]
        return {
            "nodes_total": total,
            "nodes_up": ups,
            "nodes_down": total - ups,
            "cpu_util_mean_pct": sum(cpus) / len(cpus) if cpus else 0.0,
            "mem_used_bytes": int(sum(
                float(snap[h].get("mem_used_bytes", 0)) for h in snap)),
            "mem_total_bytes": int(sum(
                float(snap[h].get("mem_total_bytes", 0)) for h in snap)),
            "cpu_temp_max_c": max(temps) if temps else 0.0,
        }

    def test_matches_brute_force_under_random_churn(self):
        rng = np.random.default_rng(42)
        store = StateStore()
        hosts = [f"n{i:02d}" for i in range(12)]
        for h in hosts:
            store.track(h)
        for step in range(400):
            h = hosts[int(rng.integers(len(hosts)))]
            roll = rng.random()
            if roll < 0.05 and h in store:
                store.forget(h)
                store.track(h)  # re-join empty, still tracked
                continue
            values = {}
            if rng.random() < 0.5:
                values["udp_echo"] = int(rng.integers(2))
            if rng.random() < 0.6:
                values["cpu_util_pct"] = float(rng.random() * 100)
            if rng.random() < 0.4:
                values["mem_used_bytes"] = int(rng.integers(1 << 30))
                values["mem_total_bytes"] = 1 << 30
            if rng.random() < 0.5:
                values["cpu_temp_c"] = float(20 + rng.random() * 40)
            if not values:
                continue
            store.apply(Update(hostname=h, time=float(step),
                               values=values))
            got = store.summary()
            want = self.brute_force(store)
            for key, expected in want.items():
                assert got[key] == pytest.approx(expected), \
                    f"{key} diverged at step {step}"

    def test_tracked_but_silent_counts_down(self):
        store = StateStore()
        store.track("a")
        store.track("b")
        store.apply(up("a", 1.0))
        s = store.summary()
        assert s["nodes_total"] == 2
        assert s["nodes_up"] == 1 and s["nodes_down"] == 1

    def test_temp_max_rescans_only_when_hottest_cools(self):
        store = StateStore()
        store.apply(Update(hostname="a", time=1.0,
                           values={"cpu_temp_c": 50.0}))
        store.apply(Update(hostname="b", time=2.0,
                           values={"cpu_temp_c": 40.0}))
        assert store.temp_rescans == 0
        # non-hottest host moving does not rescan
        store.apply(Update(hostname="b", time=3.0,
                           values={"cpu_temp_c": 45.0}))
        assert store.temp_rescans == 0
        # hottest cooling forces one rescan; new max is b
        store.apply(Update(hostname="a", time=4.0,
                           values={"cpu_temp_c": 30.0}))
        assert store.temp_rescans == 1
        assert store.summary()["cpu_temp_max_c"] == 45.0

    def test_forget_removes_contributions(self):
        store = StateStore()
        for h in ("a", "b"):
            store.track(h)
            store.apply(up(h, 1.0, cpu_util_pct=50.0,
                           mem_used_bytes=100, mem_total_bytes=200,
                           cpu_temp_c=60.0))
        store.forget("a")
        s = store.summary()
        assert s["nodes_total"] == 1 and s["nodes_up"] == 1
        assert s["cpu_util_mean_pct"] == 50.0
        assert s["mem_used_bytes"] == 100
        assert s["mem_total_bytes"] == 200
        assert "a" not in store
        assert store.last_seen("a") is None


class TestSnapshotCOW:
    def test_snapshot_reused_until_write(self):
        store = StateStore()
        store.apply(up("a", 1.0))
        s1 = store.snapshot()
        s2 = store.snapshot()
        assert s1 is s2
        assert store.snapshots_taken == 1 and store.snapshot_reuses == 1

    def test_write_forks_once_and_freezes_old_view(self):
        store = StateStore()
        store.apply(up("a", 1.0, cpu_util_pct=10.0))
        snap = store.snapshot()
        gen = snap.generation
        store.apply(up("a", 2.0, cpu_util_pct=90.0))
        store.apply(up("b", 3.0))
        assert store.cow_forks == 1      # one fork per snapshot+write pair
        assert snap["a"]["cpu_util_pct"] == 10.0
        assert "b" not in snap and snap.generation == gen
        fresh = store.snapshot()
        assert fresh["a"]["cpu_util_pct"] == 90.0 and "b" in fresh
        assert fresh.generation > gen

    def test_snapshot_stable_across_update_burst(self):
        store = StateStore()
        for i in range(10):
            store.apply(up(f"n{i}", 1.0, cpu_util_pct=float(i)))
        snap = store.snapshot()
        frozen = {h: dict(snap[h]) for h in snap}
        for i in range(10):
            store.apply(up(f"n{i}", 2.0, cpu_util_pct=float(100 + i)))
        store.forget("n0")
        assert {h: dict(snap[h]) for h in snap} == frozen

    def test_no_full_copies_ever(self):
        store = StateStore()
        for i in range(50):
            store.apply(up(f"n{i}", 1.0))
        for _ in range(200):
            store.snapshot()
            store.get("n0")
            store.summary()
        assert store.full_copies == 0

    def test_generation_monotone(self):
        store = StateStore()
        gens = []
        for i in range(20):
            store.apply(up("a", float(i), cpu_util_pct=float(i)))
            gens.append(store.snapshot().generation)
        assert gens == sorted(gens) and len(set(gens)) == len(gens)

    def test_snapshot_is_mapping(self):
        store = StateStore()
        store.apply(up("a", 1.0))
        snap = store.snapshot()
        assert isinstance(snap, Snapshot)
        assert set(snap) == {"a"} and len(snap) == 1
        assert dict(snap)["a"]["udp_echo"] == 1
        with pytest.raises(TypeError):
            snap["a"]["udp_echo"] = 0

    def test_membership_change_restamps_the_view(self):
        """``track`` and ``forget`` of a silent host move the generation
        without a write: the next view carries the new generation, and
        copy-on-write still protects every view handed out."""
        store = StateStore()
        store.apply(up("a", 1.0, cpu_util_pct=10.0))
        first = store.snapshot()
        store.track("b")
        tracked = store.snapshot()
        assert tracked is not first
        assert (first.generation, tracked.generation,
                store.generation) == (1, 2, 2)
        assert store.snapshot() is tracked
        store.forget("b")
        forgotten = store.snapshot()
        assert forgotten.generation == store.generation == 3
        store.apply(up("a", 2.0, cpu_util_pct=90.0))
        assert store.cow_forks == 1
        for view in (first, tracked, forgotten):
            assert view["a"]["cpu_util_pct"] == 10.0
        assert store.snapshot()["a"]["cpu_util_pct"] == 90.0
        assert store.full_copies == 0


class TestSubscriptionBus:
    def test_delivery_and_counters(self):
        store = StateStore()
        seen = []
        sub = store.subscribe(seen.append, name="t")
        u = store.apply(up("a", 1.0))
        assert seen == [u]
        assert sub.delivered == 1 and store.notifications == 1

    def test_host_and_metric_filters(self):
        store = StateStore()
        seen = []
        store.subscribe(seen.append, hosts=["a"],
                        metrics=["cpu_temp_c"])
        store.apply(up("b", 1.0, cpu_temp_c=50.0))      # wrong host
        store.apply(up("a", 2.0))                        # wrong metric
        hit = store.apply(up("a", 3.0, cpu_temp_c=51.0))
        assert seen == [hit]

    def test_cancel_detaches(self):
        store = StateStore()
        seen = []
        sub = store.subscribe(seen.append)
        sub.cancel()
        store.apply(up("a", 1.0))
        assert seen == [] and not sub.active
        assert sub not in store.subscriptions

    def test_error_isolation(self):
        store = StateStore()

        def bad(update):
            raise RuntimeError("consumer bug")

        seen = []
        store.subscribe(bad, name="bad")
        good = store.subscribe(seen.append, name="good")
        store.apply(up("a", 1.0))
        assert len(seen) == 1 and good.delivered == 1
        assert store.errors == [("bad", "a", "consumer bug")]

    def test_errors_keep_the_newest_failures(self):
        """A subscriber that fails every other delivery is never
        detached (each success resets its count), so the store keeps
        only the newest ``ERRORS_KEPT`` failures, and counts them all."""
        store = StateStore()
        calls = []

        def flaky(update):
            calls.append(update)
            if len(calls) % 2:
                raise RuntimeError(f"miss {len(calls)}")

        sub = store.subscribe(flaky, name="flaky")
        for i in range(2 * ERRORS_KEPT + 20):
            store.apply(up("a", float(i), x=i))
        assert sub.active and store.detached == []
        assert isinstance(store.errors, RecordLog)
        assert store.errors.total == ERRORS_KEPT + 10
        assert len(store.errors) == ERRORS_KEPT
        assert store.errors[0] == ("flaky", "a", "miss 21")
        assert store.errors[-1] == ("flaky", "a",
                                    f"miss {2 * ERRORS_KEPT + 19}")

    def test_subscriber_set_may_change_mid_publish(self):
        """A callback may cancel itself, cancel a later subscriber or
        subscribe a new one while an update is being published.  The
        publish under way still goes to the set it started with (minus
        anything cancelled before its turn); the change takes effect
        from the next update."""
        store = StateStore()
        log = []

        def once(update):
            log.append(("once", update.hostname))
            subs["once"].cancel()

        def meddler(update):
            log.append(("meddler", update.hostname))
            if update.hostname == "b":
                subs["victim"].cancel()
                subs["late"] = store.subscribe(
                    lambda u: log.append(("late", u.hostname)),
                    name="late")

        subs = {
            "once": store.subscribe(once, name="once"),
            "meddler": store.subscribe(meddler, name="meddler"),
            "victim": store.subscribe(
                lambda u: log.append(("victim", u.hostname)),
                name="victim"),
            "tail": store.subscribe(
                lambda u: log.append(("tail", u.hostname)), name="tail"),
        }
        for i, host in enumerate("abc"):
            store.apply(up(host, float(i)))
        assert log == [
            ("once", "a"), ("meddler", "a"), ("victim", "a"), ("tail", "a"),
            ("meddler", "b"), ("tail", "b"),
            ("meddler", "c"), ("tail", "c"), ("late", "c"),
        ]
        assert {name: sub.delivered for name, sub in subs.items()} == {
            "once": 1, "meddler": 3, "victim": 1, "tail": 3, "late": 1}
        assert store.notifications == 9
        assert [s.name for s in store.subscriptions] == [
            "meddler", "tail", "late"]


class TestPublishOrder:
    """The store publishes one update at a time: a write made inside a
    delivery is merged at once and published, to every subscriber,
    after the update in delivery has reached them all."""

    def test_a_callback_write_is_published_after_its_cause(self):
        store = StateStore()
        log = []
        seen_inside = []

        def cause_to_effect(update):
            log.append(("writer", update.hostname))
            if update.hostname == "a":
                store.apply(up("echo", update.time))
                seen_inside.append((store.generation, "echo" in store))

        store.subscribe(lambda u: log.append(("head", u.hostname)))
        store.subscribe(cause_to_effect)
        store.subscribe(lambda u: log.append(("tail", u.hostname)))
        store.apply(up("a", 1.0))
        assert seen_inside == [(2, True)]   # merged at once
        assert log == [("head", "a"), ("writer", "a"), ("tail", "a"),
                       ("head", "echo"), ("writer", "echo"),
                       ("tail", "echo")]
        assert store.notifications == 6

    def test_a_store_callback_calls_store_apply(self):
        """The hazard WORX104 guarded statically, run instead: a
        callback that writes back is never re-entered, and every
        subscriber sees the writes in the order they were made."""
        class Server:
            def __init__(self, store):
                self.store = store
                self.depth = self.deepest = 0
                store.subscribe(self._mirror)

            def _mirror(self, update):
                self.depth += 1
                self.deepest = max(self.deepest, self.depth)
                if update.seq < 3:
                    self.store.apply(Update(
                        hostname=update.hostname, time=update.time,
                        values={"x": update.seq + 1}, seq=update.seq + 1))
                    self.store.apply(Update(
                        hostname="side", time=update.time,
                        values={"x": update.seq}, seq=9))
                self.depth -= 1

        store = StateStore()
        head, tail = [], []
        store.subscribe(lambda u: head.append((u.hostname, u.seq)))
        server = Server(store)
        store.subscribe(lambda u: tail.append((u.hostname, u.seq)))
        store.apply(Update(hostname="a", time=1.0, values={"x": 0},
                           seq=0))
        assert server.deepest == 1
        assert head == tail == [("a", 0), ("a", 1), ("side", 9),
                                ("a", 2), ("side", 9), ("a", 3),
                                ("side", 9)]
        assert store.get("a")["x"] == 3 and store.get("side")["x"] == 2

    def test_a_raising_callback_in_a_queued_publish_is_isolated(self):
        store = StateStore()
        log = []

        def writer(update):
            if update.hostname == "a":
                store.apply(up("b", update.time))

        def bad(update):
            if update.hostname == "b":
                raise RuntimeError("consumer bug")

        store.subscribe(writer, name="writer")
        store.subscribe(bad, name="bad")
        store.subscribe(lambda u: log.append(u.hostname), name="tail")
        store.apply(up("a", 1.0))
        store.apply(up("c", 2.0))
        assert log == ["a", "b", "c"]
        assert store.errors == [("bad", "b", "consumer bug")]

    def test_an_escaping_base_exception_leaves_the_bus_idle(self):
        """A ``BaseException`` is not isolated: it escapes the outer
        ``apply``, the writes still pending are dropped unpublished
        (they stay merged), and the next write publishes normally."""
        class Stop(BaseException):
            pass

        store = StateStore()
        log = []

        def writer(update):
            if update.hostname == "a":
                store.apply(up("b", update.time))
                store.apply(up("c", update.time))

        def fatal(update):
            if update.hostname == "b":
                raise Stop()

        store.subscribe(writer, name="writer")
        fatal_sub = store.subscribe(fatal, name="fatal")
        store.subscribe(lambda u: log.append(u.hostname), name="tail")
        with pytest.raises(Stop):
            store.apply(up("a", 1.0))
        assert log == ["a"]
        assert {"a", "b", "c"} <= set(store.hostnames)
        assert store.errors == []
        fatal_sub.cancel()
        store.apply(up("a", 2.0))
        assert log == ["a", "a", "b", "c"]


class TestEventEngineActive:
    def _rule(self, **kw):
        defaults = dict(name="hot", metric="temp", op=">",
                        threshold=70.0, action="none", notify=False)
        defaults.update(kw)
        return ThresholdRule(**defaults)

    def test_active_events_tracks_trigger_and_clear(self, kernel, node):
        engine = EventEngine(kernel)
        engine.add_rule(self._rule())
        assert engine.active_count() == 0
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        assert engine.active_events() == [("hot", node.hostname)]
        assert engine.active_count() == 1
        engine.feed(node, {"temp": 10.0}, {"temp": 10.0})
        assert engine.active_events() == [] and engine.active_count() == 0

    def test_mark_fixed_and_remove_rule_clear_active(self, kernel,
                                                     make_node_set):
        a, b = make_node_set(2)
        engine = EventEngine(kernel)
        engine.add_rule(self._rule())
        engine.feed(a, {"temp": 80.0}, {"temp": 80.0})
        engine.feed(b, {"temp": 81.0}, {"temp": 81.0})
        assert engine.active_count() == 2
        engine.mark_fixed("hot", a.hostname)
        assert engine.active_events() == [("hot", b.hostname)]
        engine.remove_rule("hot")
        assert engine.active_count() == 0

    def test_forget_node_clears_per_host_state(self, kernel, node):
        engine = EventEngine(kernel)
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        engine.forget_node(node.hostname)
        assert engine.active_count() == 0
        assert not engine.is_triggered("hot", node.hostname)
        # a fresh breach fires again (state really was dropped)
        assert len(engine.feed(node, {"temp": 90.0}, {"temp": 90.0})) == 1


@pytest.fixture(scope="module")
def cwx():
    system = ClusterWorX(n_nodes=6, seed=7, monitor_interval=5.0)
    system.start()
    system.run(30)
    return system


class TestMultiClientConsistency:
    def test_sessions_share_one_generation_view(self, cwx):
        s1 = cwx.client()
        s2 = connect(cwx.server, "admin", "admin")
        v1, v2 = s1.cluster_view(), s2.cluster_view()
        assert v1.generation == v2.generation
        assert v1 == v2                      # Mapping equality, by value
        assert set(v1) == set(cwx.cluster.hostnames) - {
            cwx.cluster.management.hostname}

    def test_view_never_mutates_while_cluster_runs(self, cwx):
        view = cwx.client().cluster_view()
        frozen = {h: dict(view[h]) for h in view}
        gen = view.generation
        cwx.run(60)                           # many updates land
        assert {h: dict(view[h]) for h in view} == frozen
        assert view.generation == gen
        fresh = cwx.client().cluster_view()
        assert fresh.generation > gen

    def test_generations_monotone_across_queries(self, cwx):
        session = cwx.client()
        gens = []
        for _ in range(4):
            gens.append(session.cluster_view().generation)
            cwx.run(10)
        assert gens == sorted(gens)

    def test_summary_matches_view(self, cwx):
        summary = cwx.client().cluster_summary()
        view = cwx.client().cluster_view()
        assert rollup_matches_parts(cwx.server) == []
        ups = sum(1 for h in view if view[h].get("udp_echo") == 1)
        assert summary["nodes_up"] == ups
        assert summary["nodes_total"] == len(view)
        assert summary["generation"] == view.generation
        assert summary["events_active"] == cwx.server.engine.active_count()


class TestClientWatch:
    def test_watch_receives_pushed_deltas(self):
        cwx = ClusterWorX(n_nodes=3, seed=1, monitor_interval=5.0)
        cwx.start()
        session = cwx.client()
        seen = []
        sub = session.watch(seen.append, metrics=["cpu_util_pct"])
        cwx.run(30)
        assert seen and all(isinstance(u, Update) for u in seen)
        assert all("cpu_util_pct" in u.values for u in seen)
        before = len(seen)
        session.logout()                      # cancels the watch
        assert not sub.active
        cwx.run(30)
        assert len(seen) == before


class TestForgetNodeRegression:
    def test_hot_remove_leaves_no_server_state(self):
        cwx = ClusterWorX(n_nodes=5, seed=3, monitor_interval=5.0)
        cwx.start()
        cwx.run(60)
        victim = cwx.cluster.nodes[2].hostname
        server = cwx.server
        assert victim in server.current_all()
        t, _ = server.history.series(victim, "cpu_util_pct")
        assert len(t) > 0
        before_total = server.cluster_summary()["nodes_total"]

        cwx.remove_node(victim)

        assert victim not in server.current_all()
        assert dict(server.current(victim)) == {}
        assert server.last_seen(victim) is None
        t, _ = server.history.series(victim, "cpu_util_pct")
        assert len(t) == 0
        assert server.console_archive(victim) == []
        summary = server.cluster_summary()
        assert summary["nodes_total"] == before_total - 1
        assert all(h != victim for _, h in server.engine.active_events())
        # the cluster keeps running cleanly without the node
        cwx.run(30)
        assert victim not in server.current_all()


class TestLiveUtilization:
    def test_constant_step_series_integrates_exactly(self):
        util = LiveUtilization()
        util.ingest(up("a", 0.0, cpu_util_pct=50.0))
        util.open_span("job", ["a"], now=10.0)
        util.ingest(up("a", 20.0, cpu_util_pct=50.0))
        assert util.close_span("job", now=30.0) == pytest.approx(0.5)

    def test_change_suppression_carries_value_forward(self):
        util = LiveUtilization()
        util.ingest(up("a", 0.0, cpu_util_pct=80.0))
        util.open_span("j", ["a"], now=0.0)
        # deltas without the metric mean "unchanged since last"
        util.ingest(up("a", 5.0, mem_used_bytes=1))
        assert util.close_span("j", now=10.0) == pytest.approx(0.8)

    def test_mean_over_two_hosts_and_a_step(self):
        util = LiveUtilization()
        util.ingest(up("a", 0.0, cpu_util_pct=100.0))
        util.ingest(up("b", 0.0, cpu_util_pct=0.0))
        util.open_span("j", ["a", "b"], now=0.0)
        util.ingest(up("b", 5.0, cpu_util_pct=100.0))
        # a: 100 throughout; b: 0 for half, 100 for half -> mean 75%
        assert util.close_span("j", now=10.0) == pytest.approx(0.75)

    def test_unknown_or_empty_span_is_nan(self):
        util = LiveUtilization()
        assert math.isnan(util.close_span("missing", now=1.0))
        util.open_span("j", [], now=0.0)
        assert math.isnan(util.close_span("j", now=1.0))
        util.open_span("k", ["a"], now=5.0)
        assert math.isnan(util.close_span("k", now=5.0))

    def test_subscribes_to_live_server(self):
        cwx = ClusterWorX(n_nodes=3, seed=5, monitor_interval=5.0)
        util = LiveUtilization()
        cwx.server.subscribe(util.ingest, name="accounting")
        cwx.start()
        hosts = [n.hostname for n in cwx.cluster.nodes]
        cwx.run(10)
        util.open_span("j", hosts, now=cwx.kernel.now)
        cwx.run(120)
        eff = util.close_span("j", now=cwx.kernel.now)
        assert util.updates_seen > 0
        assert 0.0 <= eff <= 1.0


class TestSlowConsumerDetach:
    """A subscriber whose callback keeps raising gets cut off (with a
    warning) instead of silently degrading every subsequent publish."""

    def test_repeated_failures_detach_subscriber(self, caplog):
        store = StateStore()
        calls = []

        def bad(update):
            calls.append(update)
            raise RuntimeError("consumer wedged")

        sub = store.subscribe(bad, name="wedged")
        limit = SUBSCRIBER_ERROR_LIMIT
        with caplog.at_level("WARNING", logger="repro.core.statestore"):
            for i in range(limit + 5):
                store.apply(up("a", float(i), cpu_util_pct=float(i)))
        # the callback ran exactly limit times, then was detached
        assert len(calls) == limit
        assert not sub.active
        assert sub not in store._subs
        assert store.detached == [("wedged", "consumer wedged")]
        assert any("detaching subscriber 'wedged'" in r.message
                   for r in caplog.records)
        # every failure is still on the error ledger
        assert len(store.errors) == limit

    def test_success_resets_the_error_streak(self):
        store = StateStore()
        fail_on = {1, 3, 5, 7, 9, 11}  # never consecutive
        seen = []

        def flaky(update):
            seen.append(update.time)
            if int(update.time) in fail_on:
                raise ValueError("transient")

        sub = store.subscribe(flaky, name="flaky")
        for i in range(14):
            store.apply(up("a", float(i), cpu_util_pct=1.0 + i))
        # intermittent failures never reach the consecutive limit
        assert sub.active
        assert sub in store._subs
        assert store.detached == []
        assert len(seen) == 14

    def test_healthy_subscribers_unaffected_by_detach(self):
        store = StateStore()
        healthy = []

        def good(update):
            healthy.append(update.hostname)

        def bad(update):
            raise RuntimeError("wedged")

        store.subscribe(bad, name="wedged")
        store.subscribe(good, name="healthy")
        for i in range(SUBSCRIBER_ERROR_LIMIT + 3):
            store.apply(up("a", float(i), cpu_util_pct=float(i)))
        assert len(healthy) == SUBSCRIBER_ERROR_LIMIT + 3
        assert [name for name, _ in store.detached] == ["wedged"]

"""Watch-stream lifecycle: ClientSession.watch semantics and the event
feed when a node is hot-removed (forget_node) mid-stream."""

import pytest

from repro.core import ClusterWorX
from repro.events.rules import ThresholdRule


def make_cluster(n=6, seed=3):
    cwx = ClusterWorX(n_nodes=n, seed=seed, monitor_interval=5.0)
    cwx.start()
    return cwx


class TestClientSessionWatch:
    def test_watch_receives_pushed_deltas(self):
        cwx = make_cluster()
        session = cwx.client()
        seen = []
        session.watch(seen.append)
        cwx.run(30)
        assert seen, "watch callback never saw an update"
        hosts = {u.hostname for u in seen}
        assert hosts <= set(cwx.cluster.hostnames)

    def test_watch_host_and_metric_filters(self):
        cwx = make_cluster()
        session = cwx.client()
        target = cwx.cluster.hostnames[0]
        filtered = []
        session.watch(filtered.append, hosts=[target],
                      metrics=["net_tx_bytes"])
        cwx.run(60)
        assert filtered, "filtered watch never matched"
        assert {u.hostname for u in filtered} == {target}
        assert all("net_tx_bytes" in u.values for u in filtered)

    def test_logout_cancels_watches(self):
        cwx = make_cluster()
        session = cwx.client()
        seen = []
        sub = session.watch(seen.append)
        cwx.run(15)
        before = len(seen)
        assert before > 0
        session.logout()
        assert not sub.active
        cwx.run(30)
        assert len(seen) == before, "watch survived logout"

    def test_two_sessions_watch_independently(self):
        cwx = make_cluster()
        a, b = cwx.client(), cwx.client()
        seen_a, seen_b = [], []
        a.watch(seen_a.append)
        b.watch(seen_b.append)
        cwx.run(20)
        a.logout()
        cwx.run(20)
        assert len(seen_b) > len(seen_a), \
            "surviving session stopped receiving after peer logout"


class TestForgetNodeMidStream:
    def test_forgotten_host_stops_flowing(self):
        cwx = make_cluster()
        session = cwx.client()
        victim = cwx.cluster.hostnames[0]
        seen = []
        session.watch(seen.append)
        cwx.run(30)
        assert any(u.hostname == victim for u in seen)
        cwx.server.forget_node(victim)
        # the agent keeps sampling, but the store drops unknown hosts'
        # contributions from views; the sub may still see raw deltas, so
        # assert on the authoritative views instead of the raw feed.
        assert victim not in cwx.server.current_all()
        summary = cwx.server.cluster_summary()
        assert summary["nodes_total"] == len(cwx.cluster.hostnames) - 1

    def test_forget_node_clears_active_events_mid_stream(self):
        cwx = make_cluster()
        rule = ThresholdRule(name="hot", metric="cpu_temp_c", op=">",
                             threshold=-1.0, action="none", notify=False)
        cwx.server.add_rule(rule)
        cwx.run(30)
        active = cwx.server.engine.active_events()
        assert active, "threshold rule never fired"
        victim = active[0][1]
        fired_before = len(cwx.server.engine.event_log(node=victim))
        assert fired_before > 0
        cwx.server.forget_node(victim)
        assert all(node != victim
                   for _, node in cwx.server.engine.active_events())
        cwx.run(60)
        # no ghost re-fires against the forgotten node's stale state
        assert len(cwx.server.engine.event_log(node=victim)) \
            == fired_before
        # other nodes keep evaluating normally
        assert cwx.server.engine.active_count() > 0

    def test_gateway_event_frames_drop_forgotten_node(self):
        from repro.gateway import GatewayState

        cwx = make_cluster()
        rule = ThresholdRule(name="hot", metric="cpu_temp_c", op=">",
                             threshold=-1.0, action="none", notify=False)
        cwx.server.add_rule(rule)
        cwx.run(30)
        state = GatewayState(cwx.server)
        active = state.view.events
        assert active
        victim = active[0][1]
        cwx.server.forget_node(victim)
        state.refresh()
        after = state.view.events
        assert all(node != victim for _, node in after)
        assert victim not in state.view.hostnames

"""Unit tests for rules, the event engine, actions and smart notification."""

import pytest

from repro.events import (
    ActionDispatcher,
    EmailGateway,
    EventEngine,
    NaiveNotifier,
    PagerGateway,
    Severity,
    SmartNotifier,
    ThresholdRule,
)
from repro.core import ClusterWorX
from repro.events.engine import FIRED_KEPT
from repro.gateway import GatewayState, build_router, parse_request
from repro.hardware import NodeState, WorkloadSegment
from repro.icebox import IceBox


class TestThresholdRule:
    @pytest.mark.parametrize("op,value,expected", [
        (">", 71.0, True), (">", 70.0, False),
        (">=", 70.0, True), ("<", 69.0, True),
        ("<=", 70.0, True), ("==", 70.0, True), ("!=", 71.0, True),
    ])
    def test_comparisons(self, op, value, expected):
        rule = ThresholdRule(name="r", metric="m", op=op, threshold=70.0)
        assert rule.breached(value) is expected

    def test_string_equality(self):
        rule = ThresholdRule(name="r", metric="node_state", op="==",
                             threshold="crashed")
        assert rule.breached("crashed")
        assert not rule.breached("up")

    def test_type_mismatch_is_not_breach(self):
        rule = ThresholdRule(name="r", metric="m", op=">", threshold=5.0)
        assert not rule.breached("not-a-number")

    def test_hysteresis_clearing(self):
        rule = ThresholdRule(name="r", metric="m", op=">", threshold=100.0,
                             clear_band=0.1)
        assert not rule.cleared(150.0)   # still breached
        assert not rule.cleared(95.0)    # inside the band
        assert rule.cleared(89.0)        # retreated past 90

    def test_hysteresis_below_rules(self):
        rule = ThresholdRule(name="r", metric="m", op="<", threshold=100.0,
                             clear_band=0.1)
        assert rule.cleared(111.0)
        assert not rule.cleared(105.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(name="r", metric="m", op="~", threshold=1)
        with pytest.raises(ValueError):
            ThresholdRule(name="r", metric="m", op=">", threshold=1,
                          hold_time=-1)
        with pytest.raises(ValueError):
            ThresholdRule(name="r", metric="m", op=">", threshold=1,
                          clear_band=1.0)


class TestActionDispatcher:
    def _managed(self, kernel, node):
        box = IceBox(kernel)
        box.connect_node(0, node)
        return ActionDispatcher(resolver=lambda n: (box, 0)), box

    def test_power_down_via_icebox(self, kernel, node):
        dispatcher, box = self._managed(kernel, node)
        box.power.power_on(0)
        record = dispatcher.execute("power_down", node, kernel.now)
        assert record.ok and node.state is NodeState.OFF

    def test_power_down_works_on_crashed_node(self, kernel, node):
        dispatcher, box = self._managed(kernel, node)
        box.power.power_on(0)
        node.crash("dead")
        record = dispatcher.execute("power_down", node, kernel.now)
        assert record.ok and node.state is NodeState.OFF

    def test_reboot_via_reset_line(self, kernel, node):
        dispatcher, box = self._managed(kernel, node)
        box.power.power_on(0)
        node.crash("panic")
        record = dispatcher.execute("reboot", node, kernel.now)
        assert record.ok and node.state is NodeState.UP

    def test_halt_action(self, kernel, node):
        dispatcher = ActionDispatcher()
        record = dispatcher.execute("halt", node, 0.0)
        assert record.ok and node.state is NodeState.HALTED

    def test_soft_fallback_without_icebox(self, kernel, node):
        dispatcher = ActionDispatcher()
        record = dispatcher.execute("power_down", node, 0.0)
        assert record.ok and node.state is NodeState.OFF

    @pytest.mark.parametrize("action", ["power_down", "reboot"])
    def test_soft_fallback_fails_on_dead_node(self, kernel, node, action):
        """Without an ICE Box a crashed node cannot be power-cycled."""
        node.crash("dead")
        dispatcher = ActionDispatcher()
        record = dispatcher.execute(action, node, 0.0)
        assert not record.ok

    def test_custom_action_plugin(self, kernel, node):
        dispatcher = ActionDispatcher()
        calls = []
        dispatcher.register("page_oncall", lambda n: calls.append(
            n.hostname) or "paged")
        record = dispatcher.execute("page_oncall", node, 0.0)
        assert record.ok and calls == [node.hostname]
        assert "paged" in record.detail

    def test_custom_action_cannot_shadow_builtin(self):
        with pytest.raises(ValueError):
            ActionDispatcher().register("reboot", lambda n: None)

    def test_unknown_action_recorded_not_raised(self, kernel, node):
        record = ActionDispatcher().execute("fly", node, 0.0)
        assert not record.ok and "unknown action" in record.detail

    def test_raising_custom_action_contained(self, kernel, node):
        dispatcher = ActionDispatcher()
        dispatcher.register("boom", lambda n: 1 / 0)
        record = dispatcher.execute("boom", node, 0.0)
        assert not record.ok and "action raised" in record.detail

    def test_none_action(self, kernel, node):
        assert ActionDispatcher().execute("none", node, 0.0).ok


class TestEventEngine:
    @pytest.fixture
    def engine(self, kernel):
        return EventEngine(kernel)

    def _rule(self, **kw):
        defaults = dict(name="hot", metric="temp", op=">", threshold=70.0,
                        action="none", notify=False)
        defaults.update(kw)
        return ThresholdRule(**defaults)

    def test_fires_on_breach(self, engine, node):
        engine.add_rule(self._rule())
        fired = engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        assert len(fired) == 1
        assert fired[0].rule == "hot" and fired[0].value == 80.0

    def test_does_not_refire_while_breached(self, engine, node):
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        assert engine.feed(node, {"temp": 85.0}, {"temp": 85.0}) == []

    def test_refires_after_clear(self, engine, node):
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        engine.feed(node, {"temp": 50.0}, {"temp": 50.0})   # clears
        fired = engine.feed(node, {"temp": 90.0}, {"temp": 90.0})
        assert len(fired) == 1

    def test_missing_metric_leaves_state(self, engine, node):
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        # delta without temp
        engine.feed(node, {"other": 1}, {"temp": 80.0, "other": 1})
        assert engine.is_triggered("hot", node.hostname)

    def test_hold_time_debounces(self, engine, node, kernel):
        engine.add_rule(self._rule(hold_time=10.0))
        assert engine.feed(node, {"temp": 80.0}, {"temp": 80.0}) == []
        kernel.run(until=5.0)
        assert engine.feed(node, {"temp": 80.0}, {"temp": 80.0}) == []
        kernel.run(until=10.0)
        assert len(engine.feed(node, {"temp": 80.0}, {"temp": 80.0})) == 1

    def test_hold_time_resets_on_recovery(self, engine, node, kernel):
        engine.add_rule(self._rule(hold_time=10.0))
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        kernel.run(until=8.0)
        # back to normal: reset timer
        engine.feed(node, {"temp": 50.0}, {"temp": 50.0})
        kernel.run(until=12.0)
        assert engine.feed(node, {"temp": 80.0}, {"temp": 80.0}) == []

    def test_action_dispatched_on_fire(self, kernel, node):
        engine = EventEngine(kernel)
        engine.add_rule(self._rule(action="halt"))
        engine.feed(node, {"temp": 99.0}, {"temp": 99.0})
        assert node.state is NodeState.HALTED
        assert engine.dispatcher.records[0].action == "halt"

    def test_per_node_state_independent(self, engine, kernel,
                                        make_node_set):
        a, b = make_node_set(2)
        engine.add_rule(self._rule())
        engine.feed(a, {"temp": 80.0}, {"temp": 80.0})
        fired = engine.feed(b, {"temp": 80.0}, {"temp": 80.0})
        assert len(fired) == 1  # b fires independently

    def test_duplicate_rule_rejected(self, engine):
        engine.add_rule(self._rule())
        with pytest.raises(ValueError):
            engine.add_rule(self._rule())

    def test_remove_rule_clears_state(self, engine, node):
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        engine.remove_rule("hot")
        assert not engine.is_triggered("hot", node.hostname)

    def test_mark_fixed_enables_refire(self, engine, node):
        engine.add_rule(self._rule())
        engine.feed(node, {"temp": 80.0}, {"temp": 80.0})
        engine.mark_fixed("hot", node.hostname)
        assert len(engine.feed(node, {"temp": 80.0}, {"temp": 80.0})) == 1

    def test_forgotten_node_readded_evaluates_from_scratch(
            self, engine, kernel, make_node_set):
        gone, stays = make_node_set(2)
        engine.add_rule(self._rule())
        engine.add_rule(self._rule(name="slow", hold_time=10.0))
        hot = {"temp": 80.0}
        engine.feed(gone, hot, hot)     # hot fires, slow matures
        engine.feed(stays, hot, hot)
        engine.forget_node(gone.hostname)
        assert engine.active_events() == [("hot", stays.hostname)]
        assert not engine.is_triggered("hot", gone.hostname)
        # the re-added host has no temp in its row and no running clock
        kernel.run(until=12.0)
        assert engine.feed(gone, {"other": 1}, {"other": 1}) == []
        fired = engine.feed(gone, hot, {"other": 1, "temp": 80.0})
        assert [e.rule for e in fired] == ["hot"]   # slow restarts at 12
        kernel.run(until=20.0)
        assert engine.feed(gone, {"other": 2},
                           {"other": 2, "temp": 80.0}) == []
        kernel.run(until=22.0)
        assert [e.rule for e in engine.feed(
            gone, {"other": 3}, {"other": 3, "temp": 80.0})] == ["slow"]
        # the neighbour's state was never touched
        assert [e.rule for e in engine.feed(
            stays, {"other": 1}, {"temp": 80.0, "other": 1})] == ["slow"]

    def test_rule_added_midstream_sees_suppressed_values(
            self, engine, make_node_set):
        hot, cool = make_node_set(2)
        first = {"temp": 80.0, "other": 0}
        engine.feed(hot, first, first)
        engine.feed(cool, {"temp": 40.0}, {"temp": 40.0})
        engine.add_rule(self._rule())
        # neither delta carries temp: the rule reads the host's row
        fired = engine.feed(hot, {"other": 1}, {"temp": 80.0, "other": 1})
        assert [(e.node, e.value) for e in fired] == [(hot.hostname, 80.0)]
        assert engine.feed(cool, {"other": 1},
                           {"temp": 40.0, "other": 1}) == []

    def test_remove_rule_drops_state_on_every_host(
            self, engine, make_node_set):
        nodes = make_node_set(3)
        engine.add_rule(self._rule())
        engine.add_rule(self._rule(name="other-rule", metric="load"))
        first = {"temp": 80.0, "load": 99.0}
        for n in nodes:
            engine.feed(n, first, first)
        assert engine.active_count() == 6
        engine.remove_rule("hot")
        assert engine.active_events() == [
            ("other-rule", n.hostname) for n in nodes]
        assert not any(engine.is_triggered("hot", n.hostname)
                       for n in nodes)
        # a rule re-added under the old name starts clean on every host
        engine.add_rule(self._rule())
        for n in nodes:
            assert [e.rule for e in engine.feed(
                n, {"x": 1}, {**first, "x": 1})] == ["hot"]


class TestSmartNotification:
    def test_one_email_for_many_nodes(self, kernel):
        gateway = EmailGateway()
        notifier = SmartNotifier(kernel, "llnl", gateways=[gateway],
                                 aggregation_window=30.0)
        for i in range(25):
            notifier.event_triggered("hot-cpu", f"n{i:03d}",
                                     "power_down", Severity.CRITICAL)
        kernel.run(until=31.0)
        assert notifier.emails_sent == 1
        (message,) = gateway.inbox
        assert len(message.nodes) == 25
        assert message.event == "hot-cpu"
        assert "power_down" in message.action

    def test_email_names_cluster_event_nodes_action(self, kernel):
        gateway = EmailGateway()
        notifier = SmartNotifier(kernel, "llnl", gateways=[gateway])
        notifier.event_triggered("fan-dead", "n001", "reboot", "warning")
        kernel.run(until=40)
        body = gateway.inbox[0].body
        assert "llnl" in body and "fan-dead" in body
        assert "n001" in body and "reboot" in body

    def test_still_failing_node_suppressed(self, kernel):
        notifier = SmartNotifier(kernel, "c")
        notifier.event_triggered("e", "n1", "none", "info")
        kernel.run(until=40)
        notifier.event_triggered("e", "n1", "none", "info")
        kernel.run(until=80)
        assert notifier.emails_sent == 1
        assert notifier.suppressed == 1

    def test_refire_after_fix(self, kernel):
        notifier = SmartNotifier(kernel, "c")
        notifier.event_triggered("e", "n1", "none", "info")
        kernel.run(until=40)
        notifier.event_cleared("e", "n1")      # admin fixed the node
        notifier.event_triggered("e", "n1", "none", "info")
        kernel.run(until=80)
        assert notifier.emails_sent == 2       # re-fired automatically

    def test_different_events_separate_emails(self, kernel):
        notifier = SmartNotifier(kernel, "c")
        notifier.event_triggered("hot", "n1", "none", "info")
        notifier.event_triggered("fan", "n1", "none", "info")
        kernel.run(until=40)
        assert notifier.emails_sent == 2

    def test_pager_gateway_truncates(self, kernel):
        pager = PagerGateway()
        notifier = SmartNotifier(kernel, "c", gateways=[pager])
        for i in range(50):
            notifier.event_triggered("hot", f"verylongnodename-{i:04d}",
                                     "power_down", "critical")
        kernel.run(until=40)
        assert len(pager.inbox[0].body) <= PagerGateway.MAX_CHARS

    def test_naive_notifier_floods(self, kernel):
        naive = NaiveNotifier(kernel, "c")
        for i in range(25):
            naive.event_triggered("hot", f"n{i}", "none", "info")
        assert naive.emails_sent == 25

    def test_engine_notifier_integration(self, kernel, make_node_set):
        nodes = make_node_set(5)
        notifier = SmartNotifier(kernel, "c", aggregation_window=10.0)
        engine = EventEngine(kernel, notifier=notifier)
        engine.add_rule(ThresholdRule(name="hot", metric="t", op=">",
                                      threshold=70.0))
        for node in nodes:
            engine.feed(node, {"t": 90.0}, {"t": 90.0})
        kernel.run(until=11.0)
        assert notifier.emails_sent == 1
        # fix one node out-of-band; it refails -> second email
        engine.mark_fixed("hot", nodes[0].hostname)
        engine.feed(nodes[0], {"t": 50.0}, {"t": 50.0})
        engine.feed(nodes[0], {"t": 95.0}, {"t": 95.0})
        kernel.run(until=25.0)
        assert notifier.emails_sent == 2


class TestSuppressionInteraction:
    """Change suppression means deltas omit unchanged metrics; the engine
    must still mature hold-time rules and keep states meaningful."""

    def test_hold_time_fires_despite_suppressed_constant_value(
            self, kernel, node):
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(name="hot", metric="temp", op=">",
                                      threshold=70.0, hold_time=10.0))
        # first delta carries the breach...
        assert engine.feed(node, {"temp": 85.0}, {"temp": 85.0}) == []
        kernel.run(until=15.0)
        # ...later deltas omit temp (unchanged), but the rule matures
        fired = engine.feed(node, {"other": 1}, {"temp": 85.0, "other": 1})
        assert len(fired) == 1
        assert fired[0].value == 85.0

    def test_remembered_value_does_not_resurrect_cleared(self, kernel,
                                                         node):
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(name="hot", metric="temp", op=">",
                                      threshold=70.0))
        engine.feed(node, {"temp": 85.0}, {"temp": 85.0})
        engine.feed(node, {"temp": 40.0}, {"temp": 40.0})   # cleared
        # metric-free delta must not re-fire from a stale value
        assert engine.feed(node, {"other": 1},
                           {"temp": 40.0, "other": 1}) == []
        assert not engine.is_triggered("hot", node.hostname)

    def test_never_seen_metric_never_fires(self, kernel, node):
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(name="ghost", metric="nope", op=">",
                                      threshold=0))
        assert engine.feed(node, {"other": 1}, {"other": 1}) == []


def test_firing_past_the_log_bound_keeps_the_newest_and_counts_all():
    """A rule fired ``FIRED_KEPT + 50`` times: the log keeps the newest
    ``FIRED_KEPT`` firings, its total counts every one, and
    ``/v1/events/log`` answers the newest ``limit``, oldest first, as it
    did when the log kept everything."""
    cwx = ClusterWorX(n_nodes=2, seed=3, monitor_interval=30.0)
    cwx.start()
    engine = cwx.server.engine
    engine.add_rule(ThresholdRule(name="hot", metric="t", op=">",
                                  threshold=70.0, action="none",
                                  notify=False))
    node = cwx.cluster.nodes[0]
    every = []
    for i in range(FIRED_KEPT + 50):
        breach, calm = {"t": 71.0 + i}, {"t": 0.0}
        every += engine.feed(node, breach, breach)
        engine.feed(node, calm, calm)
    assert len(every) == FIRED_KEPT + 50
    assert len(engine.fired) == FIRED_KEPT
    assert engine.fired == every[-FIRED_KEPT:]
    assert engine.fired.total == len(every)
    router = build_router(GatewayState(cwx.server), dict)
    request = parse_request(b"GET /v1/events/log?limit=100 HTTP/1.1\r\n\r\n")
    route, params = router.resolve(request.path)
    status, frames = route.handler(request, params)
    assert status == 200
    assert [frame[3]["value"] for frame in frames] == \
        [event.value for event in every[-100:]]

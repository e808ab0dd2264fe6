"""Unit tests for repro.resilience: the health state machine and the
recovery orchestrator."""

from dataclasses import replace

import pytest

from repro import ClusterWorX
from repro.hardware import NodeState
from repro.resilience import (
    DEFAULT_PLAYBOOK,
    HealthState,
    HealthTracker,
    InvalidTransition,
    RecoveryChannels,
    RecoveryOrchestrator,
)


# -- HealthTracker -----------------------------------------------------------

class TestHealthTracker:
    def test_untracked_node_reads_healthy(self, kernel):
        tracker = HealthTracker(kernel)
        assert tracker.state("ghost") is HealthState.HEALTHY
        assert tracker.record("ghost") is None

    def test_full_lifecycle_transitions(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.mark_suspect("n0", "stale")
        tracker.mark_down("n0", "silent")
        tracker.mark_recovering("n0", "playbook")
        tracker.mark_healthy("n0", "recovered")
        tracker.mark_down("n0", "crashed again")
        tracker.mark_recovering("n0", "playbook")
        tracker.mark_quarantined("n0", "exhausted")
        tracker.release("n0")
        record = tracker.record("n0")
        assert record.state is HealthState.HEALTHY
        assert [new.value for _t, _old, new, _r in record.history] == [
            "suspect", "down", "recovering", "healthy",
            "down", "recovering", "quarantined", "healthy"]

    def test_down_can_heal_unassisted(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.mark_down("n0", "hard evidence")
        tracker.mark_healthy("n0", "came back on its own")
        assert tracker.state("n0") is HealthState.HEALTHY

    @pytest.mark.parametrize("setup, bad", [
        ([], "mark_recovering"),            # healthy -> recovering
        ([], "mark_quarantined"),           # healthy -> quarantined
        (["mark_suspect"], "mark_recovering"),
        (["mark_suspect"], "mark_quarantined"),
        (["mark_down"], "mark_suspect"),
        (["mark_down"], "mark_quarantined"),
        (["mark_down", "mark_recovering"], "mark_suspect"),
        (["mark_down", "mark_recovering"], "mark_down"),
    ])
    def test_illegal_transitions_raise(self, kernel, setup, bad):
        tracker = HealthTracker(kernel)
        for step in setup:
            getattr(tracker, step)("n0", "setup")
        with pytest.raises(InvalidTransition):
            getattr(tracker, bad)("n0", "illegal")

    def test_same_state_is_a_noop(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.mark_healthy("n0", "redundant")
        assert tracker.record("n0").history == []

    def test_listeners_and_counts(self, kernel):
        tracker = HealthTracker(kernel)
        seen = []
        tracker.add_listener(
            lambda host, old, new, reason: seen.append(
                (host, old.value, new.value, reason)))
        tracker.mark_suspect("n0", "stale")
        tracker.mark_down("n0", "silent")
        assert seen == [("n0", "healthy", "suspect", "stale"),
                        ("n0", "suspect", "down", "silent")]
        assert tracker.counts()["down"] == 1
        assert tracker.nodes_in(HealthState.DOWN) == ["n0"]
        tracker.forget("n0")
        assert tracker.record("n0") is None

    def test_evaluate_staleness_escalation(self, kernel):
        tracker = HealthTracker(kernel, suspect_after=30.0,
                                down_after=60.0)
        assert tracker.evaluate("n0", age=5.0, reachable=True,
                                node_state="up") is HealthState.HEALTHY
        assert tracker.evaluate("n0", age=35.0, reachable=True,
                                node_state="up") is HealthState.SUSPECT
        assert tracker.evaluate("n0", age=45.0, reachable=True,
                                node_state="up") is HealthState.SUSPECT
        assert tracker.evaluate("n0", age=65.0, reachable=True,
                                node_state="up") is HealthState.DOWN

    def test_evaluate_suspect_recovers_when_fresh(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.evaluate("n0", age=0.0, reachable=False, node_state="up")
        assert tracker.state("n0") is HealthState.SUSPECT
        assert tracker.evaluate("n0", age=1.0, reachable=True,
                                node_state="up") is HealthState.HEALTHY

    def test_evaluate_hard_state_short_circuits(self, kernel):
        tracker = HealthTracker(kernel)
        assert tracker.evaluate("n0", age=0.0, reachable=True,
                                node_state="crashed") is HealthState.DOWN

    def test_evaluate_down_heals_only_when_fully_up(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.mark_down("n0", "evidence")
        assert tracker.evaluate("n0", age=5.0, reachable=True,
                                node_state="booting") is HealthState.DOWN
        assert tracker.evaluate("n0", age=5.0, reachable=True,
                                node_state="up") is HealthState.HEALTHY

    def test_evaluate_leaves_orchestrator_owned_states_alone(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.mark_down("n0", "evidence")
        tracker.mark_recovering("n0", "playbook")
        assert tracker.evaluate("n0", age=999.0, reachable=False,
                                node_state="crashed") \
            is HealthState.RECOVERING

    def test_note_event_critical_makes_suspect(self, kernel):
        tracker = HealthTracker(kernel)
        tracker.note_event("n0", "disk-full", "warning")
        assert tracker.state("n0") is HealthState.HEALTHY
        tracker.note_event("n0", "fan-failure", "critical")
        record = tracker.record("n0")
        assert record.state is HealthState.SUSPECT
        assert record.history[-1][3] == "event:fan-failure"

    def test_validation(self, kernel):
        with pytest.raises(ValueError):
            HealthTracker(kernel, suspect_after=0.0)
        with pytest.raises(ValueError):
            HealthTracker(kernel, suspect_after=30.0, down_after=30.0)


# -- RecoveryOrchestrator ----------------------------------------------------

class Script:
    """A fake channel returning scripted results, one per call."""

    def __init__(self, *results, default="ERR: exhausted"):
        self.results = list(results)
        self.default = default
        self.calls = 0

    def __call__(self, hostname, *rest):
        self.calls += 1
        value = self.results.pop(0) if self.results else self.default
        if isinstance(value, Exception):
            raise value
        return value


def make_orchestrator(kernel, node, *, channels=None, **kwargs):
    tracker = HealthTracker(kernel)
    if channels is None:
        channels = RecoveryChannels(node=lambda h: node)
    orch = RecoveryOrchestrator(kernel, tracker, channels, **kwargs)
    return tracker, orch


#: the default ladder with every rung's attempt bounded at 5 s.
FIVE_SECOND_LADDER = tuple(replace(rung, timeout=5.0)
                           for rung in DEFAULT_PLAYBOOK)


class TestRecoveryOrchestrator:
    def test_probe_success_recovers_first_rung(self, kernel, node):
        probe = Script("OK alive")
        channels = RecoveryChannels(node=lambda h: node, probe=probe)
        tracker, orch = make_orchestrator(kernel, node, channels=channels)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        assert record.outcome == "recovered"
        assert record.rung_reached == "probe"
        assert tracker.state(node.hostname) is HealthState.HEALTHY
        assert probe.calls == 1 and not orch.errors

    def test_failed_probe_escalates_to_ice_reset(self, kernel, node):
        probe = Script(default="ERR: no route")
        ice = Script("OK reset")
        channels = RecoveryChannels(node=lambda h: node, probe=probe,
                                    ice_reset=ice)
        tracker, orch = make_orchestrator(kernel, node, channels=channels)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        # one probe, then the ladder climbed; the node is already up
        # so verification passes immediately.
        assert probe.calls == 1
        assert record.outcome == "recovered"
        assert record.rung_reached == "ice_reset"
        assert [a.rung for a in record.attempts] == ["probe", "ice_reset"]

    def test_unset_channel_degrades_to_next_rung(self, kernel, node):
        ice = Script("OK reset")
        channels = RecoveryChannels(node=lambda h: node, ice_reset=ice)
        _tracker, orch = make_orchestrator(kernel, node, channels=channels)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        assert record.attempts[0].note == "channel unavailable"
        assert record.outcome == "recovered"
        assert record.rung_reached == "ice_reset"

    def test_attempt_timeout_is_a_rung_failure(self, kernel, node):
        def stuck_probe(hostname):
            yield kernel.timeout(1e6)
            return "OK too late"

        channels = RecoveryChannels(node=lambda h: node,
                                    probe=stuck_probe,
                                    ice_reset=Script("OK reset"))
        _tracker, orch = make_orchestrator(kernel, node,
                                           channels=channels,
                                           playbook=FIVE_SECOND_LADDER)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        assert record.attempts[0].note == "timed out after 5s"
        assert record.outcome == "recovered"

    def test_channel_exception_defused_and_recorded(self, kernel, node):
        channels = RecoveryChannels(
            node=lambda h: node,
            probe=Script(RuntimeError("transport exploded")),
            ice_reset=Script("OK reset"))
        _tracker, orch = make_orchestrator(kernel, node,
                                           channels=channels,
                                           playbook=FIVE_SECOND_LADDER)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        assert record.outcome == "recovered"
        assert len(orch.errors) == 1
        assert orch.errors[0][2] == "probe"
        assert "transport exploded" in orch.errors[0][3]

    def test_verify_failure_fails_the_rung(self, kernel, node):
        node.crash("stays dead")  # OK from the channel is not enough
        channels = RecoveryChannels(node=lambda h: node,
                                    ice_reset=Script("OK reset"),
                                    drain=Script("OK"),
                                    notify=Script("OK"))
        tracker, orch = make_orchestrator(kernel, node,
                                          channels=channels,
                                          playbook=FIVE_SECOND_LADDER,
                                          verify_timeout=30.0)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        notes = [a.note for a in record.attempts]
        assert "verify: node did not come back up" in notes
        assert record.outcome == "quarantined"
        assert tracker.state(node.hostname) is HealthState.QUARANTINED

    def test_quarantine_drains_and_pages_exactly_once(self, kernel, node):
        drain, notify = Script("OK"), Script("OK")
        channels = RecoveryChannels(node=lambda h: node,
                                    probe=Script(default="ERR: no route"),
                                    drain=drain, notify=notify)
        tracker, orch = make_orchestrator(kernel, node, channels=channels)
        record = orch.recover(node.hostname, "drill")
        kernel.run()
        assert record.outcome == "quarantined"
        assert record.rung_reached == "quarantine"
        # every rung below quarantine was tried exactly once
        assert [a.rung for a in record.attempts] == \
            ["probe", "ice_reset", "power_cycle", "reclone"]
        assert drain.calls == 1 and notify.calls == 1
        assert len(orch.notifications) == 1
        assert orch.notifications[0][1] == node.hostname
        # a quarantined node is parked: recover() refuses to restart
        assert orch.recover(node.hostname, "again") is None
        assert drain.calls == 1

    def test_recover_joins_the_active_playbook(self, kernel, node):
        channels = RecoveryChannels(node=lambda h: node,
                                    probe=Script("OK alive"))
        _tracker, orch = make_orchestrator(kernel, node, channels=channels)
        first = orch.recover(node.hostname, "drill")
        second = orch.recover(node.hostname, "duplicate")
        assert second is first and len(orch.records) == 1
        kernel.run()

    def test_forget_mid_playbook_aborts_cleanly(self, kernel, node):
        def stuck_probe(hostname):
            yield kernel.timeout(1e4)
            return "OK"

        channels = RecoveryChannels(node=lambda h: node,
                                    probe=stuck_probe)
        _tracker, orch = make_orchestrator(kernel, node, channels=channels)
        record = orch.recover(node.hostname, "drill")
        kernel.run(until=2.0)
        assert orch.active == [node.hostname]
        orch.forget(node.hostname)
        kernel.run()  # must not raise out of the killed playbook
        assert orch.active == []
        assert record.outcome == "aborted"
        assert record.finished_at is not None

    def test_default_playbook_order(self):
        assert [r.name for r in DEFAULT_PLAYBOOK] == [
            "probe", "ice_reset", "power_cycle", "reclone", "quarantine"]
        assert DEFAULT_PLAYBOOK[-1].terminal


# -- facade integration: hot-remove during self-healing ----------------------

class TestSelfHealingFacade:
    def test_remove_node_mid_recovery_does_not_raise(self):
        cwx = ClusterWorX(n_nodes=4, seed=11, self_healing=True,
                          monitor_interval=5.0)
        cwx.start()
        cwx.run(30.0)
        victim = cwx.cluster.hostnames[1]
        cwx.inject_fault(victim, "kernel_panic")
        # let the sweep detect the crash and start the playbook...
        cwx.run(60.0)
        assert cwx.server.health.state(victim) in (
            HealthState.RECOVERING, HealthState.HEALTHY)
        # ...then hot-remove the node mid-sweep / mid-playbook.
        cwx.remove_node(victim)
        cwx.run(600.0)  # clean teardown: nothing raises afterwards
        assert cwx.server.health.record(victim) is None
        assert victim not in cwx.server.recovery.active
        assert not cwx.server.store.is_tracked(victim)
        assert victim not in cwx.cluster.hostnames

    def test_self_healing_recovers_kernel_panic_end_to_end(self):
        cwx = ClusterWorX(n_nodes=4, seed=11, self_healing=True,
                          monitor_interval=5.0)
        cwx.start()
        cwx.run(30.0)
        victim = cwx.cluster.hostnames[0]
        cwx.inject_fault(victim, "kernel_panic")
        cwx.run(900.0)
        assert cwx.server.health.state(victim) is HealthState.HEALTHY
        record = cwx.server.recovery.record_for(victim)
        assert record is not None and record.outcome == "recovered"
        assert not cwx.server.recovery.errors

    def test_reclone_rung_powers_a_node_through_its_ice_box(self):
        """A dead ICE Box fails the reclone rung's power cycle as it
        fails the two rungs before it: the outlet is not switched behind
        the controller's back, and the node is quarantined crashed."""
        cwx = ClusterWorX(n_nodes=4, seed=11, self_healing=True,
                          monitor_interval=5.0)
        cwx.start()
        cwx.run(30.0)
        victim = cwx.cluster.hostnames[0]
        box, _port = cwx.cluster.locate(cwx.cluster.node(victim))
        box.fail()
        cwx.inject_fault(victim, "kernel_panic")
        cwx.run(3600.0)
        record = cwx.server.recovery.record_for(victim)
        assert [(a.rung, a.note) for a in record.attempts[1:]] == [
            ("ice_reset", "ERR: no response"),
            ("power_cycle", "ERR: no response"),
            ("reclone", "ERR: no response")]
        assert record.outcome == "quarantined"
        assert cwx.cluster.node(victim).state is NodeState.CRASHED

    def test_a_manual_recover_starts_one_playbook(self):
        """``recover`` on a host that is not down marks it down first;
        under self-healing the server's health listener starts the
        ladder on that transition, and the manual call joins it instead
        of starting a second one that ``forget`` could not reach."""
        cwx = ClusterWorX(n_nodes=4, seed=1, monitor_interval=5.0,
                          self_healing=True)
        cwx.start()
        cwx.run(30.0)
        host = cwx.cluster.hostnames[1]
        recovery = cwx.server.recovery
        before = recovery.records.total
        record = recovery.recover(host, "drill")
        assert recovery.records.total == before + 1
        assert recovery.active == [host]
        recovery.forget(host)
        cwx.run(600.0)
        # no ladder climbed a rung or closed the episode after forget
        assert not recovery.active and not record.attempts
        assert cwx.server.health.state(host) is HealthState.RECOVERING
        assert recovery.records.total == before + 1

    @pytest.mark.parametrize("topology", [
        {}, {"topology": "federation", "shards": 2}])
    def test_forget_closes_a_ladder_that_has_not_started(self, topology):
        """A ladder forgotten before its first step is killed before its
        generator ever ran, so the playbook's ``finally`` cannot close
        the record: ``forget`` does, as ``aborted`` at that instant.
        The same drill runs on a federation, whose ``server.recovery``
        routes ``recover`` to the owner and merges ``active`` and
        ``records`` across the shards."""
        cwx = ClusterWorX(n_nodes=4, seed=1, monitor_interval=5.0,
                          self_healing=True, **topology)
        cwx.start()
        cwx.run(30.0)
        host = cwx.cluster.hostnames[1]
        recovery = cwx.server.recovery
        before = recovery.records.total
        record = recovery.recover(host, "drill")
        assert record.outcome == "active" and record.finished_at is None
        assert recovery.active == [host]
        assert recovery.records.total == before + 1
        assert recovery.records[-1] is record
        recovery.forget(host)
        assert record.outcome == "aborted"
        assert record.finished_at == cwx.kernel.now
        cwx.run(600.0)
        assert not recovery.active and not record.attempts
        assert record.outcome == "aborted"
        assert recovery.record_for(host) is record

    def test_critical_event_firing_feeds_the_tracker(self):
        cwx = ClusterWorX(n_nodes=2, seed=3, self_healing=True,
                          monitor_interval=5.0)
        cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                          threshold=-1.0, severity="critical",
                          action="none")
        cwx.start()
        cwx.run(30.0)  # every report breaches the absurd threshold
        fired = cwx.fired_events()
        assert fired, "rule should have fired"
        # the firing made the node suspect; the next sweep may already
        # have healed it (the agent is fresh), so check the history.
        record = cwx.server.health.record(fired[0].node)
        assert record is not None
        reasons = [reason for _t, _o, _n, reason in record.history]
        assert "event:hot-cpu" in reasons

"""Control-plane self-healing by example: shard health monitoring,
automatic drain-on-death, a killed shard that stops acting,
store-and-forward ingest across an outage, degraded federated reads,
remote runs across a fail-over, and the watch-rehome regressions.  No
loss across an outage, the hold's deadline, and fail-over keeping
state, history and ownership whole are also checked over generated
schedules in ``tests/test_properties.py``."""

import math

import numpy as np
import pytest

from repro import ClusterWorX
from repro.core.statestore import Update
from repro.faults import LINK_DOWN, SHARD_HANG, SHARD_SLOW, FaultPlane
from repro.federation import DEAD, DRAINING, HEALTHY, SUSPECT
from repro.gateway import (GatewayState, WatchClient, WatchHub,
                           build_router, parse_request)


def make_fed(n=20, shards=4, seed=7, **kwargs):
    cwx = ClusterWorX(n_nodes=n, seed=seed, monitor_interval=5.0,
                      topology="federation", shards=shards, **kwargs)
    cwx.start()
    return cwx


def kill(cwx, index, at=None):
    """Kill shard ``index`` now (or at sim time ``at``)."""
    plane = FaultPlane(cwx.kernel, federation=cwx.server)
    plane.kill_shard(index, cwx.kernel.now if at is None else at)
    return plane


class TestChannel:
    def test_healthy_channel_is_passthrough(self):
        cwx = make_fed()
        channel = cwx.server.shards[0].channel
        store = cwx.server.shards[0].server.store
        n = channel.call(lambda: store.generation)
        assert n == store.generation
        assert channel.up and channel.calls > 0

    def test_killed_shard_returns_default_not_exception(self):
        cwx = make_fed()
        channel = cwx.server.shards[1].channel
        channel.killed = True
        assert channel.call(lambda: 1, default="fallback") == "fallback"
        assert channel.call(lambda: 1) is None
        channel.killed = False  # revived, as FaultPlane revives it
        assert channel.call(lambda: 42) == 42


def _hang(cwx, index, at, duration):
    FaultPlane(cwx.kernel, federation=cwx.server).outage(
        index, at, duration, SHARD_HANG)


class TestMonitorEscalation:
    def test_all_healthy_monitor_is_invisible(self):
        cwx = make_fed()
        cwx.run(120)
        assert cwx.server.monitor.probes > 0
        assert cwx.server.monitor.transitions == []
        assert all(s.health == HEALTHY for s in cwx.server.shards)

    def test_suspect_then_dead_then_failover(self):
        cwx = make_fed()
        cwx.run(30)
        t_kill = cwx.kernel.now
        kill(cwx, 1)
        cwx.run(60)
        monitor = cwx.server.monitor
        suspected = monitor.detected_at(1, SUSPECT, since=t_kill)
        dead = monitor.detected_at(1, DEAD, since=t_kill)
        assert suspected is not None and dead is not None
        assert t_kill < suspected < dead
        # escalation respects the configured thresholds
        assert suspected - t_kill >= monitor.suspect_after
        assert dead - t_kill >= monitor.down_after
        # auto fail-over drained the dead shard
        assert not cwx.server.shards[1].active
        assert len(cwx.server.failovers) == 1
        at, index, reason, moved = cwx.server.failovers[0]
        assert index == 1 and reason == "heartbeat-loss" and moved == 5

    def test_transient_hang_recovers_without_failover(self):
        cwx = make_fed()
        cwx.run(30)
        # shorter than suspect_after (12.5s): never even suspect
        _hang(cwx, 2, cwx.kernel.now + 1.0, 6.0)
        cwx.run(60)
        assert cwx.server.shards[2].health == HEALTHY
        assert cwx.server.failovers == []

    def test_suspect_recovers_to_healthy(self):
        cwx = make_fed()
        cwx.run(30)
        # Suspicion needs a failed probe once the last good heartbeat is
        # 12.5 s old: the probes after a miss land 5, 6, 8, 12 and 17 s
        # after that heartbeat, so a hang is suspected only if it
        # outlasts the 17-s probe.  The last heartbeat here is 1 s
        # before the hang, so up to 16 s rides through unsuspected;
        # 20 s is suspected and still short of the 25-s death.
        _hang(cwx, 2, cwx.kernel.now + 1.0, 20.0)
        cwx.run(60)
        monitor = cwx.server.monitor
        assert monitor.detected_at(2, SUSPECT) is not None
        assert monitor.detected_at(2, DEAD) is None
        assert cwx.server.shards[2].health == HEALTHY
        assert cwx.server.shards[2].active

    def test_single_survivor_never_drains_itself(self):
        cwx = make_fed(n=8, shards=2)
        cwx.run(30)
        kill(cwx, 0)
        cwx.run(60)
        kill(cwx, 1)
        cwx.run(60)
        # first death failed over; the last shard has no adopter
        assert len(cwx.server.failovers) == 1
        assert cwx.server.shards[1].health == DEAD
        assert cwx.server.shards[1].active


class TestOneJudge:
    """Whether a shard answers is the channel's ``up`` and nothing else:
    the first read after an outage is live, the monitor follows within
    one heartbeat, and a short outage is never suspected."""

    @pytest.mark.parametrize("hang", [10.0, 14.0, 20.0])
    def test_hang_ladder(self, hang):
        cwx = make_fed()
        cwx.run(30)
        shard = cwx.server.shards[2]
        host = shard.hostnames[0]
        start = cwx.kernel.now + 1.0
        _hang(cwx, 2, start, hang)
        cwx.run(start + hang - cwx.kernel.now)
        # ``last_seen`` has no last-good fallback: it is live or None
        assert cwx.server.store.last_seen(host) is not None
        assert cwx.server.store.last_seen(host) == \
            shard.server.store.last_seen(host)
        monitor = cwx.server.monitor
        cwx.run(monitor.interval)
        assert shard.health == HEALTHY
        # Suspicion needs a failed probe once the last good heartbeat is
        # 12.5 s old: the probes after a miss land 5, 6, 8, 12 and 17 s
        # after it, and it was 1 s before the hang, so up to 16 s rides
        # through unsuspected; 20 s is suspected, short of the 25-s death.
        suspected = monitor.detected_at(2, SUSPECT, since=start)
        assert (suspected is None) == (hang < 16.0)
        if suspected is not None:
            assert monitor.detected_at(2, HEALTHY, since=suspected) \
                <= start + hang + monitor.interval
        assert cwx.server.failovers == []

    def test_probe_schedule_after_a_kill_is_pinned(self):
        """A missed heartbeat is re-probed 1, 2 and 4 s later, then every
        interval, until the shard is dead 25 s after its last answer."""
        cwx = make_fed()
        cwx.run(30)
        monitor = cwx.server.monitor
        shard = cwx.server.shards[1]
        probed = []
        probe = monitor._probe

        def recording(target):
            if target is shard:
                probed.append(cwx.kernel.now)
            return probe(target)
        monitor._probe = recording
        kill(cwx, 1, at=cwx.kernel.now + 1.0)
        cwx.run(60)
        beat = shard.last_heartbeat
        assert [round(t - beat, 9) for t in probed if t > beat] == \
            [5.0, 6.0, 8.0, 12.0, 17.0, 22.0, 27.0]
        assert monitor.detected_at(1, SUSPECT) == beat + 17.0
        assert cwx.server.failovers[0][0] == beat + 27.0

    def test_killed_shard_publishes_nothing(self):
        """A killed shard stops sweeping at the kill: between the kill
        and the drain it writes nothing, so no update for a victim host
        reaches a subscriber and the adopters inherit no value it wrote.
        With self-healing on, its health tracker used to judge its hosts
        by the agent updates the router was holding and publish every
        one of them ``suspect``."""
        cwx = make_fed(n=40, self_healing=True)
        cwx.run(30)
        victim = cwx.server.shards[1]
        hosts = victim.hostnames
        seen, written = [], []
        cwx.server.subscribe(lambda update: seen.append(cwx.kernel.now),
                             hosts=hosts)
        victim.server.store.subscribe(
            lambda update: written.append(cwx.kernel.now))
        t_kill = cwx.kernel.now + 1.0
        kill(cwx, 1, at=t_kill)
        cwx.run(60)
        (drained, index, _, moved), = cwx.server.failovers
        assert index == 1 and moved == len(hosts)
        assert [t for t in seen if t_kill < t < drained] == []
        assert [t for t in written if t > t_kill] == []
        assert [host for host in hosts
                if "health_state" in cwx.server.current(host)] == []


class TestFailover:
    def test_state_and_history_survive(self):
        cwx = make_fed()
        cwx.run(60)
        victim = cwx.server.shards[1]
        owned = list(victim.server.managed_hostnames)
        summary_before = cwx.server.cluster_summary()["nodes_total"]
        kill(cwx, 1)
        cwx.run(60)
        assert sorted(cwx.server.managed_hostnames) == \
            sorted(cwx.cluster.hostnames)
        for hostname in owned:
            adopter = cwx.server.owner_of(hostname)
            assert adopter is not None and adopter.index != 1
            assert adopter.server.store.get(hostname)
            assert adopter.server.history.series(hostname,
                                                 "cpu_util_pct")[0].size
        assert cwx.server.cluster_summary()["nodes_total"] == \
            summary_before

    def test_updates_flow_to_adopters_after_failover(self):
        cwx = make_fed()
        cwx.run(30)
        victim_host = cwx.server.shards[1].server.managed_hostnames[0]
        kill(cwx, 1)
        cwx.run(60)
        gen = cwx.server.owner_of(victim_host).server.store.generation
        cwx.run(30)
        owner = cwx.server.owner_of(victim_host)
        assert owner.server.store.generation > gen
        assert owner.server.store.last_agent_seen(victim_host) > 0

    def test_degraded_info_lifecycle(self):
        cwx = make_fed()
        cwx.run(30)
        assert cwx.server.degraded_info() == {
            "degraded": False, "stale_shards": [], "staleness_s": 0.0}
        t_kill = cwx.kernel.now
        kill(cwx, 1)
        # run just past suspicion: degraded with the victim named
        cwx.run(cwx.server.monitor.suspect_after + 6.0)
        info = cwx.server.degraded_info()
        assert info["degraded"] is True
        assert info["stale_shards"] == ["shard1"]
        assert info["staleness_s"] > 0.0
        # after fail-over completes the fleet is whole again
        cwx.run(60)
        assert cwx.server.degraded_info()["degraded"] is False

    def test_operator_drain_leaves_nothing_degraded(self):
        """A drained shard owns nothing, so nothing served is stale on
        its account: neither the verdict nor a published view stays
        degraded after an operator drain."""
        cwx = make_fed(n=16)
        cwx.server.drain(1)
        cwx.run(60)
        assert cwx.server.degraded_info()["degraded"] is False
        state = GatewayState(cwx.server)
        assert state.view.degraded is False
        assert "degraded" not in state.view.summary

    def test_federated_reads_stay_partial_not_raising(self):
        """Every fan-out surface keeps answering while a shard is dark
        (pre-fail-over): summaries freeze the dead shard's contribution,
        snapshots/host reads fall back to last-known, nothing raises."""
        cwx = make_fed(topology_options={"shard_down_after": 1e9,
                                         "auto_failover": False})
        cwx.run(60)
        victim_host = cwx.server.shards[1].server.managed_hostnames[0]
        summary_before = cwx.server.cluster_summary()
        # warm the last-good part cache, as the gateway's every-slice
        # refresh does — the fallback serves the last snapshot *taken*
        cwx.server.current_all()
        kill(cwx, 1)
        cwx.run(30)
        summary = cwx.server.cluster_summary()
        assert summary["nodes_total"] == summary_before["nodes_total"]
        snap = cwx.server.current_all()
        assert len(snap) == 20
        assert cwx.server.current(victim_host)
        assert cwx.server.store.is_tracked(victim_host)
        assert cwx.server.engine.active_count() >= 0
        # generation stays monotone through the outage
        gen = cwx.server.store.generation
        cwx.run(30)
        assert cwx.server.store.generation >= gen

    def test_manual_failover_matches_auto(self):
        cwx = make_fed()
        cwx.run(30)
        moved = cwx.server.fail_over(2)
        assert len(moved) == 5
        assert cwx.server.shards[2].health == DEAD
        assert not cwx.server.shards[2].active
        assert cwx.server.failovers[0][2] == "manual"
        assert sorted(cwx.server.managed_hostnames) == \
            sorted(cwx.cluster.hostnames)

    def test_adopter_rules_read_the_migrated_row(self):
        """A rule on a value change suppression never re-sends: the
        host's first update on the adopter evaluates it against the row
        the drain migrated, not against that update's delta alone."""
        cwx = make_fed()
        cwx.add_threshold("has-mem", metric="mem_total_bytes", op=">",
                          threshold=0, action="none")
        cwx.run(30)
        host = cwx.server.shards[1].hostnames[0]
        assert cwx.server.shards[1].server.engine.is_triggered(
            "has-mem", host)
        cwx.server.drain(1)
        adopter = cwx.server.owner_of(host).server
        migrated = adopter.store.get(host)["mem_total_bytes"]
        assert not adopter.engine.is_triggered("has-mem", host)
        seen = []
        adopter.store.subscribe(
            lambda update: seen.append(
                (update, adopter.engine.is_triggered("has-mem", host))),
            hosts=[host])
        cwx.run(cwx.monitor_interval)
        first, triggered = seen[0]
        assert "mem_total_bytes" not in first.values
        assert triggered
        assert [(e.rule, e.time, e.value) for e in adopter.engine.fired
                if e.node == host] == [("has-mem", first.time, migrated)]

    def test_revive_after_failover_stays_drained(self):
        """A kill with a duration longer than detection: the revive
        clears the switch on a shard that is already drained, and
        nothing brings it back."""
        cwx = make_fed()
        cwx.run(30)
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        plane.kill_shard(1, at=cwx.kernel.now + 1.0, duration=60.0)
        cwx.run(45)
        shard = cwx.server.shards[1]
        assert [row[1] for row in cwx.server.failovers] == [1]
        beat = shard.last_heartbeat
        transitions = list(cwx.server.monitor.transitions)
        cwx.run(60)
        assert not shard.channel.killed and shard.channel.up
        assert shard.active is False and shard.health == DEAD
        assert shard.n_nodes == 0
        assert shard.last_heartbeat == beat  # never probed again
        assert cwx.server.monitor.transitions == transitions
        assert not shard.channel.held
        assert shard.channel.dropped_ingests == 0
        assert shard.server._sweep_proc is None  # the revive left it off


def _watch_outage(fault, seed=11):
    """Run a 40-node, 4-shard federation, optionally injecting
    ``fault(plane, at)`` against shard 1, and return what its hosts
    left behind: agent ``seq`` as a federated subscriber saw them, the
    exported history series, and the channel's loss counter."""
    cwx = make_fed(n=40, seed=seed)
    cwx.run(30)
    victim = cwx.server.shards[1]
    hosts = list(victim.hostnames)
    seqs = {host: [] for host in hosts}

    def watch(update):
        if update.source == "agent":
            seqs[update.hostname].append(update.seq)
    cwx.server.subscribe(watch, hosts=hosts)
    if fault is not None:
        fault(FaultPlane(cwx.kernel, federation=cwx.server),
              cwx.kernel.now + 1.0)
    cwx.run(90)
    assert not victim.channel.held
    history = {host: cwx.server.owner_of(host).server.history
               .export_host(host) for host in hosts}
    return seqs, history, victim.channel.dropped_ingests


OUTAGES = {
    "kill": lambda plane, at: plane.kill_shard(1, at),
    "hang": lambda plane, at: plane.outage(1, at, 8.0, SHARD_HANG),
    "link": lambda plane, at: plane.outage(1, at, 16.0, LINK_DOWN),
    "slow": lambda plane, at: plane.outage(1, at, 8.0, SHARD_SLOW),
}


class TestStoreAndForward:
    """An unreachable shard delays its updates, it does not lose them:
    the router holds them in arrival order on the shard's channel and
    releases them when the shard answers again or is drained."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _watch_outage(None)

    @pytest.mark.parametrize("kind", sorted(OUTAGES))
    def test_outage_matches_the_fault_free_run(self, baseline, kind):
        seqs, history, dropped = _watch_outage(OUTAGES[kind])
        base_seqs, base_history, _ = baseline
        assert dropped == 0
        for host, seen in seqs.items():
            assert seen == list(range(seen[0], seen[0] + len(seen))), \
                f"{host}: agent seq has gaps or reorders"
            assert seen == base_seqs[host]
            assert sorted(history[host]) == sorted(base_history[host])
            for metric, (t, v) in history[host].items():
                base_t, base_v = base_history[host][metric]
                assert np.array_equal(t, base_t), (host, metric)
                assert np.array_equal(v, base_v), (host, metric)

    def test_backlog_applies_before_the_first_new_update(self):
        cwx = make_fed()
        cwx.run(30)
        shard = cwx.server.shards[2]
        host = shard.hostnames[0]
        seen = []
        cwx.server.subscribe(seen.append, hosts=[host])
        back_at = cwx.kernel.now + 11.0
        _hang(cwx, 2, cwx.kernel.now, 11.0)
        cwx.run(10.5)
        held = [u for u in shard.channel.held if u.hostname == host]
        assert len(held) >= 2 and seen == []
        cwx.run(10.0)
        assert not shard.channel.held
        assert seen[:len(held)] == held
        # every update held during the hang, then the ones after it
        during = [u.time < back_at for u in seen]
        assert during == sorted(during, reverse=True)
        assert not during[-1]
        assert [u.seq for u in seen] == list(
            range(seen[0].seq, seen[0].seq + len(seen)))

    def test_held_update_for_forgotten_host_is_unrouted(self):
        cwx = make_fed(topology_options={"auto_failover": False})
        cwx.run(30)
        shard = cwx.server.shards[1]
        host = shard.hostnames[0]
        kill(cwx, 1)
        cwx.run(12)
        held = [u for u in shard.channel.held if u.hostname == host]
        assert held
        cwx.agents[host].stop()
        cwx.server.forget_node(host)
        before = cwx.server.unrouted_updates
        shard.channel.killed = False
        cwx.run(6)
        assert not shard.channel.held
        assert cwx.server.unrouted_updates - before == len(held)
        assert not shard.server.store.is_tracked(host)
        assert host not in cwx.server.current_all()
        assert shard.channel.dropped_ingests == 0

    def _drain_unreachable(self, how):
        cwx = make_fed(topology_options={"auto_failover": False})
        cwx.run(30)
        shard = cwx.server.shards[1]
        hosts = shard.hostnames
        seen = []
        cwx.server.subscribe(seen.append, hosts=hosts)
        kill(cwx, 1)
        cwx.run(12)
        held = list(shard.channel.held)
        assert held and seen == []
        getattr(cwx.server, how)(1)
        assert not shard.channel.held
        assert seen == held
        values = {host: dict(cwx.server.current(host)) for host in hosts}
        assert all(cwx.server.last_seen(host) == max(
            u.time for u in held if u.hostname == host) for host in hosts)
        return [(u.hostname, u.seq) for u in seen], values

    def test_operator_drain_releases_like_fail_over(self):
        assert self._drain_unreachable("drain") == \
            self._drain_unreachable("fail_over")

    def test_hold_is_bounded_by_the_fail_over_deadline(self):
        """Fail-over off, a shard dead for good: the backlog ages out at
        ``down_after + interval`` and every update is accounted for."""
        cwx = make_fed(topology_options={"auto_failover": False})
        cwx.run(30)
        monitor = cwx.server.monitor
        window = monitor.down_after + monitor.interval
        shard = cwx.server.shards[1]
        hosts = shard.hostnames
        emitted, applied = [], set()
        for host in hosts:
            agent = cwx.agents[host]
            agent.on_sample = (lambda update, send=agent.on_sample:
                               (emitted.append(update), send(update)))

        def apply(update):
            if update.source == "agent":
                applied.add(id(update))
        cwx.server.subscribe(apply, hosts=hosts)
        kill(cwx, 1, at=cwx.kernel.now + 1.0)
        per_node = math.ceil(window / cwx.monitor_interval) + 1
        saw_drops = False
        cwx.run(cwx.monitor_interval)  # every agent has reported
        for _ in range(60):
            cwx.run(2.0)
            held = shard.channel.held
            dropped = shard.channel.dropped_ingests
            cutoff = emitted[-1].time - window  # as of the last hold
            aged = sum(1 for u in emitted
                       if id(u) not in applied and u.time < cutoff)
            assert all(u.time >= cutoff for u in held)
            assert not held or cwx.kernel.now - held[0].time \
                <= window + cwx.monitor_interval
            assert len(held) <= len(hosts) * per_node
            assert dropped == aged
            assert len(applied) + dropped + len(held) == len(emitted)
            saw_drops = saw_drops or dropped > 0
        assert saw_drops and not cwx.server.failovers


class TestRemoteRunAcrossFailover:
    def test_shard_kill_mid_run_leaves_the_run_alone(self):
        """A remote run rides the fabric, not a shard: a monitoring
        shard dying mid-run fails over as usual while every target —
        up, and reachable over the fabric — finishes ok on its first
        attempt."""
        cwx = make_fed()
        cwx.run(30)
        kill(cwx, 1, at=cwx.kernel.now + 1.0)
        # a slow command keeps workers in flight across the fail-over
        task = cwx.server.remote.run_sync("sleep 60", "@all",
                                          timeout=300.0)
        assert task.counts() == {"ok": 20}
        assert task.total_attempts == 20
        assert [row[1] for row in cwx.server.failovers] == [1]
        assert cwx.server.failovers[0][0] < task.finished_at


class TestWatchRehome:
    def test_unfiltered_watch_survives_failover(self):
        """A cluster-wide watch (the gateway hub's subscription) keeps
        delivering deltas for the victim's hosts after fail-over, with
        no duplicates at the handoff."""
        cwx = make_fed()
        hub = WatchHub(cwx.server)
        watcher = hub.register(WatchClient())
        cwx.run(30)
        victim_host = cwx.server.shards[1].server.managed_hostnames[0]
        watcher.drain()
        kill(cwx, 1)
        cwx.run(90)  # detection + fail-over + fresh agent updates
        deltas = [h for h, _, _ in watcher.drain() if h == victim_host]
        assert deltas, "watch stream went permanently quiet for the " \
                       "victim's hosts after fail-over"
        hub.close()

    def test_host_filtered_watch_rehomes_to_adopter(self):
        cwx = make_fed()
        cwx.run(30)
        victim_host = cwx.server.shards[1].server.managed_hostnames[0]
        seen = []
        sub = cwx.server.subscribe(seen.append, hosts=[victim_host])
        assert len(sub.parts) == 1
        kill(cwx, 1)
        cwx.run(90)
        seen.clear()
        cwx.run(30)
        assert {u.hostname for u in seen} == {victim_host}
        assert sub.active
        # the surviving part now hangs off the adopting shard's store
        adopter = cwx.server.owner_of(victim_host)
        assert adopter.index != 1

    def test_rehome_does_not_duplicate_deltas(self):
        """The migration restore writes are silent: the watcher sees
        each victim-host update exactly once per agent report, never a
        burst of synthetic deltas at the drain instant."""
        cwx = make_fed()
        hub = WatchHub(cwx.server)
        watcher = hub.register(WatchClient())
        cwx.run(30)
        watcher.drain()
        cwx.server.fail_over(1)  # instant drain, no sim time passes
        burst = watcher.drain()
        assert burst == [], "drain migration leaked synthetic deltas"
        hub.close()

    def test_a_watch_registers_on_an_unreachable_shard(self):
        """Re-homed onto an adopter that is hung at the drain, or opened
        while its owner is hung, a host-filtered watch used to lose that
        part for good; the bus registration does not go through the
        channel, so the watch delivers once the shard answers."""
        cwx = make_fed(n=8, shards=2)
        cwx.run(30)
        host = cwx.server.shards[0].hostnames[0]
        moved, opened = [], []
        cwx.server.subscribe(moved.append, hosts=[host])
        _hang(cwx, 1, cwx.kernel.now, 10.0)
        cwx.run(1)
        cwx.server.drain(0)
        cwx.server.subscribe(opened.append, hosts=[host])
        cwx.run(30)
        assert moved[-1] is opened[-1] and opened[-1].hostname == host

    def test_cancelled_subscriptions_are_forgotten(self):
        """A logical subscription is tracked for re-homing only while it
        lives: 500 closed watches used to stay listed until the next
        shard death."""
        cwx = make_fed()
        store = cwx.server.store
        baseline = len(store.subscriptions)
        host = cwx.cluster.hostnames[0]  # owned by shard 0
        got = []
        live = cwx.server.subscribe(
            lambda update: got.append(update.hostname), hosts=[host])
        for _ in range(500):
            cwx.server.subscribe(lambda update: None,
                                 hosts=[host]).cancel()
            assert len(store._federated_subs) == 1
        assert len(store.subscriptions) == baseline + 1
        live.cancel()
        live.cancel()  # idempotent
        assert len(store._federated_subs) == 0
        # ... and the live ones are still re-homed by a drain
        live = cwx.server.subscribe(
            lambda update: got.append(update.hostname), hosts=[host])
        cwx.server.drain(0)
        del got[:]
        cwx.run(15)
        assert live.active and set(got) == {host}


def _publish(state):
    """One slice boundary, under the slice lock as the sim thread takes it."""
    with state.lock:
        state.refresh()


def _get(router, path):
    """Invoke one route handler socket-free; returns (status, frames)."""
    request = parse_request(
        f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii"))
    route, params = router.resolve(request.path)
    return route.handler(request, params)


class TestAnyOneReads:
    """The rule list every shard holds identically must not die with
    shard 0: a killed shard stays ``active`` until the monitor drains
    it, so "first active shard" kept picking the corpse for the whole
    detection window.  Remote runs never ask a shard at all."""

    def test_rules_survive_a_killed_first_shard(self):
        cwx = make_fed()
        cwx.add_threshold("hot", metric="cpu_temp_c", op=">",
                          threshold=70.0)
        cwx.server.shards[0].channel.killed = True
        assert [rule.name for rule in cwx.server.engine.rules] == ["hot"]

    def test_group_targets_survive_a_killed_first_shard(self):
        """Shard 0's process is down but its nodes and the fabric are
        up: ``@all`` expands in full and every target answers."""
        cwx = make_fed()
        cwx.server.shards[0].channel.killed = True
        everyone = cwx.server.remote.nodeset("@all")
        assert list(everyone) == cwx.cluster.hostnames
        assert cwx.remote_run("uname -r", "@all").counts() == {"ok": 20}

    def test_declared_default_only_when_no_shard_answers(self):
        cwx = make_fed()
        cwx.add_threshold("hot", metric="cpu_temp_c", op=">",
                          threshold=70.0)
        for shard in cwx.server.shards:
            shard.channel.killed = True
        assert cwx.server.engine.rules == []


class TestGatewayDegraded:
    def _gateway(self, cwx):
        state = GatewayState(cwx.server,
                             resolver=cwx.cluster.group_resolver())
        return state, build_router(state, lambda: {})

    def test_shards_route_reports_health(self):
        cwx = make_fed()
        cwx.run(30)
        state, router = self._gateway(cwx)
        _publish(state)
        status, frames = _get(router, "/v1/shards")
        assert status == 200 and len(frames) == 4
        for _, _, _, values in frames:
            assert values["health"] == "healthy"
            assert values["heartbeat_age"] >= 0.0
            assert "degraded" not in values

    def test_degraded_serving_through_failover(self):
        """Kill a shard under the gateway: every endpoint keeps
        answering 200, summary/hosts/shards tagged degraded while
        stale, tags clear once fail-over completes."""
        cwx = make_fed()
        state, router = self._gateway(cwx)
        cwx.run(30)
        _publish(state)
        assert "degraded" not in _get(router, "/v1/summary")[1][0][3]
        kill(cwx, 1)
        cwx.run(cwx.server.monitor.suspect_after + 6.0)
        _publish(state)
        status, frames = _get(router, "/v1/summary")
        summary = frames[0][3]
        assert status == 200
        assert summary["degraded"] is True
        assert summary["stale_shards"] == "shard1"
        assert summary["staleness_s"] > 0.0
        assert summary["nodes_total"] == 20
        _, frames = _get(router, "/v1/hosts")
        assert frames[0][3]["degraded"] is True
        assert frames[0][3]["count"] == 20
        _, frames = _get(router, "/v1/shards")
        by_name = {subject: values
                   for _, subject, _, values in frames}
        assert by_name["shard1"]["stale"] is True
        assert by_name["shard0"]["stale"] is False
        # every other endpoint still answers 200 off the stale view
        for path in ("/v1/hosts/" + cwx.cluster.hostnames[0],
                     "/v1/events", "/v1/query?nodes=@all"):
            assert _get(router, path)[0] == 200
        # ... fail-over completes: tags clear, fleet intact
        cwx.run(60)
        _publish(state)
        _, frames = _get(router, "/v1/summary")
        assert "degraded" not in frames[0][3]
        assert frames[0][3]["nodes_total"] == 20

    def test_failover_sorts_the_membership_again(self):
        """Hosts changing owner is a membership change for the gateway:
        the publish after a fail-over sorts (and `/v1/hosts` folds) the
        hostnames afresh, the publishes around it carry them forward."""
        cwx = make_fed()
        state, _ = self._gateway(cwx)
        cwx.run(30)
        _publish(state)
        names, folded = state.view.hostnames, state.folded_hosts()
        cwx.run(5)
        _publish(state)
        assert state.view.hostnames is names
        cwx.server.fail_over(1)
        cwx.run(5)
        _publish(state)
        moved = state.view.hostnames
        assert moved is not names and moved == names
        assert state.folded_hosts() is not folded
        assert state.folded_hosts() == folded
        cwx.run(5)
        _publish(state)
        assert state.view.hostnames is moved

    def test_publish_stall_keeps_serving_last_view(self):
        cwx = make_fed()
        state, router = self._gateway(cwx)
        cwx.run(30)
        _publish(state)
        before = _get(router, "/v1/summary")[1][0][3]
        plane = FaultPlane(cwx.kernel, federation=cwx.server,
                           gateway_state=state)
        plane.stall_gateway(cwx.kernel.now, 60.0)
        cwx.run(30)
        _publish(state)
        during = _get(router, "/v1/summary")[1][0][3]
        assert during["sim_time"] == before["sim_time"]
        assert state.publish_stalls > 0
        cwx.run(60)
        _publish(state)
        after = _get(router, "/v1/summary")[1][0][3]
        assert after["sim_time"] > before["sim_time"]

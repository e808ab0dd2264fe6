"""repro.faults: deterministic control-plane fault injection.

Covers: the FaultPlane scheduling primitives (kill, the one outage
under its three labels, gateway stall fire at their planned sim times
and leave an audit trail; a killed shard stops sweeping), the
ControlPlan campaign hook (same seed + spec renders byte-identical
CampaignReports, and adding a control plan
never perturbs the node-fault schedule), fail-over scoring (a killed
shard is detected, drained and re-owned by survivors).
"""

import pytest

from repro import ClusterWorX
from repro.faults import (CONTROL_KINDS, LINK_DOWN, SHARD_HANG,
                          SHARD_KILL, SHARD_SLOW, ControlPlan, FaultPlane)
from repro.federation import DEAD, HEALTHY
from repro.gateway import GatewayState
from repro.resilience import ChaosCampaign
from repro.resilience.chaos import FAILED_OVER, RODE_THROUGH


def make_fed(n=16, shards=4, seed=7, **kwargs):
    return ClusterWorX(n_nodes=n, seed=seed, monitor_interval=5.0,
                       topology="federation", shards=shards, **kwargs)


def started_fed(**kwargs):
    """A booted federation plus a plane and its boot-time origin.

    ``cwx.start()`` advances the clock through boot, so fault times are
    expressed as ``t0 + offset``.
    """
    cwx = make_fed(**kwargs)
    cwx.start()
    plane = FaultPlane(cwx.kernel, federation=cwx.server)
    return cwx, plane, cwx.kernel.now


class TestFaultPlane:
    def test_kill_fires_at_planned_time_with_audit(self):
        cwx, plane, t0 = started_fed()
        plane.kill_shard(1, at=t0 + 30.0)
        assert plane.injections == [(t0 + 30.0, SHARD_KILL, "shard1",
                                     None)]
        channel = cwx.server.shards[1].channel
        cwx.run(29.0)
        assert not channel.killed and channel.up
        cwx.run(2.0)
        assert channel.killed and not channel.up

    def test_kill_with_duration_revives(self, sweep_passes):
        """The kill stops the shard's sweep at the kill instant; the
        revive of a shard not yet failed over starts it again."""
        cwx, plane, t0 = started_fed(
            self_healing=True,
            topology_options={"auto_failover": False,
                              "shard_down_after": 1e9})
        shard = cwx.server.shards[2]
        swept = sweep_passes(shard.server)
        plane.kill_shard(2, at=t0 + 10.0, duration=20.0)
        cwx.run(15.0)
        assert shard.channel.killed
        cwx.run(20.0)
        assert not shard.channel.killed and shard.channel.up
        cwx.run(30.0)
        assert [t for t in swept if t0 + 10.0 < t < t0 + 30.0] == []
        after = [t - t0 for t in swept if t >= t0 + 30.0]
        assert after == pytest.approx([30.0, 40.0, 50.0, 60.0])

    @pytest.mark.parametrize("kind", [SHARD_HANG, LINK_DOWN, SHARD_SLOW])
    def test_outage_window_opens_and_closes(self, kind):
        cwx, plane, t0 = started_fed()
        plane.outage(1, at=t0 + 5.0, duration=8.0, kind=kind)
        assert plane.injections == [(t0 + 5.0, kind, "shard1", 8.0)]
        channel = cwx.server.shards[1].channel
        cwx.run(6.0)
        assert channel.down_until == t0 + 13.0 and not channel.up
        cwx.run(8.0)
        assert channel.up and not channel.killed

    def test_outage_is_not_a_kill(self):
        cwx, plane, t0 = started_fed()
        with pytest.raises(ValueError):
            plane.outage(1, t0 + 5.0, 8.0, SHARD_KILL)
        assert plane.injections == []

    def test_gateway_stall_needs_state(self):
        cwx = make_fed()
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        with pytest.raises(ValueError):
            plane.stall_gateway(10.0, 5.0)
        with pytest.raises(ValueError):
            FaultPlane(cwx.kernel).kill_shard(0, at=1.0)

    def test_gateway_stall_sets_window(self):
        cwx, plane, t0 = started_fed()
        state = GatewayState(cwx.server)
        plane.gateway_state = state
        plane.stall_gateway(at=t0 + 5.0, duration=30.0)
        cwx.run(6.0)
        assert state.stalled_until == t0 + 35.0


def fed_campaign(seed=21, *, n_control=1, control_kinds=(SHARD_KILL,),
                 control_plane=True, control_duration=60.0, **kw):
    kw.setdefault("n_faults", 2)
    kw.setdefault("horizon", 120.0)
    kw.setdefault("settle", 1500.0)
    kw.setdefault("kinds", ("kernel_panic", "os_hang"))
    cwx = make_fed(seed=seed)
    plan = None
    if control_plane:
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        plan = ControlPlan(plane, n_faults=n_control,
                           kinds=control_kinds,
                           duration=control_duration)
    return ChaosCampaign(cwx, control_plane=plan, **kw).execute()


class TestControlPlan:
    def test_same_seed_renders_byte_identical_reports(self):
        first = fed_campaign(seed=21, n_control=2,
                             control_kinds=CONTROL_KINDS)
        second = fed_campaign(seed=21, n_control=2,
                              control_kinds=CONTROL_KINDS)
        assert first.render() == second.render()
        assert "control-plane faults: 2" in first.render()

    def test_control_plan_never_perturbs_node_schedule(self):
        with_cp = fed_campaign(seed=21)
        without = fed_campaign(seed=21, control_plane=False)
        assert [(f.node, f.kind, f.injected_at) for f in with_cp.faults] \
            == [(f.node, f.kind, f.injected_at) for f in without.faults]
        assert without.control_faults == []

    def test_shard_kill_scores_failed_over(self):
        report = fed_campaign(seed=21)
        (fault,) = report.control_faults
        assert fault.kind == SHARD_KILL and fault.outcome == FAILED_OVER
        assert fault.detected_at is not None
        assert fault.detection_latency > 0.0
        assert fault.redistribute_latency >= 0.0
        assert fault.nodes_moved == 4
        assert report.ok
        text = report.render()
        assert "control-plane faults: 1" in text
        assert FAILED_OVER in text

    def test_transient_hang_rides_through(self):
        # 18 s of silence crosses suspect_after (12.5 s) but not
        # down_after (25 s): the monitor flags SUSPECT, the shard
        # recovers, nothing fails over.
        report = fed_campaign(seed=21, control_kinds=(SHARD_HANG,),
                              control_duration=18.0)
        (fault,) = report.control_faults
        assert fault.kind == SHARD_HANG
        assert fault.outcome in (RODE_THROUGH, "benign")
        assert report.ok

    def test_control_only_campaign_allowed(self):
        cwx = make_fed(seed=5)
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        plan = ControlPlan(plane, kinds=(SHARD_KILL,))
        report = ChaosCampaign(cwx, n_faults=0, horizon=120.0,
                               settle=600.0,
                               control_plane=plan).execute()
        assert report.faults == []
        assert len(report.control_faults) == 1

    def test_survivors_reown_fleet_after_campaign_kill(self):
        cwx = make_fed(seed=5)
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        plan = ControlPlan(plane, kinds=(SHARD_KILL,))
        ChaosCampaign(cwx, n_faults=0, horizon=120.0, settle=600.0,
                      control_plane=plan).execute()
        (outcome,) = plan.outcomes
        victim = outcome.shard
        assert cwx.server.shards[victim].health == DEAD
        assert all(s.health == HEALTHY for s in cwx.server.shards
                   if s.index != victim)
        # every node re-owned by a survivor: full fleet still readable
        assert len(cwx.server.current_all()) == 16

    @pytest.mark.parametrize("seed,kinds,settle", [
        (0, (SHARD_KILL,), 1800.0),      # the `make chaos-federation` spec
        (2, CONTROL_KINDS, 300.0),       # one of each kind
        (9, CONTROL_KINDS, 300.0)])
    def test_no_update_lost_to_a_resolved_control_fault(self, seed, kinds,
                                                        settle):
        """Store-and-forward: a shard outage that ends in fail-over or
        rides through delays its updates, it drops none."""
        cwx = ClusterWorX(n_nodes=64, seed=seed, monitor_interval=5.0,
                          self_healing=True, topology="federation",
                          shards=8)
        plane = FaultPlane(cwx.kernel, federation=cwx.server)
        plan = ControlPlan(plane, n_faults=2 if kinds == (SHARD_KILL,)
                           else 4, kinds=kinds, duration=18.0)
        ChaosCampaign(cwx, n_faults=8, horizon=300.0, settle=settle,
                      control_plane=plan).execute()
        outcomes = plan.score()
        resolved = [f for f in outcomes
                    if f.outcome in (FAILED_OVER, RODE_THROUGH)]
        assert resolved
        assert all(f.updates_dropped == 0 for f in resolved), \
            [(f.kind, f.outcome, f.updates_dropped) for f in outcomes]
        if kinds == (SHARD_KILL,):
            assert [f.outcome for f in outcomes] == [FAILED_OVER] * 2

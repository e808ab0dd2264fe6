"""repro.faults: deterministic control-plane fault injection.

Covers: the FaultPlane scheduling primitives (kill, the one outage
under its three labels, gateway stall fire at their planned sim times
and leave an audit trail; a killed shard stops sweeping), shard faults
inside a ChaosCampaign (same seed + spec renders byte-identical
CampaignReports, and adding shard faults never perturbs the node-fault
schedule), fail-over scoring (a killed shard is detected, drained and
re-owned by survivors; its row matches the fail-over log).
"""

import pytest

from repro import ClusterWorX
from repro.cli import main
from repro.faults import (CONTROL_KINDS, LINK_DOWN, SHARD_HANG,
                          SHARD_KILL, SHARD_SLOW, ChaosCampaign,
                          FaultPlane)
from repro.faults.campaign import FAILED_OVER, RECOVERED
from repro.faults.invariants import ingest_counts
from repro.gateway import GatewayState
from repro.resilience.health import HealthState


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


def fed_campaign(seed=21, *, shard_faults=1, **kw):
    """A 16-node, 4-shard campaign; returns the facade and the report."""
    kw.setdefault("n_faults", 2)
    kw.setdefault("horizon", 120.0)
    kw.setdefault("settle", 1500.0)
    kw.setdefault("kinds", ("kernel_panic", "os_hang"))
    cwx = make_fed(seed=seed)
    report = ChaosCampaign(cwx, shard_faults=shard_faults, **kw).execute()
    return cwx, report


def shard_rows(report):
    return [f for f in report.faults if f.kind in CONTROL_KINDS]


def node_rows(report):
    return [f for f in report.faults if f.kind not in CONTROL_KINDS]


class TestCampaignShardFaults:
    def test_same_seed_renders_byte_identical_reports(self):
        _, first = fed_campaign(seed=21, shard_faults=2,
                                shard_kinds=CONTROL_KINDS)
        _, second = fed_campaign(seed=21, shard_faults=2,
                                 shard_kinds=CONTROL_KINDS)
        assert first.render() == second.render()
        assert "chaos campaign: 4 faults" in first.render()
        assert len(shard_rows(first)) == 2

    def test_shard_faults_never_perturb_node_schedule(self):
        _, with_shards = fed_campaign(seed=21)
        _, without = fed_campaign(seed=21, shard_faults=0)
        assert [(f.subject, f.kind, f.injected_at)
                for f in node_rows(with_shards)] \
            == [(f.subject, f.kind, f.injected_at)
                for f in node_rows(without)]
        assert shard_rows(without) == []

    def test_shard_kill_scores_failed_over(self):
        cwx, report = fed_campaign(seed=21)
        (fault,) = shard_rows(report)
        assert fault.kind == SHARD_KILL and fault.outcome == FAILED_OVER
        assert fault.detected_at is not None
        assert fault.detection_latency > 0.0
        assert fault.recovery_latency >= 0.0
        (row,) = cwx.server.failovers
        assert row[3] == 4  # nodes moved
        assert report.ok
        text = report.render()
        assert "chaos campaign: 3 faults" in text
        assert FAILED_OVER in text

    def test_transient_hang_rides_through(self):
        # 18 s of silence crosses suspect_after (12.5 s) but not
        # down_after (25 s): the monitor flags SUSPECT, the shard
        # recovers, nothing fails over.
        cwx, report = fed_campaign(seed=21, shard_kinds=(SHARD_HANG,),
                                   outage=18.0)
        (fault,) = shard_rows(report)
        assert fault.kind == SHARD_HANG
        assert fault.outcome in (RECOVERED, "benign")
        assert cwx.server.failovers == []
        assert report.ok

    def test_shard_only_campaign_allowed(self):
        cwx = make_fed(seed=5)
        report = ChaosCampaign(cwx, n_faults=0, horizon=120.0,
                               settle=600.0, shard_faults=1).execute()
        (fault,) = report.faults
        assert fault.kind == SHARD_KILL

    def test_survivors_reown_fleet_after_campaign_kill(self):
        cwx = make_fed(seed=5)
        report = ChaosCampaign(cwx, n_faults=0, horizon=120.0,
                               settle=600.0, shard_faults=1).execute()
        (fault,) = report.faults
        victim = next(s.index for s in cwx.server.shards
                      if s.name == fault.subject)
        assert cwx.server.shards[victim].health == HealthState.DRAINED
        assert all(s.health == HealthState.HEALTHY
                   for s in cwx.server.shards
                   if s.index != victim)
        # every node re-owned by a survivor: full fleet still readable
        assert len(cwx.server.current_all()) == 16

    def test_a_kill_must_leave_a_survivor(self, capsys):
        """As many shard faults as shards is refused up front, not
        quietly cut to one fewer; so is a shard fault on a flat
        cluster."""
        with pytest.raises(ValueError):
            ChaosCampaign(make_fed(shards=4), n_faults=0, shard_faults=4)
        ChaosCampaign(make_fed(shards=4), n_faults=0, shard_faults=3)
        with pytest.raises(ValueError):
            ChaosCampaign(ClusterWorX(n_nodes=4, seed=1), n_faults=0,
                          shard_faults=1)
        with pytest.raises(ValueError):
            ChaosCampaign(make_fed(), shard_faults=1,
                          shard_kinds=("pub-stall",))
        assert main(["chaos", "--nodes", "16", "--shards", "8",
                     "--shard-kills", "8"]) == 2
        assert "--shard-kills" in capsys.readouterr().err

    def test_shard_rows_match_the_failover_log(self):
        """Two kills and one 18-s hang on 8 shards (seed 0 draws
        exactly that): a kill is detected at its shard's first suspect
        or down mark and resolved at its fail-over row; the hang heals
        in place."""
        cwx = make_fed(seed=0, shards=8)
        report = ChaosCampaign(cwx, n_faults=0, horizon=120.0,
                               settle=300.0, shard_faults=3,
                               shard_kinds=(SHARD_KILL, SHARD_HANG),
                               outage=18.0).execute()
        kills = [f for f in report.faults if f.kind == SHARD_KILL]
        (hang,) = [f for f in report.faults if f.kind == SHARD_HANG]
        assert len(kills) == 2
        for fault in kills:
            shard = next(s for s in cwx.server.shards
                         if s.name == fault.subject)
            record = cwx.server.monitor.health.record(shard.name)
            marks = (record.transitions_to(HealthState.SUSPECT,
                                           since=fault.injected_at)
                     + record.transitions_to(HealthState.DOWN,
                                             since=fault.injected_at))
            assert fault.detected_at == min(marks)
            (row,) = [r for r in cwx.server.failovers
                      if r[1] == shard.index]
            assert fault.resolved_at == row[0]
            assert fault.outcome == FAILED_OVER
        assert hang.outcome == RECOVERED
        assert report.ok

    @pytest.mark.parametrize("seed,kinds,settle", [
        (0, (SHARD_KILL,), 1800.0),      # the `make chaos-federation` spec
        (2, CONTROL_KINDS, 300.0),       # one of each kind
        (9, CONTROL_KINDS, 300.0)])
    def test_no_update_lost_to_a_resolved_shard_fault(self, seed, kinds,
                                                      settle):
        """Store-and-forward: a shard outage that ends in fail-over or
        heals in place delays its updates, it drops none."""
        cwx = ClusterWorX(n_nodes=64, seed=seed, monitor_interval=5.0,
                          self_healing=True, topology="federation",
                          shards=8)
        report = ChaosCampaign(
            cwx, n_faults=8, horizon=300.0, settle=settle,
            shard_faults=2 if kinds == (SHARD_KILL,) else 4,
            shard_kinds=kinds, outage=18.0).execute()
        rows = shard_rows(report)
        assert [f for f in rows if f.outcome in (FAILED_OVER, RECOVERED)]
        assert ingest_counts(cwx.server, [])["dropped_ingests"] == 0, \
            [(f.kind, f.outcome) for f in rows]
        if kinds == (SHARD_KILL,):
            assert [f.outcome for f in rows] == [FAILED_OVER] * 2

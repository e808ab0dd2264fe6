"""Chaos campaigns: deterministic reports, recovery outcomes, scoring."""

import pytest

from repro import ClusterWorX
from repro.faults import CampaignReport, ChaosCampaign, FaultOutcome
from repro.faults.campaign import (BENIGN, QUARANTINED, RECOVERED,
                                   UNRESOLVED)


def run_campaign(seed=21, **kw):
    kw.setdefault("n_faults", 4)
    kw.setdefault("horizon", 120.0)
    kw.setdefault("settle", 1500.0)
    cwx = ClusterWorX(n_nodes=12, seed=seed, monitor_interval=5.0)
    campaign = ChaosCampaign(cwx, **kw)
    return campaign.execute()


class TestCampaignReport:
    def test_outcome_counts_and_rates(self):
        report = CampaignReport(seed=1, nodes=4, horizon=10.0, settle=10.0)
        report.faults = [
            FaultOutcome(subject="a", kind="kernel_panic", injected_at=0.0,
                         detected_at=5.0, resolved_at=30.0,
                         rung="ice_reset", outcome=RECOVERED),
            FaultOutcome(subject="b", kind="psu_failure", injected_at=1.0,
                         detected_at=9.0, resolved_at=100.0,
                         rung="quarantine", outcome=QUARANTINED),
            FaultOutcome(subject="c", kind="memory_leak", injected_at=2.0,
                         outcome=BENIGN),
        ]
        counts = report.outcome_counts()
        assert counts[RECOVERED] == 1 and counts[QUARANTINED] == 1
        assert counts[BENIGN] == 1 and counts[UNRESOLVED] == 0
        assert report.mean_detection_latency == pytest.approx(6.5)
        assert report.mttr == pytest.approx(25.0)
        assert report.recovery_rate() == pytest.approx(0.5)
        assert report.recovery_rate(["kernel_panic"]) == 1.0
        assert report.recovery_rate(["memory_leak"]) == 1.0  # undetected
        assert report.ok

    def test_unresolved_or_errors_fail_ok(self):
        report = CampaignReport(seed=1, nodes=1, horizon=1.0, settle=1.0)
        report.faults = [FaultOutcome(subject="a", kind="os_hang",
                                      injected_at=0.0, detected_at=1.0,
                                      outcome=UNRESOLVED)]
        assert not report.ok
        report.faults[0].outcome = RECOVERED
        report.faults[0].resolved_at = 2.0
        assert report.ok
        report.errors = 1
        assert not report.ok

    def test_render_lists_every_fault(self):
        report = CampaignReport(seed=7, nodes=2, horizon=5.0, settle=5.0)
        report.faults = [FaultOutcome(subject="a", kind="os_hang",
                                      injected_at=3.0)]
        text = report.render()
        assert "seed 7" in text and "os_hang" in text
        assert "recovery rate" in text


class TestChaosCampaign:
    def test_validation(self):
        cwx = ClusterWorX(n_nodes=2, seed=1)
        with pytest.raises(ValueError):
            ChaosCampaign(cwx, n_faults=0)
        with pytest.raises(ValueError):
            ChaosCampaign(cwx, n_faults=3)  # more faults than nodes

    def test_same_seed_renders_byte_identical_reports(self):
        first = run_campaign(seed=21)
        second = run_campaign(seed=21)
        assert first.render() == second.render()

    def test_recoverable_faults_recover(self):
        report = run_campaign(seed=21,
                              kinds=("kernel_panic", "os_hang"))
        assert report.ok
        assert len(report.faults) == 4
        assert report.recovery_rate() == 1.0
        assert all(f.outcome == RECOVERED for f in report.faults)
        assert report.mttr > 0.0

    def test_unrecoverable_fault_quarantines_with_one_page(self):
        report = run_campaign(seed=21, n_faults=1,
                              kinds=("psu_failure",),
                              settle=3600.0)
        assert report.ok
        (fault,) = report.faults
        assert fault.outcome == QUARANTINED
        assert fault.rung == "quarantine"
        assert report.notifications == 1

    def test_a_fault_is_credited_to_the_ladder_it_started(self):
        """A later ladder on the same node (here a PSU failure's, which
        quarantines) does not take the credit of the recovered fault's
        own ladder."""
        cwx = ClusterWorX(n_nodes=12, seed=21, monitor_interval=5.0)
        campaign = ChaosCampaign(cwx, n_faults=1, kinds=("kernel_panic",),
                                 horizon=120.0, settle=1500.0)
        (fault,) = campaign.execute().faults
        assert (fault.outcome, fault.rung) == (RECOVERED, "ice_reset")
        cwx.cluster.faults.schedule(cwx.cluster.node(fault.subject),
                                    "psu_failure", cwx.kernel.now + 10.0)
        cwx.run(3600.0)
        latest = cwx.server.recovery.record_for(fault.subject)
        assert latest.rung_reached == "quarantine"
        (rescored,) = campaign.score().faults
        assert (rescored.outcome, rescored.rung) == (RECOVERED, "ice_reset")

    def test_dead_ice_boxes_leave_no_fault_unresolved(self):
        # Every ICE Box controller answers "ERR: no response", so each
        # ladder falls through to reclone; one attempt per rung keeps
        # every ladder inside the campaign's settle window.
        cwx = ClusterWorX(n_nodes=100, seed=11, self_healing=True,
                          monitor_interval=30.0)
        for box in cwx.cluster.iceboxes:
            box.fail()
        report = ChaosCampaign(cwx, n_faults=40).execute()
        assert report.ok
        quarantined = sorted(f.subject for f in report.faults
                             if f.outcome == QUARANTINED)
        pages = sorted(host for _t, host, _r in
                       cwx.server.recovery.notifications)
        assert pages == quarantined

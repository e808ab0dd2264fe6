"""E15 — chaos campaign over 400 nodes (repro.resilience, beyond-paper).

The paper's pitch is a cluster that "manages itself": monitoring detects,
events drive corrective action (§5.2), the ICE Box resets and power
cycles (§3), recloning reimages (§4).  This experiment closes the loop
at scale: 50+ mixed faults against a 400-node self-healing cluster.

Regenerated/asserted:

* >= 95 % of the recoverable faults (kernel panics, OS hangs) are
  auto-recovered with no operator involvement;
* every unrecoverable fault ends quarantined — drained and paged with
  exactly one smart notification each;
* zero unhandled exceptions escape any playbook;
* two runs with the same seed render byte-identical campaign reports.
"""

from collections import Counter

from _harness import print_table
from repro import ClusterWorX
from repro.faults import ChaosCampaign
from repro.faults.campaign import QUARANTINED, RECOVERED

N_NODES = 400
N_FAULTS = 50
SEED = 2003
RECOVERABLE = ("kernel_panic", "os_hang")


def _run_campaign():
    cwx = ClusterWorX(n_nodes=N_NODES, seed=SEED, self_healing=True,
                      monitor_interval=30.0)
    campaign = ChaosCampaign(cwx, n_faults=N_FAULTS,
                             horizon=900.0, settle=2700.0)
    return cwx, campaign.execute()


def test_chaos_campaign_400_nodes(benchmark):
    def run():
        return _run_campaign()

    cwx, report = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[kind] + [counts.get(outcome, 0)
                      for outcome in ("recovered", "quarantined",
                                      "benign", "unresolved")]
            for kind, counts in sorted(report.by_kind().items())]
    print_table(
        f"E15: {N_FAULTS} faults vs {N_NODES} self-healing nodes "
        f"(seed {SEED})",
        ["kind", "recovered", "quarantined", "benign", "unresolved"],
        rows)
    print(f"detection {report.mean_detection_latency:.1f}s mean | "
          f"MTTR {report.mttr:.1f}s | "
          f"{report.notifications} notification(s) | "
          f"{report.errors} error(s)")

    assert len(report.faults) >= 50
    # every fault reached a terminal outcome; no defused exceptions.
    assert report.ok

    # >= 95% of the detected recoverable faults healed automatically.
    assert report.recovery_rate(RECOVERABLE) >= 0.95

    # every quarantined node was paged exactly once.
    quarantined = [f.subject for f in report.faults
                   if f.outcome == QUARANTINED]
    pages = Counter(host for _t, host, _r in
                    cwx.server.recovery.notifications)
    assert all(pages[host] == 1 for host in quarantined)
    assert sum(pages.values()) == len(quarantined)

    # recoverable kinds never end in quarantine under this campaign.
    for fault in report.faults:
        if fault.kind in RECOVERABLE:
            assert fault.outcome == RECOVERED


def test_chaos_campaign_deterministic(benchmark):
    def run():
        _cwx1, first = _run_campaign()
        _cwx2, second = _run_campaign()
        return first, second

    first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.render() == second.render()
    print(f"\nsame seed, two runs: {len(first.render())} bytes, "
          f"byte-identical")

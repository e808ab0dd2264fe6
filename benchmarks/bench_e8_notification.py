"""E8 — smart notification (§5.2).

Paper: "Only one e-mail is sent per triggered event, even if multiple
nodes are involved. If a node is fixed by an administrator but fails
again later, the event re-fires automatically, without administrative
interventions."

Regenerated: emails sent by the smart notifier vs the naive
one-mail-per-node-per-evaluation baseline, across failure-storm sizes;
plus the fix/refail re-fire scenario.
"""

import pytest

from _harness import print_table
from repro.events import (
    EmailGateway,
    EventEngine,
    NaiveNotifier,
    SmartNotifier,
    ThresholdRule,
)
from repro.hardware import SimulatedNode
from repro.sim import SimKernel

STORM_SIZES = (5, 25, 100, 400)


def _storm(n_nodes: int, evaluations: int = 10):
    """n nodes breach one threshold and stay breached for several
    monitoring rounds; count emails under each notifier."""
    results = {}
    for flavor in ("smart", "naive"):
        kernel = SimKernel()
        nodes = [SimulatedNode(kernel, f"n{i:04d}", node_id=i + 1)
                 for i in range(n_nodes)]
        for node in nodes:
            node.power_on()
        gateway = EmailGateway()
        if flavor == "smart":
            notifier = SmartNotifier(kernel, "cluster",
                                     gateways=[gateway],
                                     aggregation_window=30.0)
        else:
            notifier = NaiveNotifier(kernel, "cluster",
                                     gateways=[gateway])
        engine = EventEngine(kernel, notifier=notifier)
        engine.add_rule(ThresholdRule(name="hot-cpu", metric="temp",
                                      op=">", threshold=70.0,
                                      action="none"))
        for round_no in range(evaluations):
            for node in nodes:
                engine.feed(node, {"temp": 85.0}, {"temp": 85.0})
                if flavor == "naive" and engine.is_triggered(
                        "hot-cpu", node.hostname) and round_no > 0:
                    # naive systems nag while the condition persists
                    notifier.still_failing("hot-cpu", node.hostname,
                                           "none", "warning")
            kernel.run(until=kernel.now + 60.0)
        results[flavor] = notifier.emails_sent
    return results


def test_notification_dedup_scaling(benchmark):
    def run():
        return {n: _storm(n) for n in STORM_SIZES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[n, results[n]["smart"], results[n]["naive"],
             f"{results[n]['naive'] / results[n]['smart']:.0f}x"]
            for n in STORM_SIZES]
    print_table(
        "E8a: emails for a sustained failure storm (10 eval rounds)",
        ["failing nodes", "smart notifier", "naive baseline",
         "reduction"], rows)
    for n in STORM_SIZES:
        assert results[n]["smart"] == 1       # the paper's exact claim
        assert results[n]["naive"] >= n       # baseline floods


def test_refire_after_fix(benchmark):
    def run():
        kernel = SimKernel()
        node = SimulatedNode(kernel, "n1", node_id=1)
        node.power_on()
        gateway = EmailGateway()
        notifier = SmartNotifier(kernel, "c", gateways=[gateway],
                                 aggregation_window=10.0)
        engine = EventEngine(kernel, notifier=notifier)
        engine.add_rule(ThresholdRule(name="hot", metric="t", op=">",
                                      threshold=70.0))
        timeline = []
        engine.feed(node, {"t": 90.0}, {"t": 90.0})  # fails
        kernel.run(until=20.0)
        timeline.append(("first failure", notifier.emails_sent))
        engine.feed(node, {"t": 90.0}, {"t": 90.0})  # still failing
        kernel.run(until=40.0)
        timeline.append(("still failing", notifier.emails_sent))
        engine.feed(node, {"t": 40.0}, {"t": 40.0})  # admin fixed it
        kernel.run(until=60.0)
        engine.feed(node, {"t": 90.0}, {"t": 90.0})  # fails again
        kernel.run(until=90.0)
        timeline.append(("fails again", notifier.emails_sent))
        return timeline

    timeline = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("E8b: re-fire after fix (cumulative emails)",
                ["moment", "emails sent"], timeline)
    assert timeline[0][1] == 1   # first failure notified
    assert timeline[1][1] == 1   # persistence suppressed
    assert timeline[2][1] == 2   # re-fired automatically

"""Golden-trace capture for the hot-path determinism regression suite.

The E16 hot path (slotted kernel + timer wheel, shared agent scheduler,
metric-indexed event engine, batched store writes) must be *observably
invisible*: a same-seed run must produce the monitoring schedule and
chaos report, byte for byte, that the heap-only/per-agent-process
machinery it replaced produced.  This module defines the two canonical
100-node scenarios and the textual trace format;
``tests/test_determinism_golden.py`` compares today's run — flat and
as a 1-shard federation — against fixtures captured *before* the rework
landed.  Those fixtures are the only oracle left: the in-tree
reconstruction of the old path was removed in PR 13.

Trace format (one record per line):

* ``U <time> <source> <hostname> <seq> k=v,...`` — every update the
  state store publishes, values in sorted-key order;
* ``E <time> <rule> <node> <value> <action> <ok>`` — every fired event;
* ``S k=v,...`` — the final cluster summary (minus ``generation``,
  which intentionally advances differently under batched writes).

Re-baselining (only when an *intentional* behavior change lands)::

    PYTHONPATH=src python -m tests.goldentrace --write
"""

from __future__ import annotations

import gzip
import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MONITORING_GOLDEN = FIXTURES / "golden_e16_monitoring.txt.gz"
CHAOS_GOLDEN = FIXTURES / "golden_e16_chaos.txt.gz"

N_NODES = 100
MONITORING_SEED = 1103
CHAOS_SEED = 2003


def make_cluster(seed: int, *, monitor_interval: float = 5.0, **kwargs):
    """The canonical 100-node self-healing cluster both scenarios use.

    ``kwargs`` passes topology switches straight through to the facade
    so the suite can replay the scenario over a federation.
    """
    from repro import ClusterWorX

    return ClusterWorX(n_nodes=N_NODES, seed=seed, self_healing=True,
                       monitor_interval=monitor_interval, **kwargs)


def update_line(update) -> str:
    """One published update as a ``U`` trace record."""
    values = ",".join(f"{name}={update.values[name]}"
                      for name in sorted(update.values))
    return (f"U {update.time:.6f} {update.source} {update.hostname} "
            f"{update.seq} {values}")


def monitoring_trace(**kwargs) -> str:
    """120 simulated seconds of agents + sweep + rules + mixed faults."""
    cwx = make_cluster(MONITORING_SEED, **kwargs)
    lines = []

    def record(update):
        lines.append(update_line(update))

    cwx.server.store.subscribe(record, name="golden-trace")
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=70.0, action="none", hold_time=10.0)
    cwx.add_threshold("node-lost", metric="udp_echo", op="==",
                      threshold=0, action="none", severity="critical")
    cwx.start()
    cwx.run(40.0)
    hostnames = cwx.cluster.hostnames
    cwx.inject_fault(hostnames[5], "kernel_panic")
    cwx.inject_fault(hostnames[17], "fan_failure")
    cwx.run(40.0)
    cwx.inject_fault(hostnames[42], "os_hang")
    cwx.run(40.0)
    for event in cwx.server.engine.fired:
        lines.append(f"E {event.time:.6f} {event.rule} {event.node} "
                     f"{event.value} {event.action} {event.action_ok}")
    summary = cwx.server.cluster_summary()
    lines.append("S " + ",".join(f"{key}={summary[key]}"
                                 for key in sorted(summary)
                                 if key != "generation"))
    return "\n".join(lines) + "\n"


def chaos_trace(**kwargs) -> str:
    """A 12-fault chaos campaign's rendered report (bench_e15 shape)."""
    from repro.faults import ChaosCampaign

    cwx = make_cluster(CHAOS_SEED, monitor_interval=30.0, **kwargs)
    campaign = ChaosCampaign(cwx, n_faults=12, horizon=300.0,
                             settle=900.0)
    return campaign.execute().render()


def read_golden(path: pathlib.Path) -> str:
    return gzip.decompress(path.read_bytes()).decode("utf-8")


def write_golden(path: pathlib.Path, text: str) -> None:
    FIXTURES.mkdir(exist_ok=True)
    # mtime=0 keeps the fixture byte-stable across regenerations.
    path.write_bytes(gzip.compress(text.encode("utf-8"), 9, mtime=0))


def main() -> None:  # pragma: no cover - manual re-baselining entry
    import sys

    if "--write" not in sys.argv:
        raise SystemExit("refusing to overwrite goldens without --write")
    write_golden(MONITORING_GOLDEN, monitoring_trace())
    write_golden(CHAOS_GOLDEN, chaos_trace())
    print(f"wrote {MONITORING_GOLDEN} and {CHAOS_GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    main()

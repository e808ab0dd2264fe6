"""From what a run measured to the metrics ``BENCHMARK.json`` names.

``BENCHMARK.json`` is the single list of metric names, units, directions
and bounds; this module only knows how to compute a value for each name.
A declared name with no value here is a bug the smoke test catches.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional

import floors

__all__ = ["load_spec", "end_to_end", "per_layer", "percentile"]

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def percentile(values: List[float], share: float) -> float:
    """The value ``share`` of the sorted sample lies at or below."""
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * share), len(ordered) - 1)]


def _update_rate(chunks: List[dict]) -> float:
    """Updates ingested per calibrated second spent advancing the sim
    and publishing (the watch round and the requests are not in it):
    the upper quartile over the run's chunks.

    A busy neighbour can only delay a chunk, never hurry it, so the
    faster chunks are the ones that measured the program.  Over four
    ten-seed sessions on the reference sandbox — one of them with the
    host at half speed — the median over chunks and the ratio of totals
    moved 22 % between sessions on identical code, the upper quartile
    16 %, with the smaller spread within a session as well (and under a
    shard kill the chunks are not equal work: the median then sits
    between two regimes, 11 % spread against 4 %)."""
    return statistics.quantiles(
        [c["updates"] / c["advance_s"] for c in chunks], n=4)[2]


def end_to_end(result) -> Dict[str, float]:
    """The numbers a user of the system would see; untraced runs only."""
    counts = result.counts
    return {
        "setup_s": statistics.median(result.setup_s),
        "updates_per_s": _update_rate(result.chunks),
        "peak_rss_mb": result.peak_rss_mb,
        "delivered_share": counts["applied"] / counts["emitted"],
        "req_p50_ms": percentile(result.request_s, 0.50) * 1e3,
        "req_p99_ms": percentile(result.request_s, 0.99) * 1e3,
        "watch_round_p50_ms": statistics.median(result.watch_round_s) * 1e3,
    }


def per_layer(result, tracer) -> Dict[str, Optional[float]]:
    """The layer ledger of one traced run.

    ``None`` marks a metric whose seam no longer exists (the tracer's
    ``missing`` says why); ``0`` is a layer this workload never enters.
    """
    counts = result.counts
    tallies = tracer.tallies
    recorded = result.recorded
    #: span times are wall times; the ledger reports calibrated ones.
    calibrated = 1.0 / result.slowdown

    def total(name: str, field: str = "total_s", scale: float = 1.0,
              per: Optional[float] = None) -> Optional[float]:
        """A seam's ``field``, optionally per call (``per=0``: per its
        own calls) or per ``per`` operations."""
        if name in tracer.missing:
            return None
        seam = tracer.seams.get(name)
        if seam is None:
            return 0.0
        value = getattr(seam, field) * scale
        if field != "calls":
            value *= calibrated
        if per is None:
            return value
        per = per or seam.calls
        return value / per if per else 0.0

    def p50(name: str, scale: float) -> Optional[float]:
        if name in tracer.missing:
            return None
        seam = tracer.seams.get(name)
        return statistics.median(seam.samples) * scale * calibrated \
            if seam and seam.samples else 0.0

    def times_floor(measured: Optional[float], floor: float
                    ) -> Optional[float]:
        if measured is None:
            return None
        return measured / floor if floor else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    root = tracer.seams["sim.kernel"]
    events = counts["kernel_events"]
    kernel_s = root.self_s * calibrated
    kernel_us = share(kernel_s, events) * 1e6
    agent_updates = [u for u in recorded if u.source == "agent"]
    frames = tallies.get("gateway.wire.frames", 0)
    # Per-update cost with spans on, against the untraced reference
    # chunks the same run timed first.
    overhead = (1.0 / _update_rate(result.chunks)) \
        * _update_rate(result.reference_chunks) - 1.0
    return {
        "sim.kernel.events": events,
        "sim.kernel.self_s": kernel_s,
        "sim.kernel.us_per_event": kernel_us,
        "sim.kernel.floor_x": times_floor(kernel_us, floors.kernel_floor_us(
            int(events), result.workload.n_nodes)),
        "monitoring.sample.calls": total("monitoring.sample", "calls"),
        "monitoring.sample.busy_s": total("monitoring.sample"),
        "monitoring.sample.us_per_call":
            total("monitoring.sample", scale=1e6, per=0),
        "monitoring.consolidation.calls":
            total("monitoring.consolidation", "calls"),
        "monitoring.consolidation.busy_s": total("monitoring.consolidation"),
        "monitoring.consolidation.sent_ratio":
            share(counts["values_released"], counts["values_seen"]),
        "monitoring.transmission.calls":
            total("monitoring.transmission", "calls"),
        "monitoring.transmission.busy_s": total("monitoring.transmission"),
        "monitoring.transmission.bytes_sent": counts["wire_bytes"],
        "monitoring.transmission.compression_ratio":
            share(counts["wire_raw_bytes"], counts["wire_bytes"]),
        "monitoring.transmission.floor_x": times_floor(
            total("monitoring.transmission", "self_s", 1e6, per=0),
            floors.encode_floor_us(agent_updates)),
        "network.message.busy_s": total("network.message"),
        "core.server.ingest.calls": counts["updates"],
        "core.statestore.apply.calls":
            total("core.statestore.apply", "calls"),
        "core.statestore.apply.self_s":
            total("core.statestore.apply", "self_s"),
        "core.statestore.apply.floor_x": times_floor(
            total("core.statestore.apply", "self_s", 1e6, per=0),
            floors.apply_floor_us(recorded)),
        "core.statestore.cow_forks": counts["cow_forks"],
        "core.statestore.full_copies": counts["full_copies"],
        "core.statestore.notifications": counts["notifications"],
        "core.statestore.snapshot.p50_us":
            p50("core.statestore.snapshot", 1e6),
        "core.statestore.summary.p50_us":
            p50("core.statestore.summary", 1e6),
        "events.feed.calls": total("events.feed", "calls"),
        "events.feed.busy_s": total("events.feed"),
        "events.rules_fired": counts["rules_fired"],
        "monitoring.history.ingest.calls":
            total("monitoring.history.ingest", "calls"),
        "monitoring.history.ingest.busy_s":
            total("monitoring.history.ingest"),
        "resilience.health.evaluate.calls":
            total("resilience.health.evaluate", "calls"),
        "resilience.health.evaluate.busy_s":
            total("resilience.health.evaluate"),
        "federation.ingest.self_s": total("federation.ingest", "self_s"),
        "federation.ingest.unrouted": counts.get("unrouted", 0),
        "federation.channel.dropped_ingests":
            counts.get("dropped_ingests", 0),
        "federation.rollup.summary_hot.p50_us":
            p50("federation.rollup.summary_hot", 1e6),
        "federation.rollup.summary_dirty.p50_us":
            p50("federation.rollup.summary_dirty", 1e6),
        "federation.rollup.refreshes": counts.get("rollup_refreshes", 0),
        "federation.rollup.reuses": counts.get("rollup_reuses", 0),
        "federation.current_all.p50_ms": p50("federation.current_all", 1e3),
        "federation.fail_over.busy_s": total("federation.fail_over"),
        "federation.fail_over.nodes_moved": counts.get("nodes_moved", 0),
        "federation.detect_sim_s": counts.get("detect_sim_s", 0.0),
        "federation.redistribute_sim_s":
            counts.get("redistribute_sim_s", 0.0),
        "gateway.state.refresh.p50_ms": p50("gateway.state.refresh", 1e3),
        "gateway.state.publishes": counts["publishes"],
        "gateway.state.publish_reuses": counts["publish_reuses"],
        "gateway.routes.summary.p50_us": p50("gateway.routes.summary", 1e6),
        "gateway.routes.host.p50_us": p50("gateway.routes.host", 1e6),
        "gateway.routes.events.p50_us": p50("gateway.routes.events", 1e6),
        "gateway.routes.history.p50_us": p50("gateway.routes.history", 1e6),
        "gateway.routes.hosts.p50_ms": p50("gateway.routes.hosts", 1e3),
        "gateway.routes.query.p50_ms": p50("gateway.routes.query_all", 1e3),
        "gateway.httpd.us_per_request":
            total("gateway.httpd", scale=1e6,
                  per=sum(result.route_counts.values())),
        "gateway.wire.json.us_per_frame":
            total("gateway.wire.json", scale=1e6, per=frames),
        "gateway.wire.binary.us_per_frame":
            total("gateway.wire.binary", scale=1e6, per=frames),
        "gateway.wire.binary_ratio":
            share(tallies.get("gateway.wire.binary.bytes", 0),
                  tallies.get("gateway.wire.json.bytes", 0)),
        "gateway.watch.push.us_per_update":
            total("gateway.watch.push", scale=1e6, per=0),
        "gateway.watch.drain.us_per_frame":
            total("gateway.watch.drain", scale=1e6,
                  per=counts["watch_frames"]),
        "gateway.watch.coalesced": counts["watch_coalesced"],
        "gateway.watch.evictions": counts["watch_evictions"],
        "trace.attributed_share":
            share(root.total_s - root.self_s, root.total_s),
        "trace.overhead_share": overhead,
    }

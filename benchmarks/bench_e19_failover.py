"""E19 — control-plane self-healing: shard fail-over under live serving.

The question this experiment answers: when a partition shard dies
mid-run, how fast does the control plane notice, how fast does it
re-own the orphaned nodes, and what does the outage look like from a
client holding a watch stream on a victim host?

Two cells:

* **gateway** (kill 1-of-4) — a federated cluster served by the real
  asyncio :class:`~repro.gateway.GatewayService` (socket I/O, sim
  driver thread), REST pollers on ``/v1/summary`` + ``/v1/shards``,
  and one JSON watch stream pinned to a host on the victim shard.  A
  :class:`~repro.faults.FaultPlane` kills shard 1 mid-serve.
  Acceptance: **zero** 5xx responses through the whole outage, every
  node re-owned by a survivor, and the victim-host watch stream
  resumes after a bounded gap.
* **sim** (kill 2-of-8) — a :class:`~repro.faults.ChaosCampaign` with
  two shard faults over a larger federation: two shards drawn at
  seeded-random times die permanently.
  Acceptance: both faults score ``failed-over`` and the report's
  determinism contract holds (same seed, same bytes).

Metrics per fault: time-to-detect (injection -> suspect/down), time-to-
redistribute (detect -> drain complete), nodes moved, monitoring
updates dropped on the dead channel, and (gateway cell) the
watch-stream gap in sim seconds.

Run modes::

    python benchmarks/bench_e19_failover.py --tiny   # 200 nodes, smoke
    python benchmarks/bench_e19_failover.py --full   # 10k nodes, both cells
    python benchmarks/bench_e19_failover.py --cell 2000 --shards 4

``--tiny`` is the ``make chaos-federation`` / tier-1 smoke cell;
``--full`` regenerates BENCH_e19.json.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro import ClusterWorX
from repro.faults import CONTROL_KINDS, ChaosCampaign, FaultPlane
from repro.faults.campaign import FAILED_OVER
from repro.gateway import GatewayService, fetch
from repro.resilience.health import HealthState

SEED = 1610
AGENT_INTERVAL = 5.0
KILL_AFTER = 60.0      # sim seconds into the serve window
SETTLE = 180.0         # sim seconds after the kill before scoring


def _fed(n_nodes: int, shards: int, *, seed: int = SEED) -> ClusterWorX:
    cwx = ClusterWorX(n_nodes=n_nodes, seed=seed, self_healing=True,
                      monitor_interval=AGENT_INTERVAL,
                      topology="federation", shards=shards)
    cwx.add_threshold("hot-cpu", metric="cpu_temp_c", op=">",
                      threshold=85.0, action="none")
    return cwx


def _fault_times(cwx, name: str, injected_at: float) -> dict:
    """Detection / redistribution metrics for one killed shard."""
    index = next(s.index for s in cwx.server.shards if s.name == name)
    record = cwx.server.monitor.health.record(name)
    detections = (record.transitions_to(HealthState.SUSPECT,
                                        since=injected_at)
                  + record.transitions_to(HealthState.DOWN,
                                          since=injected_at))
    detected_at = min(detections) if detections else None
    row = next((r for r in cwx.server.failovers
                if r[1] == index and r[0] >= injected_at), None)
    channel = cwx.server.shards[index].channel
    return {
        "shard": name,
        "injected_at": round(injected_at, 1),
        "time_to_detect_s":
            round(detected_at - injected_at, 1)
            if detected_at is not None else None,
        "time_to_redistribute_s":
            round(row[0] - detected_at, 1)
            if row is not None and detected_at is not None else None,
        "nodes_moved": row[3] if row is not None else 0,
        "updates_dropped": channel.dropped_ingests,
    }


# -- cell 1: kill 1-of-4 under the live gateway ---------------------------

async def _poller(service, stop: asyncio.Event, path: str,
                  pace: float = 0.0) -> dict:
    """Poll ``path`` until told to stop, counting 5xx and degraded
    sightings.  ``pace`` spaces requests out — required for cold
    endpoints like ``/v1/shards`` that serialize on the sim slice
    lock, where hammering would starve the event loop at 10k nodes."""
    served, errors, degraded = 0, 0, 0
    while not stop.is_set():
        status, _, body = await fetch("127.0.0.1", service.port, path,
                                      timeout=120.0)
        if status >= 500:
            errors += 1
        elif status == 200:
            served += 1
            if b'"degraded":true' in body:
                degraded += 1
        if pace:
            await asyncio.sleep(pace)
    return {"served": served, "errors": errors, "degraded": degraded}


async def _watch_times(service, host: str, stop: asyncio.Event) -> list:
    """Hold a JSON watch on ``host``; return delta-frame sim times."""
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   service.port)
    writer.write(f"GET /v1/watch?hosts={host} HTTP/1.1\r\n"
                 "Host: bench\r\nAccept: application/json\r\n"
                 "\r\n".encode("latin-1"))
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")
    times = []
    try:
        while not stop.is_set():
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=0.5)
            except asyncio.TimeoutError:
                continue
            if not line:
                break
            if line.startswith(b"data: "):
                frame = json.loads(line[6:])
                if frame["kind"] == "delta":
                    times.append(frame["t"])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return times


async def run_gateway_cell_async(n_nodes: int, *, shards: int = 4,
                                 pollers: int = 8,
                                 seed: int = SEED) -> dict:
    cwx = _fed(n_nodes, shards, seed=seed)
    cwx.start()
    cwx.run(30.0)  # warm every store before serving
    victim = 1
    victim_host = cwx.server.shards[victim].hostnames[0]
    kill_at = cwx.kernel.now + KILL_AFTER
    end_at = kill_at + SETTLE
    plane = FaultPlane(cwx.kernel, federation=cwx.server)
    plane.kill_shard(victim, at=kill_at)

    service = GatewayService(cwx.server, cluster=cwx.cluster)
    await service.start()
    service.driver.start()

    stop = asyncio.Event()
    watch_task = asyncio.create_task(
        _watch_times(service, victim_host, stop))
    poll_tasks = [
        asyncio.create_task(_poller(service, stop, "/v1/summary"))
        for _ in range(max(pollers - 1, 1))]
    poll_tasks.append(asyncio.create_task(
        _poller(service, stop, "/v1/shards", pace=0.5)))

    start = time.perf_counter()
    while cwx.kernel.now < end_at:
        if time.perf_counter() - start > 1800.0:
            raise RuntimeError("simulation did not reach the settle "
                               "horizon within 30 wall-minutes")
        await asyncio.sleep(0.1)
    stop.set()
    polled = await asyncio.gather(*poll_tasks)
    watch_t = await watch_task
    wall = time.perf_counter() - start

    stats = service.stats_values()
    service.driver.stop()
    await service.stop()

    fault = _fault_times(cwx, cwx.server.shards[victim].name, kill_at)
    gaps = [b - a for a, b in zip(watch_t, watch_t[1:])]
    watch_gap = max(gaps) if gaps else None
    served = sum(p["served"] for p in polled)
    errors = sum(p["errors"] for p in polled)
    degraded = sum(p["degraded"] for p in polled)

    # -- acceptance --------------------------------------------------------
    assert stats["server_errors"] == 0 and errors == 0, \
        f"gateway answered {stats['server_errors']} 5xx during fail-over"
    assert fault["time_to_detect_s"] is not None, "kill never detected"
    assert fault["nodes_moved"] == n_nodes // shards, \
        f"expected {n_nodes // shards} nodes re-owned, " \
        f"got {fault['nodes_moved']}"
    with service.state.lock:
        assert len(cwx.server.current_all()) == n_nodes, \
            "fleet view lost nodes after fail-over"
    assert watch_t and max(watch_t) > kill_at, \
        "victim-host watch stream never resumed after the kill"

    return {
        "mode": "gateway",
        "n_nodes": n_nodes,
        "shards": shards,
        "killed": 1,
        "seed": seed,
        "wall_s": round(wall, 3),
        "sim_seconds": round(KILL_AFTER + SETTLE, 1),
        "requests": stats["requests"],
        "server_errors": stats["server_errors"],
        "polled_ok": served,
        "polled_degraded": degraded,
        "watch_frames": len(watch_t),
        "watch_gap_s": round(watch_gap, 1)
        if watch_gap is not None else None,
        **fault,
    }


def run_gateway_cell(n_nodes: int, **kwargs) -> dict:
    return asyncio.run(run_gateway_cell_async(n_nodes, **kwargs))


# -- cell 2: kill 2-of-8 inside a scored chaos campaign -------------------

def run_campaign_cell(n_nodes: int, *, shards: int = 8, kills: int = 2,
                      horizon: float = 300.0, settle: float = 300.0,
                      seed: int = SEED) -> dict:
    cwx = _fed(n_nodes, shards, seed=seed)
    campaign = ChaosCampaign(cwx, n_faults=0, horizon=horizon,
                             settle=settle, shard_faults=kills)
    start = time.perf_counter()
    report = campaign.execute()
    wall = time.perf_counter() - start

    rows = [f for f in report.faults if f.kind in CONTROL_KINDS]
    faults = [_fault_times(cwx, f.subject, f.injected_at) for f in rows]

    # -- acceptance --------------------------------------------------------
    assert all(f.outcome == FAILED_OVER for f in rows), \
        "a shard kill did not score failed-over:\n" + report.render()
    assert report.ok, report.render()
    assert len(cwx.server.current_all()) == n_nodes, \
        "fleet view lost nodes after fail-over"

    return {
        "mode": "campaign",
        "n_nodes": n_nodes,
        "shards": shards,
        "killed": kills,
        "seed": seed,
        "wall_s": round(wall, 3),
        "sim_seconds": round(campaign.start + horizon + settle, 1),
        "faults": faults,
        "mean_time_to_detect_s": round(
            sum(f["time_to_detect_s"] for f in faults) / len(faults), 1),
        "mean_time_to_redistribute_s": round(
            sum(f["time_to_redistribute_s"] for f in faults)
            / len(faults), 1),
        "nodes_moved": sum(f["nodes_moved"] for f in faults),
        "updates_dropped": sum(f["updates_dropped"] for f in faults),
    }


def print_row(row: dict) -> None:
    if row["mode"] == "gateway":
        print(f"  gateway  n={row['n_nodes']:6d} "
              f"{row['killed']}-of-{row['shards']} kill "
              f"detect={row['time_to_detect_s']:5.1f}s "
              f"redist={row['time_to_redistribute_s']:5.1f}s "
              f"moved={row['nodes_moved']:5d} "
              f"dropped={row['updates_dropped']:5d} "
              f"watch-gap={row['watch_gap_s']:5.1f}s "
              f"5xx={row['server_errors']} "
              f"degraded-polls={row['polled_degraded']}",
              flush=True)
    else:
        print(f"  campaign n={row['n_nodes']:6d} "
              f"{row['killed']}-of-{row['shards']} kill "
              f"detect={row['mean_time_to_detect_s']:5.1f}s "
              f"redist={row['mean_time_to_redistribute_s']:5.1f}s "
              f"moved={row['nodes_moved']:5d} "
              f"dropped={row['updates_dropped']:5d}",
              flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke cells: 200 nodes, both modes")
    parser.add_argument("--full", action="store_true",
                        help="the E19 cells: 10k nodes, kill 1-of-4 "
                             "under the gateway + kill 2-of-8 campaign")
    parser.add_argument("--cell", type=int, metavar="N",
                        help="one gateway cell with N nodes")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for --cell")
    parser.add_argument("--json", metavar="PATH",
                        help="append result rows to PATH as a JSON list")
    args = parser.parse_args(argv)

    rows = []
    if args.tiny:
        rows.append(run_gateway_cell(200, shards=4, pollers=4))
        rows.append(run_campaign_cell(200, shards=8, kills=2,
                                      horizon=120.0, settle=240.0))
    elif args.cell:
        rows.append(run_gateway_cell(args.cell, shards=args.shards))
    elif args.full:
        rows.append(run_gateway_cell(10000, shards=4))
        print_row(rows[-1])
        rows.append(run_campaign_cell(10000, shards=8, kills=2))
    else:
        parser.error("pick one of --tiny / --cell / --full")

    print("E19 shard fail-over "
          f"(agents {AGENT_INTERVAL:.0f}s, heartbeats 5s, "
          f"suspect 12.5s, down 25s, seed {SEED}):")
    for row in rows:
        print_row(row)

    if args.json:
        try:
            with open(args.json) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = []
        existing.extend(rows)
        with open(args.json, "w") as fh:
            json.dump(existing, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

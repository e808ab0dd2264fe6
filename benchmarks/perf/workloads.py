"""The four workloads and the one lockstep driver that runs them.

Every workload is the deployed system — a :class:`~repro.ClusterWorX`
cluster with a real :class:`~repro.gateway.GatewayService` on a
loopback socket — driven from **one process, one thread, two
connections** (one keep-alive REST connection, one binary watch
stream).  The benchmark plays ``SimDriver`` itself, in lockstep:

    slice = { with state.lock: kernel.run(+dt); state.refresh() }
         -> { read the round's watch frames off the socket }
         -> { a closed loop of REST requests on the published view }

Lockstep, not a free-running sim thread: a prototype with the sim
thread free-running read 47-93 req/s across three identical runs (GIL
hand-off noise); the numbers here must measure the program, not the
scheduler.  The workloads differ in what the slices contain — cluster
size, horizon, topology, client load, fault schedule — see
:data:`WORKLOADS` and the README for why each exists.

Only the public facade is used (``ClusterWorX``, ``GatewayService``,
``FaultPlane`` and the public attributes they document); no
``hot_path=``, ``timer_wheel=``, ``indexed``, ``sweep_batching`` and no
private attribute, so those can be deleted without touching this file.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import struct
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from calibration import slowdown
from repro import ClusterWorX
from repro.faults import FaultPlane
from repro.gateway import (BINARY_CONTENT_TYPE, GatewayService, WatchClient,
                           format_response, parse_request)

__all__ = ["Workload", "WORKLOADS", "RUN_SECONDS", "DEFAULT_SEED",
           "RunResult", "run_workload"]

DEFAULT_SEED = 1610
#: the ``--seconds`` every horizon below is sized for on the reference
#: sandbox (2 cores, CPython 3.11): 70-100k updates, ~12 s advancing.
RUN_SECONDS = 12
#: equal-work chunks per run; the median over them is the throughput.
CHUNKS = 10
#: untraced chunks a traced run times first, as its overhead baseline.
REFERENCE_CHUNKS = 4
#: updates a traced run keeps for the floors to replay.
RECORDED_UPDATES = 20000
#: hosts on the socket watch stream (one folded NodeSet).
WATCHED_HOSTS = 100
#: the one threshold rule every workload carries; it never fires.
RULE = dict(metric="cpu_temp_c", op=">", threshold=85.0, action="none")
QUERY_METRICS = "cpu_util_pct,cpu_temp_c,mem_used_bytes"
HISTORY_METRIC = "cpu_util_pct"

#: request mix: (route key, share).  O(1) view reads set the median;
#: the two O(N) scans (``hosts``, ``query_all``) set the tail.
REQUEST_MIX: Tuple[Tuple[str, float], ...] = (
    ("summary", 0.40), ("host", 0.20), ("query", 0.10), ("events", 0.10),
    ("history", 0.10), ("hosts", 0.05), ("query_all", 0.05))


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a cluster shape, a horizon, a client load."""

    name: str
    why: str
    n_nodes: int
    agent_interval: float
    #: sim-seconds per slice and slices per chunk (x CHUNKS chunks).
    slice_sim_s: float
    slices_per_chunk: int
    requests_per_slice: int
    shards: int = 0                 # 0 = flat topology
    #: in-process WatchClients (10 disjoint hosts each) on the hub.
    hub_clients: int = 0
    #: FaultPlane.kill_shard(1) this many sim-s into the timed run.
    kill_after_sim_s: Optional[float] = None
    #: the floor under slices_per_chunk when ``--seconds`` shrinks it.
    min_slices_per_chunk: int = 1
    #: warm-up in agent intervals.  Always n + 1/2, so that no slice
    #: boundary ever coincides with an agent tick: a float-equal
    #: boundary would make a chunk's work depend on rounding.
    warm_intervals: float = 6.5
    #: set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3

    @property
    def warm_sim_s(self) -> float:
        return self.warm_intervals * self.agent_interval

    def sized(self, seconds: float, tiny: bool) -> "Workload":
        """This workload sized for ``--seconds`` (sim horizons scale,
        N and the chunk count never do) or shrunk to the smoke cell."""
        scale = seconds / RUN_SECONDS
        n_nodes, hub_clients = self.n_nodes, self.hub_clients
        if tiny:
            scale /= 20.0
            n_nodes, hub_clients = 200, min(hub_clients, 20)
        slices = max(self.min_slices_per_chunk,
                     round(self.slices_per_chunk * scale))
        kill = self.kill_after_sim_s
        if kill is not None:
            kill = min(kill, 0.2 * slices * CHUNKS * self.slice_sim_s)
        return replace(self, n_nodes=n_nodes, hub_clients=hub_clients,
                       slices_per_chunk=slices, kill_after_sim_s=kill,
                       setup_repeats=1 if tiny else self.setup_repeats)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="steady_1k",
        why="E16 ingest pipeline at small N, long horizon: deep history "
            "rings, working set in cache; light client load",
        n_nodes=1000, agent_interval=5.0, slice_sim_s=5.0,
        slices_per_chunk=8, requests_per_slice=15),
    Workload(
        name="steady_10k",
        why="same layers at large N, short horizon: big working set, "
            "wide timer buckets; ratio to steady_1k is the scaling shape",
        n_nodes=10000, agent_interval=5.0, slice_sim_s=5.0,
        slices_per_chunk=1, requests_per_slice=50,
        warm_intervals=1.5, setup_repeats=2),
    Workload(
        name="gateway_lockstep",
        why="reads beside writes: a COW publish every 2 sim-s, hub "
            "fan-out to 100 clients, 100 requests per slice",
        n_nodes=1000, agent_interval=2.0, slice_sim_s=2.0,
        slices_per_chunk=7, requests_per_slice=100, hub_clients=100),
    Workload(
        name="fed_failover",
        why="8-shard federation with one shard killed: owner routing, "
            "rollup cache, heartbeat detection, drain migration",
        n_nodes=4000, agent_interval=5.0, slice_sim_s=1.0,
        slices_per_chunk=10, requests_per_slice=12, shards=8,
        kill_after_sim_s=20.0, min_slices_per_chunk=5,
        warm_intervals=2.5),
)


# -- the two client connections ------------------------------------------------

class RestClient:
    """One keep-alive HTTP/1.1 connection, closed loop."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "RestClient":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def get(self, head: bytes) -> Tuple[int, bytes, float]:
        """Send one request head; (status, body, client-side seconds)."""
        start = perf_counter()
        self.writer.write(head)
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status = int(raw[9:12])
        marker = raw.lower().index(b"content-length:") + 15
        length = int(raw[marker:raw.index(b"\r\n", marker)])
        body = await self.reader.readexactly(length) if length else b""
        return status, body, perf_counter() - start

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class WatchStream:
    """One binary ``/v1/watch`` stream; frames are length-prefixed."""

    def __init__(self, reader, writer, wire):
        self.reader, self.writer, self.wire = reader, writer, wire
        self._buffer = b""

    @classmethod
    async def open(cls, port: int, hosts: str, wire) -> "WatchStream":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"GET /v1/watch?hosts={hosts} HTTP/1.1\r\n"
                     f"Host: bench\r\nAccept: {BINARY_CONTENT_TYPE}\r\n"
                     "\r\n".encode("latin-1"))
        await reader.readuntil(b"\r\n\r\n")
        return cls(reader, writer, wire)

    async def read_deltas(self, count: int, timeout: float = 20.0) -> list:
        """The next ``count`` delta frames (heartbeats are skipped)."""
        frames: list = []
        while len(frames) < count:
            buffer = self._buffer
            while len(buffer) >= 4:
                (length,) = struct.unpack_from("<I", buffer, 0)
                if len(buffer) < 4 + length:
                    break
                frames.extend(f for f in
                              self.wire.decode(buffer[:4 + length])
                              if f[0] == "delta")
                buffer = buffer[4 + length:]
            self._buffer = buffer
            if len(frames) >= count:
                break
            chunk = await asyncio.wait_for(self.reader.read(1 << 16),
                                           timeout)
            if not chunk:
                break
            self._buffer += chunk
        return frames

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the server closes watch streams from its side too


# -- one run ---------------------------------------------------------------------

class RunResult:
    """Everything one run measured, before it is named and rounded."""

    def __init__(self, workload: Workload):
        self.workload = workload
        #: every time below is in calibrated seconds (see calibration.py)
        #: unless its name says ``wall``.
        self.setup_s: List[float] = []
        self.setup_wall_s: List[float] = []
        #: per timed chunk: updates ingested, advancing wall-s, the
        #: same in calibrated seconds, and the mean slowdown applied.
        self.chunks: List[Dict[str, float]] = []
        #: the untraced chunks a traced run times before tracing.
        self.reference_chunks: List[Dict[str, float]] = []
        #: the first updates the traced chunks applied: the floors'
        #: inputs (traced runs only).
        self.recorded: List[object] = []
        self.request_s: List[float] = []
        self.route_counts: Dict[str, int] = {}
        self.watch_round_s: List[float] = []
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        #: (check name, passed, detail) — a failed one fails the run.
        self.checks: List[Tuple[str, bool, str]] = []
        self.notes: List[str] = []
        self.peak_rss_mb = 0.0
        #: mean slowdown over the timed chunks (scales the span ledger).
        self.slowdown = 1.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def _build(workload: Workload, seed: int) -> ClusterWorX:
    """construct + start() (boot) + warm-up."""
    topology = dict(topology="federation", shards=workload.shards) \
        if workload.shards else {}
    cwx = ClusterWorX(n_nodes=workload.n_nodes, seed=seed,
                      self_healing=True,
                      monitor_interval=workload.agent_interval, **topology)
    cwx.add_threshold("hot-cpu", **RULE)
    cwx.start()
    cwx.run(workload.warm_sim_s)
    return cwx


def _request_plan(rng: random.Random, workload: Workload,
                  hostnames: List[str], cwx) -> List[List[tuple]]:
    """Per slice, the (route key, request head, binary?, detail) list —
    drawn once from the seed, so the program only sees generated input.
    Every run holds exactly the mix's share of each route (the seed
    shuffles their order and picks their hosts): a percentile of a
    mixture moves with the mixture, and that would be input noise."""
    n_slices = workload.slices_per_chunk * CHUNKS
    total = n_slices * workload.requests_per_slice
    keys = [key for key, share in REQUEST_MIX
            for _ in range(round(share * total))]
    keys += ["summary"] * (total - len(keys))
    rng.shuffle(keys)
    wire = {key: 0 for key, _ in REQUEST_MIX}
    requests = []
    for key in keys[:total]:
        wire[key] += 1          # the negotiable routes alternate codecs
        binary = key in ("summary", "host", "query") and wire[key] % 2 == 0
        detail: object = None
        if key == "summary":
            path = "/v1/summary"
        elif key == "host":
            detail = rng.choice(hostnames)
            path = f"/v1/hosts/{detail}"
        elif key == "query":
            first = rng.randrange(len(hostnames) - 16)
            detail = hostnames[first:first + 16]
            path = ("/v1/query?nodes="
                    + cwx.nodeset(",".join(detail)).fold()
                    + "&metrics=" + QUERY_METRICS)
        elif key == "events":
            path = "/v1/events"
        elif key == "history":
            detail = rng.choice(hostnames)
            path = f"/v1/history/{detail}/{HISTORY_METRIC}"
        elif key == "hosts":
            path = "/v1/hosts"
        else:
            path = "/v1/query?metrics=" + QUERY_METRICS
        head = (f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                + (f"Accept: {BINARY_CONTENT_TYPE}\r\n" if binary
                   else "") + "\r\n").encode("latin-1")
        requests.append((key, head, binary, detail))
    per = workload.requests_per_slice
    return [requests[i * per:(i + 1) * per] for i in range(n_slices)]


def _project(values, metrics: List[str]) -> dict:
    return {m: values[m] for m in metrics if m in values}


def _verify(result: RunResult, service: GatewayService, key: str,
            binary: bool, detail, status: int, body: bytes) -> None:
    """A response fails unless it is a 200 whose decoded body agrees
    with the view the gateway had published when it was served."""
    if status != 200:
        result.fail(f"{key}: HTTP {status}")
        return
    wire = service.binary_wire if binary else service.json_wire
    try:
        frames = wire.decode(body)
    except (ValueError, KeyError, struct.error) as exc:
        result.fail(f"{key}: body does not decode ({exc})")
        return
    view = service.state.view
    problem = None
    if key == "summary":
        values = frames[0][3] if len(frames) == 1 else {}
        for field in ("generation", "nodes_total", "nodes_up"):
            if values.get(field) != view.summary[field]:
                problem = (f"{field} {values.get(field)} != published "
                           f"{view.summary[field]}")
    elif key == "host":
        if len(frames) != 1 or dict(frames[0][3]) \
                != dict(view.snapshot[detail]):
            problem = f"values for {detail} differ from the view"
    elif key in ("query", "query_all"):
        hosts = detail if key == "query" else list(view.hostnames)
        metrics = QUERY_METRICS.split(",")
        if [f[1] for f in frames] != list(hosts):
            problem = f"{len(frames)} rows, expected {len(hosts)}"
        else:
            for frame in (frames[0], frames[-1]):
                if dict(frame[3]) != _project(view.snapshot[frame[1]],
                                              metrics):
                    problem = f"row {frame[1]} differs from the view"
    elif key == "events":
        if len(frames) != len(view.events):
            problem = f"{len(frames)} events, view has {len(view.events)}"
    elif key == "history":
        if any(f[0] != "history" for f in frames) or not (
                frames or view.degraded
                or _owner_unreachable(service.server, detail)):
            problem = f"no history rows for {detail}"
    elif key == "hosts":
        values = frames[0][3] if len(frames) == 1 else {}
        if values.get("count") != len(view.hostnames):
            problem = f"count {values.get('count')}"
    if problem:
        result.fail(f"{key}: {problem}")


def _owner_unreachable(server, hostname: str) -> bool:
    """History is a live read: while a host's shard is down (detected
    or not yet) its graph is served empty, by design, not in error."""
    owner = server.owner_of(hostname) if hasattr(server, "owner_of") \
        else None
    return owner is not None and not owner.channel.up


def _replay(tracer, service: GatewayService, key: str, head: bytes) -> None:
    """Traced runs only: the same request again, in-process, with a span
    around each serving layer's public function."""
    with tracer.span("gateway.httpd"):
        request = parse_request(head[:-4])
    with tracer.span(f"gateway.routes.{key}", keep_samples=True):
        route, params = service.router.resolve(request.path)
        _status, frames = route.handler(request, params)
    for wire in (service.json_wire, service.binary_wire):
        with tracer.span(f"gateway.wire.{wire.name}"):
            body = wire.encode(frames)
        tracer.count(f"gateway.wire.{wire.name}.bytes", len(body))
    tracer.count("gateway.wire.frames", len(frames))
    with tracer.span("gateway.httpd"):
        format_response(200, service.binary_wire.content_type, body)


def _watched_hosts(cwx, workload: Workload, hostnames: List[str],
                   rng: random.Random) -> List[str]:
    """A contiguous 100-host window; under a shard kill it straddles
    the victim's boundary, so the stream crosses the re-homing path."""
    width = min(WATCHED_HOSTS, len(hostnames) // 2)
    if workload.kill_after_sim_s is not None:
        first = hostnames.index(cwx.server.shards[1].hostnames[0]) \
            - width // 2
    else:
        first = rng.randrange(len(hostnames) - width)
    return hostnames[first:first + width]


def _counters(cwx, service: GatewayService) -> Dict[str, float]:
    """The program's public counters, read between chunks."""
    server = cwx.server
    stores = [shard.server.store for shard in server.shards] \
        if hasattr(server, "shards") else [server.store]
    out = {
        "updates": server.updates_received,
        "kernel_events": cwx.kernel.events_processed,
        "rules_fired": len(server.engine.fired),
        "cow_forks": sum(s.cow_forks for s in stores),
        "full_copies": sum(s.full_copies for s in stores),
        "notifications": sum(s.notifications for s in stores),
        "publishes": service.state.publishes,
        "publish_reuses": service.state.publish_reuses,
    }
    consolidators = [a.consolidator for a in cwx.agents.values()]
    transmitters = [a.transmitter for a in cwx.agents.values()]
    out.update(
        emitted=sum(t.frames_sent for t in transmitters),
        wire_bytes=sum(t.bytes_sent for t in transmitters),
        wire_raw_bytes=sum(t.raw_bytes for t in transmitters),
        values_seen=sum(c.values_seen for c in consolidators),
        values_released=sum(c.values_released for c in consolidators),
        agent_errors=sum(len(a.errors) for a in cwx.agents.values()),
        **service.hub.totals())
    if hasattr(server, "shards"):
        rollups = server.store.rollups
        out["unrouted"] = server.unrouted_updates
        out["dropped_ingests"] = sum(
            shard.channel.dropped_ingests for shard in server.shards)
        out["rollup_refreshes"] = rollups.refreshes
        out["rollup_reuses"] = rollups.reuses
    return out


async def _drive(workload: Workload, seed: int, tracer,
                 result: RunResult) -> None:
    rng = random.Random(seed)
    # -- set-up, several times over; the last build is the one measured -----
    cwx = service = rest = watch = None
    for _ in range(workload.setup_repeats):
        if service is not None:
            await _teardown(service, rest, watch)
            cwx = service = rest = watch = None
        gc.collect()
        pace = slowdown()
        start = perf_counter()
        cwx = _build(workload, seed)
        service = GatewayService(cwx.server, cluster=cwx.cluster)
        await service.start()
        rest = await RestClient.open(service.port)
        hostnames = sorted(cwx.cluster.hostnames)
        watched = _watched_hosts(cwx, workload, hostnames, rng)
        watch = await WatchStream.open(
            service.port, cwx.nodeset(",".join(watched)).fold(),
            service.binary_wire)
        wall = perf_counter() - start
        result.setup_wall_s.append(wall)
        result.setup_s.append(wall / ((pace + slowdown()) / 2))
    try:
        await _timed_run(workload, rng, cwx, service, rest, watch,
                         hostnames, watched, tracer, result)
    finally:
        if tracer is not None:
            tracer.uninstall(cwx)
        await _teardown(service, rest, watch)


async def _teardown(service, rest, watch) -> None:
    await rest.close()
    await watch.close()
    await service.stop()
    # The watch handler sleeps until its next heartbeat; end it (and any
    # other connection task) here, while the loop can still run their
    # clean-up, rather than leaving them to loop shutdown.
    leftover = asyncio.all_tasks() - {asyncio.current_task()}
    for task in leftover:
        task.cancel()
    await asyncio.gather(*leftover, return_exceptions=True)


async def _timed_run(workload: Workload, rng: random.Random, cwx,
                     service: GatewayService, rest: RestClient,
                     watch: WatchStream, hostnames: List[str],
                     watched: List[str], tracer,
                     result: RunResult) -> None:
    server, state, hub = cwx.server, service.state, service.hub
    federated = hasattr(server, "shards")
    # The shadow client is pushed exactly what the socket's client is
    # pushed, so its drain is the round's expected frames, in order.
    shadow = hub.register(WatchClient(name="bench-shadow", hosts=watched,
                                      policy=hub.policy))
    per_client = max(1, len(hostnames) // max(workload.hub_clients, 1))
    hub_clients = [
        hub.register(WatchClient(
            name=f"bench-{i}", policy=hub.policy,
            hosts=hostnames[i * per_client:(i + 1) * per_client]))
        for i in range(workload.hub_clients)]
    audit = {"agent": 0, "other": 0}
    recorded = result.recorded

    def count_source(update) -> None:
        audit["agent" if update.source == "agent" else "other"] += 1
        if tracer is not None and len(recorded) < RECORDED_UPDATES:
            recorded.append(update)
    subscription = server.subscribe(count_source, name="bench-audit")
    plan = _request_plan(rng, workload, hostnames, cwx)
    gc.collect()

    pace = [slowdown()]      # the sample taken at the last slice boundary

    async def one_slice(batch, span) -> Tuple[float, float, int]:
        """Advance + publish, then the watch round, then the requests;
        returns (advancing wall-s, slowdown, updates ingested)."""
        before = server.updates_received
        round_wall = None
        request_wall = []
        start = perf_counter()
        with state.lock, span("sim.kernel"):
            cwx.run(workload.slice_sim_s)
            state.refresh()
        published = perf_counter()
        expected = shadow.drain()
        if expected:
            frames = await watch.read_deltas(len(expected))
            round_wall = perf_counter() - published
            result.attempted += len(expected)
            if [(f[1], f[2], dict(f[3])) for f in frames] \
                    != [(h, t, dict(v)) for h, t, v in expected]:
                result.fail(f"watch round: read {len(frames)} of "
                            f"{len(expected)} frames, or contents differ")
        ingested = server.updates_received - before
        if hub_clients:
            drained = sum(len(client.drain()) for client in hub_clients)
            result.attempted += ingested
            if drained != ingested:
                result.fail(f"hub clients drained {drained} frames of "
                            f"{ingested} updates")
        if federated:
            # One read on a dirty rollup, one hot; they must agree.
            with span("federation.rollup.summary_dirty", True):
                dirty = server.cluster_summary()
            with span("federation.rollup.summary_hot", True):
                hot = server.cluster_summary()
            if dirty != hot:
                result.fail("hot summary differs from the dirty one")
        for key, head, binary, detail in batch:
            status, body, took = await rest.get(head)
            request_wall.append(took)
            result.attempted += 1
            result.route_counts[key] = result.route_counts.get(key, 0) + 1
            _verify(result, service, key, binary, detail, status, body)
            if span is not _no_span:
                _replay(tracer, service, key, head)
        after = slowdown()
        slow = (pace[0] + after) / 2
        pace[0] = after
        result.request_s.extend(took / slow for took in request_wall)
        if round_wall is not None:
            result.watch_round_s.append(round_wall / slow)
        return published - start, slow, ingested

    async def one_chunk(index: int, span) -> Dict[str, float]:
        wall = calibrated = updates = 0.0
        slows = []
        first = index * workload.slices_per_chunk
        for step in range(first, first + workload.slices_per_chunk):
            took, slow, ingested = await one_slice(
                plan[step % len(plan)], span)
            wall += took
            calibrated += took / slow
            updates += ingested
            slows.append(slow)
            if federated and step % 10 == 9:
                with span("federation.current_all", True):
                    owned = len(server.current_all())
                if owned != workload.n_nodes:
                    result.fail(f"current_all() holds {owned} of "
                                f"{workload.n_nodes} nodes")
        return {"updates": updates, "advance_wall_s": wall,
                "advance_s": calibrated,
                "slowdown": sum(slows) / len(slows)}

    span = _no_span
    if tracer is not None:
        # A traced run first times untraced chunks, its overhead baseline.
        result.reference_chunks = [await one_chunk(index, _no_span)
                                   for index in range(REFERENCE_CHUNKS)]
        result.request_s.clear()
        result.watch_round_s.clear()
        result.route_counts.clear()
        tracer.install(cwx)
        span = tracer.span
    injected_at = None
    if workload.kill_after_sim_s is not None:
        # The fault time is an input too: within the same agent and
        # heartbeat interval for every seed, at a seed-drawn offset.
        injected_at = cwx.kernel.now + workload.kill_after_sim_s \
            + rng.random()
        FaultPlane(cwx.kernel, federation=server).kill_shard(
            1, at=injected_at)
    before = _counters(cwx, service)
    audit.update(agent=0, other=0)
    recorded.clear()
    for index in range(CHUNKS):
        result.chunks.append(await one_chunk(index, span))
    after = _counters(cwx, service)
    if tracer is not None:
        tracer.uninstall(cwx)
    subscription.cancel()
    result.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.slowdown = sum(c["slowdown"] for c in result.chunks) / CHUNKS
    result.counts = {k: after[k] - before[k] for k in after}
    result.counts.update(applied=audit["agent"], other=audit["other"],
                         sim_s=workload.slice_sim_s
                         * workload.slices_per_chunk * CHUNKS)
    _final_checks(workload, server, result, injected_at,
                  [shadow, *hub_clients])


class _no_span:
    """Stand-in for ``tracer.span`` in untraced chunks."""

    def __init__(self, *_args):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def _final_checks(workload: Workload, server, result: RunResult,
                  injected_at: Optional[float], clients: list) -> None:
    """Invariants, not golden numbers: they hold for any seed and keep
    holding when a later change legitimately moves a count."""
    counts = result.counts
    emitted, applied = counts["emitted"], counts["applied"]
    declared = counts.get("dropped_ingests", 0) + counts.get("unrouted", 0)
    evictions = counts["watch_evictions"] + sum(c.evicted for c in clients)
    result.attempted += emitted
    result.failed += abs(emitted - declared - applied) \
        + counts["agent_errors"] + evictions
    result.check("applied == emitted - declared dropped",
                 applied == emitted - declared,
                 f"{applied} applied, {emitted} emitted, "
                 f"{declared} declared dropped")
    result.check("subscribers saw every update the server ingested",
                 applied + counts["other"] == counts["updates"],
                 f"{applied} + {counts['other']} vs {counts['updates']}")
    result.check("no agent errors", counts["agent_errors"] == 0,
                 str(counts["agent_errors"]))
    result.check("store.full_copies == 0", counts["full_copies"] == 0,
                 str(counts["full_copies"]))
    result.check("no watch evictions", evictions == 0, str(evictions))
    # rollup == recomputed sum over per-host state.
    summary = server.cluster_summary()
    snapshot = server.current_all()
    up = cpu_n = 0
    cpu_sum = mem_used = temp_max = 0.0
    for hostname in snapshot:
        values = snapshot[hostname]
        up += values.get("udp_echo") == 1
        if "cpu_util_pct" in values:
            cpu_n += 1
            cpu_sum += float(values["cpu_util_pct"])
        mem_used += float(values.get("mem_used_bytes", 0))
        temp_max = max(temp_max, float(values.get("cpu_temp_c", 0.0)))
    mean = cpu_sum / cpu_n if cpu_n else 0.0
    result.check(
        "cluster_summary() == recomputed sum over per-host state",
        summary["nodes_total"] == len(snapshot) == workload.n_nodes
        and summary["nodes_up"] == up
        and abs(summary["cpu_util_mean_pct"] - mean) <= 1e-9 * max(mean, 1)
        and abs(summary["mem_used_bytes"] - mem_used)
        <= 1e-9 * mem_used + 1
        and summary["cpu_temp_max_c"] == temp_max,
        f"summary {summary}")
    if injected_at is not None:
        _failover_checks(workload, server, result, injected_at)


def _failover_checks(workload: Workload, server, result: RunResult,
                     injected_at: float) -> None:
    monitor = server.monitor
    detected = [t for t, index, _old, new in monitor.transitions
                if index == 1 and new in ("suspect", "dead")
                and t >= injected_at]
    row = next((r for r in server.failovers
                if r[1] == 1 and r[0] >= injected_at), None)
    found = bool(detected) and row is not None
    result.check("the killed shard was detected and drained", found,
                 f"transitions {monitor.transitions}")
    live = {shard.index for shard in server.shards
            if shard.active and shard.channel.up}
    owners = [server.owner_of(h) for h in server.managed_hostnames]
    orphans = sum(1 for o in owners if o is None or o.index not in live)
    result.failed += orphans
    result.check("every node is owned by a live shard after fail-over",
                 len(owners) == workload.n_nodes and orphans == 0,
                 f"{orphans} of {len(owners)} orphaned")
    if not found:
        return
    detect = min(detected) - injected_at
    redistribute = row[0] - min(detected)
    result.counts.update(detect_sim_s=detect,
                         redistribute_sim_s=redistribute,
                         nodes_moved=row[3])
    # Bounds the monitor's docstring promises: detection latency is set
    # by the escalation thresholds, not by probe phase.
    result.check("detection within suspect_after + one heartbeat",
                 detect <= monitor.suspect_after + monitor.interval,
                 f"{detect:.3f} sim-s")
    result.check("drain within down_after - suspect_after + one heartbeat",
                 redistribute <= monitor.down_after - monitor.suspect_after
                 + monitor.interval, f"{redistribute:.3f} sim-s")


def run_workload(workload: Workload, seed: int, tracer=None) -> RunResult:
    """Run one sized workload; ``tracer`` makes it the traced run."""
    result = RunResult(workload)
    asyncio.run(_drive(workload, seed, tracer, result))
    return result

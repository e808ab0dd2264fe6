"""The gateway's serving shell: asyncio sockets, wall clocks, threads.

This is the one module in :mod:`repro.gateway` allowed to read real
clocks — it is the declared WORX102 shell (like ``cli.py``), because it
measures *actual* request latency and paces *actual* traffic; every
policy decision (routing, framing, backpressure, metrics arithmetic)
lives in the deterministic sibling modules.

Two worlds, one contract:

* :class:`SimDriver` runs the simulation on its own thread in bounded
  slices, holding the slice lock only while the kernel steps, and
  publishes a fresh immutable view through
  :meth:`~repro.gateway.state.GatewayState.refresh` after each slice.
* :class:`GatewayService` serves HTTP/1.1 on an asyncio event loop.
  Hot endpoints read the published view (no lock, no sim-thread work);
  watch streams drain :class:`~repro.gateway.watch.WatchClient`
  buffers that the sim thread fills through the subscription bus.
  ``await writer.drain()`` is the per-client backpressure valve — a
  slow socket backs its own buffer up into coalescing and eventually
  eviction, never into the simulation.
"""

from __future__ import annotations

import asyncio
import logging
import struct
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.server import ClusterWorXServer
from repro.gateway.httpd import (HttpError, HttpRequest, format_response,
                                 parse_request, stream_header)
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.routes import build_router
from repro.gateway.state import GatewayState
from repro.gateway.watch import WatchClient, WatchHub, WatchPolicy
from repro.gateway.wire import BinaryWire, Frame, JsonWire, negotiate

__all__ = ["SimDriver", "GatewayService", "fetch", "read_stream_frames"]

#: the ``<I length>`` prefix of each binary stream frame.
_FRAME_LEN = struct.Struct("<I")
_log = logging.getLogger("repro.gateway.shell")


class SimDriver(threading.Thread):
    """Advance the simulation in slices; publish a view after each.

    ``slice_seconds`` is *simulated* time per step; ``pace_seconds`` is
    a real sleep between steps that hands the GIL to the serving loop.
    """

    slice_seconds = 1.0
    pace_seconds = 0.001

    def __init__(self, server: ClusterWorXServer, state: GatewayState):
        super().__init__(name="gateway-sim", daemon=True)
        self.server = server
        self.state = state
        self._stop_flag = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        kernel = self.server.kernel
        try:
            while not self._stop_flag.is_set():
                with self.state.lock:
                    kernel.run(until=kernel.now + self.slice_seconds)
                    self.state.refresh()
                time.sleep(self.pace_seconds)
        except BaseException as exc:  # surfaced by stop(); never silent
            self.error = exc

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_flag.set()
        self.join(timeout)
        if self.error is not None:
            raise RuntimeError("simulation thread died") from self.error


class GatewayService:
    """The asyncio front door over one ClusterWorX server."""

    #: seconds a watch stream may stay silent before a heartbeat frame.
    heartbeat = 10.0

    def __init__(self, server: ClusterWorXServer, *,
                 cluster=None,
                 host: str = "127.0.0.1", port: int = 0,
                 policy: Optional[WatchPolicy] = None,
                 max_watchers: int = 10000,
                 idle_timeout: float = 30.0):
        self.server = server
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.max_watchers = max_watchers
        resolver = cluster.group_resolver() if cluster is not None \
            else None
        self.state = GatewayState(server, resolver=resolver)
        self.hub = WatchHub(server, policy=policy)
        self.metrics = GatewayMetrics()
        self.json_wire = JsonWire()
        self.binary_wire = BinaryWire(
            metric_schema=server.registry.names)
        self.router = build_router(self.state, self.stats_values)
        self.driver = SimDriver(server, self.state)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: one handler task per open connection, watch streams included
        self._tasks: Set[asyncio.Task] = set()
        #: the response last sent with the JSON wire's kept body, and
        #: its status and keep-alive: sent again as is while the wire
        #: hands back that body, so a repeated all-hosts query allocates
        #: no body-sized block (freeing one each time let the allocator
        #: trim and refault its heap on every request).
        self._kept: Optional[Tuple[bytes, Tuple[int, bool], bytes]] = None
        self.connections = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "GatewayService":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            backlog=4096)  # thousands of watchers connect in a burst
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics.start(time.perf_counter())
        return self

    async def stop(self) -> None:
        """Stop listening, then end every connection the service accepted
        (``Server.close()`` alone leaves them serving)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        self.hub.close()
        self.state.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- /stats assembly ----------------------------------------------------
    def stats_values(self) -> Dict[str, object]:
        values = self.metrics.values(time.perf_counter())
        values.update(self.hub.totals())
        values["active_watchers"] = self.hub.active_watchers
        values["publishes"] = self.state.publishes
        values["publish_reuses"] = self.state.publish_reuses
        return values

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # service torn down mid-connection; just drop it
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; nothing left to flush
        return None

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        # One idle reaper per connection, not a timeout per request (a
        # ``wait_for`` costs a Task and an extra loop pass per read).  The
        # idle clock starts at accept and restarts after every response;
        # ``idle_since`` is None while a request is being served, so a
        # slow response is never cut.  Closing the writer ends the
        # pending read with EOF.
        loop = asyncio.get_running_loop()
        idle_since: Optional[float] = loop.time()

        def reap() -> None:
            nonlocal reaper
            now = loop.time()
            since = now if idle_since is None else idle_since
            if now - since >= self.idle_timeout:
                writer.close()
            else:
                reaper = loop.call_later(since + self.idle_timeout - now,
                                         reap)

        reaper = loop.call_later(self.idle_timeout, reap)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except asyncio.LimitOverrunError:
                    await self._refuse(writer, 431,
                                       "request head too large")
                    return
                idle_since = None
                t0 = time.perf_counter()
                try:
                    request = parse_request(head)
                except HttpError as exc:
                    await self._refuse(writer, exc.status, exc.message)
                    return
                if request.path == "/v1/watch":
                    reaper.cancel()  # a stream is never idle
                    await self._serve_watch(request, writer)
                    return
                if not await self._serve_request(request, writer, t0):
                    return
                idle_since = loop.time()
        finally:
            reaper.cancel()

    @staticmethod
    async def _refuse(writer: asyncio.StreamWriter, status: int,
                      message: str) -> None:
        """Answer with a plain-text status and close the connection."""
        writer.write(format_response(status, "text/plain",
                                     message.encode("utf-8"),
                                     keep_alive=False))
        await writer.drain()

    async def _serve_request(self, request: HttpRequest,
                             writer: asyncio.StreamWriter,
                             t0: float) -> bool:
        wire = negotiate(request.accept, self.binary_wire,
                         self.json_wire)
        try:
            route, params = self.router.resolve(request.path)
            status, frames = route.handler(request, params)
            body = wire.encode(frames)
        except Exception as exc:  # a handler or encode bug must not
            # kill the loop: it answers 500 (its traceback logged), a
            # protocol failure its status
            if isinstance(exc, HttpError):
                status, message = exc.status, exc.message
            else:
                status, message = 500, f"{type(exc).__name__}: {exc}"
                _log.exception("%s %s answered 500", request.method,
                               request.path)
            body = wire.encode([("error", "request", self.state.view.sim_time,
                                 {"status": status, "message": message})])
        keep_alive = request.keep_alive
        kept = self._kept
        if kept is not None and kept[0] is body \
                and kept[1] == (status, keep_alive):
            response = kept[2]
        else:
            response = format_response(status, wire.content_type, body,
                                       keep_alive=keep_alive)
            if body is self.json_wire.kept_body:
                self._kept = (body, (status, keep_alive), response)
        writer.write(response)
        await writer.drain()
        self.metrics.record(status, time.perf_counter() - t0, len(body))
        return keep_alive

    # -- the watch stream ----------------------------------------------------
    async def _serve_watch(self, request: HttpRequest,
                           writer: asyncio.StreamWriter) -> None:
        wire = negotiate(request.accept, self.binary_wire,
                         self.json_wire)
        if self.hub.active_watchers >= self.max_watchers:
            await self._refuse(writer, 429, "watcher limit reached")
            return
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()

        def notify() -> None:
            try:
                loop.call_soon_threadsafe(wakeup.set)
            except RuntimeError:
                pass  # loop already closed; the stream is ending anyway

        hosts = request.param("hosts")
        client = WatchClient(
            hosts=self._expand_hosts(hosts) if hosts else None,
            metrics=[m for m in
                     (request.param("metrics") or "").split(",") if m]
            or None,
            policy=self.hub.policy, notify=notify)
        self.hub.register(client)
        try:
            writer.write(stream_header(wire.stream_content_type))
            await writer.drain()
            while True:
                try:
                    await asyncio.wait_for(wakeup.wait(),
                                           timeout=self.heartbeat)
                except asyncio.TimeoutError:
                    # A degraded heartbeat tells the watcher its stream
                    # may be missing deltas from the stale shards.
                    view = self.state.view
                    beat = wire.encode_stream(
                        ("end", "heartbeat", view.sim_time,
                         view.degraded_keys()))
                    writer.write(beat)
                    await writer.drain()
                    continue
                wakeup.clear()
                chunks: List[bytes] = [
                    wire.encode_stream(("delta", hostname, t, values))
                    for hostname, t, values in client.drain()]
                if client.evicted:
                    chunks.append(wire.encode_stream(
                        ("evicted", "slow-consumer",
                         self.state.view.sim_time,
                         {"coalesced": client.coalesced,
                          "dropped": client.dropped})))
                if chunks:
                    payload = b"".join(chunks)
                    writer.write(payload)
                    await writer.drain()  # the backpressure valve
                    self.metrics.record_stream_bytes(len(payload))
                if client.evicted:
                    break
        except (ConnectionError, OSError):
            pass  # client hung up mid-stream: normal stream teardown
        finally:
            self.hub.unregister(client)

    def _expand_hosts(self, expression: str) -> List[str]:
        from repro.remote.nodeset import NodeSet
        return list(NodeSet(expression, resolver=self.state.resolver))


# -- a tiny client (CLI probes, benches, tests) ------------------------------

async def fetch(host: str, port: int, path: str, *,
                accept: Optional[str] = None,
                timeout: float = 10.0
                ) -> Tuple[int, str, bytes]:
    """One GET: returns (status, content-type, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        headers = f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        if accept:
            headers += f"Accept: {accept}\r\n"
        headers += "Connection: close\r\n\r\n"
        writer.write(headers.encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    content_type = ""
    for line in lines[1:]:
        if line.lower().startswith("content-type:"):
            content_type = line.partition(":")[2].strip()
    return status, content_type, body


async def read_stream_frames(reader: asyncio.StreamReader,
                             wire: "BinaryWire | JsonWire",
                             count: int, *,
                             timeout: float = 10.0,
                             kinds: Tuple[str, ...] = ("delta",)
                             ) -> List[Frame]:
    """Read ``count`` matching frames off an open watch stream."""
    frames: List[Frame] = []
    buffer = b""
    deadline = time.perf_counter() + timeout
    while len(frames) < count:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise asyncio.TimeoutError(
                f"only {len(frames)}/{count} frames before timeout")
        chunk = await asyncio.wait_for(reader.read(65536),
                                       timeout=remaining)
        if not chunk:
            break
        buffer += chunk
        buffer, decoded = _drain_buffer(buffer, wire)
        frames.extend(f for f in decoded if f[0] in kinds)
    return frames


def _drain_buffer(buffer: bytes, wire: "BinaryWire | JsonWire"
                  ) -> Tuple[bytes, List[Frame]]:
    """Split complete frames off a stream buffer; keep the remainder."""
    frames: List[Frame] = []
    if isinstance(wire, JsonWire):
        while b"\n\n" in buffer:
            event, _, buffer = buffer.partition(b"\n\n")
            if event.startswith(b"data: "):
                frames.extend(wire.decode(event[len(b"data: "):]))
        return buffer, frames
    # walk the length prefixes to the end of the last whole frame, then
    # decode that run in one call
    end = 0
    while len(buffer) - end >= 4:
        stop = end + 4 + _FRAME_LEN.unpack_from(buffer, end)[0]
        if stop > len(buffer):
            break
        end = stop
    return buffer[end:], wire.decode(buffer[:end])

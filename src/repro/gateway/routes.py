"""The gateway's endpoint handlers, as pure frame producers.

Each handler maps ``(request, path params)`` to ``(status, frames)``;
the shell picks the wire codec (Accept negotiation) and writes bytes.
Handlers only ever read the :class:`~repro.gateway.state.GatewayState`
— hot endpoints off the frozen published view, cold ones through the
slice lock — so this module stays deterministic and socket-free.

The surface (all ``GET``):

==========================================  =================================
``/v1/summary``                             cluster rollup (O(1) read)
``/v1/hosts``                               membership, NodeSet-folded
``/v1/hosts/{hostname}``                    one node's current values
``/v1/query?nodes=&metrics=``               NodeSet-filtered bulk read
``/v1/events``                              active (rule, node) events
``/v1/events/log?since=&node=&limit=``      fired-event history (locked)
``/v1/history/{hostname}/{metric}``         downsampled graph or raw window
``/v1/watch?hosts=&metrics=``               live delta stream (shell-owned)
``/v1/shards``                              control-plane shard stats
``/stats``                                  gateway request metrics
==========================================  =================================
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.gateway.httpd import HttpError, HttpRequest, Router
from repro.gateway.state import GatewayState
from repro.gateway.wire import Frames

__all__ = ["build_router"]

#: handler result: HTTP status + response frames (a list, or a table).
Result = Tuple[int, Frames]

#: a numeric query parameter: ASCII digits with an optional sign and
#: one optional point; no ``_``, space, exponent, ``nan`` or ``inf``.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)")


def _split_param(request: HttpRequest, name: str) -> List[str]:
    raw = request.param(name)
    return [p for p in raw.split(",") if p] if raw else []


def _float_param(request: HttpRequest, name: str,
                 default: Optional[float]) -> Optional[float]:
    """A finite number in the :data:`_NUMBER` grammar, ``default`` when
    absent; else (``1_0``, ``1e3``, ``nan``...) a 400."""
    raw = request.param(name)
    if raw is None:
        return default
    value = float(raw) if _NUMBER.fullmatch(raw) else math.nan
    if not math.isfinite(value):
        raise HttpError(400, f"bad float for {name!r}: {raw!r}")
    return value


def _int_param(request: HttpRequest, name: str, default: int) -> int:
    """A whole number (``4``, ``4.0``), ``default`` when absent; else
    (``2.5``, ``nan``...) a 400."""
    value = _float_param(request, name, default)
    if value != int(value):
        raise HttpError(400, f"bad integer for {name!r}: "
                             f"{request.param(name)!r}")
    return int(value)


def build_router(state: GatewayState,
                 stats_values: Callable[[], Mapping[str, object]]
                 ) -> Router:
    """Wire every endpoint to ``state``; ``stats_values`` is the
    shell's live metrics snapshot (it owns the wall clock)."""

    def summary(request: HttpRequest, params: Dict[str, str]) -> Result:
        view = state.view
        return 200, [("summary", "cluster", view.sim_time, view.summary)]

    def hosts(request: HttpRequest, params: Dict[str, str]) -> Result:
        view = state.view
        payload = {"count": len(view.hostnames),
                   "nodes": state.folded_hosts(view.hostnames),
                   **view.degraded_keys()}
        return 200, [("hosts", "cluster", view.sim_time, payload)]

    def host(request: HttpRequest, params: Dict[str, str]) -> Result:
        view, hostname = state.view, params["hostname"]
        if hostname not in view.snapshot:
            raise HttpError(404, f"unknown host {hostname!r}")
        return 200, [("host", hostname, view.sim_time,
                      view.snapshot[hostname])]

    def query(request: HttpRequest, params: Dict[str, str]) -> Result:
        metrics = _split_param(request, "metrics")
        try:
            return 200, state.query(request.param("nodes"), metrics or None)
        except ValueError as exc:  # NodeSet parse errors surface as 400
            raise HttpError(400, f"bad nodes expression: {exc}") \
                from None

    def events(request: HttpRequest, params: Dict[str, str]) -> Result:
        view = state.view
        return 200, [("event", rule, view.sim_time,
                      {"rule": rule, "node": node})
                     for rule, node in view.events]

    def event_log(request: HttpRequest,
                  params: Dict[str, str]) -> Result:
        try:
            entries = state.event_log(
                since=_float_param(request, "since", 0.0),
                node=request.param("node"),
                limit=_int_param(request, "limit", 100))
        except ValueError as exc:  # a negative limit
            raise HttpError(400, str(exc)) from None
        return 200, [("event", e["rule"], e["time"], e)  # type: ignore
                     for e in entries]

    def history(request: HttpRequest, params: Dict[str, str]) -> Result:
        hostname, metric = params["hostname"], params["metric"]
        subject = f"{hostname}/{metric}"
        t0 = _float_param(request, "t0", None)
        if t0 is not None:
            t1 = _float_param(request, "t1", state.view.sim_time)
            times, values = state.history_window(hostname, metric, t0, t1)
            return 200, [("history", subject, t, {"value": v})
                         for t, v in zip(times, values)]
        try:
            graph = state.history_graph(
                hostname, metric,
                buckets=_int_param(request, "buckets", 60))
        except ValueError as exc:  # buckets outside 1 to the capacity
            raise HttpError(400, str(exc)) from None
        return 200, [("history", subject, center,
                      {"mean": mean, "min": lo, "max": hi})
                     for center, mean, lo, hi in zip(*graph)]

    def shards(request: HttpRequest, params: Dict[str, str]) -> Result:
        view = state.view
        rows = state.shards()
        if view.degraded:
            for row in rows:
                row["degraded"] = True
                row["stale"] = row.get("name") in view.stale_shards
        return 200, [("shard", row["name"], view.sim_time, row)
                     for row in rows]

    def stats(request: HttpRequest, params: Dict[str, str]) -> Result:
        return 200, [("stats", "gateway", state.view.sim_time,
                      stats_values())]

    router = Router()
    router.add("/v1/summary", summary)
    router.add("/v1/hosts", hosts)
    router.add("/v1/hosts/{hostname}", host)
    router.add("/v1/query", query)
    router.add("/v1/events", events)
    router.add("/v1/events/log", event_log)
    router.add("/v1/history/{hostname}/{metric}", history)
    router.add("/v1/shards", shards)
    router.add("/stats", stats)
    # /v1/watch is served by the shell: it owns sockets and queues.
    return router

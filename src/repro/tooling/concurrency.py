"""The declared concurrency contract of the ``repro`` codebase (WORX201).

Since the gateway (PR 6) the process hosts *real* threads: the sim
driver advances the kernel in slices, the asyncio serving loop answers
HTTP off published views.  The invariants that make that safe were
prose until this module; now they are data the pass enforces:

* :data:`CONTEXT_MAP` — which thread each bridge function runs on
  (same-module call graphs propagate the seeds): ``sim`` (the SimDriver
  thread) or ``serving`` (the asyncio loop thread; ``async def``
  handlers are implicitly ``serving``).
* :data:`LOCK_GUARDED` — per file, attribute chains that must only be
  accessed under the named lock, or — with lock name ``""`` — replaced
  wholesale and never mutated in place (the federation owner-map
  discipline).

Keep this table in sync with the DESIGN.md "execution-context model"
section when a thread boundary moves.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["CONTEXT_MAP", "LOCK_GUARDED"]

#: ``"rel/path.py"`` (every function in the file) or
#: ``"rel/path.py::Qual.name"`` -> execution context.
CONTEXT_MAP: Mapping[str, str] = {
    # The sim driver thread: advances the kernel, publishes views,
    # pushes watch deltas through the subscription bus.
    "repro/gateway/shell.py::SimDriver.run": "sim",
    "repro/gateway/state.py::GatewayState.refresh": "sim",
    "repro/gateway/state.py::GatewayState._capture": "sim",
    "repro/gateway/state.py::GatewayState._note_change": "sim",
    "repro/gateway/watch.py::WatchHub._on_update": "sim",
    "repro/gateway/watch.py::WatchClient.push": "sim",
    # The asyncio serving thread: hot endpoints off the frozen view,
    # cold endpoints through the slice lock, watch-buffer drains.
    "repro/gateway/routes.py": "serving",
    "repro/gateway/state.py::GatewayState.folded_hosts": "serving",
    "repro/gateway/state.py::GatewayState.query": "serving",
    "repro/gateway/state.py::GatewayState.changed_since": "serving",
    "repro/gateway/state.py::GatewayState.shards": "serving",
    "repro/gateway/state.py::GatewayState.history_graph": "serving",
    "repro/gateway/state.py::GatewayState.history_window": "serving",
    "repro/gateway/state.py::GatewayState.event_log": "serving",
    "repro/gateway/shell.py::GatewayService.stats_values": "serving",
    "repro/gateway/watch.py::WatchClient.drain": "serving",
    "repro/gateway/watch.py::WatchHub.register": "serving",
    "repro/gateway/watch.py::WatchHub.unregister": "serving",
}

#: per rel path: attribute chain -> guarding lock attribute ("" means
#: replace-only: the structure is swapped wholesale, never mutated).
LOCK_GUARDED: Mapping[str, Mapping[str, str]] = {
    # Everything behind GatewayState.server is live simulation state
    # owned by the sim thread; serving code reads the published view or
    # takes the slice lock.
    "repro/gateway/state.py": {"server": "lock"},
    # The owner map is read lock-free on the ingest hot path; safety
    # rests on membership changes replacing the dict, never editing it.
    "repro/federation/server.py": {"_owner": ""},
    # A JSON wire's kept all-hosts body is swapped whole by each body it
    # writes; a reader holds the one it loaded.
    "repro/gateway/wire.py": {"_memo": ""},
}

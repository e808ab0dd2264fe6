"""Outside-in spans: the layer ledger's measuring instrument.

The program under test has no spans of its own (that is a later
change); this module wraps them, from the benchmark's side, around the
calls into each layer's *public* functions.  A seam is a public name —
``repro.monitoring.agent:NodeAgent.evaluate`` — resolved when tracing
is installed, so a seam that a later refactor removes costs the ledger
one row (its metrics read ``null`` and a note says why) and never the
end-to-end run, which does not import this module's seam table at all.

Spans are aggregated as they close — calls, total time, self time (the
span's duration minus the part its child spans cover) and, for the few
seams reported as a median, the individual durations.  A traced run
closes a few million spans; keeping each as a record would cost more
memory and time than the program being measured.

Tracing is installed and removed chunk by chunk, so one traced run
measures the same equal-work chunks both ways and the difference is
the tracing overhead.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Seam", "Tracer", "CLASS_SEAMS"]

#: (span name, "module:Class.attr", keep per-call samples).  Layers are
#: this repo's packages; parents are implied by who calls whom.  Every
#: span costs the traced run about a microsecond, so a seam whose only
#: use would be a call count the program already keeps
#: (``server.ingest`` -> ``updates_received``) is not wrapped.
CLASS_SEAMS: Tuple[Tuple[str, str, bool], ...] = (
    ("monitoring.sample",
     "repro.monitoring.agent:NodeAgent.evaluate", False),
    ("monitoring.consolidation",
     "repro.monitoring.consolidation:Consolidator.update", False),
    ("monitoring.transmission",
     "repro.monitoring.transmission:Transmitter.transmit_update", False),
    ("network.message",
     "repro.network.fabric:NetworkFabric.message", False),
    ("core.statestore.apply",
     "repro.core.statestore:StateStore.apply", False),
    ("core.statestore.snapshot",
     "repro.core.statestore:StateStore.snapshot", True),
    ("core.statestore.summary",
     "repro.core.statestore:StateStore.summary", True),
    ("resilience.health.evaluate",
     "repro.resilience.health:HealthTracker.evaluate", False),
    ("federation.ingest",
     "repro.federation.server:FederationServer.ingest", False),
    ("federation.fail_over",
     "repro.federation.server:FederationServer.fail_over", False),
    ("gateway.state.refresh",
     "repro.gateway.state:GatewayState.refresh", True),
    ("gateway.watch.drain",
     "repro.gateway.watch:WatchClient.drain", False),
)

#: store subscription name -> span name (each ``store.subscriptions``
#: callback is a seam of the layer that registered it).
SUBSCRIPTION_SEAMS: Dict[str, str] = {
    "events": "events.feed",
    "history": "monitoring.history.ingest",
    "gateway": "gateway.watch.push",
}


#: marks a patched attribute the owner did not define itself.
_INHERITED = object()


class Seam:
    """One span name's running totals."""

    __slots__ = ("name", "calls", "total_s", "self_s", "samples")

    def __init__(self, name: str, keep_samples: bool = False):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: Optional[List[float]] = [] if keep_samples else None


class Tracer:
    """Installs, removes and totals the spans of one traced run."""

    def __init__(self) -> None:
        self.seams: Dict[str, Seam] = {}
        #: seams that could not be resolved: span name -> reason.
        self.missing: Dict[str, str] = {}
        #: time covered by spans closed inside the currently open one.
        self._child_s = 0.0
        #: (owner, attribute, original) for everything patched.
        self._patched: List[Tuple[object, str, object]] = []
        #: plain tallies kept beside the spans (bytes, frames).
        self.tallies: Dict[str, float] = {}

    # -- span bookkeeping ----------------------------------------------------
    def seam(self, name: str, keep_samples: bool = False) -> Seam:
        found = self.seams.get(name)
        if found is None:
            found = self.seams[name] = Seam(name, keep_samples)
        return found

    def wrap(self, fn: Callable, seam: Seam) -> Callable:
        """``fn`` with a span of ``seam`` around every call."""
        tracer = self
        clock = perf_counter
        samples = seam.samples

        def traced(*args, **kwargs):
            outer = tracer._child_s
            tracer._child_s = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                seam.calls += 1
                seam.total_s += took
                seam.self_s += took - tracer._child_s
                tracer._child_s = outer + took
                if samples is not None:
                    samples.append(took)
        # Captured bound methods are re-resolved by name (see
        # ``_rebind_agents``), so the wrapper answers to the same name.
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def count(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def span(self, name: str, keep_samples: bool = False) -> "_Span":
        """A span opened by the benchmark itself (``with tracer.span``)."""
        return _Span(self, self.seam(name, keep_samples))

    # -- installing ------------------------------------------------------------
    def _patch(self, owner: object, attr: str, seam: Seam) -> None:
        if hasattr(owner, "__dict__"):
            original = vars(owner).get(attr, _INHERITED)
        else:                           # slotted instance: its own slot
            original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(getattr(owner, attr), seam))
        self._patched.append((owner, attr, original))

    def install(self, cwx) -> None:
        """Wrap every seam that still exists on the ``ClusterWorX``
        facade ``cwx``'s program; note the ones that do not."""
        for name, target, keep in CLASS_SEAMS:
            module_name, _, dotted = target.partition(":")
            class_name, _, attr = dotted.partition(".")
            try:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"{target}: {exc}"
                continue
            self._patch(owner, attr, self.seam(name, keep))
        # Store subscribers, by the name they registered under.
        by_name = {}
        for sub in getattr(cwx.server.store, "subscriptions", ()):
            by_name.setdefault(sub.name, []).append(sub)
        for sub_name, span_name in SUBSCRIPTION_SEAMS.items():
            if sub_name not in by_name:
                self.missing[span_name] = \
                    f"store.subscriptions has none named {sub_name!r}"
            for sub in by_name.get(sub_name, ()):
                self._patch(sub, "callback", self.seam(span_name))
        self._rebind_agents(cwx)

    def _rebind_agents(self, cwx) -> None:
        """Agents captured ``server.ingest`` as a bound method when they
        were built; re-resolve it by name on its owner so the capture
        follows the class attribute (wrapped now, original later)."""
        for agent in getattr(cwx, "agents", {}).values():
            bound = getattr(agent, "on_sample", None)
            owner = getattr(bound, "__self__", None)
            if owner is not None:
                agent.on_sample = getattr(owner, bound.__name__)

    def uninstall(self, cwx) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._rebind_agents(cwx)


class _Span:
    """Context-manager span for calls the benchmark makes itself."""

    __slots__ = ("tracer", "seam", "_outer", "_start")

    def __init__(self, tracer: Tracer, seam: Seam):
        self.tracer = tracer
        self.seam = seam

    def __enter__(self) -> "_Span":
        self._outer = self.tracer._child_s
        self.tracer._child_s = 0.0
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        took = perf_counter() - self._start
        seam, tracer = self.seam, self.tracer
        seam.calls += 1
        seam.total_s += took
        seam.self_s += took - tracer._child_s
        tracer._child_s = self._outer + took
        if seam.samples is not None:
            seam.samples.append(took)

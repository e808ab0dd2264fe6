"""The system's invariants, each stated once.

Every rule the control plane promises — flat or federated, healthy or
mid-fault — is one plain function here.  Each reads the public server
surface (or numbers read off it) and returns the violations it found,
``[]`` when the rule holds, so a test asserts ``== []`` and a benchmark
records ``(not problems, "; ".join(problems))`` as a check.

**Declared assumption A1 — fail-over reads the dead shard's store.**
:meth:`~repro.federation.server.FederationServer.fail_over` migrates a
dead shard's values, agent freshness and history out of that shard's
in-process store, standing in for the durable-store recovery a real
deployment would run.  "Nothing is lost across a fail-over" holds by
assumption, not mechanism: a property that needs it names A1.  None of
the functions below relies on it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from itertools import combinations
from typing import Dict, Iterable, List

from repro.remote.nodeset import NodeSet

__all__ = ["ownership_partition", "rollup_matches_parts",
           "empty_shards_not_stale", "ingest_counts", "updates_conserved",
           "published_view_immutable", "observables", "digest"]


def ownership_partition(federation) -> List[str]:
    """The active shards' host sets partition the managed hosts: their
    union is ``managed_hostnames`` and every pairwise intersection is
    empty.  Every host's owner is active and manages it, a drained shard
    manages nothing, and no shard holds state for a host it does not
    own (an update that landed off its owner)."""
    problems: List[str] = []
    owned = {shard.index: NodeSet.fromlist(shard.hostnames)
             for shard in federation.shards}
    active = [shard for shard in federation.shards if shard.active]
    managed = NodeSet.fromlist(federation.managed_hostnames)
    union = NodeSet.fromlist([])
    for shard in active:
        union = union.union(owned[shard.index])
    if union != managed:
        problems.append(f"active shards own {union}, not {managed}")
    for a, b in combinations(active, 2):
        if owned[a.index].intersection(owned[b.index]):
            problems.append(f"{a.name} and {b.name} share hosts")
    for shard in federation.shards:
        if not shard.active and owned[shard.index]:
            problems.append(f"drained {shard.name} manages hosts")
        stray = NodeSet.fromlist(shard.server.store.hostnames) \
            .difference(owned[shard.index])
        if stray:
            problems.append(f"{shard.name} holds state for {stray}")
    for hostname in managed:
        owner = federation.owner_of(hostname)
        if owner is None or not owner.active \
                or hostname not in owned[owner.index]:
            problems.append(f"{hostname} is owned by {owner!r}")
    return problems


def rollup_matches_parts(server) -> List[str]:
    """``cluster_summary()`` equals the same sum recomputed over
    ``current_all()``.  ``nodes_total`` counts tracked hosts, reporting
    or not, so it is held to ``managed_hostnames`` only while every
    active shard answers (an unreachable one's count is its last)."""
    summary = server.cluster_summary()
    snapshot = server.current_all()
    up = cpu_n = 0
    cpu_sum = mem_used = mem_total = temp_max = 0.0
    for hostname in snapshot:
        values = snapshot[hostname]
        up += values.get("udp_echo") == 1
        if "cpu_util_pct" in values:
            cpu_n += 1
            cpu_sum += float(values["cpu_util_pct"])
        mem_used += float(values.get("mem_used_bytes", 0))
        mem_total += float(values.get("mem_total_bytes", 0))
        temp_max = max(temp_max, float(values.get("cpu_temp_c", 0.0)))
    mean = cpu_sum / cpu_n if cpu_n else 0.0
    want = {"nodes_up": (up, 0),
            "nodes_down": (summary["nodes_total"] - up, 0),
            "cpu_util_mean_pct": (mean, 1e-9 * max(mean, 1.0)),
            "mem_used_bytes": (mem_used, 1e-9 * mem_used + 1),
            "mem_total_bytes": (mem_total, 1e-9 * mem_total + 1),
            "cpu_temp_max_c": (temp_max, 0)}
    if all(shard.channel.up for shard in getattr(server, "shards", ())
           if shard.active):
        want["nodes_total"] = (len(server.managed_hostnames), 0)
    return [f"summary {key} {summary[key]!r}, parts sum to {value!r}"
            for key, (value, slack) in want.items()
            if abs(summary[key] - value) > slack]


def empty_shards_not_stale(federation) -> List[str]:
    """A shard that owns no nodes is never reported stale: nothing
    served is stale on its account."""
    info = federation.degraded_info()
    empty = {shard.name for shard in federation.shards
             if shard.n_nodes == 0}
    return [f"{name} owns no nodes but is stale ({info})"
            for name in info["stale_shards"] if name in empty]


def ingest_counts(server, agents: Iterable) -> Dict[str, int]:
    """The update ledger off the public counters: frames ``agents``
    emitted, updates dropped past the fail-over deadline, updates for
    hosts no shard owns, and updates held for an unreachable shard
    now.  A flat server drops, strands and holds nothing."""
    shards = getattr(server, "shards", ())
    return {
        "emitted": sum(agent.transmitter.frames_sent for agent in agents),
        "dropped_ingests": sum(shard.channel.dropped_ingests
                               for shard in shards),
        "unrouted": getattr(server, "unrouted_updates", 0),
        "held": sum(len(shard.channel.held) for shard in shards),
    }


def updates_conserved(*, emitted: int, applied: int, dropped_ingests: int,
                      unrouted: int, held: int = 0) -> List[str]:
    """``applied == emitted − (dropped_ingests + unrouted)``: every agent
    update is applied once or declared dropped.  Updates ``held`` for an
    unreachable shard are the one declared window, in flight still."""
    if applied == emitted - (dropped_ingests + unrouted) - held:
        return []
    return [f"{applied} applied, {emitted} emitted, {dropped_ingests} "
            f"dropped, {unrouted} unrouted, {held} held"]


def _refuses(mutate) -> bool:
    try:
        mutate()
    except (TypeError, AttributeError):
        return True
    return False


def published_view_immutable(view) -> List[str]:
    """A gateway ``PublishedView`` refuses mutation by construction, so
    any number of serving threads share it unlocked: a read-only
    summary, a tuple of event tuples, a read-only snapshot and rows."""
    writes = {"summary": lambda: view.summary.__setitem__("x", 1)}
    for hostname in list(view.snapshot)[:1]:
        row = view.snapshot[hostname]
        writes["snapshot"] = lambda: view.snapshot.__setitem__(hostname, {})
        writes[f"row of {hostname}"] = lambda: row.__setitem__("x", 1)
    problems = [f"the {name} took a write"
                for name, write in writes.items() if not _refuses(write)]
    if not all(isinstance(row, tuple) for row in (view.events, *view.events)):
        problems.append("the events are not a tuple of tuples")
    return problems


def observables(server) -> Dict[str, object]:
    """What a client can tell a run by: the summary, the fired-event
    log and every host's row."""
    snapshot = server.current_all()
    return {
        "summary": dict(server.cluster_summary()),
        "fired": [(event.time, event.rule, event.node, event.value,
                   event.action, event.action_ok)
                  for event in server.engine.event_log()],
        "rows": {hostname: dict(snapshot[hostname])
                 for hostname in sorted(snapshot)},
    }


def _canonical(value) -> object:
    if isinstance(value, Mapping):
        return sorted((key, _canonical(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def digest(server) -> str:
    """SHA-256 over :func:`observables`: same seed, same bytes."""
    text = repr(_canonical(observables(server)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

"""The event engine (§5.2): evaluates rules against monitor updates,
drives actions, and feeds the notifier.

Per (node, rule) the engine keeps a tiny state machine::

    OK --condition met--> PENDING (hold_time running)
    PENDING --still met after hold_time--> TRIGGERED (action + notify)
    PENDING --condition gone--> OK
    TRIGGERED --cleared (with hysteresis)--> OK   (enables re-fire)

"This allows corrective action to be taken before problems become
critical (e.g. powering down a node on CPU fan failure to prevent the CPU
from burning)" — see tests/test_events for exactly that scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.events.actions import ActionDispatcher
from repro.events.notification import SmartNotifier
from repro.events.rules import ThresholdRule
from repro.hardware.node import SimulatedNode
from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["EventEngine", "FIRED_KEPT", "FiredEvent", "newest"]

#: fired events an engine keeps (the newest); ``fired.total`` counts all.
FIRED_KEPT = 10_000


@dataclass
class FiredEvent:
    time: float
    rule: str
    node: str
    value: object
    action: str
    action_ok: bool


def newest(fired: List[FiredEvent], limit: Optional[int]) -> List[FiredEvent]:
    """A log's last ``limit`` entries: none for 0, all for None."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must not be negative: {limit}")
    return fired if limit is None else fired[max(len(fired) - limit, 0):]


class _RuleState:
    __slots__ = ("triggered", "pending_since")

    def __init__(self) -> None:
        self.triggered = False
        self.pending_since: Optional[float] = None


class EventEngine:
    """Rules + per-node state + dispatch."""

    def __init__(self, kernel: SimKernel, *,
                 dispatcher: Optional[ActionDispatcher] = None,
                 notifier: Optional[SmartNotifier] = None):
        self.kernel = kernel
        self.dispatcher = dispatcher if dispatcher is not None \
            else ActionDispatcher()
        self.notifier = notifier
        self._rules: Dict[str, ThresholdRule] = {}
        #: hostname -> {rule name: state}.  All per-node memory is keyed
        #: by host first, so forgetting a node never scans other nodes.
        self._state: Dict[str, Dict[str, _RuleState]] = {}
        #: currently-triggered (rule, hostname) pairs, maintained
        #: incrementally so active_count() is O(1).
        self._active: set[Tuple[str, str]] = set()
        self.fired = RecordLog(FIRED_KEPT)
        #: fn(fired_event, rule) called after every firing — the hook
        #: the health tracker uses to treat critical events as evidence.
        self._listeners: List = []
        #: hostname -> rule names currently maturing a hold_time; these
        #: must be re-evaluated on *every* update for the host (time
        #: alone can trigger them), delta contents notwithstanding.
        self._pending: Dict[str, set[str]] = {}
        #: rule-set version, per-host sync marker: a host whose marker
        #: is stale takes one full scan (initialising state for rules
        #: added since) before filtered evaluation resumes.
        self._rules_version = 0
        self._rules_seen: Dict[str, int] = {}

    def add_listener(self, listener) -> None:
        """Register ``fn(fired: FiredEvent, rule: ThresholdRule)`` to be
        called synchronously after each rule firing."""
        self._listeners.append(listener)

    # -- rule management ----------------------------------------------------
    def add_rule(self, rule: ThresholdRule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"rule {rule.name!r} already exists")
        self._rules[rule.name] = rule
        # Invalidate every host's sync marker: the new rule must get one
        # full-scan evaluation per host against its current row before
        # filtered skipping is safe again.
        self._rules_version += 1

    def remove_rule(self, name: str) -> None:
        rule = self._rules.pop(name, None)
        for hostname, states in self._state.items():
            if states.pop(name, None) is not None:
                self._active.discard((name, hostname))
        if rule is None:
            return
        for pending in self._pending.values():
            pending.discard(name)

    def forget_node(self, hostname: str) -> None:
        """Drop all per-node rule state — the hot-remove path (a
        decommissioned node must not keep events active or a hold_time
        running)."""
        for rule_name in self._state.pop(hostname, ()):
            self._active.discard((rule_name, hostname))
        self._pending.pop(hostname, None)
        self._rules_seen.pop(hostname, None)

    @property
    def rules(self) -> List[ThresholdRule]:
        return [self._rules[n] for n in sorted(self._rules)]

    def _rule_state(self, rule_name: str,
                    hostname: str) -> Optional[_RuleState]:
        states = self._state.get(hostname)
        return states.get(rule_name) if states is not None else None

    def is_triggered(self, rule_name: str, hostname: str) -> bool:
        state = self._rule_state(rule_name, hostname)
        return bool(state and state.triggered)

    def active_events(self) -> List[Tuple[str, str]]:
        """The currently-triggered (rule, hostname) pairs, sorted."""
        return sorted(self._active)

    def active_count(self) -> int:
        """How many (rule, node) events are currently triggered; O(1)."""
        return len(self._active)

    # -- evaluation ---------------------------------------------------------
    def _candidates(self, hostname: str, values: Mapping[str, object]):
        """The rules one update can possibly affect, in insertion order.

        An update touches a rule iff (a) the rule's metric is in the
        delta, or (b) the rule is maturing a hold_time for this host (the
        clock alone can trigger it).  Everything else is provably a
        no-op: an OK rule re-evaluates an unchanged value to the same
        verdict, and a TRIGGERED rule cannot clear on a value that did
        not clear it last time.  Invalidation: ``add_rule`` bumps
        the rule-set version, forcing one full scan per host (which
        initialises the new rule against the host's row);
        ``remove_rule`` needs no invalidation because skipping a deleted
        rule is always correct.
        """
        if self._rules_seen.get(hostname) != self._rules_version:
            self._rules_seen[hostname] = self._rules_version
            return self._rules.values()
        pending = self._pending.get(hostname)
        return [rule for rule in self._rules.values()
                if rule.metric in values
                or (pending and rule.name in pending)]

    def feed(self, node: SimulatedNode, values: Mapping[str, object],
             row: Mapping[str, object]) -> List[FiredEvent]:
        """Evaluate the rules one node's update can affect.

        ``values`` is the delta: it picks the candidate rules.  ``row``
        is the node's merged current values after that delta — the
        store's immutable row — and is what every candidate reads.  The
        consolidation stage only ships changes, so a metric absent from
        the delta is "same as before", and the row holds that value:
        hold-time rules mature while a breached value sits constant.
        """
        now = self.kernel.now
        hostname = node.hostname
        states = self._state.get(hostname)
        fired: List[FiredEvent] = []
        missing = object()
        for rule in self._candidates(hostname, values):
            if not rule.applies_to(hostname):
                continue
            value = row.get(rule.metric, missing)
            if value is missing:
                continue
            if states is None:
                states = self._state[hostname] = {}
            state = states.get(rule.name)
            if state is None:
                state = states[rule.name] = _RuleState()

            if not state.triggered:
                if rule.breached(value):
                    if state.pending_since is None:
                        state.pending_since = now
                        self._pending.setdefault(hostname,
                                                 set()).add(rule.name)
                    if now - state.pending_since >= rule.hold_time:
                        state.triggered = True
                        state.pending_since = None
                        self._pending[hostname].discard(rule.name)
                        self._active.add((rule.name, hostname))
                        fired.append(self._fire(rule, node, value))
                else:
                    if state.pending_since is not None:
                        state.pending_since = None
                        self._pending[hostname].discard(rule.name)
            else:
                if rule.cleared(value):
                    state.triggered = False
                    self._active.discard((rule.name, hostname))
                    if self.notifier is not None:
                        self.notifier.event_cleared(rule.name,
                                                    hostname)
        if fired:
            self.fired.extend(fired)
        for event in fired:
            rule = self._rules.get(event.rule)
            for listener in list(self._listeners):
                listener(event, rule)
        return fired

    def _fire(self, rule: ThresholdRule, node: SimulatedNode,
              value: object) -> FiredEvent:
        record = self.dispatcher.execute(rule.action, node, self.kernel.now)
        if self.notifier is not None and rule.notify:
            self.notifier.event_triggered(rule.name, node.hostname,
                                          rule.action, rule.severity)
        return FiredEvent(time=self.kernel.now, rule=rule.name,
                          node=node.hostname, value=value,
                          action=rule.action, action_ok=record.ok)

    # -- event log --------------------------------------------------------
    def event_log(self, *, since: float = 0.0,
                  rule: Optional[str] = None,
                  node: Optional[str] = None,
                  limit: Optional[int] = None) -> List[FiredEvent]:
        """Query the fired-event history (newest last).  The walk
        starts at the newest event and stops at ``limit`` matches or
        at the first event before ``since`` (events are logged in time
        order), so it costs what the limit asks, not what the log
        holds."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must not be negative: {limit}")
        picked: List[FiredEvent] = []
        for event in reversed(self.fired):
            if len(picked) == limit or event.time < since:
                break
            if (rule is None or event.rule == rule) \
                    and (node is None or event.node == node):
                picked.append(event)
        picked.reverse()
        return picked

    # -- manual administration -------------------------------------------------
    def mark_fixed(self, rule_name: str, hostname: str) -> None:
        """An administrator fixed the node out-of-band: clear the trigger
        so the event can re-fire (§5.2's re-fire semantics)."""
        state = self._rule_state(rule_name, hostname)
        if state is not None:
            state.triggered = False
            state.pending_since = None
        pending = self._pending.get(hostname)
        if pending is not None:
            pending.discard(rule_name)
        # Force one full scan on the node's next update: re-fire must
        # re-evaluate the (possibly still breached, unchanged) value the
        # filter would otherwise skip.
        self._rules_seen.pop(hostname, None)
        self._active.discard((rule_name, hostname))
        if self.notifier is not None:
            self.notifier.event_cleared(rule_name, hostname)

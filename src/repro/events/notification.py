"""Smart notification (§5.2).

The paper's algorithm, verbatim requirements:

* "Using a smart notification algorithm, ClusterWorX notifies
  administrators of problems without swamping them with unnecessary
  e-mails."
* The email names the cluster, the triggered event, the node(s) involved,
  and the action taken.
* "Only one e-mail is sent per triggered event, even if multiple nodes are
  involved."  — nodes triggering the same event within an aggregation
  window ride along on one email.
* "If a node is fixed by an administrator but fails again later, the event
  re-fires automatically, without administrative intervention."
* "E-mail can be directed to most wireless devices such as pagers and cell
  phones." — gateways with device-appropriate truncation.

:class:`NaiveNotifier` is the E8 baseline: one email per node per trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["EmailMessage", "EmailGateway", "PagerGateway",
           "SmartNotifier", "NaiveNotifier"]

#: deliveries an inbox keeps (the newest).
INBOX_KEPT = 50_000


@dataclass
class EmailMessage:
    time: float
    cluster: str
    event: str
    nodes: List[str]
    action: str
    severity: str
    body: str = ""


class EmailGateway:
    """Records deliveries (the SMTP hop is out of scope; see DESIGN.md)."""

    def __init__(self, address: str = "admin@cluster"):
        self.address = address
        self.inbox = RecordLog(INBOX_KEPT)

    def deliver(self, message: EmailMessage) -> None:
        self.inbox.append(message)


class PagerGateway(EmailGateway):
    """A wireless device: truncates to a pager-sized text."""

    MAX_CHARS = 160

    def deliver(self, message: EmailMessage) -> None:
        short = (f"{message.cluster}/{message.event}: "
                 f"{len(message.nodes)} node(s) "
                 f"[{','.join(message.nodes[:3])}"
                 f"{'...' if len(message.nodes) > 3 else ''}] "
                 f"action={message.action}")
        message = EmailMessage(
            time=message.time, cluster=message.cluster, event=message.event,
            nodes=message.nodes, action=message.action,
            severity=message.severity, body=short[: self.MAX_CHARS])
        self.inbox.append(message)


class SmartNotifier:
    """Deduplicating, re-fire-aware notification."""

    def __init__(self, kernel: SimKernel, cluster: str, *,
                 gateways: Optional[List[EmailGateway]] = None,
                 routes: Optional[Dict[str, List[EmailGateway]]] = None,
                 aggregation_window: float = 30.0):
        """``routes`` optionally maps severity -> gateway list (e.g.
        critical pages the on-call phone, warnings only email); severities
        without a route fall back to ``gateways``."""
        self.kernel = kernel
        self.cluster = cluster
        self.gateways = gateways if gateways is not None else [EmailGateway()]
        self.routes = routes if routes is not None else {}
        self.aggregation_window = aggregation_window
        #: nodes whose (event) notification is still "open" — no repeat
        #: email until the node clears.
        self._notified: Dict[str, Set[str]] = {}
        #: batches being aggregated: event -> list of (node, action).
        self._pending: Dict[str, List[tuple[str, str]]] = {}
        self.emails_sent = 0
        self.suppressed = 0

    # -- engine-facing -----------------------------------------------------
    def event_triggered(self, event: str, node: str, action: str,
                        severity: str) -> None:
        """A rule fired for a node."""
        open_nodes = self._notified.setdefault(event, set())
        if node in open_nodes:
            # Still failing and already reported: suppress.
            self.suppressed += 1
            return
        open_nodes.add(node)
        batch = self._pending.get(event)
        if batch is not None:
            # An aggregation window is open: ride along, no extra email.
            batch.append((node, action))
            self.suppressed += 1
            return
        self._pending[event] = [(node, action)]
        self.kernel.process(self._flush_later(event, severity),
                            name=f"notify:{event}")

    def event_cleared(self, event: str, node: str) -> None:
        """The node's condition returned to normal (fixed).

        Removing it from the open set is what makes the event *re-fire
        automatically* if the node fails again later.
        """
        self._notified.get(event, set()).discard(node)

    # -- delivery ---------------------------------------------------------------
    def _flush_later(self, event: str, severity: str):
        yield self.kernel.timeout(self.aggregation_window)
        batch = self._pending.pop(event, [])
        if not batch:
            return
        nodes = [node for node, _ in batch]
        actions = sorted({action for _, action in batch})
        message = EmailMessage(
            time=self.kernel.now, cluster=self.cluster, event=event,
            nodes=nodes, action=",".join(actions) or "none",
            severity=severity,
            body=(f"Cluster {self.cluster}: event '{event}' triggered on "
                  f"{len(nodes)} node(s): {', '.join(nodes)}. "
                  f"Action taken: {','.join(actions) or 'none'}."))
        for gateway in self.routes.get(severity, self.gateways):
            gateway.deliver(message)
        self.emails_sent += 1


class NaiveNotifier:
    """The baseline §5.2 exists to avoid: one email per node per trigger,
    re-sent every evaluation while the condition persists."""

    def __init__(self, kernel: SimKernel, cluster: str, *,
                 gateways: Optional[List[EmailGateway]] = None):
        self.kernel = kernel
        self.cluster = cluster
        self.gateways = gateways if gateways is not None else [EmailGateway()]
        self.emails_sent = 0

    def event_triggered(self, event: str, node: str, action: str,
                        severity: str) -> None:
        message = EmailMessage(
            time=self.kernel.now, cluster=self.cluster, event=event,
            nodes=[node], action=action, severity=severity,
            body=f"event '{event}' on {node}")
        for gateway in self.gateways:
            gateway.deliver(message)
        self.emails_sent += 1

    def event_cleared(self, event: str, node: str) -> None:
        pass

    def still_failing(self, event: str, node: str, action: str,
                      severity: str) -> None:
        """Naive systems nag on every evaluation."""
        self.event_triggered(event, node, action, severity)

"""Event actions (§5.2): "Default actions include node power down and node
reboot" — plus halt, and administrator plug-ins ("shell scripts, perl
scripts, symbolic links, programs, and more").

Power actions go through the ICE Box that feeds the node (resolved by a
caller-supplied resolver), because a crashed or overheating node cannot be
asked nicely — which is the whole point of the design.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.hardware.node import SimulatedNode
from repro.icebox.box import IceBox
from repro.util.recordlog import RecordLog

__all__ = ["ActionContext", "ActionDispatcher", "ActionRecord",
           "RemoteCommandAction"]

#: action records a dispatcher keeps (the newest).
RECORDS_KEPT = 10_000
#: dispatched runs a remote-command action keeps (the newest).
RUNS_KEPT = 1_000

#: resolver: node -> (icebox, port) or None when unmanaged.
Resolver = Callable[[SimulatedNode], Optional[Tuple[IceBox, int]]]


@dataclass
class ActionRecord:
    time: float
    node: str
    action: str
    ok: bool
    detail: str = ""


@dataclass
class ActionContext:
    """What a context-aware plug-in action gets to see of the stack.

    ``cluster`` is the :class:`repro.core.cluster.Cluster` (topology,
    groups), ``remote`` the :class:`repro.remote.engine.TaskEngine` for
    fan-out runs, ``resolver`` a
    :class:`repro.remote.nodeset.GroupResolver` for ``@group`` patterns.
    All optional: plug-ins must tolerate missing handles.
    """

    cluster: Optional[object] = None
    remote: Optional[object] = None
    resolver: Optional[object] = None


def _wants_context(fn: Callable) -> bool:
    """True when a plug-in accepts a second (context) argument.

    Legacy single-argument plug-ins keep working: they are called with
    the node only.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    positional = 0
    for param in sig.parameters.values():
        if param.kind in (param.POSITIONAL_ONLY,
                          param.POSITIONAL_OR_KEYWORD):
            positional += 1
        elif param.kind is param.VAR_POSITIONAL:
            return True
    return positional >= 2


class ActionDispatcher:
    """Executes named actions against nodes."""

    def __init__(self, resolver: Optional[Resolver] = None,
                 context: Optional[ActionContext] = None):
        self.resolver = resolver
        self.context = context
        self.records = RecordLog(RECORDS_KEPT)
        self._custom: Dict[str, Tuple[Callable, bool]] = {}

    # -- plug-in actions -----------------------------------------------------
    def register(self, name: str, fn: Callable) -> None:
        """Register a plug-in action.

        ``fn`` is called as ``fn(node)`` or — if its signature takes two
        positional arguments — ``fn(node, context)``, where context is
        this dispatcher's :class:`ActionContext` (possibly None).
        """
        if name in ("power_down", "reboot", "halt", "none"):
            raise ValueError(f"cannot shadow builtin action {name!r}")
        self._custom[name] = (fn, _wants_context(fn))

    @property
    def action_names(self) -> List[str]:
        return sorted(["power_down", "reboot", "halt", "none"]
                      + list(self._custom))

    # -- execution -------------------------------------------------------------
    def execute(self, name: str, node: SimulatedNode, t: float
                ) -> ActionRecord:
        ok, detail = True, ""
        try:
            if name == "none":
                pass
            elif name == "power_down":
                ok, detail = self._power_down(node)
            elif name == "reboot":
                ok, detail = self._reboot(node)
            elif name == "halt":
                node.halt()
                detail = "halted"
            elif name in self._custom:
                fn, wants_context = self._custom[name]
                result = fn(node, self.context) if wants_context \
                    else fn(node)
                detail = f"custom: {result!r}"
            else:
                ok, detail = False, f"unknown action {name!r}"
        except Exception as exc:
            ok, detail = False, f"action raised: {exc}"
        record = ActionRecord(time=t, node=node.hostname, action=name,
                              ok=ok, detail=detail)
        self.records.append(record)
        return record

    def _locate(self, node: SimulatedNode
                ) -> Optional[Tuple[IceBox, int]]:
        if self.resolver is None:
            return None
        return self.resolver(node)

    def _power_down(self, node: SimulatedNode) -> Tuple[bool, str]:
        located = self._locate(node)
        if located is None:
            # Last resort: ask the OS (works only if it is alive).
            if node.is_running():
                node.halt()
                node.power_off()
                return True, "soft power-off (no ICE Box)"
            return False, "no ICE Box path and node unresponsive"
        box, port = located
        box.power.power_off(port)
        return True, f"outlet off via {box.name} port {port}"

    def _reboot(self, node: SimulatedNode) -> Tuple[bool, str]:
        located = self._locate(node)
        if located is None:
            if node.is_running():
                node.reset()
                return True, "soft reboot (no ICE Box)"
            return False, "no ICE Box path and node unresponsive"
        box, port = located
        if not box.reset_line(port).assert_reset():
            return False, "node has no power"
        return True, f"hardware reset via {box.name} port {port}"


class RemoteCommandAction:
    """Plug-in action that fans a command out over a whole NodeSet.

    The paper's §5.2 "custom plug-in" hook, scaled up: instead of acting
    on the one node that breached the threshold, the action resolves a
    target pattern — ``{node}`` expands to the triggering hostname and
    ``{rack}`` to its rack group, so ``"@{rack}"`` reboots the entire
    rack through the ICE Box power path in one engine run::

        dispatcher.register(
            "reboot_rack", RemoteCommandAction("reboot", "@{rack}"))

    The fan-out run is *scheduled*, not awaited — the action fires inside
    the event loop, so the sweep proceeds as simulated time advances.
    Finished runs are kept on :attr:`runs` for inspection.
    """

    def __init__(self, command: str, targets: str = "@all", *,
                 engine=None, fanout: Optional[int] = None,
                 failure_policy: Optional[str] = None):
        self.command = command
        self.targets = targets
        self.engine = engine
        self.fanout = fanout
        self.failure_policy = failure_policy
        self.runs = RecordLog(RUNS_KEPT)

    def _rack_group(self, node: SimulatedNode,
                    context: Optional[ActionContext]) -> str:
        cluster = context.cluster if context is not None else None
        if cluster is not None and hasattr(cluster, "rack_name"):
            rack = cluster.rack_name(node.hostname)
            if rack is not None:
                return rack
        return node.hostname  # degenerate rack: the node itself

    def __call__(self, node: SimulatedNode,
                 context: Optional[ActionContext] = None) -> str:
        from repro.remote.nodeset import NodeSet

        engine = self.engine
        if engine is None and context is not None:
            engine = context.remote
        if engine is None:
            raise RuntimeError(
                "RemoteCommandAction needs a TaskEngine (pass engine= or "
                "dispatch with an ActionContext)")
        pattern = self.targets.format(
            node=node.hostname, rack=self._rack_group(node, context))
        resolver = context.resolver if context is not None else None
        if resolver is None:
            resolver = engine.resolver()
        nodes = NodeSet(pattern, resolver=resolver)
        options: Dict[str, object] = {}
        if self.fanout is not None:
            options["fanout"] = self.fanout
        if self.failure_policy is not None:
            options["failure_policy"] = self.failure_policy
        task = engine.run(self.command, nodes, **options)
        self.runs.append(task)
        return (f"{self.command!r} -> {nodes.fold()} "
                f"({len(nodes)} nodes) dispatched")

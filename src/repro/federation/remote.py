"""Federated fan-out: route one logical run to the owning shards.

The flat :class:`~repro.remote.engine.TaskEngine` drives every target
from one window.  Under federation each shard runs its *own* engine
over its *own* nodes, so a cluster-wide command becomes one sub-run per
owning shard — each with its own fanout window — and the
:class:`FederatedRun` presents the merged result with the flat
:class:`~repro.remote.engine.TaskRun` surface (``done``, ``results``,
``ok``, ``counts``, ``gather``/``report``), so callers — the facade's
``remote_run``, event actions, recovery probes — never see the split.

Dispatch goes through each shard's
:class:`~repro.federation.channel.ShardChannel`: a shard that is
unreachable *at dispatch time* contributes an :class:`UnreachableRun`
stub (every target reported ``unreachable``, done already fired) and
its name lands in ``FederatedRun.unreachable_shards`` — partial results
tagged, never an exception.  A shard that dies *mid-run* is handled by
the fail-over path: :meth:`FederatedRemote.abort_shard_runs` cuts its
in-flight sub-runs short, and after the drain has re-owned the nodes
:meth:`FederatedRemote.redispatch` re-routes the unfinished targets
onto the adopting shards, re-arming every affected run's ``done``.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.federation.shard import Shard, _first_active, _group_by_owner
from repro.federation.views import _View, _concat, _each_attr
from repro.remote.engine import TaskEngine, TaskRun
from repro.remote.gather import GatheredGroup, format_gathered, gather
from repro.remote.nodeset import NodeSet
from repro.remote.worker import WorkerResult
from repro.sim import SimKernel

__all__ = ["FederatedRun", "FederatedRemote", "UnreachableRun"]


class UnreachableRun:
    """A TaskRun-shaped stub for a shard that was down at dispatch.

    Every target is immediately reported with status ``unreachable``
    (rc 1), ``done`` is already fired, and the run is complete-but-not-
    ok — exactly what a real engine would produce if every connection
    attempt failed instantly.  Keeping the TaskRun surface means the
    merge logic in :class:`FederatedRun` needs no special case.
    """

    def __init__(self, kernel: SimKernel, nodes: NodeSet,
                 shard_name: str):
        now = kernel.now
        self.nodes = nodes
        self.results: Dict[str, WorkerResult] = {
            hostname: WorkerResult(
                hostname, "unreachable", 1,
                f"shard {shard_name} unreachable", attempts=0,
                started_at=now, finished_at=now)
            for hostname in nodes}
        self.started_at = now
        self.finished_at = now
        self.done = kernel.event()
        self.done.succeed(None)

    @property
    def complete(self) -> bool:
        return True

    @property
    def ok(self) -> bool:
        return len(self.nodes) == 0

    @property
    def makespan(self) -> float:
        return 0.0

    @property
    def total_attempts(self) -> int:
        return 0

    @property
    def pending_nodes(self) -> NodeSet:
        return NodeSet()

    def abort(self, reason: str = "run aborted") -> NodeSet:
        return NodeSet()

    def counts(self) -> Dict[str, int]:
        return {"unreachable": len(self.nodes)} if self.nodes else {}

    def nodes_with_status(self, *statuses: str) -> NodeSet:
        if "unreachable" in statuses:
            return self.nodes
        return NodeSet()

    def gather(self) -> List[GatheredGroup]:
        return gather(self.results.values())

    def report(self) -> str:
        return format_gathered(self.gather())


class FederatedRun:
    """One logical command execution, split over per-shard TaskRuns.

    The sub-run set is *mutable*: when a shard dies mid-run, fail-over
    aborts its sub-run and :meth:`_adopt` grafts replacement runs (on
    the adopting shards) into this same logical run — ``done`` re-arms
    to include them, and the merged ``results`` let the re-dispatched
    outcomes override the aborted entries, because later runs merge
    after earlier ones.
    """

    def __init__(self, kernel: SimKernel, runs: Sequence[TaskRun], *,
                 command=None, options: Optional[Dict] = None,
                 indices: Optional[Sequence[int]] = None):
        self.kernel = kernel
        #: the per-shard sub-runs, in dispatch order (replacements from
        #: a fail-over append after the originals).
        self.runs = list(runs)
        #: what was asked for — kept so a fail-over can re-dispatch.
        self.command = command
        self.options: Dict = dict(options) if options else {}
        #: shard index -> sub-runs dispatched to that shard.
        self.by_shard: Dict[int, List] = {}
        if indices is not None:
            for index, run in zip(indices, self.runs):
                self.by_shard.setdefault(index, []).append(run)
        #: shard names that were unreachable at (re-)dispatch time.
        self.unreachable_shards: List[str] = []
        #: how many times fail-over re-routed part of this run.
        self.reroutes = 0
        self.done = kernel.all_of([run.done for run in self.runs])

    def _adopt(self, index: int, run) -> None:
        """Graft a replacement sub-run (fail-over re-dispatch) into
        this logical run and re-arm ``done`` to cover it."""
        self.runs.append(run)
        self.by_shard.setdefault(index, []).append(run)
        self.done = self.kernel.all_of([self.done, run.done])

    # -- merged views -----------------------------------------------------
    @property
    def results(self) -> Dict[str, WorkerResult]:
        merged: Dict[str, WorkerResult] = {}
        for run in self.runs:
            merged.update(run.results)
        return merged

    @property
    def nodes(self) -> NodeSet:
        out = NodeSet()
        for run in self.runs:
            out = out | run.nodes
        return out

    @property
    def complete(self) -> bool:
        return all(run.complete for run in self.runs)

    @property
    def ok(self) -> bool:
        """Merged-results verdict: every target's *final* result ok.

        Judged over the merged map, not per sub-run, so a node whose
        first attempt died with its shard (``aborted``) but whose
        re-dispatched run succeeded counts as ok.
        """
        if not self.runs or not self.complete:
            return False
        merged = self.results
        return len(merged) == len(self.nodes) \
            and all(r.ok for r in merged.values())

    @property
    def makespan(self) -> float:
        return max((run.makespan for run in self.runs), default=0.0)

    @property
    def total_attempts(self) -> int:
        return sum(run.total_attempts for run in self.runs)

    def counts(self) -> Dict[str, int]:
        """Status histogram over the merged (final) results."""
        merged: Dict[str, int] = {}
        for result in self.results.values():
            merged[result.status] = merged.get(result.status, 0) + 1
        return merged

    def nodes_with_status(self, *statuses: str) -> NodeSet:
        return NodeSet([r.node for r in self.results.values()
                        if r.status in statuses])

    def gather(self) -> List[GatheredGroup]:
        return gather(self.results.values())

    def report(self) -> str:
        return format_gathered(self.gather())


class FederatedRemote(_View, organ="remote"):
    """The ``server.remote`` surface: NodeSet-routed fan-out."""

    def __init__(self, kernel: SimKernel, shards: Sequence[Shard],
                 owner_of):
        super().__init__(shards, owner_of)
        self.kernel = kernel
        #: every logical run ever dispatched — the fail-over path scans
        #: these for in-flight work on a dead shard.
        self.federated_runs: List[FederatedRun] = []

    def nodeset(self, nodes: Union[str, NodeSet, Iterable[str]]
                ) -> NodeSet:
        """Parse with the cluster's @group resolver (any shard's
        engine resolves identically — they share the cluster)."""
        parsed = self._from_any("nodeset", methodcaller("nodeset", nodes),
                                None)
        if parsed is not None:
            return parsed
        # No shard reachable: parse without @group expansion.
        return nodes if isinstance(nodes, NodeSet) else NodeSet(nodes)

    def split_by_owner(self, nodes: Union[str, NodeSet, Iterable[str]]
                       ) -> Dict[int, NodeSet]:
        """Shard index -> the slice of ``nodes`` that shard owns.

        Hosts no shard owns route to the first active shard (its
        engine reports them unreachable, exactly as the flat engine
        does for unknown names).
        """
        return {shard.index: NodeSet(names)
                for shard, names in _group_by_owner(
                    self.nodeset(nodes), self._owner_of, self._shards)}

    def _dispatch(self, task: FederatedRun, index: int,
                  share: NodeSet) -> None:
        """Start one sub-run on shard ``index`` through its channel;
        an unreachable shard yields an UnreachableRun stub instead."""
        shard = self._shards[index]
        sub = self._ask(shard, "run", methodcaller(
            "run", task.command, share, **task.options), None)
        if sub is None:
            sub = UnreachableRun(self.kernel, share, shard.name)
            task.unreachable_shards.append(shard.name)
        task._adopt(index, sub)

    def run(self, command, nodes: Union[str, NodeSet, Iterable[str]],
            **options) -> FederatedRun:
        """Schedule one sub-run per owning shard; returns immediately.

        ``options`` (fanout/timeout/retries/backoff/jitter/
        failure_policy) pass through to every sub-run — note fanout is
        then *per shard*, which is the point: N shards drive N windows
        in parallel instead of one global window.
        """
        split = self.split_by_owner(nodes)
        task = FederatedRun(self.kernel, [], command=command,
                            options=options)
        if not split:
            # Empty target set: one empty run keeps the TaskRun
            # surface (done fires immediately, results == {}).
            self._dispatch(task, _first_active(self._shards).index,
                           NodeSet())
        else:
            for index, share in split.items():
                self._dispatch(task, index, share)
        self.federated_runs.append(task)
        return task

    def run_sync(self, command,
                 nodes: Union[str, NodeSet, Iterable[str]],
                 **options) -> FederatedRun:
        """Schedule and drive the kernel until every sub-run finishes.

        Loops on ``task.done`` rather than waiting once: a mid-run
        fail-over re-arms ``done`` to cover the re-dispatched sub-runs,
        and the loop keeps driving until the logical run — including
        every graft — is complete.
        """
        task = self.run(command, nodes, **options)
        while not task.complete:
            self.kernel.run(task.done)
        return task

    # -- fail-over hooks ----------------------------------------------------
    def abort_shard_runs(self, index: int
                         ) -> List[Tuple[FederatedRun, NodeSet]]:
        """Cut short every in-flight sub-run on shard ``index``.

        Called by :meth:`FederationServer.fail_over` *before* the
        drain: each live worker on the dead shard records an
        ``aborted`` result.  Returns ``[(run, pending nodes)]`` so the
        caller can :meth:`redispatch` the unfinished targets once the
        drain has re-owned them.
        """
        out: List[Tuple[FederatedRun, NodeSet]] = []
        for task in self.federated_runs:
            pending = NodeSet()
            for sub in task.by_shard.get(index, ()):
                if not sub.complete:
                    pending = pending | sub.abort("shard failed over")
            if pending:
                task.reroutes += 1
                out.append((task, pending))
        return out

    def redispatch(self, task: FederatedRun, nodes: NodeSet) -> None:
        """Re-route aborted targets onto their post-drain owners.

        The ownership split is recomputed, so the grafted sub-runs land
        on the shards that adopted the nodes; their results override
        the ``aborted`` entries in the merged view.
        """
        if not nodes:
            return
        for index, share in self.split_by_owner(nodes).items():
            self._dispatch(task, index, share)

    #: every sub-run ever scheduled, across all shard engines.
    runs = _each_attr("runs", _concat)

    @property
    def fanout(self) -> int:
        """Per-shard window size (the flat engine default)."""
        return self._from_any("fanout", attrgetter("fanout"),
                              TaskEngine.DEFAULT_FANOUT)

"""TaskEngine: event-driven parallel fan-out over a NodeSet.

The engine is the ``clush``/pdsh analogue on the simulation kernel: one
:class:`TaskRun` spawns a worker process per target node, but only
``fanout`` of them hold a window slot at any instant (default 64 — the
sweet spot ClusterShell ships with).  Workers apply per-node timeouts and
retry-with-backoff; a run can ``continue`` past failures (default) or
``abort`` the remaining nodes on first permanent failure.

Runs are asynchronous by design: ``run()`` only schedules processes, so a
threshold event firing *inside* the event loop can launch a cluster-wide
sweep without re-entering the kernel.  Use ``run_sync()`` (or
``kernel.run(task.done)``) to drive a run to completion.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Union

from repro.remote.commands import SimCommandTarget
from repro.remote.gather import GatheredGroup, format_gathered, gather
from repro.remote.nodeset import GroupResolver, NodeSet
from repro.remote.worker import WorkerResult, node_worker
from repro.sim import Resource, SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["TaskEngine", "TaskRun"]

#: runs an engine keeps (the newest).
RUNS_KEPT = 1_000

#: a command: a target string, or a callable fn(node) -> rc | (rc, output)
#: | str | generator
Command = Union[str, Callable]


def _normalize_outcome(value: object):
    if isinstance(value, tuple):
        rc, output = value
        return int(rc), str(output)
    if value is None:
        return 0, ""
    if isinstance(value, bool):
        return (0, "ok") if value else (1, "failed")
    if isinstance(value, int):
        return value, ""
    return 0, str(value)


class TaskRun:
    """One fan-out execution of a command over a NodeSet."""

    def __init__(self, engine: "TaskEngine", command: Command,
                 nodes: NodeSet, *, fanout: int, timeout: Optional[float],
                 retries: int, backoff: float, jitter: float,
                 failure_policy: str):
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        if failure_policy not in ("continue", "abort"):
            raise ValueError(f"unknown failure policy {failure_policy!r}")
        self.engine = engine
        self.command = command
        self.nodes = nodes
        self.fanout = fanout
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.jitter = jitter
        self.failure_policy = failure_policy

        kernel = engine.kernel
        self.window = Resource(kernel, capacity=fanout)
        self.results: Dict[str, WorkerResult] = {}
        self.abort_flag = False
        self.in_flight = 0
        self.max_in_flight = 0
        self.started_at = kernel.now
        self.finished_at: Optional[float] = None
        self._procs = {
            hostname: kernel.process(node_worker(self, hostname),
                                     name=f"worker:{hostname}")
            for hostname in nodes}
        self.done = kernel.all_of(self._procs.values())
        self.done.callbacks.append(self._finish)

    # -- command plumbing ------------------------------------------------
    def command_generator(self, hostname: str
                          ) -> Generator[object, object, tuple]:
        """Build the generator for one attempt on one node."""
        command = self.command
        if isinstance(command, str):
            return self.engine.target.invoke(command, hostname)
        return self._invoke_callable(command, hostname)

    def _invoke_callable(self, fn: Callable, hostname: str
                         ) -> Generator[object, object, tuple]:
        cluster = self.engine.cluster
        node = cluster.node(hostname) if cluster is not None else hostname
        value = fn(node)
        if hasattr(value, "throw"):  # generator command: drive it
            value = yield from value
        return _normalize_outcome(value)

    # -- bookkeeping -----------------------------------------------------
    def worker_done(self, result: WorkerResult) -> None:
        """Worker completion callback (the per-node worker process
        reports its final :class:`WorkerResult` here)."""
        self.results[result.node] = result
        if (self.failure_policy == "abort" and not result.ok
                and result.status != "aborted" and not self.abort_flag):
            self.abort_flag = True
            for hostname, proc in self._procs.items():
                if hostname != result.node and proc.is_alive \
                        and proc.is_started:
                    proc.interrupt("run aborted")

    def _finish(self, _event) -> None:
        self.finished_at = self.engine.kernel.now

    # -- views -----------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.finished_at is not None

    @property
    def makespan(self) -> float:
        end = self.finished_at if self.finished_at is not None \
            else self.engine.kernel.now
        return end - self.started_at

    @property
    def ok(self) -> bool:
        return (self.complete and len(self.results) == len(self.nodes)
                and all(r.ok for r in self.results.values()))

    @property
    def total_attempts(self) -> int:
        return sum(r.attempts for r in self.results.values())

    def nodes_with_status(self, *statuses: str) -> NodeSet:
        return NodeSet([r.node for r in self.results.values()
                        if r.status in statuses])

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for result in self.results.values():
            out[result.status] = out.get(result.status, 0) + 1
        return out

    def gather(self) -> List[GatheredGroup]:
        """Results merged by identical output, keyed by folded NodeSet."""
        return gather(self.results.values())

    def report(self) -> str:
        """The ``clush -b`` / ``clubak`` view of the run."""
        return format_gathered(self.gather())


class TaskEngine:
    """Schedules parallel command runs on the simulation kernel."""

    DEFAULT_FANOUT = 64
    #: per-node deadline (s), retry backoff (s) and its max fractional
    #: spread, for a run that does not pass its own; jitter draws come
    #: from the engine rng so identical seeds give identical schedules.
    command_timeout = 120.0
    retry_backoff = 1.0
    retry_jitter = 0.25

    def __init__(self, kernel: SimKernel, *, cluster=None,
                 target: Optional[SimCommandTarget] = None,
                 fanout: int = DEFAULT_FANOUT, retries: int = 0,
                 failure_policy: str = "continue", rng=None):
        self.kernel = kernel
        self.cluster = cluster
        self.rng = rng
        self.target = target if target is not None else SimCommandTarget(
            kernel, cluster, rng=rng)
        self.fanout = fanout
        self.retries = retries
        self.failure_policy = failure_policy
        self.runs = RecordLog(RUNS_KEPT)

    # -- nodeset helpers -------------------------------------------------
    def resolver(self) -> Optional[GroupResolver]:
        if self.cluster is not None \
                and hasattr(self.cluster, "group_resolver"):
            return self.cluster.group_resolver()
        return None

    def nodeset(self, nodes: Union[str, NodeSet, Iterable[str]]) -> NodeSet:
        if isinstance(nodes, NodeSet):
            return nodes
        if isinstance(nodes, str):
            return NodeSet(nodes, resolver=self.resolver())
        return NodeSet(nodes)

    # -- execution -------------------------------------------------------
    def run(self, command: Command,
            nodes: Union[str, NodeSet, Iterable[str]], *,
            fanout: Optional[int] = None,
            timeout: Optional[float] = -1,
            retries: Optional[int] = None,
            backoff: Optional[float] = None,
            jitter: Optional[float] = None,
            failure_policy: Optional[str] = None) -> TaskRun:
        """Schedule ``command`` against every node; returns immediately.

        ``timeout=-1`` (the default sentinel) means "use the engine
        default"; pass ``None`` explicitly for no per-node timeout.
        """
        task = TaskRun(
            self, command, self.nodeset(nodes),
            fanout=fanout if fanout is not None else self.fanout,
            timeout=self.command_timeout if timeout == -1 else timeout,
            retries=retries if retries is not None else self.retries,
            backoff=backoff if backoff is not None else self.retry_backoff,
            jitter=jitter if jitter is not None else self.retry_jitter,
            failure_policy=failure_policy if failure_policy is not None
            else self.failure_policy)
        self.runs.append(task)
        return task

    def run_sync(self, command: Command,
                 nodes: Union[str, NodeSet, Iterable[str]],
                 **options) -> TaskRun:
        """Schedule a run and drive the kernel until it completes."""
        task = self.run(command, nodes, **options)
        self.kernel.run(task.done)
        return task

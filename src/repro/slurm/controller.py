"""slurmctld — the SLURM-lite controller (§6).

Implements the three key functions the paper lists (allocation, job
launch/monitoring, queue arbitration), the pluggable external-scheduler
API, and the fault tolerance headline: "SLURM is highly tolerant of system
failures **including failure of the node executing its control
functions**" — a backup controller adopts the primary's replicated state
when the primary's host dies (see :class:`FailoverPair`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.hardware.node import SimulatedNode
from repro.sim import SimKernel
from repro.slurm.daemon import Slurmd
from repro.slurm.job import Job, JobState
from repro.slurm.partition import Partition
from repro.slurm.scheduler import BackfillScheduler, Scheduler
from repro.util.recordlog import RecordLog

__all__ = ["NodeAllocState", "SlurmController", "FailoverPair"]

#: finished jobs a controller keeps (the newest); :meth:`stats` reads
#: them.
HISTORY_KEPT = 10_000


class NodeAllocState:
    IDLE = "idle"
    ALLOCATED = "allocated"
    MIXED = "mixed"          # hosting shared (non-exclusive) jobs
    DOWN = "down"
    DRAINED = "drained"


@dataclass
class _NodeInfo:
    daemon: Slurmd
    drained: bool = False
    drain_reason: Optional[str] = None
    jobs: Set[int] = field(default_factory=set)
    shared_cpu: float = 0.0
    exclusive: bool = False

    def state(self) -> str:
        if not self.daemon.responsive:
            return NodeAllocState.DOWN
        if self.drained:
            return NodeAllocState.DRAINED
        if self.exclusive:
            return NodeAllocState.ALLOCATED
        if self.jobs:
            return NodeAllocState.MIXED
        return NodeAllocState.IDLE


class SlurmController:
    """Queue, allocations, and scheduling passes."""

    def __init__(self, kernel: SimKernel, *,
                 scheduler: Optional[Scheduler] = None,
                 host: Optional[SimulatedNode] = None,
                 name: str = "slurmctld"):
        self.kernel = kernel
        self.name = name
        self.host = host
        self.scheduler = scheduler if scheduler is not None \
            else BackfillScheduler()
        self._nodes: Dict[str, _NodeInfo] = {}
        self._partitions: Dict[str, Partition] = {}
        self.queue: List[Job] = []
        self.running: Dict[int, Job] = {}
        self.history = RecordLog(HISTORY_KEPT)
        #: per running job: hostnames that have reported completion.
        self._reports: Dict[int, Set[str]] = {}
        self.active = True
        self._backup: Optional["SlurmController"] = None

    # -- liveness ----------------------------------------------------------
    @property
    def alive(self) -> bool:
        if not self.active:
            return False
        if self.host is not None:
            return self.host.is_running()
        return True

    # -- registration ---------------------------------------------------------
    def register_node(self, node: SimulatedNode) -> Slurmd:
        if node.hostname in self._nodes:
            raise ValueError(f"{node.hostname} already registered")
        daemon = Slurmd(self.kernel, node)
        daemon.set_completion_callback(self._job_step_done)
        self._nodes[node.hostname] = _NodeInfo(daemon=daemon)
        if "default" not in self._partitions:
            self._partitions["default"] = Partition("default")
        if node.hostname not in self._partitions["default"].hostnames:
            self._partitions["default"].hostnames.append(node.hostname)
        return daemon

    def add_partition(self, partition: Partition) -> None:
        self._partitions[partition.name] = partition

    @property
    def partitions(self) -> Dict[str, Partition]:
        """Name -> partition map (the sinfo view reads this)."""
        return dict(self._partitions)

    def drain(self, hostname: str, reason: Optional[str] = None) -> None:
        info = self._nodes[hostname]
        info.drained = True
        info.drain_reason = reason

    def drain_reason(self, hostname: str) -> Optional[str]:
        return self._nodes[hostname].drain_reason

    def resume(self, hostname: str) -> None:
        info = self._nodes[hostname]
        info.drained = False
        info.drain_reason = None
        self._schedule()

    def node_alloc_state(self, hostname: str) -> str:
        return self._nodes[hostname].state()

    # -- submission ---------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        if not self.alive:
            raise RuntimeError(f"{self.name} is not active")
        partition = self._partitions.get(job.partition)
        if partition is None:
            raise ValueError(f"no partition {job.partition!r}")
        ok, reason = partition.admits(job)
        if not ok:
            raise ValueError(f"job rejected: {reason}")
        job.submit_time = self.kernel.now
        job.state = JobState.PENDING
        self.queue.append(job)
        self._replicate()
        self._schedule()
        return job

    def cancel(self, job_id: int) -> bool:
        for job in self.queue:
            if job.id == job_id:
                self.queue.remove(job)
                job.state = JobState.CANCELLED
                job.end_time = self.kernel.now
                self.history.append(job)
                self._replicate()
                return True
        job = self.running.get(job_id)
        if job is not None:
            for hostname in job.allocated:
                self._nodes[hostname].daemon.kill(job)
            self._finalize(job, JobState.CANCELLED)
            return True
        return False

    # -- scheduling passes ----------------------------------------------------------
    def _schedule(self) -> None:
        if not self.alive:
            return
        # Shared (non-exclusive) jobs first: pack onto shareable nodes.
        for job in [j for j in self.queue if not j.exclusive]:
            hosts = self._place_shared(job)
            if hosts is not None:
                self._start(job, hosts)
        # Exclusive jobs go through the policy scheduler.
        pending = sorted((j for j in self.queue if j.exclusive),
                         key=lambda j: (-j.priority, j.submit_time, j.id))
        if not pending:
            self._replicate()
            return
        # Group by partition: each partition schedules independently.
        for pname, partition in self._partitions.items():
            part_jobs = [j for j in pending if j.partition == pname]
            if not part_jobs:
                continue
            idle = [h for h in partition.hostnames
                    if self._nodes[h].state() == NodeAllocState.IDLE]
            running = [j for j in self.running.values()
                       if j.partition == pname]
            placements = self.scheduler.select(part_jobs, idle, running,
                                               self.kernel.now)
            used = {h for _, hosts in placements for h in hosts}
            leftover = [h for h in idle if h not in used]
            for job, hosts in placements:
                # Honor per-job exclusions (nodes that failed under a
                # requeued job): swap in leftover idle nodes when possible.
                bad = [h for h in hosts if h in job.excluded]
                if bad:
                    swaps = [h for h in leftover
                             if h not in job.excluded][:len(bad)]
                    if len(swaps) < len(bad):
                        continue  # cannot place safely this round
                    for old, new in zip(bad, swaps):
                        hosts[hosts.index(old)] = new
                        leftover.remove(new)
                        leftover.append(old)
                self._start(job, hosts)
        self._replicate()

    def _place_shared(self, job: Job) -> Optional[List[str]]:
        """Greedy placement for a non-exclusive job; None if it can't fit."""
        hosts: List[str] = []
        for hostname in self._partitions[job.partition].hostnames:
            info = self._nodes[hostname]
            if info.state() in (NodeAllocState.IDLE, NodeAllocState.MIXED) \
                    and info.shared_cpu + job.cpu_per_node <= 1.0 + 1e-9:
                hosts.append(hostname)
                if len(hosts) == job.n_nodes:
                    return hosts
        return None

    def _start(self, job: Job, hosts: Sequence[str]) -> None:
        launched: List[str] = []
        for hostname in hosts:
            info = self._nodes[hostname]
            if info.daemon.launch(job):
                launched.append(hostname)
            else:
                break
        if len(launched) != len(hosts):
            # A node died between the pass and the launch: roll back.
            for hostname in launched:
                self._nodes[hostname].daemon.kill(job)
            return
        self.queue.remove(job)
        job.state = JobState.RUNNING
        job.start_time = self.kernel.now
        job.allocated = list(hosts)
        self.running[job.id] = job
        self._reports[job.id] = set()
        for hostname in hosts:
            info = self._nodes[hostname]
            info.jobs.add(job.id)
            if job.exclusive:
                info.exclusive = True
            else:
                info.shared_cpu += job.cpu_per_node

    # -- completion -----------------------------------------------------------------
    def _job_step_done(self, job: Job, hostname: str, ok: bool) -> None:
        if job.id not in self.running:
            return
        if not ok:
            # A node died under the job: kill remaining steps, then fail
            # or requeue per the job's policy.
            for other in job.allocated:
                if other != hostname:
                    self._nodes[other].daemon.kill(job)
            if job.requeue:
                self._requeue(job, failed_host=hostname)
            else:
                self._finalize(job, JobState.FAILED)
            return
        reports = self._reports.setdefault(job.id, set())
        reports.add(hostname)
        if reports >= set(job.allocated):
            state = (JobState.TIMEOUT if job.duration > job.time_limit
                     else JobState.COMPLETED)
            self._finalize(job, state)

    def _requeue(self, job: Job, failed_host: str) -> None:
        """Release the allocation and put the job back at queue head."""
        self.running.pop(job.id, None)
        self._reports.pop(job.id, None)
        for hostname in job.allocated:
            info = self._nodes.get(hostname)
            if info is None:
                continue
            info.jobs.discard(job.id)
            if job.exclusive:
                info.exclusive = False
            else:
                info.shared_cpu = max(0.0,
                                      info.shared_cpu - job.cpu_per_node)
        if failed_host not in job.excluded:
            job.excluded.append(failed_host)
        job.allocated = []
        job.start_time = None
        job.state = JobState.PENDING
        job.requeue_count += 1
        self.queue.insert(0, job)
        self._replicate()
        self._schedule()

    def _finalize(self, job: Job, state: str) -> None:
        self.running.pop(job.id, None)
        self._reports.pop(job.id, None)
        job.state = state
        job.end_time = self.kernel.now
        for hostname in job.allocated:
            info = self._nodes.get(hostname)
            if info is None:
                continue
            info.jobs.discard(job.id)
            if job.exclusive:
                info.exclusive = False
            else:
                info.shared_cpu = max(0.0,
                                      info.shared_cpu - job.cpu_per_node)
        self.history.append(job)
        # External schedulers (Maui-like) may track per-user usage.
        record_usage = getattr(self.scheduler, "record_usage", None)
        if record_usage is not None:
            record_usage(job, self.kernel.now)
        self._replicate()
        self._schedule()

    # -- failover --------------------------------------------------------------------
    def attach_backup(self, backup: "SlurmController") -> None:
        self._backup = backup
        backup.active = False
        self._replicate()

    def _replicate(self) -> None:
        if self._backup is None:
            return
        backup = self._backup
        backup._nodes = self._nodes
        backup._partitions = self._partitions
        backup.queue = list(self.queue)
        backup.running = dict(self.running)
        backup._reports = {k: set(v) for k, v in self._reports.items()}
        backup.history = self.history.copy()

    def adopt(self) -> None:
        """Backup takes over: re-point daemons, resume scheduling."""
        self.active = True
        for info in self._nodes.values():
            info.daemon.set_completion_callback(self._job_step_done)
        self._schedule()

    # -- reporting -------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Accounting summary over finished jobs."""
        done = [j for j in self.history
                if j.state in (JobState.COMPLETED, JobState.TIMEOUT)]
        waits = [j.wait_time for j in done if j.wait_time is not None]
        node_seconds = sum((j.end_time - j.start_time) * len(j.allocated)
                           for j in done if j.start_time is not None)
        return {
            "jobs_completed": float(len(done)),
            "jobs_failed": float(sum(1 for j in self.history
                                     if j.state == JobState.FAILED)),
            "mean_wait": (sum(waits) / len(waits)) if waits else 0.0,
            "max_wait": max(waits) if waits else 0.0,
            "node_seconds": node_seconds,
        }


class FailoverPair:
    """Primary/backup controllers with automatic takeover.

    A watchdog process polls the primary's liveness (its host node's
    state); when the primary dies the backup adopts the replicated state
    and scheduling continues — pending jobs are preserved and running jobs
    keep executing on their nodes throughout.
    """

    def __init__(self, kernel: SimKernel, primary: SlurmController,
                 backup: SlurmController, *, check_interval: float = 5.0):
        self.kernel = kernel
        self.primary = primary
        self.backup = backup
        self.check_interval = check_interval
        self.failed_over = False
        self.failover_time: Optional[float] = None
        primary.attach_backup(backup)
        kernel.process(self._watchdog(), name="slurm-failover")

    @property
    def active(self) -> SlurmController:
        return self.backup if self.failed_over else self.primary

    def submit(self, job: Job) -> Job:
        return self.active.submit(job)

    def _watchdog(self):
        while not self.failed_over:
            yield self.kernel.timeout(self.check_interval)
            if not self.primary.alive:
                self.primary.active = False
                self.backup.adopt()
                self.failed_over = True
                self.failover_time = self.kernel.now

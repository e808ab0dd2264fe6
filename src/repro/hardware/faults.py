"""Fault injection for simulated nodes.

The event-handling and notification experiments (§5.2) need reproducible
failures: fan death, PSU failure/degradation, kernel panics, OS hangs,
memory leaks and NIC degradation.  :class:`FaultInjector` schedules any of
these at fixed times or draws failure times from exponential distributions
on a named RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hardware.node import SimulatedNode
from repro.sim import SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["FaultKind", "FaultRecord", "FaultInjector"]

#: fault records an injector keeps (the newest).
RECORDS_KEPT = 10_000


class FaultKind:
    """Names of injectable faults (plain strings; used in records/plans)."""

    FAN_FAILURE = "fan_failure"
    PSU_FAILURE = "psu_failure"
    PSU_DEGRADED = "psu_degraded"
    KERNEL_PANIC = "kernel_panic"
    OS_HANG = "os_hang"
    MEMORY_LEAK = "memory_leak"
    NIC_DEGRADED = "nic_degraded"

    ALL = (FAN_FAILURE, PSU_FAILURE, PSU_DEGRADED, KERNEL_PANIC,
           OS_HANG, MEMORY_LEAK, NIC_DEGRADED)


@dataclass
class FaultRecord:
    """One injected fault, for post-hoc verification in tests/benches."""

    time: float
    node: str
    kind: str
    detail: dict = field(default_factory=dict)


class FaultInjector:
    """Schedules faults against nodes on a simulation kernel."""

    def __init__(self, kernel: SimKernel,
                 rng: Optional[np.random.Generator] = None):
        self.kernel = kernel
        self.rng = rng
        self.records = RecordLog(RECORDS_KEPT)
        self._appliers: Dict[str, Callable[[SimulatedNode, dict], None]] = {
            FaultKind.FAN_FAILURE: self._apply_fan_failure,
            FaultKind.PSU_FAILURE: self._apply_psu_failure,
            FaultKind.PSU_DEGRADED: self._apply_psu_degraded,
            FaultKind.KERNEL_PANIC: self._apply_kernel_panic,
            FaultKind.OS_HANG: self._apply_os_hang,
            FaultKind.MEMORY_LEAK: self._apply_memory_leak,
            FaultKind.NIC_DEGRADED: self._apply_nic_degraded,
        }

    # -- appliers ---------------------------------------------------------
    @staticmethod
    def _apply_fan_failure(node: SimulatedNode, detail: dict) -> None:
        node.fan_failure()

    @staticmethod
    def _apply_psu_failure(node: SimulatedNode, detail: dict) -> None:
        node.psu.fail()
        node.crash("power supply failure")

    @staticmethod
    def _apply_psu_degraded(node: SimulatedNode, detail: dict) -> None:
        node.psu.degrade(detail.get("health", 0.6))

    @staticmethod
    def _apply_kernel_panic(node: SimulatedNode, detail: dict) -> None:
        node.crash(detail.get("reason", "Fatal exception in interrupt"))

    @staticmethod
    def _apply_os_hang(node: SimulatedNode, detail: dict) -> None:
        node.hang()

    @staticmethod
    def _apply_memory_leak(node: SimulatedNode, detail: dict) -> None:
        node.memory.inject_leak(
            start=node.kernel.now,
            rate=detail.get("rate", 2 << 20),
            cap=detail.get("cap"))

    @staticmethod
    def _apply_nic_degraded(node: SimulatedNode, detail: dict) -> None:
        node.nics[0].degrade(detail.get("factor", 0.25))
        node.nics[0].record_error(detail.get("errors", 100))

    # -- scheduling ---------------------------------------------------------
    def inject_now(self, node: SimulatedNode, kind: str,
                   **detail) -> FaultRecord:
        """Apply a fault immediately."""
        applier = self._appliers.get(kind)
        if applier is None:
            raise ValueError(f"unknown fault kind {kind!r}")
        applier(node, detail)
        record = FaultRecord(time=self.kernel.now, node=node.hostname,
                             kind=kind, detail=detail)
        self.records.append(record)
        return record

    def schedule(self, node: SimulatedNode, kind: str, at: float,
                 **detail) -> None:
        """Apply a fault at absolute simulation time ``at``."""
        if at < self.kernel.now:
            raise ValueError("cannot schedule fault in the past")
        if kind not in self._appliers:
            raise ValueError(f"unknown fault kind {kind!r}")

        def _fire():
            yield self.kernel.timeout(at - self.kernel.now)
            self.inject_now(node, kind, **detail)

        self.kernel.process(_fire(), name=f"fault:{kind}:{node.hostname}")

    def schedule_exponential(self, nodes: List[SimulatedNode],
                             kind: str, mtbf: float,
                             horizon: float, **detail) -> int:
        """Draw per-node failure times ~ Exp(mtbf); schedule those < horizon.

        Returns the number of faults scheduled.  Requires an RNG stream.
        """
        if self.rng is None:
            raise RuntimeError("FaultInjector needs an rng for random plans")
        count = 0
        times = self.rng.exponential(mtbf, size=len(nodes))
        for node, dt in zip(nodes, times):
            at = self.kernel.now + float(dt)
            if at < self.kernel.now + horizon:
                self.schedule(node, kind, at, **detail)
                count += 1
        return count

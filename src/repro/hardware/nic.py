"""Network interface model.

Counters exposed through /proc/net/dev combine two sources:

* workload-offered traffic (integrated lazily from the segment model), and
* *actual* bytes moved by the simulated fabric (cloning streams, monitoring
  transmissions), which the network layer credits explicitly.

Degradation faults scale the effective link rate, which the network fabric
consults when pacing transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["NICSpec", "NIC"]


@dataclass(frozen=True)
class NICSpec:
    name: str = "eth0"
    rate: float = 12.5e6     # bytes/s == 100 Mbit fast Ethernet


class NIC:
    """One network interface on a node."""

    def __init__(self, node: "SimulatedNode", spec: NICSpec = NICSpec()):
        self.node = node
        self.spec = spec
        #: multiplicative health factor in (0, 1]; faults lower it.
        self.health = 1.0
        # Bytes/packets credited by the simulated fabric.
        self._fabric_tx = 0
        self._fabric_rx = 0
        self._fabric_tx_packets = 0
        self._fabric_rx_packets = 0
        self._errors = 0

    @property
    def effective_rate(self) -> float:
        return self.spec.rate * self.health

    def degrade(self, factor: float) -> None:
        """Apply a degradation fault (``factor`` in (0, 1])."""
        if not 0 < factor <= 1:
            raise ValueError("factor must be in (0, 1]")
        self.health = factor

    def repair(self) -> None:
        self.health = 1.0

    # -- fabric credit ---------------------------------------------------
    def credit_tx(self, nbytes: int, packets: int = 0) -> None:
        self._fabric_tx += nbytes
        self._fabric_tx_packets += packets or max(1, nbytes // 1460)

    def credit_rx(self, nbytes: int, packets: int = 0) -> None:
        self._fabric_rx += nbytes
        self._fabric_rx_packets += packets or max(1, nbytes // 1460)

    def record_error(self, n: int = 1) -> None:
        self._errors += n

    # -- monitor-facing counters ------------------------------------------
    def tx_bytes(self, t: float) -> int:
        boot = self.node.boot_completed_at
        workload = 0
        if boot is not None and t > boot:
            workload = int(self.node.workload.integrate("net_tx", boot, t))
        return workload + self._fabric_tx

    def rx_bytes(self, t: float) -> int:
        boot = self.node.boot_completed_at
        workload = 0
        if boot is not None and t > boot:
            workload = int(self.node.workload.integrate("net_rx", boot, t))
        return workload + self._fabric_rx

    def tx_packets(self, t: float) -> int:
        return self.tx_packets_from(self.tx_bytes(t))

    def tx_packets_from(self, tx_bytes: int) -> int:
        """:meth:`tx_packets` given the byte counter at the same instant."""
        return tx_bytes // 1460 + self._fabric_tx_packets

    def rx_packets(self, t: float) -> int:
        return self.rx_packets_from(self.rx_bytes(t))

    def rx_packets_from(self, rx_bytes: int) -> int:
        return rx_bytes // 1460 + self._fabric_rx_packets

    @property
    def errors(self) -> int:
        return self._errors

    def utilization(self, t: float) -> float:
        """Instantaneous offered load as a fraction of the effective rate."""
        return self.utilization_from(self.node.is_running(t),
                                     self.node.workload.demand(t))

    def utilization_from(self, running: bool,
                         demand: Mapping[str, float]) -> float:
        if not running:
            return 0.0
        offered = demand["net_tx"] + demand["net_rx"]
        return min(offered / self.effective_rate, 1.0)

"""Disk model: capacity, throughput limits, and an installable image.

The disk matters to the reproduction in two ways: cloning (§4) writes image
blocks at the disk's sequential-write rate, and the I/O monitors (§5.1)
report workload-driven read/write counters.

``installed_image`` holds the identity + checksum of whatever image the
cloning subsystem last wrote — the thing image-consistency checks compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["DiskSpec", "Disk"]


@dataclass(frozen=True)
class DiskSpec:
    capacity: int = 40 << 30        # 40 GB, era-appropriate
    write_rate: float = 25e6        # bytes/s sequential write (IDE era)
    read_rate: float = 35e6


class Disk:
    """One node-local disk."""

    def __init__(self, node: "SimulatedNode", spec: DiskSpec = DiskSpec(),
                 name: str = "hda"):
        self.node = node
        self.spec = spec
        self.name = name
        #: (image_name, generation, checksum) installed by the last clone,
        #: or None for a bare disk.
        self.installed_image: Optional[tuple[str, int, str]] = None
        #: bytes consumed by the installed image + scratch data.
        self.used: int = 0

    def install_image(self, name: str, generation: int, checksum: str,
                      size: int) -> None:
        if size > self.spec.capacity:
            raise ValueError(
                f"image ({size} B) exceeds disk capacity "
                f"({self.spec.capacity} B)")
        self.installed_image = (name, generation, checksum)
        self.used = size

    def wipe(self) -> None:
        self.installed_image = None
        self.used = 0

    def write_time(self, nbytes: int) -> float:
        """Seconds to sequentially write ``nbytes`` (used by local cloning)."""
        if nbytes < 0:
            raise ValueError("negative size")
        return nbytes / self.spec.write_rate

    # -- monitor-facing counters ---------------------------------------
    def read_bytes(self, t: float) -> int:
        """Cumulative workload read bytes since boot."""
        boot = self.node.boot_completed_at
        if boot is None or t <= boot:
            return 0
        return int(self.node.workload.integrate("disk_read", boot, t))

    def write_bytes(self, t: float) -> int:
        boot = self.node.boot_completed_at
        if boot is None or t <= boot:
            return 0
        return int(self.node.workload.integrate("disk_write", boot, t))

    def utilization(self, t: float) -> float:
        """Instantaneous fraction of throughput in use."""
        return self.utilization_from(self.node.is_running(t),
                                     self.node.workload.demand(t))

    def utilization_from(self, running: bool,
                         demand: Mapping[str, float]) -> float:
        if not running:
            return 0.0
        frac = (demand["disk_read"] / self.spec.read_rate
                + demand["disk_write"] / self.spec.write_rate)
        return min(frac, 1.0)

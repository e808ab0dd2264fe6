"""Remote flash and configuration management for LinuxBIOS (§2).

"Additional tools are provided to change BIOS settings or to flash new
LinuxBIOS releases on demand.  Because LinuxBIOS can be accessed and
configured from within the Linux operating system, changes can be made
remotely to a single node or to all nodes in a cluster system.  These
changes become active as soon as the nodes are rebooted."

:class:`FlashManager` implements exactly that: parallel remote reflashes
for LinuxBIOS nodes (the node must be up — flashing happens *from within*
the running OS), a staged-version model where the new image takes effect on
the next reboot, and — for contrast — the technician walk-up cost model for
legacy BIOS setting changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.firmware.bios import BootSettings, Firmware, LegacyBIOS, LinuxBIOS
from repro.hardware.node import SimulatedNode
from repro.sim import AllOf, SimKernel
from repro.util.recordlog import RecordLog

__all__ = ["FlashManager"]

#: seconds to write a firmware image to flash from the running OS.
FLASH_WRITE_TIME = 25.0

#: seconds a technician needs per node for a walk-up CMOS change.
WALKUP_TIME = 300.0

#: flash steps a manager logs (the newest).
FLASH_LOG_KEPT = 10_000


class FlashManager:
    """Drives firmware updates across a set of nodes."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        #: staged (not yet active) versions per hostname.
        self.staged: Dict[str, str] = {}
        self.flash_log = RecordLog(FLASH_LOG_KEPT)

    @staticmethod
    def firmware_of(node: SimulatedNode) -> Firmware:
        fw = getattr(node, "firmware", None)
        if fw is None:
            raise RuntimeError(f"{node.hostname} has no firmware installed")
        return fw

    # -- remote flash (LinuxBIOS only) -----------------------------------
    def flash_remote(self, nodes: Sequence[SimulatedNode],
                     version: str) -> AllOf:
        """Reflash all ``nodes`` in parallel; fires when every write is done.

        Nodes that are not running LinuxBIOS, or whose OS is down, are
        skipped (recorded in the flash log as failures).
        """
        events = []
        for node in nodes:
            fw = self.firmware_of(node)
            if not isinstance(fw, LinuxBIOS):
                self.flash_log.append(
                    (self.kernel.now, node.hostname, "SKIP: not LinuxBIOS"))
                continue
            if not node.is_running():
                self.flash_log.append(
                    (self.kernel.now, node.hostname, "SKIP: node down"))
                continue
            events.append(self.kernel.process(
                self._flash_one(node, version),
                name=f"flash:{node.hostname}"))
        return self.kernel.all_of(events)

    def _flash_one(self, node: SimulatedNode, version: str):
        yield self.kernel.timeout(FLASH_WRITE_TIME)
        if not node.is_running():
            self.flash_log.append(
                (self.kernel.now, node.hostname, "FAIL: died mid-flash"))
            return
        self.staged[node.hostname] = version
        self.flash_log.append(
            (self.kernel.now, node.hostname, f"OK: staged {version}"))
        node.serial_write(f"flash_rom: wrote LinuxBIOS {version}, "
                          "active after reboot\n")

    def activate_on_reboot(self, node: SimulatedNode) -> bool:
        """Apply a staged version (call when the node reboots). True if applied."""
        version = self.staged.pop(node.hostname, None)
        if version is None:
            return False
        fw = self.firmware_of(node)
        if isinstance(fw, LinuxBIOS):
            fw.version = version
            return True
        return False

    # -- remote settings ----------------------------------------------------
    def configure_remote(self, nodes: Sequence[SimulatedNode],
                         settings: BootSettings) -> List[str]:
        """Push new boot settings; returns hostnames that accepted them."""
        accepted = []
        for node in nodes:
            fw = self.firmware_of(node)
            if fw.remotely_configurable:
                fw.remote_configure(settings)  # type: ignore[attr-defined]
                accepted.append(node.hostname)
        return accepted

    # -- the walk-up baseline -------------------------------------------------
    @staticmethod
    def walkup_cost(nodes: Sequence[SimulatedNode]) -> float:
        """Technician-seconds to change legacy BIOS settings by hand.

        Sequential by construction — one keyboard, one monitor, N nodes.
        """
        return sum(WALKUP_TIME for node in nodes
                   if isinstance(FlashManager.firmware_of(node), LegacyBIOS))

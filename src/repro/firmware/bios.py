"""Firmware boot models (§2).

Two firmwares are modelled:

* :class:`LegacyBIOS` — the vendor BIOS the paper complains about: 30-60 s
  of POST (video, floppy seek, IDE spin-up, exhaustive memory test), **no
  serial output** before the OS kernel takes over, and settings that can
  only be changed standing at the node ("imagine walking around with a
  keyboard and monitor to every one of the 1000 nodes").
* :class:`LinuxBIOS` — hardware init + memory check + kernel load in ~3 s,
  serial console active from power-on, every error reported on serial,
  bootable over Ethernet/Myrinet/Quadrics/SCI or disk/NFS, remotely
  flashable and configurable.

A firmware is *installed* on a node by :func:`install_firmware`, which sets
the node's ``boot_driver`` to a generator the sim kernel runs on power-on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hardware.node import NodeState, SimulatedNode
from repro.network.dhcp import DHCPServer
from repro.network.fabric import NetworkFabric
from repro.network.interconnect import InterconnectProfile
from repro.sim import Interrupt

__all__ = ["BootSettings", "BootEnvironment", "Firmware", "LegacyBIOS",
           "LinuxBIOS", "install_firmware", "OS_BOOT_TIME"]

#: seconds for the OS itself (kernel + init) after firmware hands off.
OS_BOOT_TIME = 22.0

#: size of the kernel+initrd image pulled on netboot.
KERNEL_IMAGE_SIZE = 2 << 20


@dataclass
class BootSettings:
    """Firmware configuration relevant to the boot path."""

    #: "net", "disk", or "nfs"
    boot_source: str = "disk"
    serial_console: bool = True
    #: only meaningful for netboot without a fabric (profile timing).
    interconnect: Optional[InterconnectProfile] = None


@dataclass
class BootEnvironment:
    """Shared boot infrastructure: fabric, boot/NFS server, DHCP."""

    fabric: Optional[NetworkFabric] = None
    boot_server: Optional[SimulatedNode] = None
    kernel_image_size: int = KERNEL_IMAGE_SIZE
    #: when present, LinuxBIOS asks it for per-node boot options (§2:
    #: "Booting options can be easily changed using ClusterWorX or
    #: network configuration options such as DHCP").
    dhcp: Optional["DHCPServer"] = None


class Firmware:
    """Base class; concrete firmwares define the pre-OS stage list."""

    name = "firmware"
    #: True when settings can be changed over the network.
    remotely_configurable = False

    def __init__(self, settings: Optional[BootSettings] = None,
                 env: Optional[BootEnvironment] = None):
        self.settings = settings if settings is not None else BootSettings()
        self.env = env if env is not None else BootEnvironment()

    # -- stage model -----------------------------------------------------
    def firmware_stages(self, node: SimulatedNode
                        ) -> List[tuple[str, float]]:  # pragma: no cover
        """(stage name, duration) pairs before the kernel loads."""
        raise NotImplementedError

    def emits_serial(self) -> bool:
        return False

    # -- driver -----------------------------------------------------------
    def boot(self, node: SimulatedNode):
        """Generator process driving one boot of ``node``."""
        try:
            serial = self.emits_serial() and self.settings.serial_console
            if serial:
                node.serial_write(f"\n{self.name} booting "
                                  f"{node.hostname}...\n")
            for stage, duration in self.firmware_stages(node):
                if serial:
                    node.serial_write(f"{self.name}: {stage}\n")
                yield node.kernel.timeout(duration)
                if stage == "memory check" and node.bad_dimm:
                    if serial:
                        node.serial_write(
                            f"{self.name}: ERROR bank 1: "
                            "memory test failed, halting\n")
                    node.crash("memory test failed")
                    return
            # Resolve the boot source: DHCP (when this firmware supports
            # network configuration) overrides the local setting.
            source = self.settings.boot_source
            if self.env.dhcp is not None and self.remotely_configurable:
                lease = self.env.dhcp.discover(node.mac, node.hostname,
                                               node.kernel.now)
                source = lease.options.boot_source
                if serial:
                    node.serial_write(
                        f"{self.name}: DHCP lease {lease.ip}, "
                        f"boot={source}\n")
            # Load the kernel image via the resolved boot source.
            yield from self._load_kernel(node, serial, source)
            if node.state is not NodeState.BOOTING:
                return
            # The OS kernel always talks to the serial console once running.
            node.serial_write(f"Linux version 2.4.18 ({node.hostname})\n")
            yield node.kernel.timeout(OS_BOOT_TIME)
            node.serial_write("INIT: Entering runlevel: 3\n")
            node.finish_boot()
        except Interrupt:
            return  # power-off or reset mid-boot

    def _load_kernel(self, node: SimulatedNode, serial: bool,
                     source: Optional[str] = None):
        if source is None:
            source = self.settings.boot_source
        size = self.env.kernel_image_size
        if source == "disk":
            if node.disk is None:
                if serial:
                    node.serial_write(
                        f"{self.name}: ERROR no boot device (diskless "
                        "node configured for disk boot)\n")
                node.crash("no boot device")
                return
            yield node.kernel.timeout(size / node.disk.spec.read_rate)
            return
        if source in ("net", "nfs"):
            if serial:
                node.serial_write(f"{self.name}: loading kernel via "
                                  f"{source}boot\n")
            if self.env.fabric is not None and self.env.boot_server is not None:
                done = self.env.fabric.unicast(
                    self.env.boot_server, node, size, tag="netboot")
                yield done
            elif self.settings.interconnect is not None:
                yield node.kernel.timeout(
                    self.settings.interconnect.transfer_time(size))
            else:
                raise RuntimeError(
                    "netboot needs a fabric+server or an interconnect "
                    "profile")
            return
        raise ValueError(f"unknown boot source {source!r}")


class LegacyBIOS(Firmware):
    """The 30-60 s vendor BIOS with no serial console."""

    name = "AwardBIOS"
    remotely_configurable = False

    def firmware_stages(self, node: SimulatedNode) -> List[tuple[str, float]]:
        # Per-node deterministic spread across the paper's 30-60 s band.
        spread = (node.node_id * 2654435761 % 1000) / 1000.0
        memory_gib = node.memory.spec.total / (1 << 30)
        return [
            ("video init", 2.0),
            ("POST", 4.0 + 6.0 * spread),
            ("memory check", 8.0 * memory_gib + 10.0 * spread),
            ("floppy seek", 3.0),
            ("IDE detect", 6.0 + 8.0 * spread),
            ("boot sector", 2.0),
        ]

    def emits_serial(self) -> bool:
        return False  # the core complaint: nothing visible before the OS

    def local_configure(self, node: SimulatedNode,
                        settings: BootSettings) -> float:
        """Change settings at the node. Returns technician minutes spent."""
        self.settings = settings
        return 5.0  # keyboard+monitor walk-up, per the paper's complaint


class LinuxBIOS(Firmware):
    """LinuxBIOS: ~3 s to kernel load, serial from power-on, remote config."""

    name = "LinuxBIOS"
    remotely_configurable = True

    def __init__(self, settings: Optional[BootSettings] = None,
                 env: Optional[BootEnvironment] = None,
                 version: str = "1.0.0"):
        super().__init__(settings, env)
        self.version = version

    def firmware_stages(self, node: SimulatedNode) -> List[tuple[str, float]]:
        memory_gib = node.memory.spec.total / (1 << 30)
        return [
            ("hardware init", 1.2),
            ("serial console up", 0.1),
            ("memory check", 0.6 * memory_gib),
            ("payload start", 0.9),
        ]

    def emits_serial(self) -> bool:
        return True

    def remote_configure(self, settings: BootSettings) -> None:
        """Change settings over the network; live on next reboot (§2)."""
        self.settings = settings


def install_firmware(node: SimulatedNode, firmware: Firmware) -> None:
    """Make ``firmware`` drive this node's boots."""
    node.boot_driver = firmware.boot
    node.firmware = firmware  # type: ignore[attr-defined]

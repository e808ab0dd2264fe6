"""The simulated cluster node.

A :class:`SimulatedNode` bundles the component models (CPU, memory, disk,
NIC, thermal, PSU) with a power/boot state machine.  It deliberately knows
nothing about firmware, ICE Boxes or monitoring — those subsystems attach
themselves:

* the firmware package installs a ``boot_driver`` (a generator factory) that
  the node runs as a kernel process on power-on;
* an ICE Box serial port registers a ``console_sink`` to capture everything
  the node writes to its serial console;
* monitoring agents read component state through the node's procfs.

Overheat destruction is fully event-driven: whenever the thermal inputs
change (fan failure, power transitions) the node schedules a *burn check*
at the analytically computed threshold-crossing time and re-validates when
it fires.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.hardware.cpu import CPU, CPUSpec
from repro.hardware.disk import Disk, DiskSpec
from repro.hardware.memory import Memory, MemorySpec
from repro.hardware.nic import NIC, NICSpec
from repro.hardware.psu import PSU, PSUSpec
from repro.hardware.sensors import ThermalModel, ThermalSpec, VoltageSensor
from repro.hardware.workload import Workload
from repro.sim import SimKernel

__all__ = ["NodeState", "SimulatedNode"]


class NodeState(enum.Enum):
    OFF = "off"
    BOOTING = "booting"
    UP = "up"
    HALTED = "halted"       # OS halted, power still on
    CRASHED = "crashed"     # kernel panic / hardware death
    HUNG = "hung"           # OS frozen: hardware alive, software deaf
    BURNED = "burned"       # thermally destroyed; only RMA helps


class SimulatedNode:
    """One cluster node, all dynamics lazy/analytic."""

    def __init__(self, kernel: SimKernel, hostname: str, *,
                 node_id: int = 0,
                 cpu_spec: CPUSpec = CPUSpec(),
                 memory_spec: MemorySpec = MemorySpec(),
                 disk_spec: DiskSpec = DiskSpec(),
                 nic_spec: NICSpec = NICSpec(),
                 thermal_spec: ThermalSpec = ThermalSpec(),
                 psu_spec: PSUSpec = PSUSpec(),
                 diskless: bool = False):
        self.kernel = kernel
        self.hostname = hostname
        self.node_id = node_id
        self.mac = "00:50:45:%02x:%02x:%02x" % (
            (node_id >> 16) & 0xFF, (node_id >> 8) & 0xFF, node_id & 0xFF)
        self.ip = "10.%d.%d.%d" % ((node_id >> 16) & 0xFF,
                                   (node_id >> 8) & 0xFF,
                                   node_id & 0xFF or 1)

        self.workload = Workload()
        self.cpu = CPU(self, cpu_spec)
        self.memory = Memory(self, memory_spec)
        #: diskless nodes (§2: "perhaps as simple as a CPU and memory, no
        #: disk") have an empty disk list and must netboot/NFS-root.
        self.diskless = diskless
        self.disks: List[Disk] = [] if diskless else [Disk(self, disk_spec)]
        self.nics: List[NIC] = [NIC(self, nic_spec)]
        self.thermal = ThermalModel(self, thermal_spec)
        self.psu = PSU(self, psu_spec)
        self.voltages = {
            "vcore": VoltageSensor(1.75, offset=0.005 * (node_id % 7 - 3)),
            "3.3v": VoltageSensor(3.30),
            "5v": VoltageSensor(5.00),
            "12v": VoltageSensor(12.0),
        }

        self.state = NodeState.OFF
        self.boot_completed_at: Optional[float] = None
        self.crash_reason: Optional[str] = None
        #: set True to make firmware memory checks fail (bad DIMM fault).
        self.bad_dimm = False
        #: installed by repro.firmware; called as boot_driver(node) -> generator
        self.boot_driver: Optional[Callable] = None
        #: installed by an ICE Box serial port (or tests)
        self.console_sink: Optional[Callable[[str], None]] = None
        #: listeners notified as fn(node, old_state, new_state)
        self.state_listeners: List[Callable] = []
        self._boot_process = None
        self._burn_token = 0

    # ------------------------------------------------------------------
    @property
    def disk(self) -> Optional[Disk]:
        return self.disks[0] if self.disks else None

    @property
    def nic(self) -> NIC:
        return self.nics[0]

    def is_running(self, t: float | None = None) -> bool:
        """True when the OS is executing (UP or HUNG)."""
        return self.state in (NodeState.UP, NodeState.HUNG)

    @property
    def powered(self) -> bool:
        return self.state not in (NodeState.OFF, NodeState.BURNED)

    def uptime(self, t: float) -> float:
        if not self.is_running() or self.boot_completed_at is None:
            return 0.0
        return max(t - self.boot_completed_at, 0.0)

    def wait_state(self, *states: NodeState):
        """Event that fires (with the state) when the node enters any of
        ``states``; fires immediately if already there."""
        event = self.kernel.event()
        if self.state in states:
            event.succeed(self.state)
            return event

        def listener(node, old, new):
            if new in states and not event.triggered:
                event.succeed(new)
                self.state_listeners.remove(listener)

        self.state_listeners.append(listener)
        return event

    # -- console ---------------------------------------------------------
    def serial_write(self, text: str) -> None:
        """Emit text on the serial console (captured by the ICE Box)."""
        if self.console_sink is not None:
            self.console_sink(text)

    # -- state machine ----------------------------------------------------
    def _set_state(self, new: NodeState) -> None:
        old, self.state = self.state, new
        if old is not new:
            for listener in list(self.state_listeners):
                listener(self, old, new)

    def power_on(self) -> None:
        """Apply power: PSU on, firmware boot process starts.

        No-op if already powered.  Burned nodes refuse to power on.
        """
        now = self.kernel.now
        if self.state is NodeState.BURNED:
            self.serial_write("")  # dead board: not even firmware output
            return
        if self.powered:
            return
        if self.psu.failed:
            # A dead supply delivers nothing: the outlet can be live but
            # the board never comes up (§3.2 power-probe scenario).
            return
        self.psu.switch_on(now)
        self.thermal.set_temperature(now, self.thermal.spec.ambient)
        self._set_state(NodeState.BOOTING)
        if self.boot_driver is not None:
            self._boot_process = self.kernel.process(
                self.boot_driver(self), name=f"boot:{self.hostname}")
        else:
            # No firmware installed: instant boot (useful in unit tests).
            self.finish_boot()
        self._schedule_burn_check()

    def finish_boot(self) -> None:
        """Called by the firmware when the OS reaches multi-user mode."""
        if self.state is not NodeState.BOOTING:
            return
        # The boot is over: keep no finished process (with its generator
        # and last timeout) per node for the life of the cluster.
        self._boot_process = None
        self.boot_completed_at = self.kernel.now
        self._set_state(NodeState.UP)
        self.serial_write(f"{self.hostname} login: \n")

    def _cancel_boot(self, cause: str) -> None:
        """End the boot in progress: interrupt it where it waits, or
        stop one not yet started (an interrupt would hit its header)."""
        process = self._boot_process
        if process is not None and process.is_alive:
            if process.is_started:
                process.interrupt(cause)
            else:
                process.kill()
        self._boot_process = None

    def power_off(self) -> None:
        """Cut power (ICE Box outlet off)."""
        now = self.kernel.now
        self._cancel_boot("power-off")
        self.psu.switch_off()
        self.thermal.rebase(now)
        # Without power the board cools to ambient quickly; model as reset.
        self.thermal.set_temperature(now, self.thermal.spec.ambient)
        self.boot_completed_at = None
        if self.state is not NodeState.BURNED:
            self._set_state(NodeState.OFF)
        self._burn_token += 1  # cancel pending burn checks

    def reset(self) -> None:
        """Hardware reset line (ICE Box): reboot without power cycling."""
        if self.state in (NodeState.OFF, NodeState.BURNED):
            return
        if self.psu.failed:
            # No supply, no boot: the reset line is asserted but the
            # board has nothing to restart with.
            return
        self._cancel_boot("reset")
        self.boot_completed_at = None
        self.crash_reason = None
        self.serial_write("\n*** hardware reset ***\n")
        self._set_state(NodeState.BOOTING)
        if self.boot_driver is not None:
            self._boot_process = self.kernel.process(
                self.boot_driver(self), name=f"boot:{self.hostname}")
        else:
            self.finish_boot()

    def halt(self) -> None:
        """Orderly OS halt; power stays on."""
        if not self.is_running():
            return
        self.serial_write("System halted.\n")
        self.boot_completed_at = None
        self._set_state(NodeState.HALTED)

    def crash(self, reason: str) -> None:
        """Kernel panic / fatal hardware error."""
        if self.state in (NodeState.OFF, NodeState.BURNED,
                          NodeState.CRASHED):
            return
        self.crash_reason = reason
        self.serial_write(f"Kernel panic - not syncing: {reason}\n")
        self.serial_write("Rebooting in 0 seconds.. halted\n")
        self.boot_completed_at = None
        self._set_state(NodeState.CRASHED)

    def hang(self) -> None:
        """Freeze the OS: hardware keeps running, software goes silent."""
        if self.state is NodeState.UP:
            self._set_state(NodeState.HUNG)

    # -- thermal destruction ----------------------------------------------
    def _schedule_burn_check(self) -> None:
        """(Re)arm the overheat watchdog from the analytic crossing time."""
        now = self.kernel.now
        if not self.powered:
            return
        eta = self.thermal.time_to_reach(
            self.thermal.spec.burn_temperature, now)
        if eta is None:
            return
        self._burn_token += 1
        token = self._burn_token
        self.kernel.process(self._burn_check(token, eta),
                            name=f"burncheck:{self.hostname}")

    def _burn_check(self, token: int, eta: float):
        yield self.kernel.timeout(eta)
        if token != self._burn_token or not self.powered:
            return
        now = self.kernel.now
        temp = self.thermal.temperature(now)
        if temp >= self.thermal.spec.burn_temperature - 1e-6:
            self.serial_write("CPU0: Temperature above threshold\n")
            self.crash("thermal runaway: CPU destroyed")
            self._set_state(NodeState.BURNED)
            self.psu.switch_off()
        else:
            # Conditions changed since arming; re-arm from current state.
            self._schedule_burn_check()

    def fan_failure(self) -> None:
        """Inject a CPU fan failure (the paper's canonical event scenario)."""
        now = self.kernel.now
        self.thermal.fan_failure(now)
        self.serial_write("lm_sensors: fan1 below minimum (0 RPM)\n")
        self._schedule_burn_check()

    def fan_repair(self) -> None:
        self.thermal.fan_repair(self.kernel.now)
        self._schedule_burn_check()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimulatedNode {self.hostname} {self.state.value}>"

"""The ICE Box itself (§3): embedded controller tying power, probes and
serial ports together, plus the shared command processor every access
protocol (SIMP, NIMP, telnet, ssh, SNMP) front-ends.

Command language (one command per line, case-insensitive)::

    POWER ON <port>|ALL        POWER OFF <port>|ALL     POWER CYCLE <port>
    POWER SEQ [stagger]        POWER STATUS <port>
    RESET <port>
    TEMP <port>                FAN <port>               PSU <port>
    CONSOLE <port> [lines]     STATUS                   VERSION

Responses are ``OK[: payload]`` or ``ERR: reason`` — the native ICE
management protocol framing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.node import SimulatedNode
from repro.icebox.power import PowerController
from repro.icebox.probes import PowerProbe, ResetLine, TemperatureProbe
from repro.icebox.serial_console import SerialPort
from repro.sim import SimKernel

__all__ = ["IceBox"]


class IceBox:
    """One ICE Box: 10 managed nodes, 2 aux outlets, serial + probes."""

    FIRMWARE_VERSION = "ICE Box v2.1 (simulated)"

    def __init__(self, kernel: SimKernel, name: str = "icebox0"):
        self.kernel = kernel
        self.name = name
        self.power = PowerController(kernel)
        self.ports: List[SerialPort] = [
            SerialPort(i) for i in range(PowerController.N_NODE_OUTLETS)]
        self._nodes: Dict[int, SimulatedNode] = {}
        #: a dead controller answers nothing (``ERR: no response``); the
        #: recovery ladder then fails the ICE Box rungs and moves on.
        self.healthy = True

    def fail(self) -> None:
        """Kill the embedded controller (management path goes silent)."""
        self.healthy = False

    def repair(self) -> None:
        self.healthy = True

    # -- topology -------------------------------------------------------
    def connect_node(self, port: int, node: SimulatedNode) -> None:
        """Wire a node to outlet + serial + probes on ``port``."""
        if port in self._nodes:
            raise ValueError(f"port {port} already in use")
        self.power.connect(port, node)
        self.ports[port].attach(node)
        self._nodes[port] = node

    def node_at(self, port: int) -> Optional[SimulatedNode]:
        return self._nodes.get(port)

    def disconnect_node(self, port: int) -> Optional[SimulatedNode]:
        """Free ``port``: power the outlet off, detach the serial line,
        and forget the node.  Returns the node that was connected."""
        node = self._nodes.pop(port, None)
        if node is not None:
            self.power.power_off(port)
            self.ports[port].detach()
        return node

    def port_of(self, node: SimulatedNode) -> Optional[int]:
        for port, n in self._nodes.items():
            if n is node:
                return port
        return None

    @property
    def nodes(self) -> List[SimulatedNode]:
        return [self._nodes[p] for p in sorted(self._nodes)]

    # -- probes -----------------------------------------------------------
    def temperature_probe(self, port: int) -> TemperatureProbe:
        return TemperatureProbe(self._require(port))

    def power_probe(self, port: int) -> PowerProbe:
        return PowerProbe(self._require(port))

    def reset_line(self, port: int) -> ResetLine:
        return ResetLine(self._require(port))

    def console(self, port: int) -> SerialPort:
        if not 0 <= port < len(self.ports):
            raise IndexError(f"port {port} out of range")
        return self.ports[port]

    def _require(self, port: int) -> SimulatedNode:
        node = self._nodes.get(port)
        if node is None:
            raise KeyError(f"no node on port {port}")
        return node

    # -- command processor -------------------------------------------------
    def execute(self, command: str) -> str:
        """Run one management command; never raises, returns OK/ERR text."""
        try:
            if not self.healthy:
                return "ERR: no response"
            return self._dispatch(command.strip())
        except (KeyError, IndexError, ValueError) as exc:
            return f"ERR: {exc}"

    def _parse_port(self, token: str) -> int:
        port = int(token)
        if port not in self._nodes:
            raise KeyError(f"no node on port {port}")
        return port

    def _dispatch(self, command: str) -> str:
        if not command:
            return "ERR: empty command"
        words = command.split()
        verb = words[0].upper()
        now = self.kernel.now

        if verb == "VERSION":
            return f"OK: {self.FIRMWARE_VERSION}"

        if verb == "STATUS":
            rows = []
            for port in sorted(self._nodes):
                node = self._nodes[port]
                outlet = self.power.outlet(port)
                rows.append(f"{port}:{node.hostname}:"
                            f"{'on' if outlet.on else 'off'}:"
                            f"{node.state.value}")
            return "OK: " + " ".join(rows) if rows else "OK: no nodes"

        if verb == "POWER":
            if len(words) < 2:
                raise ValueError("POWER needs a subcommand")
            sub = words[1].upper()
            if sub == "SEQ":
                stagger = float(words[2]) if len(words) > 2 else 1.0
                self.power.sequenced_power_on(sorted(self._nodes),
                                              stagger=stagger)
                return "OK: sequencing started"
            if sub == "STATUS":
                port = self._parse_port(words[2])
                outlet = self.power.outlet(port)
                return f"OK: {'on' if outlet.on else 'off'}"
            if sub in ("ON", "OFF", "CYCLE"):
                target = words[2].upper()
                if target == "ALL":
                    ports = sorted(self._nodes)
                else:
                    ports = [self._parse_port(target)]
                for port in ports:
                    if sub == "ON":
                        self.power.power_on(port)
                    elif sub == "OFF":
                        self.power.power_off(port)
                    else:
                        self.power.power_cycle(port)
                return f"OK: power {sub.lower()} {len(ports)} outlet(s)"
            raise ValueError(f"unknown POWER subcommand {sub}")

        if verb == "RESET":
            port = self._parse_port(words[1])
            ok = self.reset_line(port).assert_reset()
            return "OK: reset asserted" if ok else "ERR: node has no power"

        if verb == "TEMP":
            port = self._parse_port(words[1])
            probe = self.temperature_probe(port)
            return (f"OK: cpu={probe.cpu_temperature(now):.1f} "
                    f"board={probe.board_temperature(now):.1f}")

        if verb == "FAN":
            port = self._parse_port(words[1])
            probe = self.temperature_probe(port)
            return f"OK: fan1={probe.fan_rpm(now):.0f}rpm"

        if verb == "PSU":
            port = self._parse_port(words[1])
            probe = self.power_probe(port)
            return (f"OK: {'ok' if probe.supply_ok(now) else 'FAIL'} "
                    f"volts={probe.voltage(now):.1f} "
                    f"watts={probe.watts(now):.1f}")

        if verb == "CONSOLE":
            port = int(words[1])
            lines = int(words[2]) if len(words) > 2 else 20
            tail = self.console(port).tail(lines)
            return "OK:\n" + "\n".join(tail)

        raise ValueError(f"unknown command {verb}")

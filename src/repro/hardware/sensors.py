"""Thermal/fan/voltage sensor models.

The CPU temperature follows a first-order thermal model

    dT/dt = (T_eq - T) / tau,      T_eq = ambient + k_load * load + penalty

with ``penalty`` and a larger ``tau``/``k_load`` when the fan has failed.
Because load is piecewise constant, the ODE is integrated *analytically*
between workload change points, so evaluating the temperature at any time is
exact and needs no per-second ticking.

``time_to_reach`` solves the same exponential for the crossing time of a
threshold — this is how overheat "burn" events are scheduled purely
event-driven, and how the paper's motivating scenario ("powering down a node
on CPU fan failure to prevent the CPU from burning", §5.2) is exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["ThermalSpec", "Fan", "ThermalModel", "VoltageSensor"]


@dataclass(frozen=True)
class ThermalSpec:
    ambient: float = 22.0          # deg C inside the rack
    k_load: float = 28.0           # deg C rise at full load, fan OK
    tau: float = 90.0              # seconds, fan OK
    fan_fail_penalty: float = 60.0  # extra equilibrium rise with dead fan
    fan_fail_tau: float = 240.0    # slower dissipation with dead fan
    burn_temperature: float = 95.0  # CPU destroyed at/above this


class Fan:
    """A cooling fan with a tachometer reading."""

    def __init__(self, nominal_rpm: float = 5400.0):
        self.nominal_rpm = nominal_rpm
        self.failed = False

    def rpm(self, load: float = 0.0) -> float:
        if self.failed:
            return 0.0
        # Fans spin up modestly with load (thermal control).
        return self.nominal_rpm * (0.85 + 0.15 * min(load, 1.0))

    def fail(self) -> None:
        self.failed = True

    def repair(self) -> None:
        self.failed = False


class ThermalModel:
    """Analytic first-order CPU temperature model for one node."""

    def __init__(self, node: "SimulatedNode",
                 spec: ThermalSpec = ThermalSpec()):
        self.node = node
        self.spec = spec
        self.fan = Fan()
        self._anchor_t = 0.0
        self._anchor_temp = spec.ambient

    # -- parameters under the current fan state -------------------------
    def _tau(self) -> float:
        return self.spec.fan_fail_tau if self.fan.failed else self.spec.tau

    def equilibrium(self, t: float) -> float:
        return self.equilibrium_from(self.node.cpu.utilization(t))

    def equilibrium_from(self, load: float) -> float:
        eq = self.spec.ambient + self.spec.k_load * load
        if self.fan.failed:
            eq += self.spec.fan_fail_penalty
        return eq

    # -- state evolution -------------------------------------------------
    def _advance(self, t0: float, temp0: float, t1: float,
                 running: bool) -> float:
        """Integrate from (t0, temp0) to t1 across workload change points,
        under the node's running flag at t1."""
        points = self.node.workload.change_points(t0, t1)
        points.append(t1)
        cpu = self.node.cpu
        temp = temp0
        prev = t0
        tau = self._tau()
        for p in points:
            if p <= prev:
                continue
            eq = self.equilibrium_from(cpu.utilization_over(running, prev, p))
            temp = eq + (temp - eq) * math.exp(-(p - prev) / tau)
            prev = p
        return temp

    def rebase(self, t: float) -> None:
        """Move the anchor to ``t`` — call *before* any parameter change."""
        if t < self._anchor_t:
            raise ValueError("cannot rebase into the past")
        self._anchor_temp = self._advance(self._anchor_t,
                                          self._anchor_temp, t,
                                          self.node.is_running(t))
        self._anchor_t = t

    def temperature(self, t: float) -> float:
        """CPU temperature at ``t`` (>= last rebase point)."""
        return self.temperature_from(self.node.is_running(t), t)

    def temperature_from(self, running: bool, t: float) -> float:
        """:meth:`temperature` given the node's running flag at ``t``."""
        if t < self._anchor_t:
            raise ValueError(
                f"thermal query at t={t} precedes anchor {self._anchor_t}")
        return self._advance(self._anchor_t, self._anchor_temp, t, running)

    def set_temperature(self, t: float, temp: float) -> None:
        """Force the state (e.g. reset to ambient on power-off)."""
        if t < self._anchor_t:
            raise ValueError("cannot set temperature in the past")
        self._anchor_t = t
        self._anchor_temp = temp

    def fan_failure(self, t: float) -> None:
        self.rebase(t)
        self.fan.fail()

    def fan_repair(self, t: float) -> None:
        self.rebase(t)
        self.fan.repair()

    def time_to_reach(self, threshold: float, t: float) -> Optional[float]:
        """Seconds after ``t`` until the temperature reaches ``threshold``.

        Assumes the demand current at ``t`` persists (callers reschedule on
        workload/fan changes).  Returns None if the threshold is never
        reached under that assumption; 0.0 if already at/above it.
        """
        temp = self.temperature(t)
        if temp >= threshold:
            return 0.0
        eq = self.equilibrium(t)
        if eq <= threshold:
            return None
        tau = self._tau()
        return -tau * math.log((eq - threshold) / (eq - temp))


class VoltageSensor:
    """A supply rail readout with deterministic per-node offset."""

    def __init__(self, nominal: float, offset: float = 0.0):
        self.nominal = nominal
        self.offset = offset
        self.failed = False

    def read(self) -> float:
        if self.failed:
            return 0.0
        return self.nominal + self.offset

"""Power supply model: draw, inrush, and failure states.

Two consumers care about this model: the ICE Box power probes (§3.2 — "the
power probe is used to detect failing power supplies") and the power
sequencing experiment (§3.1 — staggered power-up "reducing the risk of power
spikes"), which integrates the inrush transient of many PSUs switched on
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = ["PSUSpec", "PSU"]


@dataclass(frozen=True)
class PSUSpec:
    idle_watts: float = 65.0
    max_watts: float = 180.0
    #: peak inrush draw immediately after switch-on, as a multiple of max.
    inrush_factor: float = 4.0
    #: time constant of the inrush transient decay (seconds).
    inrush_tau: float = 0.15
    #: nominal mains voltage.
    volts: float = 115.0


class PSU:
    """One node power supply."""

    def __init__(self, node: "SimulatedNode", spec: PSUSpec = PSUSpec()):
        self.node = node
        self.spec = spec
        self.failed = False
        #: degradation factor on delivered power quality in (0, 1].
        self.health = 1.0
        self._switched_on_at: Optional[float] = None

    def switch_on(self, t: float) -> None:
        self._switched_on_at = t

    def switch_off(self) -> None:
        self._switched_on_at = None

    @property
    def is_on(self) -> bool:
        return self._switched_on_at is not None and not self.failed

    def fail(self) -> None:
        self.failed = True

    def degrade(self, health: float) -> None:
        if not 0 < health <= 1:
            raise ValueError("health must be in (0, 1]")
        self.health = health

    def steady_draw(self, t: float) -> float:
        """Steady-state watts at time ``t`` from the node's CPU load."""
        return self.steady_draw_from(self.node.cpu.utilization(t))

    def steady_draw_from(self, load: float) -> float:
        """:meth:`steady_draw` given the CPU utilization at that instant."""
        if not self.is_on:
            return 0.0
        return self.spec.idle_watts + (self.spec.max_watts
                                       - self.spec.idle_watts) * load

    def draw(self, t: float) -> float:
        """Instantaneous watts including the inrush transient."""
        if not self.is_on:
            return 0.0
        draw = self.steady_draw(t)
        dt = t - self._switched_on_at
        if dt < 0:
            return 0.0
        inrush_peak = self.spec.max_watts * self.spec.inrush_factor
        transient = (inrush_peak - draw) * math.exp(-dt / self.spec.inrush_tau)
        return draw + max(transient, 0.0)

    def amps(self, t: float) -> float:
        return self.draw(t) / self.spec.volts

    # -- probe-facing ----------------------------------------------------
    def probe_voltage(self, t: float) -> float:
        """What the ICE Box power probe reads off this supply."""
        if not self.is_on:
            return 0.0
        if self.failed:
            return 0.0
        return self.spec.volts * (0.90 + 0.10 * self.health)

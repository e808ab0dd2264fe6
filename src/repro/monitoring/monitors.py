"""Built-in monitors (§5.1): "ClusterWorX can virtually monitor any system
function ... It comes standard with over 40 monitors built in."

A :class:`Monitor` maps a name to a function over a :class:`MonitorContext`
(the node, the sim time, and — when the agent runs in procfs mode — the
parsed proc samples).  ``static`` monitors (CPU type, total memory, ...)
are the values the consolidation stage transmits only once.

The registry below defines 50+ monitors across the sources the paper
lists: /proc-derived CPU/memory/network/disk statistics, lm_sensors-style
readings, identification data, and the UDP-echo connectivity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hardware.node import SimulatedNode

__all__ = ["Monitor", "MonitorContext", "MonitorRegistry",
           "builtin_registry"]


@dataclass
class MonitorContext:
    """What a monitor function sees when evaluated."""

    node: SimulatedNode
    t: float
    #: parsed proc samples when the agent gathers via procfs (else None).
    proc: Optional[Dict[str, Dict]] = None


@dataclass(frozen=True)
class Monitor:
    """One named metric."""

    name: str
    fn: Callable[[MonitorContext], object]
    static: bool = False
    units: str = ""
    source: str = "system"

    def evaluate(self, ctx: MonitorContext):
        return self.fn(ctx)


class MonitorRegistry:
    """Named collection of monitors; plug-ins add to it at runtime.

    A registry may carry a *fast sampler*: a single straight-line function
    equivalent to :meth:`evaluate_all` for the exact monitor set it was
    built for.  Any mutation of the monitor set invalidates it (the agent
    then falls back to the generic per-monitor loop).
    """

    def __init__(self) -> None:
        self._monitors: Dict[str, Monitor] = {}
        self._sorted: Optional[List[Monitor]] = None
        #: equivalent one-shot sampler ``fn(ctx) -> dict`` or None.
        self.fast_sampler: Optional[
            Callable[["MonitorContext"], Dict[str, object]]] = None

    def _invalidate(self) -> None:
        self._sorted = None
        self.fast_sampler = None

    def add(self, monitor: Monitor) -> None:
        if monitor.name in self._monitors:
            raise ValueError(f"monitor {monitor.name!r} already registered")
        self._monitors[monitor.name] = monitor
        self._invalidate()

    def replace(self, monitor: Monitor) -> None:
        self._monitors[monitor.name] = monitor
        self._invalidate()

    def remove(self, name: str) -> None:
        del self._monitors[name]
        self._invalidate()

    def get(self, name: str) -> Monitor:
        return self._monitors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._monitors

    def __len__(self) -> int:
        return len(self._monitors)

    @property
    def names(self) -> List[str]:
        return sorted(self._monitors)

    def monitors(self) -> List[Monitor]:
        if self._sorted is None:
            self._sorted = [self._monitors[n] for n in sorted(self._monitors)]
        return self._sorted

    def evaluate_all(self, ctx: MonitorContext) -> Dict[str, object]:
        return {m.name: m.evaluate(ctx) for m in self.monitors()}


# ---------------------------------------------------------------------------
# Builtin definitions
# ---------------------------------------------------------------------------

def _mon(registry, name, fn, *, static=False, units="", source="system"):
    registry.add(Monitor(name=name, fn=fn, static=static, units=units,
                         source=source))


def _fast_builtin_sample(ctx: MonitorContext) -> Dict[str, object]:
    """Straight-line equivalent of ``evaluate_all`` for the builtin set.

    Evaluating 55 separate lambdas costs a Python call, a context attribute
    walk, and a repeated pure model read each.  Contract: every model
    *input* — the running flag, ``workload.demand(t)``, the rx/tx byte
    counters — is read once per call, and the dozen values that share an
    input are derived from it through the models' ``*_from`` methods, so
    each formula still lives once, in ``repro.hardware``.  The result is
    value-identical to the generic loop, in the same sorted-key order
    (the generic loop is the oracle the test suite compares against).
    """
    node = ctx.node
    t = ctx.t
    cpu = node.cpu
    spec = cpu.spec
    mem = node.memory
    nic = node.nic
    disk = node.disk
    thermal = node.thermal
    psu = node.psu
    volts = node.voltages
    running = node.is_running()
    state = node.state.value
    demand = node.workload.demand(t)
    cpu_demand = cpu.demand_from(running, demand)
    util = cpu.utilization_from(cpu_demand)
    jiffies = cpu.jiffies(t)
    load = cpu.loadavg(t)
    temp = thermal.temperature(t)
    ambient = thermal.spec.ambient
    usage = mem.usage_from(running, demand, t)
    rx_bytes = nic.rx_bytes(t)
    tx_bytes = nic.tx_bytes(t)
    image = disk.installed_image if disk else None
    return {
        "board_temp_c": round(ambient + 0.4 * (temp - ambient), 2),
        "bogomips": round(spec.mhz * 1.99, 2),
        "cpu_cache_kb": spec.cache_kb,
        "cpu_count": spec.cores,
        "cpu_idle_jiffies": jiffies["idle"],
        "cpu_mhz": spec.mhz,
        "cpu_model": spec.model_name,
        "cpu_system_jiffies": jiffies["system"],
        "cpu_temp_c": round(temp, 2),
        "cpu_user_jiffies": jiffies["user"],
        "cpu_util_pct": round(util * 100.0, 2),
        "cpu_vendor": spec.vendor,
        "disk_image": image[0] if image else "none",
        "disk_image_generation": image[1] if image else 0,
        "disk_read_bytes": disk.read_bytes(t) if disk else 0,
        "disk_total_bytes": disk.spec.capacity if disk else 0,
        "disk_used_bytes": disk.used if disk else 0,
        "disk_util_pct": (round(
            disk.utilization_from(running, demand) * 100.0, 2)
            if disk else 0.0),
        "disk_write_bytes": disk.write_bytes(t) if disk else 0,
        "fan1_rpm": round(thermal.fan.rpm(util)),
        "hostname": node.hostname,
        "ip_address": node.ip,
        "kernel_version": "2.4.18",
        "load_15min": round(load * 0.8, 2),
        "load_1min": round(load, 2),
        "load_5min": round(load * 0.9, 2),
        "mac_address": node.mac,
        "mem_cached_bytes": usage.cached,
        "mem_free_bytes": usage.free,
        "mem_total_bytes": mem.spec.total,
        "mem_used_bytes": usage.used,
        "mem_util_pct": round(usage.utilization * 100.0, 2),
        "net_errors": nic.errors,
        "net_link_mbps": round(nic.effective_rate * 8 / 1e6, 1),
        "net_rx_bytes": rx_bytes,
        "net_rx_packets": nic.rx_packets_from(rx_bytes),
        "net_tx_bytes": tx_bytes,
        "net_tx_packets": nic.tx_packets_from(tx_bytes),
        "net_util_pct": round(
            nic.utilization_from(running, demand) * 100.0, 2),
        "node_state": state,
        "node_up": 1 if running else 0,
        "os_release": "Linux NetworX CLS 7.2",
        "procs_running": max(1, int(cpu_demand) + 1) if running else 0,
        "psu_ok": 0 if psu.failed else 1,
        "psu_volts": round(psu.probe_voltage(t), 2),
        "psu_watts": round(psu.steady_draw_from(util), 1),
        "swap_activity": 1 if usage.swap_used > 0 else 0,
        "swap_total_bytes": mem.spec.swap_total,
        "swap_used_bytes": usage.swap_used,
        "udp_echo": (1 if (running and state != "hung"
                           and nic.health > 0.05) else 0),
        "uptime_seconds": round(node.uptime(t), 2),
        "v12_volts": round(volts["12v"].read(), 3),
        "v3_3_volts": round(volts["3.3v"].read(), 3),
        "v5_volts": round(volts["5v"].read(), 3),
        "vcore_volts": round(volts["vcore"].read(), 3),
    }


def builtin_registry() -> MonitorRegistry:
    """The standard set shipped with the framework (50+ monitors)."""
    r = MonitorRegistry()
    n = lambda ctx: ctx.node  # noqa: E731 - brevity in the table below

    # -- identification (static) ----------------------------------------
    _mon(r, "hostname", lambda c: c.node.hostname, static=True)
    _mon(r, "ip_address", lambda c: c.node.ip, static=True)
    _mon(r, "mac_address", lambda c: c.node.mac, static=True)
    _mon(r, "kernel_version", lambda c: "2.4.18", static=True)
    _mon(r, "os_release", lambda c: "Linux NetworX CLS 7.2", static=True)

    # -- cpu identification (static, from /proc/cpuinfo) ------------------
    _mon(r, "cpu_model", lambda c: c.node.cpu.spec.model_name,
         static=True, source="proc")
    _mon(r, "cpu_mhz", lambda c: c.node.cpu.spec.mhz,
         static=True, units="MHz", source="proc")
    _mon(r, "cpu_count", lambda c: c.node.cpu.spec.cores,
         static=True, source="proc")
    _mon(r, "cpu_cache_kb", lambda c: c.node.cpu.spec.cache_kb,
         static=True, units="kB", source="proc")
    _mon(r, "cpu_vendor", lambda c: c.node.cpu.spec.vendor,
         static=True, source="proc")
    _mon(r, "bogomips", lambda c: round(c.node.cpu.spec.mhz * 1.99, 2),
         static=True, source="proc")

    # -- cpu dynamics (/proc/stat, /proc/loadavg) --------------------------
    _mon(r, "cpu_util_pct",
         lambda c: round(c.node.cpu.utilization(c.t) * 100.0, 2),
         units="%", source="proc")
    _mon(r, "cpu_user_jiffies",
         lambda c: c.node.cpu.jiffies(c.t)["user"], source="proc")
    _mon(r, "cpu_system_jiffies",
         lambda c: c.node.cpu.jiffies(c.t)["system"], source="proc")
    _mon(r, "cpu_idle_jiffies",
         lambda c: c.node.cpu.jiffies(c.t)["idle"], source="proc")
    _mon(r, "load_1min", lambda c: round(c.node.cpu.loadavg(c.t), 2),
         source="proc")
    _mon(r, "load_5min", lambda c: round(c.node.cpu.loadavg(c.t) * 0.9, 2),
         source="proc")
    _mon(r, "load_15min", lambda c: round(c.node.cpu.loadavg(c.t) * 0.8, 2),
         source="proc")
    _mon(r, "procs_running",
         lambda c: max(1, int(c.node.cpu.demand(c.t)) + 1)
         if c.node.is_running() else 0, source="proc")

    # -- memory (/proc/meminfo) ---------------------------------------------
    _mon(r, "mem_total_bytes", lambda c: c.node.memory.spec.total,
         static=True, units="B", source="proc")
    _mon(r, "mem_used_bytes", lambda c: c.node.memory.used(c.t),
         units="B", source="proc")
    _mon(r, "mem_free_bytes", lambda c: c.node.memory.free(c.t),
         units="B", source="proc")
    _mon(r, "mem_cached_bytes", lambda c: c.node.memory.cached(c.t),
         units="B", source="proc")
    _mon(r, "mem_util_pct",
         lambda c: round(c.node.memory.utilization(c.t) * 100.0, 2),
         units="%", source="proc")
    _mon(r, "swap_total_bytes", lambda c: c.node.memory.spec.swap_total,
         static=True, units="B", source="proc")
    _mon(r, "swap_used_bytes", lambda c: c.node.memory.swap_used(c.t),
         units="B", source="proc")

    # -- uptime ----------------------------------------------------------------
    _mon(r, "uptime_seconds", lambda c: round(c.node.uptime(c.t), 2),
         units="s", source="proc")

    # -- network (/proc/net/dev) -------------------------------------------------
    _mon(r, "net_rx_bytes", lambda c: c.node.nic.rx_bytes(c.t),
         units="B", source="proc")
    _mon(r, "net_tx_bytes", lambda c: c.node.nic.tx_bytes(c.t),
         units="B", source="proc")
    _mon(r, "net_rx_packets", lambda c: c.node.nic.rx_packets(c.t),
         source="proc")
    _mon(r, "net_tx_packets", lambda c: c.node.nic.tx_packets(c.t),
         source="proc")
    _mon(r, "net_errors", lambda c: c.node.nic.errors, source="proc")
    _mon(r, "net_util_pct",
         lambda c: round(c.node.nic.utilization(c.t) * 100.0, 2),
         units="%", source="proc")
    _mon(r, "net_link_mbps",
         lambda c: round(c.node.nic.effective_rate * 8 / 1e6, 1),
         units="Mb/s", source="net")

    # -- connectivity: the UDP echo check (§5.1) ---------------------------------
    _mon(r, "udp_echo",
         lambda c: 1 if (c.node.is_running()
                         and c.node.state.value != "hung"
                         and c.node.nic.health > 0.05) else 0,
         source="net")

    # -- disk ----------------------------------------------------------------------
    _mon(r, "disk_total_bytes",
         lambda c: c.node.disk.spec.capacity if c.node.disk else 0,
         static=True, units="B", source="proc")
    _mon(r, "disk_used_bytes",
         lambda c: c.node.disk.used if c.node.disk else 0,
         units="B", source="proc")
    _mon(r, "disk_read_bytes",
         lambda c: c.node.disk.read_bytes(c.t) if c.node.disk else 0,
         units="B", source="proc")
    _mon(r, "disk_write_bytes",
         lambda c: c.node.disk.write_bytes(c.t) if c.node.disk else 0,
         units="B", source="proc")
    _mon(r, "disk_util_pct",
         lambda c: round(c.node.disk.utilization(c.t) * 100.0, 2)
         if c.node.disk else 0.0,
         units="%", source="proc")
    _mon(r, "disk_image",
         lambda c: (c.node.disk.installed_image[0]
                    if c.node.disk and c.node.disk.installed_image
                    else "none"),
         source="system")
    _mon(r, "disk_image_generation",
         lambda c: (c.node.disk.installed_image[1]
                    if c.node.disk and c.node.disk.installed_image
                    else 0),
         source="system")

    # -- sensors (lm_sensors-style, §5.1) --------------------------------------------
    _mon(r, "cpu_temp_c",
         lambda c: round(c.node.thermal.temperature(c.t), 2),
         units="degC", source="sensors")
    _mon(r, "board_temp_c",
         lambda c: round(c.node.thermal.spec.ambient + 0.4 * (
             c.node.thermal.temperature(c.t)
             - c.node.thermal.spec.ambient), 2),
         units="degC", source="sensors")
    _mon(r, "fan1_rpm",
         lambda c: round(c.node.thermal.fan.rpm(
             c.node.cpu.utilization(c.t) if c.node.is_running() else 0.0)),
         units="rpm", source="sensors")
    _mon(r, "vcore_volts", lambda c: round(c.node.voltages["vcore"].read(), 3),
         units="V", source="sensors")
    _mon(r, "v3_3_volts", lambda c: round(c.node.voltages["3.3v"].read(), 3),
         units="V", source="sensors")
    _mon(r, "v5_volts", lambda c: round(c.node.voltages["5v"].read(), 3),
         units="V", source="sensors")
    _mon(r, "v12_volts", lambda c: round(c.node.voltages["12v"].read(), 3),
         units="V", source="sensors")
    _mon(r, "psu_volts", lambda c: round(c.node.psu.probe_voltage(c.t), 2),
         units="V", source="sensors")
    _mon(r, "psu_watts", lambda c: round(c.node.psu.steady_draw(c.t), 1),
         units="W", source="sensors")
    _mon(r, "psu_ok", lambda c: 0 if c.node.psu.failed else 1,
         source="sensors")

    # -- node / management state -----------------------------------------------------
    _mon(r, "node_state", lambda c: c.node.state.value, source="system")
    _mon(r, "node_up", lambda c: 1 if c.node.is_running() else 0,
         source="system")
    _mon(r, "swap_activity",
         lambda c: 1 if c.node.memory.swap_used(c.t) > 0 else 0,
         source="proc")

    # The builtin set ships with a hoisted one-shot sampler; any plugin
    # registration above invalidates it, so it must be set last.
    r.fast_sampler = _fast_builtin_sample
    return r

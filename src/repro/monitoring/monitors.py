"""Built-in monitors (§5.1): "ClusterWorX can virtually monitor any system
function ... It comes standard with over 40 monitors built in."

A :class:`Monitor` maps a name to a function over a :class:`MonitorContext`
(the node and the sim time) that returns the value, or a dict of values
(a script plug-in).  ``static`` monitors (CPU type, total memory, ...)
are the values the consolidation stage transmits only once.

The built-in set is one such multi-value monitor, :func:`builtin_sample`:
55 values across the sources the paper lists — /proc-derived
CPU/memory/network/disk statistics, lm_sensors-style readings,
identification data, and the UDP-echo connectivity check — each
described by one row of :data:`BUILTIN_MONITORS`.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.hardware.node import SimulatedNode

__all__ = ["BUILTIN_MONITORS", "Monitor", "MonitorContext",
           "MonitorRegistry", "builtin_registry", "builtin_sample"]


@dataclass(slots=True)
class MonitorContext:
    """What a monitor function sees when evaluated."""

    node: SimulatedNode
    t: float


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


def builtin_sample(ctx: MonitorContext) -> Dict[str, object]:
    """Every built-in value, in name order: the built-in monitor.

    One straight-line call, not one call per value: every model *input*
    — the running flag, ``workload.demand(t)``, the rx/tx byte counters
    — is read once, and the values that share an input are derived
    from it through the models' ``*_from`` methods, so each formula still
    lives once, in ``repro.hardware``.  The test suite holds it to a
    reference model that reads each value on its own through the models'
    ``t`` forms (``cpu.utilization(t)``, ``memory.used(t)``, ...).
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
    jiffies = cpu.jiffies_from(running, t)
    load = cpu.loadavg_from(running, t)
    temp = thermal.temperature_from(running, t)
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
        "uptime_seconds": round(node.uptime_from(running, t), 2),
        "v12_volts": round(volts["12v"].read(), 3),
        "v3_3_volts": round(volts["3.3v"].read(), 3),
        "v5_volts": round(volts["5v"].read(), 3),
        "vcore_volts": round(volts["vcore"].read(), 3),
    }


#: The built-in monitors: one per value :func:`builtin_sample` returns,
#: grouped by ``(static, units, source)``.  A monitor's ``fn`` is the
#: sample itself, whose dict carries its value.
BUILTIN_MONITORS: Dict[str, Monitor] = {
    name: Monitor(name, builtin_sample, static, units, source)
    for names, static, units, source in [
        # identification, and the CPU's from /proc/cpuinfo
        ("hostname ip_address mac_address kernel_version os_release",
         True, "", "system"),
        ("cpu_model cpu_count cpu_vendor bogomips", True, "", "proc"),
        ("cpu_mhz", True, "MHz", "proc"),
        ("cpu_cache_kb", True, "kB", "proc"),
        ("mem_total_bytes swap_total_bytes disk_total_bytes",
         True, "B", "proc"),
        # /proc/stat, /proc/loadavg, /proc/meminfo, /proc/net/dev, disk
        ("cpu_user_jiffies cpu_system_jiffies cpu_idle_jiffies load_1min"
         " load_5min load_15min procs_running net_rx_packets"
         " net_tx_packets net_errors swap_activity", False, "", "proc"),
        ("cpu_util_pct mem_util_pct net_util_pct disk_util_pct",
         False, "%", "proc"),
        ("mem_used_bytes mem_free_bytes mem_cached_bytes swap_used_bytes"
         " net_rx_bytes net_tx_bytes disk_used_bytes disk_read_bytes"
         " disk_write_bytes", False, "B", "proc"),
        ("uptime_seconds", False, "s", "proc"),
        # the link and the UDP echo check (§5.1)
        ("net_link_mbps", False, "Mb/s", "net"),
        ("udp_echo", False, "", "net"),
        # lm_sensors-style readings (§5.1)
        ("cpu_temp_c board_temp_c", False, "degC", "sensors"),
        ("fan1_rpm", False, "rpm", "sensors"),
        ("vcore_volts v3_3_volts v5_volts v12_volts psu_volts",
         False, "V", "sensors"),
        ("psu_watts", False, "W", "sensors"),
        ("psu_ok", False, "", "sensors"),
        # node and management state
        ("node_state node_up disk_image disk_image_generation",
         False, "", "system"),
    ] for name in names.split()}


#: exact types a plug-in's value is reported as itself; any other value
#: is reported as a copy taken at the sample (``copy.copy``: a set keeps
#: its order), as a decoded report would be, so that a plug-in changing
#: the object it returned in place changes nothing already reported.
_IMMUTABLE = frozenset({float, int, str, bool, type(None)})


class MonitorRegistry:
    """Named collection of monitors: the built-in set, and the plug-ins
    added at runtime.

    Every built-in value comes from one call of :attr:`sample`.
    A plug-in — any monitor that is not a :data:`BUILTIN_MONITORS` row,
    an override of a built-in name included — runs after it, in name
    order, and a built-in name removed or replaced is first dropped from
    the sample's dict: each name's value comes from the monitor
    registered under it, and a plug-in's values follow the built-ins'.
    """

    def __init__(self) -> None:
        self._monitors: Dict[str, Monitor] = dict(BUILTIN_MONITORS)
        #: the built-in monitor: one call returns every built-in value.
        self.sample = builtin_sample
        #: the plug-ins, in evaluation (name) order.
        self._plugins: Tuple[Monitor, ...] = ()
        #: the built-in names removed or replaced.
        self._dropped: Tuple[str, ...] = ()
        #: whether there is anything to :meth:`overlay` on the sample.
        self.overlaid = False

    def _settle(self) -> None:
        monitors = self._monitors
        self._plugins = tuple(
            monitor for name, monitor in sorted(monitors.items())
            if monitor is not BUILTIN_MONITORS.get(name))
        self._dropped = tuple(name for name, row in BUILTIN_MONITORS.items()
                              if monitors.get(name) is not row)
        self.overlaid = bool(self._plugins or self._dropped)

    def add(self, monitor: Monitor) -> None:
        if monitor.name in self._monitors:
            raise ValueError(f"monitor {monitor.name!r} already registered")
        self._monitors[monitor.name] = monitor
        self._settle()

    def replace(self, monitor: Monitor) -> None:
        self._monitors[monitor.name] = monitor
        self._settle()

    def remove(self, name: str) -> None:
        del self._monitors[name]
        self._settle()

    def get(self, name: str) -> Monitor:
        return self._monitors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._monitors

    def __len__(self) -> int:
        return len(self._monitors)

    @property
    def names(self) -> List[str]:
        return sorted(self._monitors)

    def overlay(self, ctx: MonitorContext, values: Dict[str, object],
                failed: Optional[Callable[[str, Exception], None]] = None
                ) -> Dict[str, object]:
        """Drop the removed or replaced built-in names from the built-in
        ``values`` and add each plug-in's value (a dict result adds each
        of its items; a value not of an immutable type is a copy), in
        place.  A plug-in that raises goes to
        ``failed(name, exc)`` and the rest still run; with no ``failed``
        it propagates."""
        for name in self._dropped:
            values.pop(name, None)
        for monitor in self._plugins:
            try:
                result = monitor.fn(ctx)
            except Exception as exc:  # plugin code is arbitrary
                if failed is None:
                    raise
                failed(monitor.name, exc)
                continue
            if type(result) not in _IMMUTABLE:
                result = copy(result)
            if isinstance(result, dict):
                values.update(result)
            else:
                values[monitor.name] = result
        return values

    def evaluate_all(self, ctx: MonitorContext) -> Dict[str, object]:
        return self.overlay(ctx, self.sample(ctx))


def builtin_registry() -> MonitorRegistry:
    """The standard set shipped with the framework (55 monitors)."""
    return MonitorRegistry()

"""Reference model of the built-in monitors, for the sampler oracles.

Each of the 55 built-in values is read on its own, through the hardware
models' ``t`` forms (``cpu.utilization(t)``, ``memory.used(t)``, ...),
one function per name.  ``repro.monitoring.monitors.builtin_sample``
reads each model input once and derives the values that share it through
the ``*_from`` forms; the oracle tests hold the two to the same keys,
order, values and ``repr``.
"""

from typing import Callable, Dict

from repro.monitoring import MonitorContext

Fn = Callable[[MonitorContext], object]


REFERENCE: Dict[str, Fn] = {
    # -- identification ------------------------------------------------------
    "hostname": lambda c: c.node.hostname,
    "ip_address": lambda c: c.node.ip,
    "mac_address": lambda c: c.node.mac,
    "kernel_version": lambda c: "2.4.18",
    "os_release": lambda c: "Linux NetworX CLS 7.2",
    # -- cpu identification (/proc/cpuinfo) ---------------------------------
    "cpu_model": lambda c: c.node.cpu.spec.model_name,
    "cpu_mhz": lambda c: c.node.cpu.spec.mhz,
    "cpu_count": lambda c: c.node.cpu.spec.cores,
    "cpu_cache_kb": lambda c: c.node.cpu.spec.cache_kb,
    "cpu_vendor": lambda c: c.node.cpu.spec.vendor,
    "bogomips": lambda c: round(c.node.cpu.spec.mhz * 1.99, 2),
    # -- cpu dynamics (/proc/stat, /proc/loadavg) ----------------------------
    "cpu_util_pct": lambda c: round(c.node.cpu.utilization(c.t) * 100.0, 2),
    "cpu_user_jiffies": lambda c: c.node.cpu.jiffies(c.t)["user"],
    "cpu_system_jiffies": lambda c: c.node.cpu.jiffies(c.t)["system"],
    "cpu_idle_jiffies": lambda c: c.node.cpu.jiffies(c.t)["idle"],
    "load_1min": lambda c: round(c.node.cpu.loadavg(c.t), 2),
    "load_5min": lambda c: round(c.node.cpu.loadavg(c.t) * 0.9, 2),
    "load_15min": lambda c: round(c.node.cpu.loadavg(c.t) * 0.8, 2),
    "procs_running": lambda c: (max(1, int(c.node.cpu.demand(c.t)) + 1)
                                if c.node.is_running() else 0),
    # -- memory (/proc/meminfo) ----------------------------------------------
    "mem_total_bytes": lambda c: c.node.memory.spec.total,
    "mem_used_bytes": lambda c: c.node.memory.used(c.t),
    "mem_free_bytes": lambda c: c.node.memory.free(c.t),
    "mem_cached_bytes": lambda c: c.node.memory.cached(c.t),
    "mem_util_pct": lambda c: round(
        c.node.memory.utilization(c.t) * 100.0, 2),
    "swap_total_bytes": lambda c: c.node.memory.spec.swap_total,
    "swap_used_bytes": lambda c: c.node.memory.swap_used(c.t),
    "swap_activity": lambda c: 1 if c.node.memory.swap_used(c.t) > 0 else 0,
    "uptime_seconds": lambda c: round(c.node.uptime(c.t), 2),
    # -- network (/proc/net/dev) and the UDP echo check -----------------------
    "net_rx_bytes": lambda c: c.node.nic.rx_bytes(c.t),
    "net_tx_bytes": lambda c: c.node.nic.tx_bytes(c.t),
    "net_rx_packets": lambda c: c.node.nic.rx_packets(c.t),
    "net_tx_packets": lambda c: c.node.nic.tx_packets(c.t),
    "net_errors": lambda c: c.node.nic.errors,
    "net_util_pct": lambda c: round(c.node.nic.utilization(c.t) * 100.0, 2),
    "net_link_mbps": lambda c: round(c.node.nic.effective_rate * 8 / 1e6, 1),
    "udp_echo": lambda c: 1 if (c.node.is_running()
                                and c.node.state.value != "hung"
                                and c.node.nic.health > 0.05) else 0,
    # -- disk ----------------------------------------------------------------
    "disk_total_bytes": lambda c: (c.node.disk.spec.capacity
                                   if c.node.disk else 0),
    "disk_used_bytes": lambda c: c.node.disk.used if c.node.disk else 0,
    "disk_read_bytes": lambda c: (c.node.disk.read_bytes(c.t)
                                  if c.node.disk else 0),
    "disk_write_bytes": lambda c: (c.node.disk.write_bytes(c.t)
                                   if c.node.disk else 0),
    "disk_util_pct": lambda c: (round(c.node.disk.utilization(c.t) * 100.0, 2)
                                if c.node.disk else 0.0),
    "disk_image": lambda c: (c.node.disk.installed_image[0]
                             if c.node.disk and c.node.disk.installed_image
                             else "none"),
    "disk_image_generation": lambda c: (
        c.node.disk.installed_image[1]
        if c.node.disk and c.node.disk.installed_image else 0),
    # -- sensors (lm_sensors-style) ------------------------------------------
    "cpu_temp_c": lambda c: round(c.node.thermal.temperature(c.t), 2),
    "board_temp_c": lambda c: round(c.node.thermal.spec.ambient + 0.4 * (
        c.node.thermal.temperature(c.t) - c.node.thermal.spec.ambient), 2),
    "fan1_rpm": lambda c: round(c.node.thermal.fan.rpm(
        c.node.cpu.utilization(c.t) if c.node.is_running() else 0.0)),
    "vcore_volts": lambda c: round(c.node.voltages["vcore"].read(), 3),
    "v3_3_volts": lambda c: round(c.node.voltages["3.3v"].read(), 3),
    "v5_volts": lambda c: round(c.node.voltages["5v"].read(), 3),
    "v12_volts": lambda c: round(c.node.voltages["12v"].read(), 3),
    "psu_volts": lambda c: round(c.node.psu.probe_voltage(c.t), 2),
    "psu_watts": lambda c: round(c.node.psu.steady_draw(c.t), 1),
    "psu_ok": lambda c: 0 if c.node.psu.failed else 1,
    # -- node / management state ---------------------------------------------
    "node_state": lambda c: c.node.state.value,
    "node_up": lambda c: 1 if c.node.is_running() else 0,
}


def reference_values(monitors: Dict[str, Fn],
                     ctx: MonitorContext) -> Dict[str, object]:
    """Evaluate ``monitors`` (name -> function: :data:`REFERENCE` with any
    plug-in overlay applied, as a registry's add/replace/remove would)
    one function at a time.  The built-in functions come first, in name
    order, then the plug-ins, overrides of built-in names included, in
    name order; a plug-in's dict result adds each of its items."""
    values: Dict[str, object] = {}
    for name in sorted(monitors, key=lambda n: (
            monitors[n] is not REFERENCE.get(n), n)):
        result = monitors[name](ctx)
        if isinstance(result, dict):
            values.update(result)
        else:
            values[name] = result
    return values

"""Content generators for the simulated /proc files.

Each handler is a pure function ``(node, t) -> str`` producing the same
layout a Linux 2.4 kernel (the paper's testbed ran 2.4.x on a 1 GHz
Pentium III) would emit.  Generation cost is *honest work* — real string
formatting proportional to the file's complexity — which is what makes the
per-file gathering-cost ordering of §5.3.1 (stat > meminfo > net/dev >
loadavg > uptime) emerge structurally rather than by tuning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import SimulatedNode

__all__ = [
    "gen_cpuinfo",
    "gen_interrupts",
    "gen_loadavg",
    "gen_meminfo",
    "gen_mounts",
    "gen_net_dev",
    "gen_partitions",
    "gen_stat",
    "gen_swaps",
    "gen_uptime",
    "gen_version",
]

#: number of interrupt counters in the /proc/stat ``intr`` line (NR_IRQS).
NR_IRQS = 224


def gen_meminfo(node: "SimulatedNode", t: float) -> str:
    """/proc/meminfo in the 2.4 layout (summary block + kB lines)."""
    total = node.memory.spec.total
    used, free, cached, swap_used, _ = node.memory.usage(t)
    buffers = cached // 4
    swap_total = node.memory.spec.swap_total
    swap_free = swap_total - swap_used
    shared = used // 16
    active = int(used * 0.7) + cached // 2
    inactive = cached // 2 + free // 8
    lines = [
        "        total:    used:    free:  shared: buffers:  cached:",
        f"Mem:  {total} {used} {free} {shared} {buffers} {cached}",
        f"Swap: {swap_total} {swap_used} {swap_free}",
        f"MemTotal:     {total // 1024:>8} kB",
        f"MemFree:      {free // 1024:>8} kB",
        f"MemShared:    {shared // 1024:>8} kB",
        f"Buffers:      {buffers // 1024:>8} kB",
        f"Cached:       {cached // 1024:>8} kB",
        f"SwapCached:   {0:>8} kB",
        f"Active:       {active // 1024:>8} kB",
        f"Inactive:     {inactive // 1024:>8} kB",
        f"HighTotal:    {0:>8} kB",
        f"HighFree:     {0:>8} kB",
        f"LowTotal:     {total // 1024:>8} kB",
        f"LowFree:      {free // 1024:>8} kB",
        f"SwapTotal:    {swap_total // 1024:>8} kB",
        f"SwapFree:     {swap_free // 1024:>8} kB",
    ]
    return "\n".join(lines) + "\n"


def gen_stat(node: "SimulatedNode", t: float) -> str:
    """/proc/stat: aggregate + per-cpu jiffies, the long intr line, etc.

    The ``intr`` line carries ``NR_IRQS`` counters — that bulk is why
    gathering /proc/stat costs more per call than /proc/meminfo in the
    paper's Table (35 us vs 29.5 us).
    """
    j = node.cpu.jiffies(t)
    boot = node.boot_completed_at or 0.0
    uptime = node.uptime(t)
    total_intr = int(uptime * 150)  # timer+devices at ~150 irq/s
    irq_counts = [0] * NR_IRQS
    irq_counts[0] = int(uptime * 100)            # timer
    if node.disk is not None:
        irq_counts[14] = node.disk.read_bytes(t) // 4096
    irq_counts[10] = node.nic.rx_packets(t)
    ctxt = int(uptime * 400)
    processes = 80 + int(uptime / 10)
    lines = [
        f"cpu  {j['user']} {j['nice']} {j['system']} {j['idle']}",
    ]
    cores = node.cpu.spec.cores
    for core in range(cores):
        lines.append(
            f"cpu{core} {j['user'] // cores} {j['nice'] // cores} "
            f"{j['system'] // cores} {j['idle'] // cores}")
    lines += [
        "intr " + str(total_intr) + " " + " ".join(map(str, irq_counts)),
        f"ctxt {ctxt}",
        f"btime {int(boot)}",
        f"processes {processes}",
        f"procs_running {max(1, int(node.cpu.demand(t)) + 1)}",
        "procs_blocked 0",
        # 2.4-era disk_io summary line.
        ("disk_io: (3,0):(%d,%d,0,0,0)"
         % (node.disk.read_bytes(t) // 512,
            node.disk.write_bytes(t) // 512))
        if node.disk is not None else "disk_io:",
    ]
    return "\n".join(lines) + "\n"


def gen_loadavg(node: "SimulatedNode", t: float) -> str:
    """/proc/loadavg: three averages + runnable/total + last pid."""
    load1 = node.cpu.loadavg(t)
    load5 = load1 * 0.9
    load15 = load1 * 0.8
    running = max(1, int(node.cpu.demand(t)) + 1)
    total = 70 + int(node.uptime(t) / 60) % 30
    last_pid = 1000 + int(node.uptime(t)) % 30000
    return (f"{load1:.2f} {load5:.2f} {load15:.2f} "
            f"{running}/{total} {last_pid}\n")


def gen_uptime(node: "SimulatedNode", t: float) -> str:
    """/proc/uptime: uptime seconds and cumulative idle seconds."""
    up = node.uptime(t)
    idle = up * (1.0 - node.cpu.utilization(t))
    return f"{up:.2f} {idle:.2f}\n"


def gen_net_dev(node: "SimulatedNode", t: float) -> str:
    """/proc/net/dev: two header lines then one line per interface."""
    header = (
        "Inter-|   Receive                                                "
        "|  Transmit\n"
        " face |bytes    packets errs drop fifo frame compressed multicast"
        "|bytes    packets errs drop fifo colls carrier compressed\n")
    rows = []
    rows.append(
        "    lo:{rb:>8} {rp:>7}    0    0    0     0          0         0 "
        "{rb:>8} {rp:>7}    0    0    0     0       0          0".format(
            rb=1024, rp=16))
    for nic in node.nics:
        rx, tx = nic.rx_bytes(t), nic.tx_bytes(t)
        rows.append(
            f"  {nic.spec.name}:{rx:>8} {nic.rx_packets(t):>7} "
            f"{nic.errors:>4}    0    0     0          0         0 "
            f"{tx:>8} {nic.tx_packets(t):>7}    0    0    0     0"
            f"       0          0")
    return header + "\n".join(rows) + "\n"


def gen_version(node: "SimulatedNode", t: float) -> str:
    """/proc/version (static)."""
    return ("Linux version 2.4.18 (root@buildhost) "
            "(gcc version 2.96 20000731) "
            "#1 SMP Mon Feb 25 2002\n")


def gen_interrupts(node: "SimulatedNode", t: float) -> str:
    """/proc/interrupts in the 2.4 single-CPU layout."""
    up = node.uptime(t)
    rows = [
        ("0", int(up * 100), "XT-PIC", "timer"),
        ("1", 12, "XT-PIC", "keyboard"),
        ("2", 0, "XT-PIC", "cascade"),
        ("10", node.nic.rx_packets(t), "XT-PIC", "eth0"),
        ("14", (node.disk.read_bytes(t) // 4096)
         if node.disk is not None else 0, "XT-PIC", "ide0"),
    ]
    lines = ["           CPU0       "]
    for irq, count, chip, device in rows:
        lines.append(f"{irq:>3}: {count:>10}   {chip}  {device}")
    lines.append(f"NMI: {0:>10}")
    lines.append(f"ERR: {0:>10}")
    return "\n".join(lines) + "\n"


def gen_partitions(node: "SimulatedNode", t: float) -> str:
    """/proc/partitions."""
    lines = ["major minor  #blocks  name", ""]
    for idx, disk in enumerate(node.disks):
        blocks = disk.spec.capacity // 1024
        lines.append(f"   3  {idx * 64:>4} {blocks:>10} {disk.name}")
        lines.append(f"   3  {idx * 64 + 1:>4} {blocks - 1024:>10} "
                     f"{disk.name}1")
    return "\n".join(lines) + "\n"


def gen_swaps(node: "SimulatedNode", t: float) -> str:
    """/proc/swaps."""
    if node.disk is None:
        return "Filename\t\t\tType\t\tSize\tUsed\tPriority\n"
    total_kb = node.memory.spec.swap_total // 1024
    used_kb = node.memory.swap_used(t) // 1024
    return ("Filename\t\t\tType\t\tSize\tUsed\tPriority\n"
            f"/dev/{node.disk.name}2\t\t\tpartition\t{total_kb}\t"
            f"{used_kb}\t-1\n")


def gen_mounts(node: "SimulatedNode", t: float) -> str:
    """/proc/mounts: reflects the installed image's boot mode."""
    installed = node.disk.installed_image if node.disk is not None \
        else None
    root = (f"{node.ip.rsplit('.', 1)[0]}.1:/export/root"
            if installed is None else f"/dev/{node.disk.name}1")
    fstype = "nfs" if installed is None else "ext2"
    lines = [
        f"{root} / {fstype} rw 0 0",
        "none /proc proc rw 0 0",
        "none /dev/pts devpts rw 0 0",
    ]
    return "\n".join(lines) + "\n"


def gen_cpuinfo(node: "SimulatedNode", t: float) -> str:
    """/proc/cpuinfo (static per node)."""
    spec = node.cpu.spec
    blocks = []
    for core in range(spec.cores):
        blocks.append("\n".join([
            f"processor\t: {core}",
            f"vendor_id\t: {spec.vendor}",
            "cpu family\t: 6",
            "model\t\t: 8",
            f"model name\t: {spec.model_name}",
            "stepping\t: 3",
            f"cpu MHz\t\t: {spec.mhz:.3f}",
            f"cache size\t: {spec.cache_kb} KB",
            "fdiv_bug\t: no",
            "fpu\t\t: yes",
            f"bogomips\t: {spec.mhz * 1.99:.2f}",
        ]))
    return "\n\n".join(blocks) + "\n"

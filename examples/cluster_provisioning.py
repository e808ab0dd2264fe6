#!/usr/bin/env python3
"""Provisioning a 100-node cluster from bare metal (§2, §3.1, §4).

The workflow an administrator runs on day one and on every upgrade:

1. sequenced power-up through the ICE Boxes (no inrush spike);
2. LinuxBIOS boots every node in seconds;
3. a customized image is built and multicast-cloned to all nodes;
4. later, the image gets a kernel update and the cluster is re-cloned;
5. consistency is audited throughout;
6. a new LinuxBIOS release is flashed remotely — no crash cart.

    python examples/cluster_provisioning.py
"""

from repro import ClusterWorX
from repro.firmware import FlashManager
from repro.icebox import peak_inrush
from repro.util import fmt_duration


def main() -> None:
    cwx = ClusterWorX(n_nodes=100, seed=11, monitor_interval=30.0)

    # -- 1+2: sequenced power-up, LinuxBIOS boot --------------------------
    t0 = cwx.kernel.now
    ev = cwx.cluster.power_on_all(sequenced=True, stagger=0.5)
    cwx.kernel.run(ev)
    peak, _ = peak_inrush(cwx.cluster.nodes[:10], t0, cwx.kernel.now + 2)
    cwx.kernel.run()
    print(f"powered + booted {len(cwx.cluster.nodes)} nodes in "
          f"{fmt_duration(cwx.kernel.now - t0)} "
          f"(first rack peak inrush {peak:.1f} A)")
    for agent in cwx.agents.values():
        cwx.scheduler.register(agent)
    cwx.server.start_sweep()

    # -- 3: build and clone a custom image ---------------------------------
    image = cwx.server.images.build(
        "weather-model", packages=["mpich", "netcdf", "pbs-mom"],
        kernel="2.4.18")
    print(f"\nbuilt image {image.name} gen {image.generation}: "
          f"{image.size / 2**30:.2f} GiB, kernel {image.kernel_version}")
    t0 = cwx.kernel.now
    report = cwx.clone("weather-model")
    print(f"multicast-cloned {len(report.cloned)} nodes in "
          f"{fmt_duration(report.total_seconds)} "
          f"(stream {report.stream_seconds:.0f} s, repairs "
          f"{report.repair_bytes / 1e6:.0f} MB)")
    audit = cwx.server.images.audit(cwx.cluster.nodes)
    print(f"audit: {len(audit.consistent)} consistent, "
          f"{len(audit.stale)} stale, {len(audit.wrong)} wrong")

    # -- 4: kernel update, re-clone -----------------------------------------
    cwx.server.images.update_kernel("weather-model", "2.4.21")
    audit = cwx.server.images.audit(cwx.cluster.nodes)
    print(f"\nafter kernel update: {len(audit.stale)} nodes now stale")
    report = cwx.clone("weather-model")
    audit = cwx.server.images.audit(cwx.cluster.nodes)
    print(f"re-cloned in {fmt_duration(report.total_seconds)}; "
          f"consistent again: {audit.is_consistent}")

    # -- 6: remote firmware flash -------------------------------------------
    flasher = FlashManager(cwx.kernel)
    done = flasher.flash_remote(cwx.cluster.nodes, "1.1.4")
    cwx.kernel.run(done)
    staged = len(flasher.staged)
    print(f"\nflashed LinuxBIOS 1.1.4 on {staged} nodes in parallel "
          f"(walk-up alternative on legacy BIOS: "
          f"{100 * 300 / 3600:.0f} technician-hours)")
    # reboot to activate
    for node in cwx.cluster.nodes:
        flasher.activate_on_reboot(node)
        node.reset()
    cwx.kernel.run(
        cwx.kernel.all_of([n.wait_state(*_up_states()) for n in
                           cwx.cluster.nodes]))
    versions = {getattr(n, "firmware").version
                for n in cwx.cluster.nodes}
    print(f"after reboot every node runs LinuxBIOS {versions}")


def _up_states():
    from repro.hardware import NodeState
    return (NodeState.UP, NodeState.CRASHED, NodeState.BURNED)


if __name__ == "__main__":
    main()

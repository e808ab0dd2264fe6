"""Cluster topology: nodes, racks, ICE Boxes, fabric, management host.

One :class:`Cluster` assembles the physical plant the rest of ClusterWorX
manages: N compute nodes in racks of 10 (one ICE Box each), a management
node, a shared network segment, and firmware on every node.  It also
provides the node -> (ICE Box, port) resolver that event actions and the
GUI-equivalent clients use for out-of-band control.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.firmware.bios import (
    BootEnvironment,
    BootSettings,
    Firmware,
    LegacyBIOS,
    LinuxBIOS,
    install_firmware,
)
from repro.hardware.faults import FaultInjector
from repro.hardware.node import NodeState, SimulatedNode
from repro.icebox.box import IceBox
from repro.icebox.protocols.nimp import NIMPServer
from repro.icebox.security import IPFilter
from repro.network.dhcp import BootOptions, DHCPServer
from repro.network.fabric import NetworkFabric
from repro.sim import RandomStreams, SimKernel

__all__ = ["Cluster"]


class Cluster:
    """The managed hardware: nodes, ICE Boxes, network, management host."""

    NODES_PER_ICEBOX = 10

    def __init__(self, kernel: SimKernel, n_nodes: int, *,
                 name: str = "cluster",
                 streams: Optional[RandomStreams] = None,
                 firmware: str = "linuxbios",
                 boot_source: str = "disk",
                 segment_capacity: float = 12.5e6):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if firmware not in ("linuxbios", "legacy"):
            raise ValueError(f"unknown firmware {firmware!r}")
        self.kernel = kernel
        self.name = name
        self.streams = streams if streams is not None else RandomStreams(0)
        self.fabric = NetworkFabric(kernel,
                                    segment_capacity=segment_capacity)

        # Management host: always LinuxBIOS, gets a fat NIC share by being
        # on the same segment (its NIC pool is created like any other).
        self.management = SimulatedNode(kernel, f"{name}-mgmt",
                                        node_id=0xFFFF)
        install_firmware(self.management, LinuxBIOS())
        self.fabric.attach(self.management)

        self.dhcp = DHCPServer(
            defaults=BootOptions(boot_source=boot_source,
                                 boot_server_ip=self.management.ip))
        boot_env = BootEnvironment(fabric=self.fabric,
                                   boot_server=self.management,
                                   dhcp=self.dhcp)
        self.nodes: List[SimulatedNode] = []
        self._by_name: Dict[str, SimulatedNode] = {}
        self.iceboxes: List[IceBox] = []
        self._location: Dict[str, Tuple[IceBox, int]] = {}
        #: NIMP front-end per ICE Box — the protocol ClusterWorX itself
        #: uses over the management Ethernet (§3.4).  Locked down to the
        #: management host's address.
        self.nimp: Dict[str, NIMPServer] = {}

        for i in range(n_nodes):
            node = SimulatedNode(kernel, f"{name}-n{i:04d}", node_id=i + 1)
            if firmware == "linuxbios":
                fw: Firmware = LinuxBIOS(
                    settings=BootSettings(boot_source=boot_source),
                    env=boot_env)
            else:
                fw = LegacyBIOS(settings=BootSettings(boot_source="disk"),
                                env=boot_env)
            install_firmware(node, fw)
            self.fabric.attach(node)
            self.dhcp.reserve(node.mac, node.ip)
            self.nodes.append(node)
            self._by_name[node.hostname] = node

            box_index, port = divmod(i, self.NODES_PER_ICEBOX)
            while box_index >= len(self.iceboxes):
                self._new_icebox()
            self.iceboxes[box_index].connect_node(port, node)
            self._location[node.hostname] = (self.iceboxes[box_index], port)

        self.faults = FaultInjector(kernel, rng=self.streams("faults"))
        self._firmware_kind = firmware
        self._boot_env = boot_env
        self._next_id = n_nodes + 1

    # -- hot add/remove (§5.1: "adding a node to the cluster becomes as
    # simple as a few mouse clicks") --------------------------------------
    def add_node(self) -> SimulatedNode:
        """Wire a brand-new node into fabric, DHCP, and an ICE Box port."""
        i = self._next_id - 1
        self._next_id += 1
        node = SimulatedNode(self.kernel, f"{self.name}-n{i:04d}",
                             node_id=i + 1)
        if self._firmware_kind == "linuxbios":
            fw: Firmware = LinuxBIOS(settings=BootSettings(),
                                     env=self._boot_env)
        else:
            fw = LegacyBIOS(settings=BootSettings(), env=self._boot_env)
        install_firmware(node, fw)
        self.fabric.attach(node)
        self.dhcp.reserve(node.mac, node.ip)
        self.nodes.append(node)
        self._by_name[node.hostname] = node
        # First ICE Box with a free port, or a new box.
        for box in self.iceboxes:
            for port in range(box.power.N_NODE_OUTLETS):
                if box.node_at(port) is None:
                    box.connect_node(port, node)
                    self._location[node.hostname] = (box, port)
                    return node
        box = self._new_icebox()
        box.connect_node(0, node)
        self._location[node.hostname] = (box, 0)
        return node

    def _new_icebox(self) -> IceBox:
        box = IceBox(self.kernel,
                     name=f"{self.name}-ice{len(self.iceboxes)}")
        self.iceboxes.append(box)
        policy = IPFilter(default_allow=False)
        policy.allow(self.management.ip)
        self.nimp[box.name] = NIMPServer(box, policy)
        return box

    def remove_node(self, node: SimulatedNode) -> None:
        """Decommission: power off, free the ICE Box port, drop the lease,
        unplug from the fabric."""
        if node not in self.nodes:
            raise KeyError(f"{node.hostname} is not in this cluster")
        located = self._location.pop(node.hostname, None)
        if located is not None:
            box, port = located
            box.disconnect_node(port)
        else:
            node.power_off()
        self.dhcp.release(node.mac)
        self.fabric.detach(node)
        self.nodes.remove(node)
        self._by_name.pop(node.hostname, None)

    # -- lookup -------------------------------------------------------------
    def node(self, hostname: str) -> SimulatedNode:
        found = self._by_name.get(hostname)
        if found is not None:
            return found
        if hostname == self.management.hostname:
            return self.management
        raise KeyError(f"no node named {hostname!r}")

    def locate(self, node: SimulatedNode
               ) -> Optional[Tuple[IceBox, int]]:
        """node -> (ICE Box, port); the ActionDispatcher resolver."""
        return self._location.get(node.hostname)

    @property
    def hostnames(self) -> List[str]:
        return [n.hostname for n in self.nodes]

    # -- node groups (NodeSet @group provider) -----------------------------
    def rack_name(self, hostname: str) -> Optional[str]:
        """The ``rack<i>`` group a node belongs to (one rack per ICE Box)."""
        located = self._location.get(hostname)
        if located is None:
            return None
        box, _port = located
        return f"rack{self.iceboxes.index(box)}"

    def node_groups(self, group: Optional[str] = None):
        """Resolve one named group (or None for the advertised list).

        Topology groups: ``all`` and one ``rack<i>`` per ICE Box.  State
        groups (``up``, ``off``, ``crashed``, ``hung``, ``booting``)
        are computed at resolution time, so ``@up`` always reflects the
        current simulation state.
        """
        state_groups = {s.value: s for s in NodeState}
        if group is None:
            return (["all"]
                    + [f"rack{i}" for i in range(len(self.iceboxes))]
                    + sorted(state_groups))
        if group == "all":
            return self.hostnames
        if group.startswith("rack"):
            try:
                box = self.iceboxes[int(group[4:])]
            except (ValueError, IndexError):
                return None
            return [n.hostname for n in box.nodes]
        state = state_groups.get(group)
        if state is not None:
            return [n.hostname for n in self.nodes if n.state is state]
        return None

    def group_resolver(self):
        """A :class:`repro.remote.nodeset.GroupResolver` over this topology."""
        from repro.remote.nodeset import GroupResolver
        return GroupResolver(self.node_groups,
                             names=self.node_groups(None))

    def nodes_in_state(self, *states: NodeState) -> List[SimulatedNode]:
        return [n for n in self.nodes if n.state in states]

    # -- boot configuration ------------------------------------------------
    def set_boot_source(self, node: SimulatedNode, source: str, *,
                        image: str = "compute-harddisk") -> None:
        """Change a node's boot path remotely (live on next reboot, §2)."""
        if source not in ("disk", "net", "nfs"):
            raise ValueError(f"unknown boot source {source!r}")
        self.dhcp.set_boot_options(node.mac, BootOptions(
            boot_source=source, image=image,
            boot_server_ip=self.management.ip))

    # -- power orchestration ---------------------------------------------------
    def power_on_all(self, *, sequenced: bool = True,
                     stagger: float = 0.5):
        """Power every node through its ICE Box. Returns an event (the last
        box finishing) when sequenced, else None (instant)."""
        self.management.power_on()
        events = []
        for box in self.iceboxes:
            ports = sorted(p for p in range(box.power.N_NODE_OUTLETS)
                           if box.node_at(p) is not None)
            if sequenced:
                events.append(box.power.sequenced_power_on(ports,
                                                           stagger=stagger))
            else:
                box.power.simultaneous_power_on(ports)
        if events:
            return self.kernel.all_of(events)
        return None

    def boot_all(self) -> None:
        """Power on everything and run the kernel until all boots settle."""
        self.power_on_all(sequenced=False)
        waiters = [n.wait_state(NodeState.UP, NodeState.CRASHED,
                                NodeState.BURNED)
                   for n in self.nodes + [self.management]]
        self.kernel.run(self.kernel.all_of(waiters))

    def up_fraction(self) -> float:
        if not self.nodes:
            return 0.0
        return (sum(1 for n in self.nodes if n.state is NodeState.UP)
                / len(self.nodes))

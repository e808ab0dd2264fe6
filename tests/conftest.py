"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware import SimulatedNode, Workload, WorkloadSegment
from repro.network import NetworkFabric
from repro.sim import RandomStreams, SimKernel


@pytest.fixture
def kernel() -> SimKernel:
    return SimKernel()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def node(kernel) -> SimulatedNode:
    """One booted node (no firmware installed: boots instantly)."""
    n = SimulatedNode(kernel, "testnode", node_id=7)
    n.power_on()
    return n


@pytest.fixture
def loaded_node(kernel, node) -> SimulatedNode:
    """A booted node with a long steady workload."""
    node.workload.add(WorkloadSegment(start=0.0, duration=1e7, cpu=0.6,
                                      memory=512 << 20, net_tx=1e6,
                                      net_rx=2e6, disk_read=3e6,
                                      disk_write=1e6))
    kernel.run(until=10.0)
    return node


@pytest.fixture
def segment_scans(monkeypatch) -> list:
    """Counting wrapper on the segment scan: the instant of every
    ``Workload.active`` call made while the fixture lives."""
    seen = []
    scan = Workload.active
    monkeypatch.setattr(Workload, "active",
                        lambda self, t: seen.append(t) or scan(self, t))
    return seen


@pytest.fixture
def sweep_passes(monkeypatch):
    """``sweep_passes(server)``: the instants of ``server``'s sweep
    passes from now on (with self-healing on, each pass evaluates its
    first managed host's health once)."""
    def watch(server) -> list:
        host, seen = server.managed_hostnames[0], []
        evaluate = server.health.evaluate

        def recording(hostname, **evidence):
            if hostname == host:
                seen.append(server.kernel.now)
            return evaluate(hostname, **evidence)
        monkeypatch.setattr(server.health, "evaluate", recording)
        return seen
    return watch


@pytest.fixture
def fabric(kernel) -> NetworkFabric:
    return NetworkFabric(kernel)


def make_nodes(kernel, count, prefix="n", power=True, start_id=1):
    nodes = []
    for i in range(count):
        n = SimulatedNode(kernel, f"{prefix}{i:03d}", node_id=start_id + i)
        if power:
            n.power_on()
        nodes.append(n)
    return nodes


@pytest.fixture
def make_node_set(kernel):
    """Factory fixture: make_node_set(5) -> five booted nodes."""
    def _make(count, **kw):
        return make_nodes(kernel, count, **kw)
    return _make

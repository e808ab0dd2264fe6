"""Unit tests for the network fabric, multicast, and interconnects."""

import pytest

from repro import ClusterWorX
from repro.network import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    MYRINET,
    PROFILES,
    QUADRICS,
    SCI,
    MulticastGroup,
    NetworkFabric,
)
from repro.sim import RandomStreams


@pytest.fixture
def net(kernel, make_node_set):
    fabric = NetworkFabric(kernel)
    nodes = make_node_set(6)
    fabric.attach_all(nodes)
    return fabric, nodes


class TestFabricBasics:
    def test_unicast_time_is_size_over_rate(self, kernel, net):
        fabric, nodes = net
        ev = fabric.unicast(nodes[0], nodes[1], 12.5e6)
        kernel.run(ev)
        assert kernel.now == pytest.approx(1.0, abs=0.01)

    def test_zero_bytes_fires_immediately(self, kernel, net):
        fabric, nodes = net
        ev = fabric.unicast(nodes[0], nodes[1], 0)
        kernel.run(ev)
        assert kernel.now == pytest.approx(fabric.latency, abs=1e-6)

    def test_counters_credited(self, kernel, net):
        fabric, nodes = net
        kernel.run(fabric.unicast(nodes[0], nodes[1], 1000))
        assert nodes[0].nic.tx_bytes(kernel.now) >= 1000
        assert nodes[1].nic.rx_bytes(kernel.now) >= 1000

    def test_double_attach_rejected(self, kernel, net):
        fabric, nodes = net
        with pytest.raises(ValueError):
            fabric.attach(nodes[0])

    def test_unattached_node_rejected(self, kernel, net, make_node_set):
        fabric, _ = net
        (stranger,) = make_node_set(1, prefix="x", start_id=99)
        with pytest.raises(KeyError):
            fabric.nic_pool(stranger)

    def test_byte_ledger_by_tag(self, kernel, net):
        fabric, nodes = net
        kernel.run(fabric.unicast(nodes[0], nodes[1], 5000, tag="clone"))
        kernel.run(fabric.unicast(nodes[0], nodes[2], 3000, tag="mon"))
        assert fabric.total_bytes("clone") == 5000
        assert fabric.total_bytes("mon") == 3000
        assert fabric.total_bytes() == 8000


class TestBandwidthSharing:
    def test_two_flows_same_source_halve(self, kernel, net):
        fabric, nodes = net
        e1 = fabric.unicast(nodes[0], nodes[1], 12.5e6)
        e2 = fabric.unicast(nodes[0], nodes[2], 12.5e6)
        kernel.run(kernel.all_of([e1, e2]))
        assert kernel.now == pytest.approx(2.0, abs=0.01)

    def test_flow_speeds_up_when_other_finishes(self, kernel, net):
        fabric, nodes = net
        big = fabric.unicast(nodes[0], nodes[1], 12.5e6)
        small = fabric.unicast(nodes[0], nodes[2], 12.5e6 / 4)
        kernel.run(small)
        t_small = kernel.now
        kernel.run(big)
        # small: shares (rate/2) -> done at 0.5; big: 0.5 shared + rest
        # solo -> ~1.25 total.
        assert t_small == pytest.approx(0.5, abs=0.02)
        assert kernel.now == pytest.approx(1.25, abs=0.02)

    def test_segment_is_the_shared_bottleneck(self, kernel, net):
        fabric, nodes = net
        # Different sources, but both cross the one segment.
        e1 = fabric.unicast(nodes[0], nodes[2], 12.5e6)
        e2 = fabric.unicast(nodes[1], nodes[3], 12.5e6)
        kernel.run(kernel.all_of([e1, e2]))
        assert kernel.now == pytest.approx(2.0, abs=0.02)

    def test_degraded_nic_slows_flow(self, kernel, net):
        fabric, nodes = net
        nodes[1].nic.degrade(0.5)
        ev = fabric.unicast(nodes[0], nodes[1], 12.5e6)
        kernel.run(ev)
        assert kernel.now == pytest.approx(2.0, abs=0.05)


class TestMulticast:
    def test_duration_independent_of_receivers(self, kernel, net):
        fabric, nodes = net
        t0 = kernel.now
        ev = fabric.multicast(nodes[0], nodes[1:6], 12.5e6)
        kernel.run(ev)
        assert kernel.now - t0 == pytest.approx(1.0, abs=0.01)

    def test_all_receivers_credited(self, kernel, net):
        fabric, nodes = net
        kernel.run(fabric.multicast(nodes[0], nodes[1:4], 1000))
        for node in nodes[1:4]:
            assert node.nic.rx_bytes(kernel.now) >= 1000

    def test_group_excludes_sender(self, kernel, net, streams):
        fabric, nodes = net
        group = MulticastGroup(fabric, "239.1.1.1",
                               rng=streams("mc"), loss_rate=0.0)
        for n in nodes:
            group.join(n)
        done, missing = group.stream_blocks(nodes[0], 100, 1000)
        kernel.run(done)
        assert nodes[0].hostname not in missing
        assert len(missing) == 5

    def test_lossless_group_has_no_missing(self, kernel, net, streams):
        fabric, nodes = net
        group = MulticastGroup(fabric, "g", rng=streams("mc"),
                               loss_rate=0.0)
        for n in nodes:
            group.join(n)
        done, missing = group.stream_blocks(nodes[0], 1000, 1000)
        kernel.run(done)
        assert all(len(v) == 0 for v in missing.values())

    def test_lossy_group_missing_scales(self, kernel, net, streams):
        fabric, nodes = net
        group = MulticastGroup(fabric, "g", rng=streams("mc"),
                               loss_rate=0.05)
        for n in nodes:
            group.join(n)
        done, missing = group.stream_blocks(nodes[0], 2000, 100)
        kernel.run(done)
        for lost in missing.values():
            assert 2000 * 0.01 < len(lost) < 2000 * 0.12
            assert all(0 <= b < 2000 for b in lost)

    def test_join_leave(self, kernel, net, streams):
        fabric, nodes = net
        group = MulticastGroup(fabric, "g", rng=streams("mc"))
        group.join(nodes[1])
        group.join(nodes[1])  # idempotent
        assert len(group.members) == 1
        group.leave(nodes[1])
        assert group.members == []

    def test_invalid_loss_rate(self, net, streams):
        fabric, _ = net
        with pytest.raises(ValueError):
            MulticastGroup(fabric, "g", rng=streams("mc"), loss_rate=1.0)


class TestMessage:
    def test_message_accounts_bytes(self, kernel, net):
        fabric, nodes = net
        kernel.run(fabric.message(nodes[0], nodes[1], 256, tag="mon"))
        assert fabric.total_bytes("mon") == 256
        assert nodes[1].nic.rx_bytes(kernel.now) >= 256

    def test_message_event_is_the_delivery_itself(self, kernel, net):
        """One kernel event per distinct (instant, size), not per
        datagram: same-size sends at one instant share the returned
        timer, and every waiter on it sees its own bytes credited."""
        fabric, nodes = net
        server, senders = nodes[0], nodes[1:]
        before = kernel.events_processed
        seen = []

        def waiter(src):
            return lambda ev: seen.append(
                (src.hostname, ev.value, kernel.now,
                 src.nic.tx_bytes(kernel.now),
                 src.nic.tx_packets(kernel.now)))

        same = [fabric.message(src, server, 256, tag="mon")
                for src in senders]
        assert all(event is same[0] for event in same)
        for src, event in zip(senders, same):
            event.callbacks.append(waiter(src))
        assert kernel.run(same[0]) == 256
        assert kernel.events_processed - before == 1
        due = fabric.latency + 256 / senders[0].nic.effective_rate
        assert seen == [(src.hostname, 256, due, 256, 1) for src in senders]
        assert fabric.total_bytes("mon") == 256 * len(senders)
        assert server.nic.rx_bytes(kernel.now) == 256 * len(senders)

        # k distinct sizes at one instant -> k events, each waiter its own.
        before, start = kernel.events_processed, kernel.now
        del seen[:]
        sizes = [100, 200, 300]
        for src, size in zip(senders, sizes):
            for _ in range(2):      # two sends per size still share
                event = fabric.message(src, server, size, tag="mon")
            event.callbacks.append(waiter(src))
        kernel.run()
        assert kernel.events_processed - before == len(sizes)
        assert seen == [
            (src.hostname, size,
             start + (fabric.latency + size / src.nic.effective_rate),
             256 + 2 * size, 3)
            for src, size in zip(senders, sizes)]


class TestDetach:
    def test_detach_forgets_node_and_pool(self, kernel, net):
        fabric, nodes = net
        fabric.detach(nodes[2])
        assert nodes[2].hostname not in fabric.nodes
        with pytest.raises(KeyError):
            fabric.nic_pool(nodes[2])
        with pytest.raises(KeyError):
            fabric.detach(nodes[2])
        fabric.attach(nodes[2])      # the name is free again
        kernel.run(fabric.message(nodes[2], nodes[0], 64))
        assert nodes[2].nic.tx_bytes(kernel.now) == 64

    def test_hot_remove_unplugs_from_the_fabric(self):
        """``remove_node`` used to leave the node and its NIC pool in the
        fabric for the life of the cluster."""
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0)
        cwx.start()
        fabric, server = cwx.cluster.fabric, cwx.cluster.management
        victim = cwx.cluster.hostnames[1]
        node = cwx.cluster.node(victim)
        # A datagram still in an undelivered batch when its sender goes.
        pending = fabric.message(node, server, 512, tag="late")
        sent_before = node.nic.tx_bytes(cwx.kernel.now)
        attached = len(fabric.nodes)

        cwx.remove_node(victim)
        assert victim not in fabric.nodes
        assert len(fabric.nodes) == attached - 1
        with pytest.raises(KeyError):
            fabric.message(node, server, 512, tag="late")
        with pytest.raises(KeyError):
            fabric.nic_pool(node)

        assert not pending.processed
        assert fabric.total_bytes("late") == 0
        due = cwx.kernel.now + fabric.latency + 512 / node.nic.effective_rate
        cwx.kernel.run(pending)
        assert cwx.kernel.now == pytest.approx(due, abs=1e-12)
        assert fabric.total_bytes("late") == 512
        assert node.nic.tx_bytes(cwx.kernel.now) == sent_before + 512
        cwx.run(12.0)                # survivors keep reporting
        assert victim not in cwx.server.store


class TestInterconnects:
    def test_profiles_registry(self):
        assert set(PROFILES) == {
            "fast-ethernet", "gigabit-ethernet", "myrinet-2000",
            "quadrics-elan3", "sci"}

    def test_bandwidth_ordering(self):
        assert (FAST_ETHERNET.bandwidth < GIGABIT_ETHERNET.bandwidth
                < MYRINET.bandwidth <= QUADRICS.bandwidth)

    def test_latency_ordering(self):
        assert SCI.latency < QUADRICS.latency < MYRINET.latency \
            < GIGABIT_ETHERNET.latency < FAST_ETHERNET.latency

    def test_transfer_time(self):
        t = FAST_ETHERNET.transfer_time(12.5e6)
        assert t == pytest.approx(1.0, abs=0.001)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MYRINET.transfer_time(-1)

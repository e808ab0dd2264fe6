"""Direct tests for paths only exercised indirectly elsewhere:
multi-partition scheduling, ICE Box lookups, transmitter-over-fabric,
server bookkeeping, DHCP defaults."""

import pytest

from repro.core import ClusterWorX
from repro.events import ActionDispatcher
from repro.hardware import SimulatedNode
from repro.icebox import IceBox
from repro.monitoring import TextCodec, Transmitter, Update
from repro.network import NetworkFabric
from repro.network.dhcp import BootOptions, DHCPServer
from repro.slurm import Job, JobState, Partition, SlurmController


class TestPartitions:
    @pytest.fixture
    def partitioned(self, kernel, make_node_set):
        nodes = make_node_set(8)
        ctl = SlurmController(kernel)
        for node in nodes:
            ctl.register_node(node)
        ctl.add_partition(Partition(
            "batch", hostnames=[n.hostname for n in nodes[:6]],
            max_time=1000.0))
        ctl.add_partition(Partition(
            "debug", hostnames=[n.hostname for n in nodes[6:]],
            max_time=60.0, allow_shared=False))
        return ctl, nodes

    def test_jobs_confined_to_their_partition(self, kernel, partitioned):
        ctl, nodes = partitioned
        batch_job = ctl.submit(Job(name="b", user="u", n_nodes=6,
                                   time_limit=100, duration=50,
                                   partition="batch"))
        debug_job = ctl.submit(Job(name="d", user="u", n_nodes=2,
                                   time_limit=50, duration=20,
                                   partition="debug"))
        assert set(batch_job.allocated) == {n.hostname
                                            for n in nodes[:6]}
        assert set(debug_job.allocated) == {n.hostname
                                            for n in nodes[6:]}

    def test_partition_time_limit_enforced(self, kernel, partitioned):
        ctl, _ = partitioned
        with pytest.raises(ValueError, match="exceeds partition max"):
            ctl.submit(Job(name="long", user="u", n_nodes=1,
                           time_limit=120, duration=60,
                           partition="debug"))

    def test_exclusive_only_partition(self, kernel, partitioned):
        ctl, _ = partitioned
        with pytest.raises(ValueError, match="exclusive-only"):
            ctl.submit(Job(name="sh", user="u", n_nodes=1,
                           time_limit=30, duration=10,
                           partition="debug", exclusive=False))

    def test_partitions_schedule_independently(self, kernel,
                                               partitioned):
        ctl, _ = partitioned
        # fill batch; debug must still start immediately
        ctl.submit(Job(name="fill", user="u", n_nodes=6,
                       time_limit=500, duration=400, partition="batch"))
        d = ctl.submit(Job(name="d", user="u", n_nodes=2, time_limit=50,
                           duration=20, partition="debug"))
        assert d.state == JobState.RUNNING

    def test_unknown_partition_rejected(self, kernel, partitioned):
        ctl, _ = partitioned
        with pytest.raises(ValueError, match="no partition"):
            ctl.submit(Job(name="x", user="u", n_nodes=1, time_limit=10,
                           duration=5, partition="gpu"))


class TestIceBoxLookups:
    def test_port_of(self, kernel, make_node_set):
        box = IceBox(kernel)
        nodes = make_node_set(3, power=False)
        for i, node in enumerate(nodes):
            box.connect_node(i, node)
        assert box.port_of(nodes[2]) == 2
        (stranger,) = make_node_set(1, prefix="s", start_id=99,
                                    power=False)
        assert box.port_of(stranger) is None

    def test_inlet_amps(self, kernel, make_node_set):
        box = IceBox(kernel)
        nodes = make_node_set(10, power=False)
        for i, node in enumerate(nodes):
            box.connect_node(i, node)
        box.power.simultaneous_power_on()
        # both inlets carry five nodes + one aux each
        a0 = box.power.inlet_amps(0, 0.05)
        a1 = box.power.inlet_amps(1, 0.05)
        assert a0 > 1.0 and a1 > 1.0
        assert a0 == pytest.approx(a1, rel=0.2)

    def test_console_unsubscribe(self, kernel, make_node_set):
        box = IceBox(kernel)
        (node,) = make_node_set(1, power=False)
        box.connect_node(0, node)
        seen = []
        box.console(0).subscribe(seen.append)
        node.serial_write("one")
        box.console(0).unsubscribe(seen.append)
        node.serial_write("two")
        assert seen == ["one"]


class TestTransmitterOverFabric:
    def test_frames_travel_the_wire(self, kernel, make_node_set):
        fabric = NetworkFabric(kernel)
        src, dst = make_node_set(2)
        fabric.attach_all([src, dst])
        tx = Transmitter(fabric, src, dst, codec=TextCodec())
        payload, event = tx.transmit_update(
            Update(hostname=src.hostname, time=0.0, values={"cpu": 42}))
        assert event is not None
        kernel.run(event)
        assert fabric.total_bytes("monitoring") == len(payload)
        assert dst.nic.rx_bytes(kernel.now) >= len(payload)


class TestServerBookkeeping:
    def test_last_seen_and_stop_sweep(self):
        cwx = ClusterWorX(n_nodes=2, seed=71, monitor_interval=5.0)
        cwx.start()
        cwx.run(20)
        host = cwx.cluster.hostnames[0]
        seen = cwx.server.last_seen(host)
        assert seen is not None and seen <= cwx.kernel.now
        assert cwx.server.last_seen("ghost") is None
        cwx.server.stop_sweep()
        cwx.server.start_sweep()  # restart is safe
        cwx.run(20)

    def test_sweep_restart_runs_one_loop(self, sweep_passes):
        """``stop_sweep`` ends the loop at once: a restart inside one
        ``sweep_interval`` used to leave the old loop waking beside the
        new one, so every host was swept twice per interval."""
        cwx = ClusterWorX(n_nodes=2, seed=7, monitor_interval=5.0,
                          self_healing=True)
        cwx.start()
        cwx.run(20)
        server = cwx.server
        passes = sweep_passes(server)
        server.stop_sweep()
        cwx.run(1)
        server.start_sweep()
        cwx.run(30)
        gaps = [b - a for a, b in zip(passes, passes[1:])]
        assert len(passes) == 4
        assert gaps == pytest.approx([server.sweep_interval] * 3)

    def test_action_names_lists_builtins_and_custom(self):
        dispatcher = ActionDispatcher()
        dispatcher.register("page", lambda n: None)
        names = dispatcher.action_names
        assert {"power_down", "reboot", "halt", "none",
                "page"} <= set(names)


class TestDHCPDefaults:
    def test_set_default_options_affects_unpinned(self):
        server = DHCPServer()
        server.set_default_options(BootOptions(boot_source="nfs"))
        lease = server.discover("aa:bb:cc:dd:ee:ff", "x", t=0.0)
        assert lease.options.boot_source == "nfs"

    def test_override_survives_default_change(self):
        server = DHCPServer()
        server.set_boot_options("aa:bb:cc:dd:ee:01",
                                BootOptions(boot_source="net"))
        server.set_default_options(BootOptions(boot_source="nfs"))
        assert server.boot_options_for(
            "aa:bb:cc:dd:ee:01").boot_source == "net"


class TestJobHelpers:
    def test_expected_end_and_terminal(self):
        job = Job(name="j", user="u", n_nodes=1, time_limit=100,
                  duration=50)
        assert job.expected_end() is None
        job.start_time = 10.0
        assert job.expected_end() == 110.0
        assert not job.is_terminal
        job.state = JobState.COMPLETED
        assert job.is_terminal


class TestServerUsesNIMP:
    def test_power_path_is_nimp(self):
        cwx = ClusterWorX(n_nodes=2, seed=72, monitor_interval=30.0)
        cwx.start()
        nimp = list(cwx.cluster.nimp.values())[0]
        before = nimp.requests_handled
        cwx.server.power(cwx.cluster.hostnames[0], "cycle")
        assert nimp.requests_handled == before + 1

    def test_nimp_filter_only_admits_management(self):
        cwx = ClusterWorX(n_nodes=2, seed=73, monitor_interval=30.0)
        nimp = list(cwx.cluster.nimp.values())[0]
        from repro.icebox.protocols import ProtocolError
        with pytest.raises(ProtocolError, match="filtered"):
            nimp.handle_request("10.99.99.99", "NIMP/1.0 STATUS")
        assert nimp.handle_request(cwx.cluster.management.ip,
                                   "NIMP/1.0 STATUS").startswith("NIMP")

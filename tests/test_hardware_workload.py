"""Unit tests for the workload segment model."""

import numpy as np
import pytest

from repro.hardware import Workload, WorkloadGenerator, WorkloadSegment
from repro.sim import RandomStreams


class TestWorkloadSegment:
    def test_active_window_half_open(self):
        seg = WorkloadSegment(start=10.0, duration=5.0, cpu=0.5)
        assert not seg.active_at(9.99)
        assert seg.active_at(10.0)
        assert seg.active_at(14.99)
        assert not seg.active_at(15.0)

    def test_end_property(self):
        assert WorkloadSegment(start=2.0, duration=3.0).end == 5.0


class TestWorkload:
    def test_demand_sums_active_segments(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=10, cpu=0.3, memory=100))
        w.add(WorkloadSegment(start=5, duration=10, cpu=0.4, memory=200))
        assert w.demand(2.0)["cpu"] == pytest.approx(0.3)
        assert w.demand(7.0)["cpu"] == pytest.approx(0.7)
        assert w.demand(7.0)["memory"] == 300
        assert w.demand(12.0)["cpu"] == pytest.approx(0.4)
        assert w.demand(20.0)["cpu"] == 0.0

    def test_integrate_exact_for_piecewise_constant(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=10, cpu=0.5))
        w.add(WorkloadSegment(start=5, duration=10, cpu=1.0))
        # integral of cpu over [0, 20] = 0.5*10 + 1.0*10 = 15
        assert w.integrate("cpu", 0, 20) == pytest.approx(15.0)
        # partial overlap
        assert w.integrate("cpu", 2, 7) == pytest.approx(0.5 * 5 + 1.0 * 2)

    def test_integrate_empty_interval(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=10, cpu=1.0))
        assert w.integrate("cpu", 5, 5) == 0.0
        assert w.integrate("cpu", 7, 3) == 0.0

    def test_change_points(self):
        w = Workload()
        w.add(WorkloadSegment(start=3, duration=4, cpu=1.0))
        assert w.change_points(0, 10) == [3.0, 7.0]
        assert w.change_points(3.5, 6.0) == []

    def test_remove_tagged(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=10, cpu=0.5, tag="a"))
        w.add(WorkloadSegment(start=0, duration=10, cpu=0.5, tag="b"))
        assert w.remove_tagged("a") == 1
        assert w.demand(5)["cpu"] == pytest.approx(0.5)

    def test_truncate_tagged_shortens_active(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=100, cpu=1.0, tag="job"))
        changed = w.truncate_tagged("job", at=30.0)
        assert changed == 1
        assert w.demand(20)["cpu"] == pytest.approx(1.0)
        assert w.demand(40)["cpu"] == 0.0

    def test_truncate_tagged_drops_future(self):
        w = Workload()
        w.add(WorkloadSegment(start=50, duration=10, cpu=1.0, tag="job"))
        w.truncate_tagged("job", at=30.0)
        assert w.demand(55)["cpu"] == 0.0

    def test_truncate_keeps_finished(self):
        w = Workload()
        w.add(WorkloadSegment(start=0, duration=10, cpu=1.0, tag="job"))
        assert w.truncate_tagged("job", at=30.0) == 0
        assert w.integrate("cpu", 0, 10) == pytest.approx(10.0)


class TestDemandEdges:
    """``demand`` at and around the change points."""

    def test_interval_is_half_open_at_both_ends(self):
        w = Workload()
        w.add(WorkloadSegment(start=10.0, duration=5.0, cpu=0.5, memory=7))
        assert w.demand(9.999)["cpu"] == 0.0
        assert w.demand(10.0)["cpu"] == 0.5      # t == start: active
        assert w.demand(14.999)["memory"] == 7
        assert w.demand(15.0)["cpu"] == 0.0      # t == end: gone
        assert w.demand(15.0)["memory"] == 0

    def test_segments_sharing_a_boundary(self):
        w = Workload()
        w.add(WorkloadSegment(start=0.0, duration=10.0, cpu=0.25))
        w.add(WorkloadSegment(start=10.0, duration=10.0, cpu=0.75))
        assert w.change_points(-1.0, 30.0) == [0.0, 10.0, 20.0]
        assert w.demand(9.999)["cpu"] == 0.25
        assert w.demand(10.0)["cpu"] == 0.75     # never both, never neither
        assert w.demand(20.0)["cpu"] == 0.0

    def test_mutation_between_two_reads_at_the_same_instant(self):
        w = Workload()
        w.add(WorkloadSegment(start=0.0, duration=100.0, cpu=0.5, tag="a"))
        assert w.demand(50.0)["cpu"] == 0.5
        w.add(WorkloadSegment(start=40.0, duration=20.0, cpu=0.25, tag="b"))
        assert w.demand(50.0)["cpu"] == 0.75
        w.truncate_tagged("a", at=45.0)
        assert w.demand(50.0)["cpu"] == 0.25
        assert w.remove_tagged("b") == 1
        assert w.demand(50.0)["cpu"] == 0.0
        w.extend([WorkloadSegment(start=50.0, duration=1.0, cpu=1.0)])
        assert w.demand(50.0)["cpu"] == 1.0
        assert w.change_points(0.0, 100.0) == [45.0, 50.0, 51.0]

    def test_returned_demand_cannot_be_mutated(self):
        """All idle nodes share one zero mapping; busy reads match it."""
        w = Workload()
        with pytest.raises(TypeError):
            w.demand(0.0)["cpu"] = 9.0           # the shared zero mapping
        w.add(WorkloadSegment(start=0.0, duration=10.0, cpu=0.5))
        with pytest.raises(TypeError):
            w.demand(5.0)["cpu"] = 9.0
        assert w.demand(5.0)["cpu"] == 0.5
        assert Workload().demand(0.0)["cpu"] == 0.0


class TestWorkloadGenerator:
    @pytest.fixture
    def gen(self):
        return WorkloadGenerator(RandomStreams(9)("wl"))

    def test_hpc_job_alternates_phases(self, gen):
        segs = gen.hpc_job(start=0.0, phases=4, tag="j1")
        assert len(segs) == 8  # compute + comm per phase
        comm = [s for s in segs if s.net_tx > 0]
        assert len(comm) == 4
        # contiguous coverage
        for a, b in zip(segs[:-1], segs[1:]):
            assert b.start == pytest.approx(a.end)

    def test_hpc_job_deterministic_per_seed(self):
        a = WorkloadGenerator(RandomStreams(5)("w")).hpc_job(0.0)
        b = WorkloadGenerator(RandomStreams(5)("w")).hpc_job(0.0)
        assert a == b

    def test_memory_ramp_monotone(self, gen):
        segs = gen.memory_ramp(start=0.0, steps=5)
        mems = [s.memory for s in segs]
        assert mems == sorted(mems)
        assert mems[0] < mems[-1]

    def test_io_heavy_job_disk_rates(self, gen):
        (seg,) = gen.io_heavy_job(start=0.0)
        assert seg.disk_write > seg.disk_read > 0

    def test_background_noise_low_cpu(self, gen):
        (seg,) = gen.background_noise(0.0, 100.0)
        assert seg.cpu < 0.1

"""Tests for the extension features: extra proc files, trend forecasting,
event log + rule scopes, SLURM requeue + views."""

import math

import pytest

from repro.events import EventEngine, ThresholdRule
from repro.hardware import WorkloadSegment
from repro.monitoring import HistoryStore
from repro.procfs import ProcFilesystem
from repro.slurm import (
    Job,
    JobState,
    SlurmController,
    sinfo,
    squeue,
)


class TestExtraProcFiles:
    @pytest.fixture
    def fs(self, loaded_node):
        return ProcFilesystem(loaded_node)

    def test_version_static(self, fs):
        text = fs.read_text("/proc/version")
        assert text.startswith("Linux version 2.4.18")

    def test_interrupts_layout(self, fs, loaded_node):
        loaded_node.kernel.run(until=60)
        text = fs.read_text("/proc/interrupts")
        assert "timer" in text and "eth0" in text
        timer_line = [l for l in text.splitlines()
                      if "timer" in l][0]
        assert int(timer_line.split()[1]) > 0

    def test_partitions_reflect_disk(self, fs, loaded_node):
        text = fs.read_text("/proc/partitions")
        blocks = loaded_node.disk.spec.capacity // 1024
        assert str(blocks) in text and "hda" in text

    def test_swaps_track_usage(self, fs, loaded_node):
        text = fs.read_text("/proc/swaps")
        assert "partition" in text
        loaded_node.workload.add(WorkloadSegment(
            start=loaded_node.kernel.now, duration=100,
            memory=2 << 30))
        text2 = fs.read_text("/proc/swaps")
        used = int(text2.splitlines()[1].split()[3])
        assert used > 0

    def test_mounts_reflect_boot_mode(self, fs, loaded_node):
        assert "nfs" in fs.read_text("/proc/mounts")  # bare disk -> NFS
        loaded_node.disk.install_image("img", 1, "x", 1 << 30)
        assert "ext2" in fs.read_text("/proc/mounts")

    def test_all_default_files_readable(self, fs):
        for path in fs.DEFAULT_FILES:
            content = fs.read_text(path)
            assert content and content.endswith("\n"), path


class TestForecasting:
    def _leaking_history(self):
        store = HistoryStore()
        # memory grows linearly: 50 + 2 MB/min
        for minute in range(30):
            store.record("n1", minute * 60.0,
                         {"mem_mb": 50.0 + 2.0 * minute})
        return store

    def test_trend_slope(self):
        store = self._leaking_history()
        slope, intercept = store.trend("n1", "mem_mb")
        assert slope == pytest.approx(2.0 / 60.0, rel=1e-6)
        assert intercept == pytest.approx(50.0, abs=1e-6)

    def test_forecast_extrapolates(self):
        store = self._leaking_history()
        assert store.forecast("n1", "mem_mb", 60.0 * 60) \
            == pytest.approx(50.0 + 2.0 * 60, rel=1e-6)

    def test_time_to_threshold(self):
        store = self._leaking_history()
        eta = store.time_to_threshold("n1", "mem_mb", 1024.0)
        # 1024 = 50 + 2*(t/60) -> t = 487 minutes
        assert eta == pytest.approx(487.0 * 60, rel=1e-6)

    def test_threshold_never_reached_flat(self):
        store = HistoryStore()
        for i in range(10):
            store.record("n1", float(i), {"m": 5.0})
        assert store.time_to_threshold("n1", "m", 100.0) is None

    def test_threshold_already_crossed_returns_now(self):
        store = self._leaking_history()
        # The series is already above 10 MB: crossing time is "now"
        # (the latest sample), not a future extrapolation.
        latest_t, _ = store.latest("n1", "mem_mb")
        assert store.time_to_threshold("n1", "mem_mb", 10.0) == latest_t

    def test_windowed_trend_sees_recent_regime(self):
        store = HistoryStore()
        for i in range(50):
            store.record("n1", float(i), {"m": 1.0})     # flat epoch
        for i in range(50, 100):
            store.record("n1", float(i), {"m": float(i)})  # ramp epoch
        slope_all, _ = store.trend("n1", "m")
        slope_recent, _ = store.trend("n1", "m", window=40.0)
        # The window isolates the ramp regime exactly; the full-history
        # fit is contaminated by the flat epoch.
        assert slope_recent == pytest.approx(1.0, rel=1e-6)
        assert slope_all != pytest.approx(1.0, rel=0.05)

    def test_insufficient_data_nan(self):
        store = HistoryStore()
        store.record("n1", 0.0, {"m": 1.0})
        slope, _ = store.trend("n1", "m")
        assert math.isnan(slope)


class TestEventLogAndScope:
    def test_scoped_rule_ignores_other_nodes(self, kernel,
                                             make_node_set):
        a, b = make_node_set(2)
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(
            name="hot", metric="t", op=">", threshold=50.0,
            scope=frozenset({a.hostname})))
        assert len(engine.feed(a, {"t": 99.0}, {"t": 99.0})) == 1
        assert engine.feed(b, {"t": 99.0}, {"t": 99.0}) == []

    def test_unscoped_rule_applies_everywhere(self, kernel,
                                              make_node_set):
        a, b = make_node_set(2)
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(name="hot", metric="t", op=">",
                                      threshold=50.0))
        assert engine.feed(a, {"t": 99.0}, {"t": 99.0}) \
            and engine.feed(b, {"t": 99.0}, {"t": 99.0})

    def test_event_log_filters(self, kernel, make_node_set):
        a, b = make_node_set(2)
        engine = EventEngine(kernel)
        engine.add_rule(ThresholdRule(name="r1", metric="x", op=">",
                                      threshold=0))
        engine.add_rule(ThresholdRule(name="r2", metric="y", op=">",
                                      threshold=0))
        engine.feed(a, {"x": 1, "y": 1}, {"x": 1, "y": 1})
        engine.feed(b, {"x": 1}, {"x": 1})
        assert len(engine.event_log()) == 3
        assert len(engine.event_log(rule="r1")) == 2
        assert len(engine.event_log(node=a.hostname)) == 2
        assert len(engine.event_log(rule="r2", node=b.hostname)) == 0
        assert len(engine.event_log(limit=1)) == 1


class TestSlurmRequeue:
    @pytest.fixture
    def slurm(self, kernel, make_node_set):
        nodes = make_node_set(6)
        ctl = SlurmController(kernel)
        for n in nodes:
            ctl.register_node(n)
        return ctl, nodes

    def test_requeued_job_completes_elsewhere(self, kernel, slurm):
        ctl, nodes = slurm
        job = ctl.submit(Job(name="r", user="u", n_nodes=2,
                             time_limit=500, duration=100,
                             requeue=True))
        kernel.run(until=10)
        first_alloc = list(job.allocated)
        victim = next(n for n in nodes
                      if n.hostname == first_alloc[0])
        victim.crash("dead")
        kernel.run(until=500)
        assert job.state == JobState.COMPLETED
        assert job.requeue_count == 1
        assert victim.hostname not in job.allocated

    def test_requeue_avoids_failed_node(self, kernel, slurm):
        ctl, nodes = slurm
        job = ctl.submit(Job(name="r", user="u", n_nodes=2,
                             time_limit=500, duration=100,
                             requeue=True))
        kernel.run(until=10)
        victim_host = job.allocated[0]
        assert victim_host not in job.excluded
        next(n for n in nodes if n.hostname == victim_host).crash("x")
        assert victim_host in job.excluded

    def test_no_requeue_fails(self, kernel, slurm):
        ctl, nodes = slurm
        job = ctl.submit(Job(name="f", user="u", n_nodes=2,
                             time_limit=500, duration=100))
        kernel.run(until=10)
        next(n for n in nodes
             if n.hostname == job.allocated[0]).crash("x")
        assert job.state == JobState.FAILED


class TestSlurmViews:
    def test_squeue_shows_running_and_pending(self, kernel,
                                              make_node_set):
        nodes = make_node_set(4)
        ctl = SlurmController(kernel)
        for n in nodes:
            ctl.register_node(n)
        running = ctl.submit(Job(name="runner", user="alice", n_nodes=4,
                                 time_limit=100, duration=50))
        pending = ctl.submit(Job(name="waiter", user="bob", n_nodes=2,
                                 time_limit=100, duration=50))
        out = squeue(ctl)
        assert "runner" in out and " R " in out
        assert "waiter" in out and "PD" in out
        assert "(Resources)" in out

    def test_squeue_include_done(self, kernel, make_node_set):
        nodes = make_node_set(2)
        ctl = SlurmController(kernel)
        for n in nodes:
            ctl.register_node(n)
        ctl.submit(Job(name="quick", user="u", n_nodes=1,
                       time_limit=100, duration=10))
        kernel.run(until=20)
        out = squeue(ctl, include_done=True)
        assert "CD" in out

    def test_sinfo_state_breakdown(self, kernel, make_node_set):
        nodes = make_node_set(4)
        ctl = SlurmController(kernel)
        for n in nodes:
            ctl.register_node(n)
        ctl.submit(Job(name="j", user="u", n_nodes=2,
                       time_limit=100, duration=50))
        nodes[3].crash("x")
        out = sinfo(ctl)
        assert "allocated" in out and "idle" in out and "down" in out

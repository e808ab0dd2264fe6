"""Tests for the Maui-like scheduler and the server console archive."""

import pytest

from repro.core import ClusterWorX
from repro.core.server import CONSOLE_KEPT
from repro.slurm import (
    Job,
    JobState,
    MauiLikeScheduler,
    MauiWeights,
    SlurmController,
)


class TestMauiPriority:
    def test_queue_time_escalates(self):
        sched = MauiLikeScheduler()
        a = Job(name="old", user="u", n_nodes=1, time_limit=10,
                duration=5)
        a.submit_time = 0.0
        b = Job(name="new", user="u", n_nodes=1, time_limit=10,
                duration=5)
        b.submit_time = 900.0
        assert sched.priority(a, 1000.0) > sched.priority(b, 1000.0)

    def test_size_weight_favours_wide_jobs(self):
        sched = MauiLikeScheduler()
        small = Job(name="s", user="u", n_nodes=1, time_limit=10,
                    duration=5)
        wide = Job(name="w", user="u", n_nodes=16, time_limit=10,
                   duration=5)
        small.submit_time = wide.submit_time = 0.0
        assert sched.priority(wide, 0.0) > sched.priority(small, 0.0)

    def test_fairshare_penalizes_heavy_users(self):
        sched = MauiLikeScheduler()
        done = Job(name="done", user="hog", n_nodes=8, time_limit=1000,
                   duration=900)
        done.start_time, done.end_time, done.allocated = \
            0.0, 900.0, [f"h{i}" for i in range(8)]
        sched.record_usage(done, 900.0)
        hog_job = Job(name="h", user="hog", n_nodes=1, time_limit=10,
                      duration=5)
        new_job = Job(name="n", user="newbie", n_nodes=1, time_limit=10,
                      duration=5)
        hog_job.submit_time = new_job.submit_time = 900.0
        assert sched.priority(new_job, 900.0) \
            > sched.priority(hog_job, 900.0)

    def test_fairshare_decays(self):
        sched = MauiLikeScheduler(fairshare_halflife=100.0)
        done = Job(name="d", user="u", n_nodes=4, time_limit=100,
                   duration=100)
        done.start_time, done.end_time = 0.0, 100.0
        done.allocated = ["a", "b", "c", "d"]
        sched.record_usage(done, 100.0)
        before = sched.fairshare_of("u")
        sched._decay(200.0)  # one half-life later
        assert sched.fairshare_of("u") == pytest.approx(before / 2)

    def test_admin_priority_dominates(self):
        sched = MauiLikeScheduler(MauiWeights(user_priority=1e6))
        lo = Job(name="lo", user="u", n_nodes=1, time_limit=10,
                 duration=5, priority=0)
        hi = Job(name="hi", user="u", n_nodes=1, time_limit=10,
                 duration=5, priority=3)
        lo.submit_time = hi.submit_time = 0.0
        assert sched.priority(hi, 0.0) > sched.priority(lo, 0.0)


class TestMauiEndToEnd:
    def test_fairshare_reorders_queue(self, kernel, make_node_set):
        nodes = make_node_set(4)
        sched = MauiLikeScheduler(MauiWeights(queue_time=0.0,
                                              size=0.0,
                                              fairshare=1000.0))
        ctl = SlurmController(kernel, scheduler=sched)
        for node in nodes:
            ctl.register_node(node)
        # the hog burns node-seconds first
        hog_run = ctl.submit(Job(name="hog1", user="hog", n_nodes=4,
                                 time_limit=300, duration=200))
        kernel.run(until=201)
        assert hog_run.state == JobState.COMPLETED
        # both users queue behind a blocker; newbie should win the tie
        blocker = ctl.submit(Job(name="blk", user="x", n_nodes=4,
                                 time_limit=100, duration=50))
        hog_next = ctl.submit(Job(name="hog2", user="hog", n_nodes=4,
                                  time_limit=100, duration=50))
        newbie = ctl.submit(Job(name="new", user="newbie", n_nodes=4,
                                time_limit=100, duration=50))
        kernel.run(until=260)
        assert newbie.state == JobState.RUNNING
        assert hog_next.state == JobState.PENDING

    def test_backfill_still_applies(self, kernel, make_node_set):
        nodes = make_node_set(4)
        ctl = SlurmController(kernel, scheduler=MauiLikeScheduler())
        for node in nodes:
            ctl.register_node(node)
        ctl.submit(Job(name="run", user="u", n_nodes=2, time_limit=200,
                       duration=150))
        ctl.submit(Job(name="head", user="u", n_nodes=4, time_limit=200,
                       duration=50))
        filler = ctl.submit(Job(name="fill", user="u", n_nodes=2,
                                time_limit=100, duration=50))
        kernel.run(until=10)
        assert filler.state == JobState.RUNNING  # backfilled


class TestConsoleArchive:
    def test_archive_outlives_ring_buffer(self):
        cwx = ClusterWorX(n_nodes=3, seed=61, monitor_interval=30.0)
        cwx.start()
        host = cwx.cluster.hostnames[0]
        node = cwx.cluster.node(host)
        marker = "EARLY-BOOT-MARKER-XYZ"
        node.serial_write(f"{marker}\n")
        node.serial_write("z" * (20 * 1024))   # overflow the 16k buffer
        box, port = cwx.cluster.locate(node)
        assert marker not in box.console(port).capture()  # gone on-box
        archived = cwx.server.console_archive(host)
        assert any(marker in text for _, text in archived)

    def test_search_across_cluster(self):
        cwx = ClusterWorX(n_nodes=4, seed=62, monitor_interval=30.0)
        cwx.start()
        cwx.cluster.nodes[1].crash("EIP 0xc01dbeef")
        cwx.cluster.nodes[3].crash("EIP 0xc01dbeef")
        hits = cwx.server.console_search("0xc01dbeef")
        hosts = {h for h, _, _ in hits}
        assert hosts == {cwx.cluster.hostnames[1],
                         cwx.cluster.hostnames[3]}

    def test_archive_bounded(self):
        cwx = ClusterWorX(n_nodes=1, seed=63, monitor_interval=30.0)
        cwx.start()
        node = cwx.cluster.nodes[0]
        for i in range(CONSOLE_KEPT + 150):
            node.serial_write(f"line {i}\n")
        archived = cwx.server.console_archive(node.hostname)
        assert len(archived) == CONSOLE_KEPT
        assert f"line {CONSOLE_KEPT + 149}" in archived[-1][1]

    def test_since_filter(self):
        cwx = ClusterWorX(n_nodes=1, seed=64, monitor_interval=30.0)
        cwx.start()
        node = cwx.cluster.nodes[0]
        node.serial_write("before\n")
        cwx.run(100)
        node.serial_write("after\n")
        late = cwx.server.console_archive(node.hostname,
                                          since=cwx.kernel.now - 1)
        assert all("before" not in text for _, text in late)
        assert any("after" in text for _, text in late)

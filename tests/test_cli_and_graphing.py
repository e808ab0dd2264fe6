"""Tests for the CLI subcommands, the ASCII graphing, and hot add/remove."""

import math

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import ClusterWorX
from repro.core.graphing import chart, node_comparison, sparkline
from repro.hardware import NodeState
from repro.monitoring import HistoryStore


class TestSparkline:
    def test_monotone_series_monotone_glyphs(self):
        s = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert s == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        s = sparkline([5, 5, 5])
        assert len(s) == 3 and len(set(s)) == 1

    def test_nan_rendered_as_space(self):
        s = sparkline([1.0, float("nan"), 2.0])
        assert s[1] == " "

    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_nan(self):
        assert sparkline([float("nan")] * 4) == "    "


class TestChart:
    def _store(self):
        store = HistoryStore()
        for i in range(120):
            store.record("n1", float(i), {"m": float(i % 30)})
        return store

    def test_chart_contains_title_and_axis(self):
        out = chart(self._store(), "n1", "m", buckets=40, height=5)
        assert "n1 :: m" in out
        assert "t=" in out
        assert "█" in out

    def test_chart_height_rows(self):
        out = chart(self._store(), "n1", "m", height=5)
        assert len(out.splitlines()) == 5 + 3  # title + bars + axis rows

    def test_chart_no_data(self):
        assert "(no data" in chart(HistoryStore(), "x", "y")

    def test_node_comparison_bars_scale(self):
        store = HistoryStore()
        store.record("a", 1.0, {"m": 10.0})
        store.record("b", 1.0, {"m": 100.0})
        out = node_comparison(store, ["a", "b"], "m")
        bar_a = out.splitlines()[1].count("█")
        bar_b = out.splitlines()[2].count("█")
        assert bar_b > bar_a

    def test_node_comparison_no_data(self):
        assert "(no data" in node_comparison(HistoryStore(), ["a"], "m")


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_runs(self, capsys):
        rc = main(["demo", "--nodes", "3", "--seconds", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NODE" in out and "cluster-n0000" in out

    def test_clone_runs_and_audits(self, capsys):
        rc = main(["clone", "--nodes", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cloned  : 5/5" in out
        assert "consistent=True" in out

    def test_drill_powers_down_victim(self, capsys):
        rc = main(["drill", "--nodes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overheat" in out and ": off" in out

    def test_ladder_prints_rates(self, capsys):
        rc = main(["ladder"])
        out = capsys.readouterr().out
        assert rc == 0
        for strategy in ("naive", "buffered", "apriori", "persistent"):
            assert strategy in out

    def test_slurm_prints_queue(self, capsys):
        rc = main(["slurm", "--nodes", "4", "--jobs", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "JOBID" in out and "PARTITION" in out
        assert "completed 3 jobs" in out

    def test_graph_renders(self, capsys):
        rc = main(["graph", "--nodes", "3", "--seconds", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sparkline:" in out and "cpu_util_pct" in out


class TestHotAddRemove:
    def test_add_node_is_fully_wired(self):
        cwx = ClusterWorX(n_nodes=3, seed=17, monitor_interval=5.0,
                          deadband=2.5)
        cwx.start()
        cwx.run(2.0)  # off the initial cohort's 5 s phase
        t_add = cwx.kernel.now
        new_host = cwx.add_node()
        agent = cwx.agents[new_host]
        ticks, tick = [], agent.tick
        agent.tick = lambda: (ticks.append(cwx.kernel.now), tick())
        cwx.run(60)
        node = cwx.cluster.node(new_host)
        assert node.state is NodeState.UP
        # sampled from the add instant — the scheduler opened a fresh
        # phase for it — then on its own cadence, with the cluster's
        # consolidation settings
        assert ticks[:3] == [t_add, t_add + 5.0, t_add + 10.0]
        assert cwx.scheduler.agent_count == 4
        assert cwx.scheduler.bucket_count == 2
        assert agent.consolidator.deadband == 2.5
        # monitored
        assert cwx.server.current(new_host).get("hostname") == new_host
        # ICE Box managed
        box, port = cwx.cluster.locate(node)
        assert box.node_at(port) is node
        # DHCP leased
        assert cwx.cluster.dhcp.lease_for(node.mac) is not None

    def test_add_beyond_rack_creates_new_icebox(self):
        cwx = ClusterWorX(n_nodes=10, seed=18, monitor_interval=30.0)
        cwx.start()
        assert len(cwx.cluster.iceboxes) == 1
        cwx.add_node()
        assert len(cwx.cluster.iceboxes) == 2

    def test_remove_node_decommissions(self):
        cwx = ClusterWorX(n_nodes=4, seed=19, monitor_interval=5.0)
        cwx.start()
        victim = cwx.cluster.hostnames[1]
        node = cwx.cluster.node(victim)
        box, port = cwx.cluster.locate(node)
        cwx.remove_node(victim)
        assert node.state is NodeState.OFF
        assert box.node_at(port) is None
        assert victim not in cwx.cluster.hostnames
        assert victim not in cwx.agents
        with pytest.raises(KeyError):
            cwx.cluster.node(victim)

    def test_removed_port_reusable(self):
        cwx = ClusterWorX(n_nodes=4, seed=20, monitor_interval=30.0)
        cwx.start()
        cwx.remove_node(cwx.cluster.hostnames[0])
        new_host = cwx.add_node()
        node = cwx.cluster.node(new_host)
        box, port = cwx.cluster.locate(node)
        assert port == 0  # the freed port was reused
        assert len(cwx.cluster.iceboxes) == 1

    def test_remove_unknown_rejected(self):
        cwx = ClusterWorX(n_nodes=2, seed=21)
        with pytest.raises(KeyError):
            cwx.remove_node("ghost")

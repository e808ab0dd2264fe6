"""Tests for history export/import and severity routing."""

import numpy as np
import pytest

from repro.core import ClusterWorX
from repro.events import (
    EmailGateway,
    PagerGateway,
    Severity,
    SmartNotifier,
)
from repro.monitoring import HistoryStore
from repro.sim import SimKernel


class TestHistoryExportImport:
    def test_roundtrip(self):
        store = HistoryStore()
        for i in range(20):
            store.record("a", float(i), {"cpu": i * 1.5, "mem": i * 2.0})
            store.record("b", float(i), {"cpu": 50.0 - i})
        text = store.export_text()
        clone = HistoryStore.import_text(text)
        for host in ("a", "b"):
            for metric in ("cpu", "mem"):
                t1, v1 = store.series(host, metric)
                t2, v2 = clone.series(host, metric)
                assert np.array_equal(t1, t2)
                assert np.array_equal(v1, v2)

    def test_export_is_human_readable(self):
        store = HistoryStore()
        store.record("node1", 5.0, {"cpu": 42.5})
        assert "node1 cpu 5.0 42.5" in store.export_text()

    def test_import_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad history line"):
            HistoryStore.import_text("not a valid line\n")

    def test_empty_roundtrip(self):
        assert HistoryStore.import_text(
            HistoryStore().export_text()).metric_names == []


class TestSeverityRouting:
    def test_critical_pages_warning_does_not(self, kernel):
        email = EmailGateway()
        pager = PagerGateway()
        notifier = SmartNotifier(
            kernel, "c",
            gateways=[email],
            routes={Severity.CRITICAL: [email, pager]},
            aggregation_window=5.0)
        notifier.event_triggered("disk-warn", "n1", "none",
                                 Severity.WARNING)
        notifier.event_triggered("node-dead", "n2", "none",
                                 Severity.CRITICAL)
        kernel.run(until=10.0)
        assert len(email.inbox) == 2
        assert len(pager.inbox) == 1
        assert pager.inbox[0].event == "node-dead"

    def test_facade_scoped_rule(self):
        cwx = ClusterWorX(n_nodes=4, seed=81, monitor_interval=5.0)
        cwx.start()
        watched = cwx.cluster.hostnames[:2]
        cwx.add_threshold("hot-racks", metric="cpu_temp_c", op=">",
                          threshold=-1000.0, hosts=watched)  # always on
        cwx.run(30)
        fired_nodes = {e.node for e in cwx.fired_events()}
        assert fired_nodes == set(watched)

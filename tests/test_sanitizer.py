"""worxsan runtime mode: frozen published views raise on mutation,
lock checkpoints assert, per-thread access logs attribute boundary
crossings — including one full gateway service run (tier-1's sanitized
pass) with published-view freezing active."""

import asyncio
import json
import threading

import pytest

from repro.core import ClusterWorX
from repro.gateway import GatewayService, GatewayState, JsonWire, fetch
from repro.tooling import (FrozenDict, Sanitizer, SanitizerViolation,
                           current_sanitizer, deep_freeze, install,
                           uninstall)


@pytest.fixture
def sanitizer():
    san = install()
    try:
        yield san
    finally:
        uninstall()


# -- FrozenDict / deep_freeze -------------------------------------------------

class TestFrozenDict:
    def test_reads_are_native(self):
        d = FrozenDict({"a": 1, "b": 2})
        assert d["a"] == 1
        assert dict(d) == {"a": 1, "b": 2}
        assert sorted(d) == ["a", "b"]
        assert len(d) == 2

    def test_every_mutator_raises(self):
        d = FrozenDict({"a": 1})
        with pytest.raises(SanitizerViolation):
            d["b"] = 2
        with pytest.raises(SanitizerViolation):
            del d["a"]
        with pytest.raises(SanitizerViolation):
            d.update({"b": 2})
        with pytest.raises(SanitizerViolation):
            d.pop("a")
        with pytest.raises(SanitizerViolation):
            d.popitem()
        with pytest.raises(SanitizerViolation):
            d.setdefault("b", 2)
        with pytest.raises(SanitizerViolation):
            d.clear()
        assert d == {"a": 1}  # untouched through all of it

    def test_deep_freeze_recurses(self):
        frozen = deep_freeze({"hosts": {"n1": {"cpu": 1}},
                              "names": ["n1", "n2"],
                              "tags": {"a"}})
        assert isinstance(frozen, FrozenDict)
        assert isinstance(frozen["hosts"]["n1"], FrozenDict)
        assert frozen["names"] == ("n1", "n2")
        assert frozen["tags"] == frozenset({"a"})
        with pytest.raises(SanitizerViolation):
            frozen["hosts"]["n1"]["cpu"] = 2


# -- Sanitizer core -----------------------------------------------------------

class TestSanitizer:
    def test_install_uninstall(self):
        prior = current_sanitizer()  # non-None under `make sanitize`
        uninstall()
        try:
            assert current_sanitizer() is None
            san = install()
            assert current_sanitizer() is san
            uninstall()
            assert current_sanitizer() is None
        finally:
            if prior is not None:
                install(prior)

    def test_assert_locked(self):
        san = Sanitizer()
        lock = threading.Lock()
        with pytest.raises(SanitizerViolation):
            san.assert_locked(lock, "checkpoint")
        with lock:
            san.assert_locked(lock, "checkpoint")
        assert san.lock_checks == 2
        assert san.accesses("lock") == [
            (threading.current_thread().name, "lock", "checkpoint")]

    def test_access_log_records_thread_names(self):
        san = Sanitizer()
        san.record("tag", "from-main")
        worker = threading.Thread(name="worker-1",
                                  target=san.record, args=("tag", "w"))
        worker.start()
        worker.join()
        assert san.threads_for("tag") == [
            threading.current_thread().name, "worker-1"]

    def test_access_log_is_bounded(self):
        san = Sanitizer(log_limit=8)
        for i in range(50):
            san.record("spam", str(i))
        entries = san.accesses("spam")
        assert len(entries) == 8
        assert entries[-1][2] == "49"


# -- GatewayState under the sanitizer -----------------------------------------

def _flat_state(sanitizer, n_nodes=4):
    cwx = ClusterWorX(n_nodes=n_nodes, seed=7, monitor_interval=5.0)
    cwx.start()
    cwx.run(20.0)
    state = GatewayState(cwx.server)
    return cwx, state


class TestFrozenPublishedView:
    def test_published_view_raises_on_mutation(self, sanitizer):
        """The acceptance criterion: a sanitizer-frozen view raises on
        any mutation attempt (the run-time guard that replaced the
        static WORX202 rule)."""
        _cwx, state = _flat_state(sanitizer)
        view = state.view
        assert isinstance(view.summary, FrozenDict)
        with pytest.raises(SanitizerViolation):
            view.summary["nodes_up"] = 0
        with pytest.raises(SanitizerViolation):
            view.summary.update({"forged": True})
        assert sanitizer.frozen_views >= 1

    def test_serving_reads_unaffected_by_freezing(self, sanitizer):
        cwx, state = _flat_state(sanitizer)
        sim_time, summary = state.summary()
        assert summary["nodes_total"] == 4
        host = cwx.cluster.hostnames[0]
        assert state.host(host) is not None
        table = state.query(metrics=["cpu_util_pct"])
        assert len(table) == 4
        wire = JsonWire()
        assert wire.encode(table) == wire.encode(list(table))

    def test_capture_checkpoint_requires_lock(self, sanitizer):
        _cwx, state = _flat_state(sanitizer)
        with pytest.raises(SanitizerViolation):
            state._capture()  # lock not held: annotation violated
        with state.lock:
            state._capture()  # the annotated contract, upheld


# -- the sanitized tier-1 service run -----------------------------------------

class TestSanitizedServiceRun:
    def test_full_service_under_sanitizer(self, sanitizer):
        """One end-to-end gateway run with freezing active: the sim
        driver publishes frozen views under the slice lock while HTTP
        clients read them, and the access log proves which thread did
        what."""
        async def scenario():
            cwx = ClusterWorX(n_nodes=8, seed=11, monitor_interval=5.0)
            cwx.start()
            cwx.run(30.0)
            service = GatewayService(cwx.server, cluster=cwx.cluster)
            await service.start()
            service.driver.start()
            try:
                status, _, body = await fetch(
                    "127.0.0.1", service.port, "/v1/summary")
                assert status == 200
                assert json.loads(body)["values"]["nodes_total"] == 8
                status, _, _ = await fetch(
                    "127.0.0.1", service.port, "/v1/shards")
                assert status == 200
            finally:
                service.driver.stop()
                await service.stop()
            return service

        service = asyncio.run(scenario())
        # every published view was frozen...
        assert sanitizer.frozen_views >= 1
        assert isinstance(service.state.view.summary, FrozenDict)
        with pytest.raises(SanitizerViolation):
            service.state.view.summary["forged"] = True
        # ...every _capture ran its lock checkpoint...
        assert sanitizer.lock_checks >= 1
        assert sanitizer.accesses("lock")
        # ...and the access log attributes publishes to their threads:
        # the construction-time capture on this (main) thread, later
        # ones on the sim driver thread.
        publish_threads = sanitizer.threads_for("publish")
        assert threading.current_thread().name in publish_threads
        if len(publish_threads) > 1:
            assert "gateway-sim" in publish_threads

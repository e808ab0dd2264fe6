"""Repo tooling gates, run as part of the tier-1 suite.

The architectural invariants themselves (layering, determinism,
encapsulation, handler hygiene, thread and lock discipline) are
enforced by the worxlint framework in :mod:`repro.tooling`; this
module is the gate that runs it over ``src/`` and fails the build on
any finding — plus the behavioural
guards that replaced the retired rules (each names the rule it stands
in for).  The framework's own behaviour (pragmas, planted violations,
replayed catches, single-parse) is covered in ``tests/test_worxlint.py``.
"""

import compileall
import importlib
import inspect
import pathlib

import pytest

from repro.tooling import default_config, run_lint

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _render(findings):
    return "\n".join(f.render() for f in findings)


def test_worxlint_gate():
    """Zero findings across every WORX rule, and exactly these rules.

    This is the tier-1 architectural gate: the layer DAG, SimKernel
    determinism, encapsulation, handler hygiene and the thread/lock
    contract are machine-checked on every run.  The rule list is pinned
    so a rule cannot vanish or appear silently, and ``src/`` carries no
    waived finding at all.  Subscriber re-entry, once WORX104, is no
    longer a lint rule: the store publishes one update at a time, and
    ``tests/test_statestore.py::TestPublishOrder`` pins that contract.
    """
    result = run_lint(default_config(root=SRC))
    assert result.ok, (
        "worxlint found violations (fix them, or annotate an "
        "intentional exception with `# worx: ok RULE` plus a "
        "justification comment):\n" + _render(result.findings))
    assert result.rules == ["WORX101", "WORX102", "WORX103", "WORX106",
                            "WORX201"]
    assert result.suppressed == []


def test_worxsan_gate_runs_with_repo_policy():
    """WORX201 runs against the repo's declared concurrency contract
    (repro.tooling.concurrency) and holds clean — pre-existing
    violations were fixed, not waived (the shards() endpoint read live
    counters lock-free before this gate existed)."""
    config = default_config(root=SRC, rules={"WORX201"})
    assert config.contexts and config.lock_guarded
    result = run_lint(config)
    assert result.rules == ["WORX201"]
    assert result.ok, (
        "worxsan concurrency violations:\n" + _render(result.findings))


def test_no_cross_module_private_attribute_access():
    """No reaching into another object's ``_private`` state from outside.

    Thin wrapper over the WORX103 pass — the scope-aware replacement
    for the regex lint that used to live here (it understands
    ``self``/``cls``, same-class peer access, and comprehension scopes,
    and cannot be fooled by ``#`` inside string literals).
    """
    result = run_lint(default_config(root=SRC, rules={"WORX103"}))
    assert result.rules == ["WORX103"]
    assert not result.findings, (
        "cross-module private-attribute access (add a public API "
        "instead):\n" + _render(result.findings))


def test_compileall_src():
    """Every module under src/ must byte-compile cleanly."""
    assert SRC.is_dir()
    ok = compileall.compile_dir(str(SRC), quiet=2, force=False)
    assert ok, "python -m compileall src failed"


def test_write_path_surface_is_pinned():
    """An update's road from agent tick to store write exists once: one
    activation, one send, one ``ingest``, ``apply`` + ``restore``, one
    engine ``feed``.  A second form of any stage is a conscious diff
    here."""
    from repro.core.server import ClusterWorXServer
    from repro.core.statestore import StateStore
    from repro.events import EventEngine
    from repro.federation import FederationServer
    from repro.monitoring import NodeAgent, Transmitter
    from repro.monitoring.scheduler import AgentScheduler

    def methods(cls):
        return {name: fn for name, fn in vars(cls).items()
                if not name.startswith("_") and inspect.isfunction(fn)}

    def update_takers(cls):
        return {name for name, fn in methods(cls).items()
                if any("Update" in str(p.annotation) for p in
                       inspect.signature(fn).parameters.values())}

    assert set(methods(NodeAgent)) == {
        "activate", "stop", "tick", "evaluate", "sample_once",
        "gather_proc"}
    assert set(methods(AgentScheduler)) == {"register"}
    assert set(methods(Transmitter)) == {"transmit_update"}
    assert set(methods(StateStore)) == {
        "track", "forget", "is_tracked", "apply", "restore", "get",
        "last_seen", "last_agent_seen", "snapshot", "rollup", "summary",
        "subscribe", "unsubscribe"}
    assert update_takers(ClusterWorXServer) == {"ingest"}
    assert update_takers(FederationServer) == {"ingest"}
    # the engine is fed one way: the delta picks the rules, the store's
    # merged row is what they read
    assert set(methods(EventEngine)) == {
        "add_listener", "add_rule", "remove_rule", "forget_node",
        "is_triggered", "active_events", "active_count", "feed",
        "event_log", "mark_fixed"}
    assert list(inspect.signature(EventEngine.feed).parameters) == [
        "self", "node", "values", "row"]


def test_shard_reachability_surface_is_pinned():
    """Whether a shard answers is judged once, by ``ShardChannel.up``
    over two switches, and the fault plane flips them through two shard
    faults.  A second judge (a breaker, a timeout, a latency) or a
    second way to inject one is a conscious diff here."""
    from repro.faults import ChaosCampaign, FaultPlane
    from repro.federation import Shard, ShardChannel

    # a shard's health is its record in the monitor's tracker, not a
    # field of its own
    assert Shard.__slots__ == ("index", "name", "server", "last_heartbeat",
                               "channel", "tracker")
    assert ShardChannel.__slots__ == (
        "kernel", "shard", "killed", "down_until", "held", "calls",
        "dropped_ingests")
    assert {name for name, fn in vars(FaultPlane).items()
            if not name.startswith("_") and inspect.isfunction(fn)} == {
        "kill_shard", "outage", "stall_gateway"}
    # the campaign draws shard faults itself, through its own plane
    assert list(inspect.signature(ChaosCampaign.__init__).parameters) == [
        "self", "cwx", "n_faults", "kinds", "start", "horizon", "settle",
        "shard_faults", "shard_kinds", "outage"]


# -- the guards that replaced the retired rules ------------------------------

def test_every_dunder_all_name_resolves():
    """Stands in for WORX105: every module under ``src/`` imports, and
    every name its ``__all__`` lists is really there."""
    names = sorted(path.relative_to(SRC).with_suffix("").as_posix()
                   .replace("/", ".").removesuffix(".__init__")
                   for path in SRC.rglob("*.py"))
    assert len(names) > 100
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"{name}.__all__: {export}"


def test_published_records_are_immutable_at_run_time():
    """Stands in for WORX202: the record types it treated as frozen
    refuse mutation by construction — ``Update``, the flat and
    federated snapshots and their rows, and ``PublishedView``."""
    from repro import ClusterWorX
    from repro.faults.invariants import published_view_immutable
    from repro.gateway import GatewayState
    from repro.monitoring.records import Update

    update = Update("n1", 1.0, {"cpu": 1.0})
    with pytest.raises(TypeError):
        update.values["cpu"] = 2.0
    with pytest.raises(AttributeError):
        update.hostname = "n2"
    for kwargs in ({}, {"topology": "federation", "shards": 2}):
        cwx = ClusterWorX(n_nodes=4, seed=3, monitor_interval=5.0,
                          **kwargs)
        cwx.start()
        cwx.run(20)
        view = GatewayState(cwx.server).view
        assert len(view.snapshot) == 4
        assert published_view_immutable(view) == []

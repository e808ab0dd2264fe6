"""The worxlint framework's own behaviour.

Covers: the planted-violation fixture tree (exactly one finding per
WORX rule, exact ``rule:path:line``), the replay of every real
historical catch, pragma suppression, the single-shared-parse property,
JSON schema stability of ``--json``, the string-literal regression
that the old regex lint's ``_strip_comment`` mishandled, each check of
the thread-and-lock rule (WORX201, which absorbed WORX203), and the
pragma edge cases on decorated/async defs and holds-annotations.
"""

import json
import pathlib
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.tooling import (LintConfig, default_config, parse_count,
                           run_lint)

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "worxtree"
FIXTURE_LAYERS = {"lib": 0, "mid": 1, "app": 2, "srv": 2, "": 3}

#: the one planted violation per rule, by exact rule:path:line key.
PLANTED = {
    "WORX101": "WORX101:acme/mid/upward.py:3",
    "WORX102": "WORX102:acme/mid/clock.py:7",
    "WORX103": "WORX103:acme/app/flows.py:10",
    "WORX106": "WORX106:acme/lib/store.py:24",
    "WORX201": "WORX201:acme/srv/state.py:18",
}

#: what fires on a bare CLI run over the fixture tree, which carries
#: the repo's own policy: no ``acme`` layer map (WORX101) and no guarded
#: chains in ``acme/srv/state.py`` (WORX201).
CLI_PLANTED = {rule: key for rule, key in PLANTED.items()
               if rule not in ("WORX101", "WORX201")}


def fixture_config(**kwargs):
    """The fixture tree's policy: its layer map, and everything behind
    ``ServingState.server`` guarded by ``lock`` (what WORX201 keys off)."""
    return LintConfig(
        root=FIXTURE, package="acme", layers=dict(FIXTURE_LAYERS),
        lock_guarded={"acme/srv/state.py": {"server": "lock"}}, **kwargs)


def write_tree(root, files):
    """Write ``{rel path: source}`` under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def lint_snippet(tmp_path, source, *, rules=None, name="mod.py",
                 **policy):
    """Lint a single-file tree holding ``source`` under ``policy``
    (``contexts``, ``lock_guarded``, ...)."""
    write_tree(tmp_path, {name: source})
    config = LintConfig(root=tmp_path, package="pkg", layers={},
                        rules=frozenset(rules) if rules else None,
                        **policy)
    return run_lint(config)


# -- planted violations ------------------------------------------------------

def test_one_finding_per_rule_with_exact_locations():
    result = run_lint(fixture_config())
    keys = sorted(f.key for f in result.findings)
    assert keys == sorted(PLANTED.values())
    by_rule = {f.rule_id: f for f in result.findings}
    assert set(by_rule) == set(PLANTED)


def test_rule_selection_runs_single_pass():
    result = run_lint(fixture_config(rules=frozenset({"WORX102"})))
    assert result.rules == ["WORX102"]
    assert [f.key for f in result.findings] == [PLANTED["WORX102"]]


# -- the historical catches, replayed ----------------------------------------

#: minimal snippets of what each surviving rule has really caught on a
#: committed tree (the 26-commit audit in ROADMAP item 5), or — for the
#: one rule that has never fired — the hazard it alone guards.  Each
#: is linted under the repo's own policy (``default_config``), so a
#: change to the layer map, the context map or the guarded chains that
#: would have let the catch through fails here.
REPLAY = {
    "layer-2 producer imports Update from core.statestore": (
        "WORX101", {
            "repro/core/statestore.py": "class Update:\n    pass\n",
            "repro/monitoring/agent.py":
                "from repro.core.statestore import Update\n"},
        "repro/monitoring/agent.py:1"),
    "monitoring reaches into a hardware model's private state": (
        "WORX103", {"repro/monitoring/builtin.py": """\
            def sample_cpu(cpu, t):
                return cpu._demand_at(t)
            """},
        "repro/monitoring/builtin.py:2"),
    "GatewayState.shards() reads live counters lock-free": (
        "WORX201", {"repro/gateway/state.py": """\
            class GatewayState:
                def __init__(self, server, lock):
                    self.server = server
                    self.lock = lock

                def shards(self):
                    return [{"updates": self.server.updates_received}]
            """},
        "repro/gateway/state.py:7"),
    "a helper both threads run does += outside the lock": (
        "WORX201", {"repro/gateway/watch.py": """\
            class WatchClient:
                def push(self, frame):
                    self._count()

                def drain(self):
                    self._count()

                def _count(self):
                    self.frames_seen += 1
            """},
        "repro/gateway/watch.py:9"),
    "the replace-only owner map is edited in place": (
        "WORX201", {"repro/federation/server.py": """\
            class FederationServer:
                def forget_node(self, hostname):
                    del self._owner[hostname]
            """},
        "repro/federation/server.py:3"),
    "the fast sampler's failure is swallowed": (
        "WORX106", {"repro/monitoring/agent.py": """\
            def evaluate(fast, ctx):
                try:
                    return fast(ctx)
                except Exception:
                    pass
            """},
        "repro/monitoring/agent.py:4"),
    "a bare except": (
        "WORX106", {"repro/remote/worker.py": """\
            def run(task):
                try:
                    task()
                except:
                    return None
            """},
        "repro/remote/worker.py:4"),
    "time.time() in sim code": (
        "WORX102", {"repro/sim/kernel.py": """\
            import time


            def now():
                return time.time()
            """},
        "repro/sim/kernel.py:5"),
}


@pytest.mark.parametrize("catch", sorted(REPLAY))
def test_historical_catch_still_caught(tmp_path, catch):
    rule, files, where = REPLAY[catch]
    write_tree(tmp_path, files)
    result = run_lint(default_config(root=tmp_path))
    assert [f.key for f in result.findings] == [f"{rule}:{where}"]


def test_unmapped_package_reported_whatever_it_imports(tmp_path):
    """WORX101 regression: a package directory the layer map omits is
    one finding at its ``__init__.py`` — even when it imports nothing
    from the root, and even when only a layer-0 module imports *it*
    (``target_layer is None`` used to skip the direction check, so the
    edge went unreported from both ends)."""
    write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/lib/__init__.py": "",
        "pkg/lib/low.py": "from pkg.newpkg.thing import THING\n",
        "pkg/newpkg/__init__.py": "",
        "pkg/newpkg/thing.py": "THING = 1\n"})
    config = LintConfig(root=tmp_path, package="pkg",
                        layers={"lib": 0, "": 1},
                        rules=frozenset({"WORX101"}))
    result = run_lint(config)
    assert [f.key for f in result.findings] == \
        ["WORX101:pkg/newpkg/__init__.py:1"]
    assert "'newpkg' is missing from the layer map" in \
        result.findings[0].message


# -- pragma suppression ------------------------------------------------------

def test_pragma_suppresses_named_rule(tmp_path):
    result = lint_snippet(tmp_path, """\
        import time

        def tick():
            return time.time()  # worx: ok WORX102 (intentional: demo)
        """)
    assert not result.findings
    assert [f.rule_id for f in result.suppressed] == ["WORX102"]


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    result = lint_snippet(tmp_path, """\
        import time

        def tick():
            return time.time()  # worx: ok WORX101
        """)
    assert [f.rule_id for f in result.findings] == ["WORX102"]
    assert not result.suppressed


def test_bare_pragma_suppresses_every_rule(tmp_path):
    result = lint_snippet(tmp_path, """\
        import time

        def tick(store):
            return time.time(), store._hosts  # worx: ok
        """)
    assert not result.findings
    assert sorted(f.rule_id for f in result.suppressed) == \
        ["WORX102", "WORX103"]


def test_pragma_inside_string_literal_is_data_not_annotation(tmp_path):
    """A pragma spelled in a string must not suppress anything."""
    result = lint_snippet(tmp_path, """\
        import time

        def tick():
            return time.time(), "# worx: ok WORX102"
        """)
    assert [f.rule_id for f in result.findings] == ["WORX102"]


# -- single shared parse -----------------------------------------------------

def test_every_file_parsed_exactly_once():
    """All five passes run off one shared parse: the ast.parse counter
    grows by exactly the number of files in the tree, never more."""
    n_files = len([p for p in FIXTURE.rglob("*.py")
                   if "__pycache__" not in p.parts])
    before = parse_count()
    result = run_lint(fixture_config())
    assert len(result.rules) == 5
    assert parse_count() - before == n_files == result.modules


def test_edited_file_is_reparsed(tmp_path):
    """Nothing is cached between runs: an edit is seen by the next."""
    mod = tmp_path / "mod.py"
    mod.write_text("import time\n\n\ndef t():\n    return time.time()\n")
    config = LintConfig(root=tmp_path, package="pkg", layers={},
                        rules=frozenset({"WORX102"}))
    assert len(run_lint(config).findings) == 1
    mod.write_text("VALUE = 1\n")
    before = parse_count()
    assert not run_lint(config).findings
    assert parse_count() - before == 1


# -- JSON output -------------------------------------------------------------

def test_cli_json_schema_and_planted_findings(capsys):
    code = cli_main(["lint", "--json", "--root", str(FIXTURE)])
    assert code == 1  # active findings -> non-zero exit
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"version", "ok", "modules", "rules",
                            "findings", "suppressed"}
    assert payload["version"] == 2
    assert payload["ok"] is False
    assert payload["rules"] == sorted(PLANTED)  # every pass ran
    assert payload["suppressed"] == 0
    findings = payload["findings"]
    assert all(set(f) == {"rule", "path", "line", "message"}
               for f in findings)
    keys = sorted(f"{f['rule']}:{f['path']}:{f['line']}"
                  for f in findings)
    # the full set is covered via fixture_config in
    # test_one_finding_per_rule_with_exact_locations
    assert keys == sorted(CLI_PLANTED.values())


def test_cli_text_mode_exit_codes(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("VALUE = 1\n")
    assert cli_main(["lint", "--root", str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    assert cli_main(["lint", "--root", str(FIXTURE),
                     "--rules", "WORX102"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("acme/mid/clock.py:7: WORX102 ")
    assert "1 finding(s) (0 suppressed)" in out


def test_lint_surface_is_pinned():
    """Three flags, seven config fields: a new lint option is a
    conscious diff here."""
    import dataclasses

    from repro.cli import build_parser
    sub = build_parser()._subparsers._group_actions[0].choices["lint"]
    flags = sorted(opt for action in sub._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help"))
    assert flags == ["--json", "--root", "--rules"]
    assert [f.name for f in dataclasses.fields(LintConfig)] == [
        "root", "package", "layers", "determinism_shell", "rules",
        "contexts", "lock_guarded"]


# -- regression: strings and comments ----------------------------------------

def test_private_access_inside_string_is_not_flagged(tmp_path):
    """The old regex lint's ``_strip_comment`` split on the first ``#``
    even inside a string literal, corrupting lines like this one; the
    AST pass must neither flag the string nor mangle the line."""
    result = lint_snippet(tmp_path, """\
        BANNER = "x._y  # hi"

        def describe():
            return "see x._y  # hi for details"
        """, rules={"WORX103"})
    assert not result.findings


def test_real_access_after_hash_in_string_is_flagged(tmp_path):
    """Dual of the above: a genuine violation on a line whose string
    contains ``#`` must still be caught (the regex version lost
    everything after the quote's hash)."""
    result = lint_snippet(tmp_path, """\
        def describe(obj):
            return "x._y  # hi", obj._secret
        """, rules={"WORX103"})
    assert [f.rule_id for f in result.findings] == ["WORX103"]
    assert result.findings[0].line == 2


# -- scope awareness ---------------------------------------------------------

def test_self_cls_and_same_class_peer_access_allowed(tmp_path):
    result = lint_snippet(tmp_path, """\
        class Welford:
            def __init__(self):
                self._mean = 0.0
                self._m2 = 0.0

            @classmethod
            def make(cls):
                cls._registry = []
                return cls()

            def merge(self, other):
                self._mean += other._mean          # same-class peer
                self._m2 += other._m2
                return [o._mean for o in (self, other)]  # comprehension
        """, rules={"WORX103"})
    assert not result.findings


def test_foreign_private_access_flagged_in_comprehension(tmp_path):
    result = lint_snippet(tmp_path, """\
        def drain(stores):
            return [s._hosts for s in stores]
        """, rules={"WORX103"})
    assert [f.rule_id for f in result.findings] == ["WORX103"]


def test_private_name_imported_across_packages_flagged(tmp_path):
    """The import spelling of the same reach (WORX105's surviving
    half): ``from other.package import _helper``.  A package's own
    privates, dunders and public names stay importable."""
    write_tree(tmp_path, {
        "pkg/lib/store.py": "_helper = 1\nPUBLIC = 2\n",
        "pkg/lib/peer.py": "from pkg.lib.store import _helper\n",
        "pkg/app/flows.py":
            "from pkg.lib.store import PUBLIC\n"
            "from pkg.lib.store import __doc__\n"
            "from pkg.lib.store import _helper\n"})
    config = LintConfig(root=tmp_path, package="pkg",
                        layers={"lib": 0, "app": 1},
                        rules=frozenset({"WORX103"}))
    assert [f.key for f in run_lint(config).findings] == \
        ["WORX103:pkg/app/flows.py:3"]


def test_import_cycle_detected(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "alpha.py").write_text(
        "from pkg.beta import B\n\nA = 1\n")
    (tmp_path / "pkg" / "beta.py").write_text(
        "from pkg.alpha import A\n\nB = 2\n")
    config = LintConfig(root=tmp_path, package="pkg",
                        layers={"": 0}, rules=frozenset({"WORX101"}))
    result = run_lint(config)
    assert len(result.findings) == 1
    assert "import cycle" in result.findings[0].message
    assert "pkg.alpha" in result.findings[0].message


# -- WORX106: swallowed exceptions -------------------------------------------

def test_bare_except_always_flagged(tmp_path):
    result = lint_snippet(tmp_path, """\
        def load(path):
            try:
                return open(path).read()
            except:
                return None
        """, rules={"WORX106"})
    assert [f.rule_id for f in result.findings] == ["WORX106"]
    assert result.findings[0].line == 4


def test_catch_all_pass_flagged_narrow_pass_allowed(tmp_path):
    result = lint_snippet(tmp_path, """\
        def drop(d, k):
            try:
                del d[k]
            except KeyError:
                pass          # narrow: a considered statement


        def swallow(fn):
            try:
                fn()
            except (ValueError, Exception):
                pass
        """, rules={"WORX106"})
    assert [f.rule_id for f in result.findings] == ["WORX106"]
    assert result.findings[0].line == 11


def test_catch_all_that_records_is_allowed(tmp_path):
    result = lint_snippet(tmp_path, """\
        def guard(fn, errors):
            try:
                fn()
            except Exception as exc:
                errors.append(repr(exc))
        """, rules={"WORX106"})
    assert not result.findings


def test_default_config_points_at_src():
    config = default_config()
    assert (config.root / "repro" / "tooling").is_dir()
    assert config.package == "repro"


def keys(result):
    return [f.key for f in result.findings]


# -- WORX201: thread discipline ----------------------------------------------

BRIDGE_CONTEXTS = {"mod.py::Bridge.publish": "sim",
                   "mod.py::Bridge.serve": "serving"}


def test_worx201_shared_helper_gets_both_contexts(tmp_path):
    """Call-graph propagation: a helper reached from a sim-seeded and
    a serving-seeded method carries both, and its lock-free in-place
    mutation is flagged."""
    result = lint_snippet(tmp_path, """\
        class Bridge:
            def publish(self):
                self._bump()

            def serve(self):
                self._bump()

            def _bump(self):
                self.stats.append(1)
        """, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert keys(result) == ["WORX201:mod.py:9"]
    assert "both the sim and serving threads" in \
        result.findings[0].message


def test_worx201_mutation_under_lock_is_clean(tmp_path):
    result = lint_snippet(tmp_path, """\
        class Bridge:
            def publish(self):
                self._bump()

            def serve(self):
                self._bump()

            def _bump(self):
                with self.lock:
                    self.stats.append(1)
        """, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert not result.findings


def test_worx201_atomic_rebind_allowed_augassign_flagged(tmp_path):
    """``self.view = fresh`` is the sanctioned atomic publish;
    ``self.count += 1`` is a read-modify-write race."""
    result = lint_snippet(tmp_path, """\
        class Bridge:
            def publish(self):
                self._swap()
                self._tally()

            def serve(self):
                self._swap()
                self._tally()

            def _swap(self):
                self.view = object()

            def _tally(self):
                self.count += 1
        """, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert keys(result) == ["WORX201:mod.py:14"]


def test_worx201_serving_only_touching_sim_owned(tmp_path):
    source = """\
        class State:
            def stats(self):
                return self.server.engine.count()

            def safe(self):
                with self.lock:
                    return self.server.engine.count()
        """
    result = lint_snippet(
        tmp_path, source, rules={"WORX201"},
        contexts={"mod.py": "serving"},
        lock_guarded={"mod.py": {"server": "lock"}})
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx201_holds_annotation_clears_sim_owned(tmp_path):
    result = lint_snippet(tmp_path, """\
        class State:
            def stats(self):  # worx: holds lock
                return self.server.engine.count()
        """, rules={"WORX201"}, contexts={"mod.py": "serving"},
        lock_guarded={"mod.py": {"server": "lock"}})
    assert not result.findings


# -- WORX201: guarded chains (the former WORX203 checks) --------------------

GUARDED = {"mod.py": {"server.history": "lock"}}


def test_worx203_lock_free_access_flagged(tmp_path):
    result = lint_snippet(tmp_path, """\
        class State:
            def window(self, host):
                return self.server.history.window(host)

            def graph(self, host):
                with self.lock:
                    return self.server.history.graph(host)
        """, rules={"WORX201"}, lock_guarded=GUARDED)
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx203_holds_annotation_trusted(tmp_path):
    result = lint_snippet(tmp_path, """\
        class State:
            def _capture(self):  # worx: holds lock
                return self.server.history.export()
        """, rules={"WORX201"}, lock_guarded=GUARDED)
    assert not result.findings


def test_worx203_holds_for_wrong_lock_not_trusted(tmp_path):
    result = lint_snippet(tmp_path, """\
        class State:
            def _capture(self):  # worx: holds other_lock
                return self.server.history.export()
        """, rules={"WORX201"}, lock_guarded=GUARDED)
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx203_replace_only_discipline(tmp_path):
    """A replace-only chain (lock name "") may be read and swapped
    wholesale anywhere, mutated in place only in __init__."""
    result = lint_snippet(tmp_path, """\
        class Fed:
            def __init__(self):
                self._owner = {}
                self._owner["seed"] = 0

            def reroute(self, host, shard):
                owner = dict(self._owner)
                owner[host] = shard
                self._owner = owner

            def corrupt(self, host, shard):
                self._owner[host] = shard

            def evict(self, host):
                self._owner.pop(host)
        """, rules={"WORX201"},
        lock_guarded={"mod.py": {"_owner": ""}})
    assert keys(result) == ["WORX201:mod.py:12", "WORX201:mod.py:15"]


# -- pragma edge cases on decorated and async defs ---------------------------

def test_pragma_suppresses_inside_decorated_async_def(tmp_path):
    result = lint_snippet(tmp_path, """\
        import functools
        import time


        @functools.lru_cache(maxsize=None)
        async def handler():
            time.time()  # worx: ok WORX102 (startup only)
        """, rules={"WORX102"})
    assert not result.findings
    assert [f.rule_id for f in result.suppressed] == ["WORX102"]


def test_pragma_on_def_line_does_not_cover_body(tmp_path):
    """Pragmas are same-line only: annotating the ``async def`` does
    not waive findings on lines inside the body."""
    result = lint_snippet(tmp_path, """\
        import time


        async def handler():  # worx: ok WORX102
            time.time()
        """, rules={"WORX102"})
    assert keys(result) == ["WORX102:mod.py:5"]
    assert not result.suppressed


def test_pragma_on_preceding_line_does_not_suppress(tmp_path):
    result = lint_snippet(tmp_path, """\
        import time


        async def handler():
            # worx: ok WORX102
            time.time()
        """, rules={"WORX102"})
    assert keys(result) == ["WORX102:mod.py:6"]

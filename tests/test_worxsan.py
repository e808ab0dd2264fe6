"""The thread-and-lock rule (WORX201, which absorbed WORX201): unit
coverage per check plus the pragma edge cases — suppression on
decorated/async defs, pragma-on-wrong-line, holds-annotations."""

import textwrap

from repro.tooling import LintConfig, run_lint


def lint_tree(tmp_path, files, *, rules=None, **policy):
    """Lint a throwaway tree of ``{rel path: source}`` under a policy."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    config = LintConfig(root=tmp_path, package="pkg", layers={},
                        rules=frozenset(rules) if rules else None,
                        **policy)
    return run_lint(config)


def keys(result):
    return [f.key for f in result.findings]


# -- WORX201: thread discipline ----------------------------------------------

BRIDGE_CONTEXTS = {"mod.py::Bridge.publish": "sim",
                   "mod.py::Bridge.serve": "serving"}


def test_worx201_shared_helper_gets_both_contexts(tmp_path):
    """Call-graph propagation: a helper reached from a sim-seeded and
    a serving-seeded method carries both, and its lock-free in-place
    mutation is flagged."""
    result = lint_tree(tmp_path, {"mod.py": """\
        class Bridge:
            def publish(self):
                self._bump()

            def serve(self):
                self._bump()

            def _bump(self):
                self.stats.append(1)
        """}, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert keys(result) == ["WORX201:mod.py:9"]
    assert "both the sim and serving threads" in \
        result.findings[0].message


def test_worx201_mutation_under_lock_is_clean(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        class Bridge:
            def publish(self):
                self._bump()

            def serve(self):
                self._bump()

            def _bump(self):
                with self.lock:
                    self.stats.append(1)
        """}, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert not result.findings


def test_worx201_atomic_rebind_allowed_augassign_flagged(tmp_path):
    """``self.view = fresh`` is the sanctioned atomic publish;
    ``self.count += 1`` is a read-modify-write race."""
    result = lint_tree(tmp_path, {"mod.py": """\
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
        """}, rules={"WORX201"}, contexts=BRIDGE_CONTEXTS)
    assert keys(result) == ["WORX201:mod.py:14"]


def test_worx201_serving_only_touching_sim_owned(tmp_path):
    source = {"mod.py": """\
        class State:
            def stats(self):
                return self.server.engine.count()

            def safe(self):
                with self.lock:
                    return self.server.engine.count()
        """}
    result = lint_tree(
        tmp_path, source, rules={"WORX201"},
        contexts={"mod.py": "serving"},
        lock_guarded={"mod.py": {"server": "lock"}})
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx201_holds_annotation_clears_sim_owned(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        class State:
            def stats(self):  # worx: holds lock
                return self.server.engine.count()
        """}, rules={"WORX201"}, contexts={"mod.py": "serving"},
        lock_guarded={"mod.py": {"server": "lock"}})
    assert not result.findings


# -- guarded chains (the former WORX201 checks) -----------------------------

GUARDED = {"mod.py": {"server.history": "lock"}}


def test_worx203_lock_free_access_flagged(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        class State:
            def window(self, host):
                return self.server.history.window(host)

            def graph(self, host):
                with self.lock:
                    return self.server.history.graph(host)
        """}, rules={"WORX201"}, lock_guarded=GUARDED)
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx203_holds_annotation_trusted(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        class State:
            def _capture(self):  # worx: holds lock
                return self.server.history.export()
        """}, rules={"WORX201"}, lock_guarded=GUARDED)
    assert not result.findings


def test_worx203_holds_for_wrong_lock_not_trusted(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        class State:
            def _capture(self):  # worx: holds other_lock
                return self.server.history.export()
        """}, rules={"WORX201"}, lock_guarded=GUARDED)
    assert keys(result) == ["WORX201:mod.py:3"]


def test_worx203_replace_only_discipline(tmp_path):
    """A replace-only chain (lock name "") may be read and swapped
    wholesale anywhere, mutated in place only in __init__."""
    result = lint_tree(tmp_path, {"mod.py": """\
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
        """}, rules={"WORX201"},
        lock_guarded={"mod.py": {"_owner": ""}})
    assert keys(result) == ["WORX201:mod.py:12", "WORX201:mod.py:15"]


# -- pragma edge cases (satellite) -------------------------------------------

def test_pragma_suppresses_inside_decorated_async_def(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        import functools
        import time


        @functools.lru_cache(maxsize=None)
        async def handler():
            time.time()  # worx: ok WORX102 (startup only)
        """}, rules={"WORX102"})
    assert not result.findings
    assert [f.rule_id for f in result.suppressed] == ["WORX102"]


def test_pragma_on_def_line_does_not_cover_body(tmp_path):
    """Pragmas are same-line only: annotating the ``async def`` does
    not waive findings on lines inside the body."""
    result = lint_tree(tmp_path, {"mod.py": """\
        import time


        async def handler():  # worx: ok WORX102
            time.time()
        """}, rules={"WORX102"})
    assert keys(result) == ["WORX102:mod.py:5"]
    assert not result.suppressed


def test_pragma_on_preceding_line_does_not_suppress(tmp_path):
    result = lint_tree(tmp_path, {"mod.py": """\
        import time


        async def handler():
            # worx: ok WORX102
            time.time()
        """}, rules={"WORX102"})
    assert keys(result) == ["WORX102:mod.py:6"]

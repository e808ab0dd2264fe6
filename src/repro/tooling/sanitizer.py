"""worxsan runtime mode: the dynamic half of the WORX2xx family.

The static passes prove discipline over the *code*; this module checks
the same contracts against the *running process*, so the rules are
validated against ground truth:

* **published-view freezing** — :meth:`Sanitizer.freeze_view` replaces
  a published view's mutable containers with deep-frozen equivalents
  (:class:`FrozenDict` raises on every mutator): a published view is
  immutable, and a write to one raises :class:`SanitizerViolation`
  the moment it executes;
* **lock checkpoints** — :meth:`Sanitizer.assert_locked` backs the
  ``# worx: holds <lock>`` annotations: code annotated as
  caller-locked asserts the lock really is held when the sanitizer is
  active;
* **per-thread access logs** — :meth:`Sanitizer.record` keeps a
  bounded trail of ``(thread, tag, detail)`` tuples the golden-trace
  tests read to prove which thread touched which boundary.

Activation is opt-in and costs one ``is None`` check per call site
when off: export ``WORXSAN=1`` (picked up at import), or call
:func:`install` / :func:`uninstall` from a test.  ``make sanitize``
runs the whole tier-1 suite this way.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["SanitizerViolation", "FrozenDict", "deep_freeze",
           "Sanitizer", "current_sanitizer", "install", "uninstall"]


class SanitizerViolation(AssertionError):
    """A runtime breach of a worxsan contract (frozen-view mutation,
    lock checkpoint failure).  Subclasses AssertionError so test
    harnesses treat it as a hard failure, never a skippable error."""


def _frozen(self, *args, **kwargs):
    raise SanitizerViolation(
        "mutation of a sanitizer-frozen published mapping: a "
        "published view is immutable")


class FrozenDict(dict):
    """A dict whose every mutator raises :class:`SanitizerViolation`.

    Reads stay native-speed C dict lookups — the serving hot path is
    unchanged — but ``d[k] = v``, ``update``, ``pop`` ... all raise.
    """

    __setitem__ = _frozen
    __delitem__ = _frozen
    clear = _frozen
    pop = _frozen
    popitem = _frozen
    setdefault = _frozen
    update = _frozen
    __ior__ = _frozen


def deep_freeze(value):
    """Recursively convert mutable containers to raising/immutable
    ones: dict -> :class:`FrozenDict`, list -> tuple, set -> frozenset.
    Scalars and already-immutable values pass through unchanged."""
    if isinstance(value, dict):
        return FrozenDict((k, deep_freeze(v)) for k, v in value.items())
    if isinstance(value, list):
        return tuple(deep_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(deep_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(deep_freeze(v) for v in value)
    return value


class Sanitizer:
    """One activation of worxsan runtime mode."""

    def __init__(self, *, log_limit: int = 4096):
        self.frozen_views = 0
        self.lock_checks = 0
        self._log: Deque[Tuple[str, str, str]] = deque(maxlen=log_limit)
        self._log_lock = threading.Lock()

    # -- access log ----------------------------------------------------------
    def record(self, tag: str, detail: str = "") -> None:
        """Append ``(current thread name, tag, detail)`` to the log."""
        entry = (threading.current_thread().name, tag, detail)
        with self._log_lock:
            self._log.append(entry)

    def accesses(self, tag: Optional[str] = None
                 ) -> List[Tuple[str, str, str]]:
        """The recorded trail, optionally filtered by tag."""
        with self._log_lock:
            entries = list(self._log)
        if tag is None:
            return entries
        return [e for e in entries if e[1] == tag]

    def threads_for(self, tag: str) -> List[str]:
        """Distinct thread names that hit ``tag``, in first-hit order."""
        seen: List[str] = []
        for thread, _tag, _detail in self.accesses(tag):
            if thread not in seen:
                seen.append(thread)
        return seen

    # -- published-view freezing ---------------------------------------------
    def freeze_view(self, view) -> None:
        """Deep-freeze the mutable containers of a published view in
        place (``__slots__`` attributes are reassigned to their frozen
        equivalents), so post-publish mutation raises instead of
        racing."""
        # ``hostnames`` is a tuple of str, immutable as built, and views
        # share it by identity: it must not be rebuilt per publish.
        for attr in ("summary", "events"):
            if hasattr(view, attr):
                setattr(view, attr, deep_freeze(getattr(view, attr)))
        self.frozen_views += 1
        self.record("freeze", type(view).__name__)

    # -- lock checkpoints ----------------------------------------------------
    def assert_locked(self, lock, where: str) -> None:
        """Checkpoint for ``# worx: holds <lock>`` annotations: the
        lock must be held when control reaches ``where``.  (A plain
        ``threading.Lock`` has no owner, so this asserts *held by
        someone* — the annotated call chains all acquire before
        calling, which is exactly the claim being checked.)"""
        self.lock_checks += 1
        if not lock.locked():
            raise SanitizerViolation(
                f"lock checkpoint failed at {where}: caller was "
                f"annotated '# worx: holds' but the lock is free "
                f"(WORX201)")
        self.record("lock", where)


#: the active sanitizer, or None (the common, zero-overhead case).
_ACTIVE: Optional[Sanitizer] = None
if os.environ.get("WORXSAN", "").strip() not in ("", "0"):
    _ACTIVE = Sanitizer()


def current_sanitizer() -> Optional[Sanitizer]:
    """The installed sanitizer, or ``None`` when worxsan is off."""
    return _ACTIVE


def install(sanitizer: Optional[Sanitizer] = None) -> Sanitizer:
    """Activate worxsan (tests use this; the env flag covers whole
    runs).  Returns the now-active sanitizer."""
    global _ACTIVE
    _ACTIVE = sanitizer if sanitizer is not None else Sanitizer()
    return _ACTIVE


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None

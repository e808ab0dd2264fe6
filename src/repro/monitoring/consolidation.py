"""Stage 2 of the monitoring pipeline: consolidation (§5.3.2).

Responsibilities straight from the paper:

* combine data from multiple sources gathered at independent rates;
* distinguish **static** from **dynamic** monitoring data, and transmit
  "only data that has *changed* since the last transmission" — this is
  what "reduces the amount of transferred data substantially";
* cache the consolidated view so "simultaneous requests can be served
  using the same set of data", reducing the burden on the node.

Everything runs on the node (the gatherer is the owner of the data); the
server only ever sees the deltas the consolidator releases.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["Consolidator"]

_MISSING = object()


class Consolidator:
    """Per-node change-suppressing merge of monitor values.

    A node's values are kept once.  ``_transmitted`` holds the value last
    released per name; a newer value seen but not sent — inside the
    deadband, gathered only to serve a :meth:`snapshot`, or awaiting the
    resend :meth:`force_full_retransmit` asked for — sits in ``_held``,
    empty on an exact-comparison agent between reconnects.  The current
    view is the first overlaid with the second.  Static values need no
    table: what never changes is released once, like any other value.
    """

    def __init__(self, *, deadband: float = 0.0, cache_ttl: float = 1.0):
        """``deadband``: relative change below which a numeric dynamic value
        counts as unchanged (0 = exact comparison).  ``cache_ttl``: how long
        a consolidated snapshot may serve simultaneous requests."""
        if deadband < 0:
            raise ValueError("deadband must be >= 0")
        self.deadband = deadband
        self.cache_ttl = cache_ttl
        self._transmitted: Dict[str, object] = {}
        #: seen but not sent: name -> the newer value.
        self._held: Dict[str, object] = {}
        self._cache_time: Optional[float] = None
        # -- statistics for E6 --
        self.values_seen = 0
        self.values_released = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- merging -------------------------------------------------------------
    def _changed(self, name: str, new: object) -> bool:
        old = self._transmitted.get(name, _MISSING)
        if old is _MISSING:
            return True
        if (self.deadband > 0.0
                and isinstance(new, (int, float))
                and isinstance(old, (int, float))
                and not isinstance(new, bool)):
            # Relative to the last *transmitted* value, so repeated small
            # steps cannot creep arbitrarily far without ever releasing.
            # NaN is never inside the band: it is released every time.
            scale = abs(old) if old != 0 else max(abs(new), 1e-12)
            return not abs(new - old) / scale <= self.deadband
        return new != old

    def update(self, values: Dict[str, object], t: float
               ) -> Dict[str, object]:
        """Merge one gather; return only what must be transmitted.

        Static values are released once (and again only if they actually
        change — e.g. the installed image after a reclone).  Dynamic values
        are released when they differ from the last *transmitted* value by
        more than the deadband.
        """
        transmitted = self._transmitted
        if self.deadband > 0.0:
            changed = self._changed
            delta = {name: value for name, value in values.items()
                     if changed(name, value)}
        else:
            # Exact comparison, the default: this runs once per metric
            # per sample on every node, so no call and no type ladder.
            last = transmitted.get
            delta = {name: value for name, value in values.items()
                     if value != last(name, _MISSING)}
        transmitted.update(delta)
        if self._held or self.deadband > 0.0:
            self._hold(values)
        self.values_seen += len(values)
        self.values_released += len(delta)
        self._cache_time = t
        return delta

    def _hold(self, values: Dict[str, object]) -> None:
        """Keep ``_held`` to its rule for the names just seen: there iff
        the value seen is not the one sent."""
        held = self._held
        last = self._transmitted.get
        for name, value in values.items():
            sent = last(name, _MISSING)
            if sent is value or sent == value:   # `is`: a NaN just sent
                held.pop(name, None)
            else:
                held[name] = value

    @property
    def suppressed(self) -> int:
        """Values absorbed by change suppression so far."""
        return self.values_seen - self.values_released

    @property
    def suppression_ratio(self) -> float:
        if self.values_seen == 0:
            return 0.0
        return self.suppressed / self.values_seen

    # -- the request cache --------------------------------------------------------
    def snapshot(self, t: float, regather=None) -> Dict[str, object]:
        """Serve a full current view; regather only when the cache is stale.

        ``regather`` is a zero-argument callable producing fresh values; it
        is invoked only on cache miss, which is how simultaneous requests
        share one gather.
        """
        if (self._cache_time is not None
                and t - self._cache_time <= self.cache_ttl):
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            if regather is not None:
                self._hold(regather())
            self._cache_time = t
        return {**self._transmitted, **self._held}

    def force_full_retransmit(self) -> None:
        """Invalidate transmitted state (server reconnect, agent restart):
        every value becomes seen-but-not-sent until it is next gathered."""
        self._held = {**self._transmitted, **self._held}
        self._transmitted = {}

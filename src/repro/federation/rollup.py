"""Incremental cross-shard rollup merging.

The federated summary must cost O(shards), never O(N): each shard's
:meth:`~repro.core.statestore.StateStore.rollup` is already an O(1)
read of its running aggregates, and this cache merges them
*incrementally* — a summary read checks each shard's generation (O(1))
and re-pulls the rollup only for shards that wrote since the last
read.  The cross-shard merge is then a direct sum over the cached
per-shard aggregates (plus a max-merge for the hottest CPU), which is
O(shards) by construction and — unlike a running subtract-and-add
total — floating-point *exact*, so a 1-shard federation's summary is
byte-identical to the flat server's (the golden-trace suite depends on
that).

``refreshes``/``reuses`` count how often a shard's contribution had to
be re-read versus answered from cache; the E18 bench reads them to
prove the summary path never rescans nodes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.statestore import summarize
from repro.federation.shard import Shard

__all__ = ["RollupCache"]

#: the rollup keys that merge across shards by addition (``temp_max``
#: merges by max, ``generation`` is the cache's own sum).
_SUMMED = ("nodes_total", "nodes_up", "cpu_n", "cpu_sum", "mem_used",
           "mem_total")


def _generation(shard: Shard) -> int:
    return shard.server.store.generation


def _rollup(shard: Shard) -> Dict[str, object]:
    return shard.server.store.rollup()


class RollupCache:
    """Per-shard cached rollups, invalidated by store generation."""

    def __init__(self, shards: Sequence[Shard]):
        self._shards = list(shards)
        # Construction-time read, not through the channel: a shard is
        # built before anything can fault it.
        self._cached: List[Dict[str, object]] = [
            shard.server.store.rollup() for shard in self._shards]
        self._gens: List[int] = [
            int(rollup["generation"]) for rollup in self._cached]
        #: shard contributions that had to be re-read (the shard wrote).
        self.refreshes = 0
        #: shard checks answered from cache (generation unchanged).
        self.reuses = 0

    def _sync(self) -> None:
        for i, shard in enumerate(self._shards):
            gen = shard.channel.call(_generation, shard)
            if gen is None and not shard.active:
                # Dead *and* drained: its nodes were adopted by the
                # survivors, whose contributions now cover them — the
                # stale cache entry would double-count the fleet.
                self._cached[i] = self._empty(self._gens[i])
                self.reuses += 1
                continue
            if gen is None or gen == self._gens[i]:
                # Unchanged — or unreachable but still the owner, in
                # which case the shard's last cached contribution keeps
                # serving (the summary degrades to stale, never to a
                # hole in the fleet).
                self.reuses += 1
                continue
            rollup = shard.channel.call(_rollup, shard)
            if rollup is None:
                self.reuses += 1
                continue
            self._cached[i] = rollup
            self._gens[i] = gen
            self.refreshes += 1

    @staticmethod
    def _empty(generation: int) -> Dict[str, object]:
        """A zero contribution with the generation frozen (monotone)."""
        return {"nodes_total": 0, "nodes_up": 0, "cpu_n": 0,
                "cpu_sum": 0.0, "mem_used": 0.0, "mem_total": 0.0,
                "temp_max": 0.0, "generation": generation}

    @property
    def generation(self) -> int:
        """Sum of shard generations: monotone, O(shards) to read.  An
        unreachable shard's generation freezes at its last synced
        value, keeping the sum monotone through an outage."""
        total = 0
        for i, shard in enumerate(self._shards):
            gen = shard.channel.call(_generation, shard)
            total += self._gens[i] if gen is None else gen
        return total

    def summary(self) -> Dict[str, object]:
        """The merged cluster rollup, flat-summary shaped: the cached
        rollups merged into one and handed to the formula
        :meth:`~repro.core.statestore.StateStore.summary` uses, so
        every consumer of the flat summary (gateway, CLI, golden-trace
        S lines) reads a federated one without knowing the difference.
        """
        self._sync()
        merged = self._empty(sum(self._gens))
        for rollup in self._cached:
            for key in _SUMMED:
                merged[key] += rollup[key]
            merged["temp_max"] = max(merged["temp_max"],
                                     float(rollup["temp_max"]))
        return summarize(merged)

"""Layer floors: what the irreducible version of a layer's job costs.

"Fast" needs a denominator (ROADMAP 1c).  Each floor does the bare
minimum of one layer's work on the traced run's *own recorded inputs*,
in the same process, right after the run; the ledger reports the
layer's measured cost as a multiple of it (``*.floor_x``).
"""

from __future__ import annotations

import heapq
import itertools
import json
from time import perf_counter
from typing import Callable, List

__all__ = ["kernel_floor_us", "apply_floor_us", "encode_floor_us"]

_REPEATS = 5


def _best_us(fn: Callable[[], int]) -> float:
    """µs per operation, best of a few passes (a floor is a minimum)."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        operations = fn()
        best = min(best, (perf_counter() - start) / max(operations, 1))
    return best * 1e6


def kernel_floor_us(n_events: int, n_timers: int) -> float:
    """A bare ``heapq`` event loop of the FTL-SIM shape (SNIPPETS.md
    snippet 3): ``n_timers`` periodic timers, each pop dispatches one
    callback that schedules its successor — the irreducible cost of an
    event, with none of the kernel's processes, conditions or buckets."""
    n_events = min(n_events, 200_000)
    n_timers = max(1, min(n_timers, n_events))

    def loop() -> int:
        heap: list = []
        sequence = itertools.count()
        push, pop = heapq.heappush, heapq.heappop
        for timer in range(n_timers):
            push(heap, (0.0, next(sequence), timer, None))
        fired = [0]

        def dispatch(time: float, timer: int) -> None:
            fired[0] += 1
            push(heap, (time + 5.0, next(sequence), timer, None))
        for _ in range(n_events):
            time, _seq, timer, _payload = pop(heap)
            dispatch(time, timer)
        return fired[0]
    return _best_us(loop)


def apply_floor_us(updates: List[object]) -> float:
    """A plain ``dict`` merge of the same deltas: copy the host's
    values, update, store back — ``StateStore.apply`` without rollups,
    generations, snapshots or subscribers."""
    if not updates:
        return 0.0

    def merge() -> int:
        hosts: dict = {}
        for update in updates:
            merged = dict(hosts.get(update.hostname, ()))
            merged.update(update.values)
            hosts[update.hostname] = merged
        return len(updates)
    return _best_us(merge)


def encode_floor_us(updates: List[object]) -> float:
    """``json.dumps`` of the same values — the cheapest self-describing
    text encoding, against the Transmitter's sorted text + zlib."""
    if not updates:
        return 0.0

    def encode() -> int:
        dumps = json.dumps
        for update in updates:
            dumps(dict(update.values))
        return len(updates)
    return _best_us(encode)

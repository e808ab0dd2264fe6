"""Calibrated seconds: wall time in units of a reference loop.

The sandboxes this benchmark runs on hand each *process* a different
machine: across back-to-back runs of identical work the same
interpreter loop takes 1.09 ms in one process and 1.37 ms in the next
(host placement, frequency, a busy sibling thread), and the program
under test slows down with it.  Measured on the reference sandbox, ten
same-seed runs of the 1k-node ingest loop spread 9-10 % (inter-quartile,
as a share of the median) in wall time and 1.2 % once each run's time
is divided by how slowly its own process ran the loop below.

So every time this benchmark reports is in **calibrated seconds**: wall
seconds divided by :func:`slowdown`, sampled at every slice boundary —
"seconds on a machine that runs the reference loop in exactly 1 ms".
Raw wall times and the slowdown samples are kept in the result file.
The loop is pure interpreter work on a small working set; it follows
CPU speed, which is what varies here, and deliberately not memory
contention, which it tracked worse than it corrected when tried.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["REFERENCE_LOOP_S", "slowdown"]

#: what one pass of the reference loop takes on the nominal machine.
REFERENCE_LOOP_S = 1e-3
_PASSES = 3


def _reference_loop() -> float:
    start = perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(20000):
        table[i & 255] = total
        total += i * 0.5
    return perf_counter() - start


def slowdown() -> float:
    """How many times slower than nominal this process runs right now
    (best of three passes: a pass can only be delayed, never hurried)."""
    return min(_reference_loop() for _ in range(_PASSES)) / REFERENCE_LOOP_S

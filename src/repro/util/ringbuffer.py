"""Fixed-capacity ring buffers.

Two variants are used throughout the framework:

* :class:`ByteRingBuffer` — the ICE Box's 16 KB per-port serial capture
  buffer (§3.3 of the paper): appending past capacity silently discards the
  oldest bytes, which is exactly the post-mortem semantics the paper
  describes ("logging and buffering (up to 16k) of the output").
* :class:`TimeSeriesRing` — the (timestamp, value) history the monitoring
  server keeps per metric per host for historical graphing (§5.1): one
  interleaved ``array('d')``, read out as numpy arrays.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["ByteRingBuffer", "TimeSeriesRing"]

#: append one double (``TimeSeriesRing.append`` takes a sample).
_push = array.append


class ByteRingBuffer:
    """A bounded byte buffer that keeps only the most recent ``capacity`` bytes."""

    def __init__(self, capacity: int = 16 * 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf = bytearray()
        #: total bytes ever written (including discarded ones)
        self.total_written = 0

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def discarded(self) -> int:
        """Bytes lost to overflow so far."""
        return self.total_written - len(self._buf)

    def write(self, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8", errors="replace")
        self.total_written += len(data)
        if len(data) >= self.capacity:
            # The new chunk alone overflows: keep only its tail.
            self._buf = bytearray(data[-self.capacity:])
            return
        self._buf.extend(data)
        overflow = len(self._buf) - self.capacity
        if overflow > 0:
            del self._buf[:overflow]

    def snapshot(self) -> bytes:
        """Current contents, oldest byte first."""
        return bytes(self._buf)

    def text(self) -> str:
        return self.snapshot().decode("utf-8", errors="replace")

    def tail_lines(self, n: int) -> list[str]:
        """Last ``n`` complete-ish lines of the buffer."""
        return self.text().splitlines()[-n:]

    def clear(self) -> None:
        self._buf.clear()


class TimeSeriesRing(array):
    """Fixed-capacity (timestamp, value) series with lazy growth.

    The ring *is* its storage: an ``array('d')`` subclass holding one
    interleaved run — ``t0, v0, t1, v1, …`` — that grows with the data
    and wraps once ``capacity`` samples are held.  A monitoring server
    holds one ring per metric per host, so hundreds of thousands of
    mostly-short series must neither pre-pay the full capacity nor cost
    the collector a wrapper *and* a buffer each: one tracked object per
    series, two slots, no instance dict.  ``len``, ``append`` and
    ``extend`` speak samples; inherited item access sees the raw
    doubles, and ``copy``/``pickle`` (array's, which know no slots) do
    not give a ring.  Range queries hand out chronological numpy float64
    arrays — always fresh contiguous copies of the two strided halves,
    never a view: a live export of the buffer would make the next
    growing ``append`` raise ``BufferError``.
    """

    __slots__ = ("capacity", "_head")

    def __new__(cls, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self = array.__new__(cls, "d")
        self.capacity = capacity
        #: while the ring grows, the samples held (< capacity); once it
        #: is full, ``~index`` of the oldest sample, the next one
        #: overwritten.  One slot read tells ``append`` which: asking
        #: ``array.__len__`` from a subclass costs a third of an append.
        self._head = 0
        return self

    def __len__(self) -> int:
        head = self._head
        return head if head >= 0 else self.capacity

    def append(self, t: float, value: float) -> None:
        head = self._head
        if head >= 0:
            _push(self, t)
            _push(self, value)
            head += 1
            self._head = head if head < self.capacity else -1
        else:
            head = ~head
            self[2 * head] = t
            self[2 * head + 1] = value
            self._head = ~((head + 1) % self.capacity)

    def extend(self, pairs: Iterable[Tuple[float, float]]) -> None:
        """Append many samples at once (same result as repeated
        :meth:`append`, one buffer operation instead of one per sample)."""
        new = array("d", chain.from_iterable(pairs))
        if len(new) & 1:
            raise ValueError("extend() takes (t, value) pairs")
        head = self._head
        held = head + (len(new) >> 1)
        if 0 <= head and held < self.capacity:
            array.extend(self, new)    # still growing afterwards
            self._head = held
            return
        # Filled or overflowed: lay the survivors out oldest first, which
        # is a full ring whose next write lands on index 0.
        cut = 2 * ~head if head < 0 else 0
        self[:] = (self[cut:] + self[:cut] + new)[-2 * self.capacity:]
        self._head = -1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored samples in chronological order (fresh arrays)."""
        flat = np.frombuffer(self, dtype=np.float64)
        cut = 2 * ~self._head if self._head < 0 else 0
        if not cut:
            return flat[0::2].copy(), flat[1::2].copy()
        return (np.concatenate([flat[cut::2], flat[:cut:2]]),
                np.concatenate([flat[cut + 1::2], flat[1:cut:2]]))

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t0 <= t <= t1`` in chronological order."""
        t, v = self.arrays()
        mask = (t >= t0) & (t <= t1)
        return t[mask], v[mask]

    def latest(self) -> Optional[Tuple[float, float]]:
        head = self._head
        if not head:
            return None
        # The newest sample is the last one stored while the ring still
        # grows, and sits just before the oldest once it is full.
        idx = 2 * ~head - 2 if head < 0 else -2
        return self[idx], self[idx + 1]

    def downsample(self, buckets: int) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
        """Aggregate into ``buckets`` equal time bins.

        Returns ``(bin_centers, mean, minimum, maximum)`` with NaN for empty
        bins — the RRD-style consolidation the historical-graphing view
        uses.
        """
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        t, v = self.arrays()
        if len(t) == 0:
            empty = np.empty(0)
            return empty, empty, empty, empty
        lo, hi = t[0], t[-1]
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, buckets + 1)
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1,
                      0, buckets - 1)
        mean = np.full(buckets, np.nan)
        vmin = np.full(buckets, np.nan)
        vmax = np.full(buckets, np.nan)
        counts = np.bincount(idx, minlength=buckets).astype(float)
        sums = np.bincount(idx, weights=v, minlength=buckets)
        nonzero = counts > 0
        mean[nonzero] = sums[nonzero] / counts[nonzero]
        # min/max need a reduction per bucket; do it on the sorted-by-bucket
        # view so each bucket is one contiguous slice.
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        sorted_v = v[order]
        boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [len(sorted_v)]])
        for s, e in zip(starts, stops):
            b = sorted_idx[s]
            vmin[b] = sorted_v[s:e].min()
            vmax[b] = sorted_v[s:e].max()
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, mean, vmin, vmax

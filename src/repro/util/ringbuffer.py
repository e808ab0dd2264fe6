"""Fixed-capacity ring buffers.

Two variants are used throughout the framework:

* :class:`ByteRingBuffer` — the ICE Box's 16 KB per-port serial capture
  buffer (§3.3 of the paper): appending past capacity silently discards the
  oldest bytes, which is exactly the post-mortem semantics the paper
  describes ("logging and buffering (up to 16k) of the output").
* :class:`TimeSeriesRing` — the layout of the (timestamp, value) history
  the monitoring server keeps per metric per host for historical
  graphing (§5.1): one plain ``bytearray`` per series, a head and an
  interleaved run of doubles, read out as numpy arrays or as one
  ``bytes`` copy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from itertools import chain
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["ByteRingBuffer", "TimeSeriesRing", "downsample",
           "downsample_bytes", "window"]

#: a series's head and one (t, value) sample, little-endian.
_HEAD = struct.Struct("<q")
_PAIR = struct.Struct("<dd")
_HEAD_BYTES, _PAIR_BYTES = _HEAD.size, _PAIR.size
_F8 = np.dtype("<f8")
_unpack_head = _HEAD.unpack_from
_pack_head = _HEAD.pack_into
_pack_pair = _PAIR.pack
_pack_pair_into = _PAIR.pack_into
_unpack_pair = _PAIR.unpack_from


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


class TimeSeriesRing:
    """The layout of a fixed-capacity (timestamp, value) series held in a
    plain ``bytearray``; one instance, which holds ``capacity``, serves
    every series of a store.

    A series is an 8-byte little-endian ``q`` head followed by one
    interleaved run of doubles — ``t0, v0, t1, v1, …`` — that grows with
    the data and wraps once ``capacity`` samples are held.  The head is
    0 while the series grows (its length then says how many samples it
    holds) and ``~index`` of the oldest sample, the next one overwritten,
    once it is full.  A monitoring server holds one series per metric
    per host, hundreds of thousands of mostly-short ones: a
    ``bytearray`` neither pre-pays the full capacity nor is tracked by
    the cyclic collector, which tracks every instance of a class
    (CPython 3.11 gives each heap type ``Py_TPFLAGS_HAVE_GC``, so no
    subclass, with or without slots, can be left out of a collection's
    walk).  Range reads are fresh copies, never a view — a live export
    of the buffer would make the next growing :meth:`append` raise
    ``BufferError`` — of two kinds: :meth:`arrays` hands out
    chronological numpy float64 arrays, contiguous copies of the two
    strided halves, and ``bytes(series)`` is the whole series, head
    included, which :meth:`arrays` and :func:`downsample_bytes` also
    read.
    """

    __slots__ = ("capacity", "_last")

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: a series's length just before its last free slot is taken:
        #: below it, ``append`` only grows the buffer.
        self._last = _HEAD_BYTES + _PAIR_BYTES * (capacity - 1)

    @staticmethod
    def new() -> bytearray:
        """An empty series."""
        return bytearray(_HEAD_BYTES)

    @staticmethod
    def held(series: bytearray) -> int:
        """Samples the series holds."""
        return (len(series) - _HEAD_BYTES) // _PAIR_BYTES

    def append(self, series: bytearray, t: float, value: float) -> None:
        if len(series) < self._last:
            series += _pack_pair(t, value)
            return
        (head,) = _unpack_head(series)
        if head >= 0:           # the last free slot: the series is full
            series += _pack_pair(t, value)
            _pack_head(series, 0, -1)
            return
        index = ~head
        _pack_pair_into(series, _HEAD_BYTES + _PAIR_BYTES * index, t, value)
        index += 1
        _pack_head(series, 0, ~index if index < self.capacity else -1)

    def extend(self, series: bytearray,
               pairs: Iterable[Tuple[float, float]]) -> None:
        """Append many samples at once (same result as repeated
        :meth:`append`, one buffer operation instead of one per sample)."""
        flat = list(chain.from_iterable(pairs))
        if len(flat) & 1:
            raise ValueError("extend() takes (t, value) pairs")
        new = struct.pack(f"<{len(flat)}d", *flat)
        (head,) = _unpack_head(series)
        if head >= 0 and len(series) + len(new) <= self._last:
            series += new       # still growing afterwards
            return
        # Filled or overflowed: lay the survivors out oldest first, which
        # is a full series whose next write lands on index 0.
        cut = _HEAD_BYTES + (_PAIR_BYTES * ~head if head < 0 else 0)
        series[_HEAD_BYTES:] = (series[cut:] + series[_HEAD_BYTES:cut]
                               + new)[-_PAIR_BYTES * self.capacity:]
        _pack_head(series, 0, -1)

    @staticmethod
    def arrays(series: bytearray) -> Tuple[np.ndarray, np.ndarray]:
        """All stored samples in chronological order (fresh arrays)."""
        (head,) = _unpack_head(series)
        flat = np.frombuffer(series, dtype=_F8, offset=_HEAD_BYTES)
        cut = 2 * ~head if head < 0 else 0
        if cut:
            t = np.concatenate([flat[cut::2], flat[:cut:2]])
            v = np.concatenate([flat[cut + 1::2], flat[1:cut:2]])
        else:
            t, v = flat[0::2].copy(), flat[1::2].copy()
        del flat                # the view pins the buffer's size
        return t, v

    @staticmethod
    def latest(series: bytearray) -> Optional[Tuple[float, float]]:
        # The newest sample is the last one stored while the series
        # grows, and sits just before the oldest once it is full.
        index = ~_unpack_head(series)[0]
        if index > 0:
            offset = _HEAD_BYTES + _PAIR_BYTES * (index - 1)
        elif len(series) > _HEAD_BYTES:
            offset = len(series) - _PAIR_BYTES
        else:
            return None
        return _unpack_pair(series, offset)


def window(t: np.ndarray, v: np.ndarray, t0: float, t1: float
           ) -> Tuple[np.ndarray, np.ndarray]:
    """The samples of ``(t, v)`` with ``t0 <= t <= t1``, in their order."""
    mask = (t >= t0) & (t <= t1)
    return t[mask], v[mask]


def downsample(t: np.ndarray, v: np.ndarray, buckets: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate the samples ``(t, v)`` into ``buckets`` equal time bins
    from ``t[0]`` to ``t[-1]``; a sample outside them (``t`` need not be
    sorted: an adopted history appends older samples) falls in the end
    bin nearer to it.

    Returns ``(bin_centers, mean, minimum, maximum)`` with NaN for empty
    bins — the RRD-style consolidation the historical-graphing view
    uses.  A fixed number of numpy calls whatever ``buckets`` and the
    sample count: each sum is added up in sample order (``bincount``),
    and each minimum and maximum is one ``ufunc.at`` pass, which
    propagates a NaN as a per-bin ``min()`` does.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    if len(t) == 0:
        empty = np.empty(0)
        return empty, empty, empty, empty
    lo, hi = t[0], t[-1]
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, buckets + 1)
    idx = edges.searchsorted(t, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)             # np.clip, without its wrapper
    np.minimum(idx, buckets - 1, out=idx)
    counts = np.bincount(idx, minlength=buckets)
    stats = np.empty((3, buckets))
    mean, vmin, vmax = stats
    vmin.fill(np.inf)
    vmax.fill(-np.inf)
    with np.errstate(invalid="ignore"):
        np.divide(np.bincount(idx, weights=v, minlength=buckets), counts,
                  out=mean)
        np.minimum.at(vmin, idx, v)
        np.maximum.at(vmax, idx, v)
    stats[:, counts == 0] = np.nan          # 0 / 0 is a negative NaN
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, mean, vmin, vmax


def downsample_bytes(series: bytes, buckets: int) -> List[List[float]]:
    """:func:`downsample` of a series's bytes (``bytes(series)``, head
    included) as ``[centers, mean, minimum, maximum]`` lists, equal to
    the bit to its arrays' ``tolist()``, made by a plain loop: one
    ``struct`` unpack, no numpy call.

    Numpy's fixed cost is some twenty calls, which run cold after a
    sim slice; this loop's cost is one step per sample and per bucket.
    It is what the gateway graphs with, whatever the series's length:
    a slowly changing metric keeps a short series (§5.3.2 sends only
    the values that changed), and warm numpy is ahead only on long
    ones.
    Each step is the one numpy takes: edge ``i`` is ``i * step + lo``
    and the last is ``hi`` (``np.linspace``); each sum starts at 0.0
    and adds its samples in order (``bincount``), and the mean is the
    sum over the count; a minimum or maximum keeps the first NaN it
    meets and otherwise the later of two equal values (``ufunc.at``);
    an empty bucket is NaN.  The samples are walked past the edges
    once; only one older than the sample before it (an adopted history
    appends older samples) is bisected.  A series whose end times do
    not make finite ascending edges goes to :func:`downsample`:
    numpy's ``searchsorted`` over such edges is its own.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    (head,) = _unpack_head(series)
    n = (len(series) - _HEAD_BYTES) // _PAIR_BYTES
    if not n:
        return [[], [], [], []]
    flat = struct.unpack_from(f"<{2 * n}d", series, _HEAD_BYTES)
    if head < 0:                # wrapped: the oldest sample first
        cut = 2 * ~head
        flat = flat[cut:] + flat[:cut]
    lo, hi = flat[0], flat[-2]
    if hi == lo:
        hi = lo + 1.0
    step = (hi - lo) / buckets
    if not 0.0 < step < math.inf:     # then lo and hi are finite too
        return [column.tolist() for column in downsample(
            np.array(flat[0::2]), np.array(flat[1::2]), buckets)]
    edges = [i * step + lo for i in range(buckets)]
    edges.append(hi)
    nan = math.nan
    # Bucket b ends at inner[b]; the NaN after the last one stops a walk.
    inner = edges[1:buckets]
    inner.append(nan)
    last = buckets - 1
    counts = [0] * buckets
    sums = [0.0] * buckets
    means = [nan] * buckets
    lows = [nan] * buckets
    highs = [nan] * buckets
    b, before = 0, lo
    pairs = iter(flat)
    for t, v in zip(pairs, pairs):
        if t >= before:
            while inner[b] <= t:
                b += 1
        else:                   # out of order, or a NaN time
            b = bisect_right(inner, t, 0, last)
        before = t
        count = counts[b]
        if not count:
            counts[b] = 1
            sums[b] = means[b] = 0.0 + v
            lows[b] = highs[b] = v
            continue
        counts[b] = count = count + 1
        sums[b] = total = sums[b] + v
        means[b] = total / count
        low = lows[b]
        if not low < v and low == low:
            lows[b] = v
        high = highs[b]
        if not high > v and high == high:
            highs[b] = v
    centers = [(a + z) / 2.0 for a, z in zip(edges, edges[1:])]
    return [centers, means, lows, highs]

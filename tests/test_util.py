"""Unit tests for repro.util: ring buffers, units."""

import gc
from array import array

import numpy as np
import pytest

from repro.util import (
    ByteRingBuffer,
    TimeSeriesRing,
    fmt_bytes,
    fmt_duration,
    mbit_per_s,
)


class TestByteRingBuffer:
    def test_simple_write_read(self):
        buf = ByteRingBuffer(64)
        buf.write("hello")
        assert buf.text() == "hello"

    def test_overflow_keeps_newest(self):
        buf = ByteRingBuffer(8)
        buf.write("abcdefgh")
        buf.write("XY")
        assert buf.text() == "cdefghXY"
        assert buf.discarded == 2

    def test_oversized_single_write_keeps_tail(self):
        buf = ByteRingBuffer(4)
        buf.write("0123456789")
        assert buf.text() == "6789"

    def test_total_written_accounting(self):
        buf = ByteRingBuffer(4)
        buf.write("abcdef")
        assert buf.total_written == 6 and len(buf) == 4

    def test_tail_lines(self):
        buf = ByteRingBuffer(1024)
        for i in range(10):
            buf.write(f"line {i}\n")
        assert buf.tail_lines(3) == ["line 7", "line 8", "line 9"]

    def test_clear(self):
        buf = ByteRingBuffer(16)
        buf.write("data")
        buf.clear()
        assert len(buf) == 0

    def test_bytes_input(self):
        buf = ByteRingBuffer(16)
        buf.write(b"\x01\x02")
        assert buf.snapshot() == b"\x01\x02"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ByteRingBuffer(0)


class TestTimeSeriesRing:
    def test_append_and_arrays(self):
        ring = TimeSeriesRing(8)
        ring.append(1.0, 10.0)
        ring.append(2.0, 20.0)
        t, v = ring.arrays()
        assert list(t) == [1.0, 2.0] and list(v) == [10.0, 20.0]

    def test_wrap_keeps_newest_in_order(self):
        ring = TimeSeriesRing(4)
        for i in range(10):
            ring.append(float(i), float(i * i))
        t, v = ring.arrays()
        assert list(t) == [6.0, 7.0, 8.0, 9.0]
        assert list(v) == [36.0, 49.0, 64.0, 81.0]

    def test_window_query(self):
        ring = TimeSeriesRing(100)
        ring.extend((float(i), float(i)) for i in range(50))
        t, v = ring.window(10.0, 19.5)
        assert t[0] == 10.0 and t[-1] == 19.0 and len(t) == 10

    def test_latest(self):
        ring = TimeSeriesRing(4)
        assert ring.latest() is None
        ring.append(5.0, 55.0)
        assert ring.latest() == (5.0, 55.0)

    def test_downsample_means(self):
        ring = TimeSeriesRing(100)
        ring.extend((float(i), 1.0) for i in range(100))
        centers, mean, lo, hi = ring.downsample(10)
        assert len(centers) == 10
        assert np.allclose(mean[~np.isnan(mean)], 1.0)

    def test_downsample_minmax(self):
        ring = TimeSeriesRing(100)
        ring.extend((float(i), float(i % 10)) for i in range(100))
        _, _, lo, hi = ring.downsample(5)
        assert np.nanmin(lo) == 0.0 and np.nanmax(hi) == 9.0

    def test_downsample_empty(self):
        centers, mean, lo, hi = TimeSeriesRing(4).downsample(5)
        assert len(centers) == 0

    def test_downsample_invalid_buckets(self):
        with pytest.raises(ValueError):
            TimeSeriesRing(4).downsample(0)

    def test_ring_is_its_own_buffer(self):
        """One collector-tracked object per series: the ring is the
        ``array('d')``, with no wrapper and no instance dict beside it."""
        ring = TimeSeriesRing(4)
        ring.append(1.0, 10.0)
        assert isinstance(ring, array) and ring.typecode == "d"
        assert not hasattr(ring, "__dict__")
        assert not any(isinstance(held, array)
                       for held in gc.get_referents(ring))
        assert ring.capacity == 4 and len(ring) == 1

    @pytest.mark.parametrize("held", [0, 2, 4, 6])
    @pytest.mark.parametrize("more", [0, 1, 2, 3, 9])
    def test_extend_equals_repeated_append(self, held, more):
        """From empty, growing, just full and wrapped (head != 0), into
        still growing, exactly full and overflowing."""
        bulk, single = TimeSeriesRing(4), TimeSeriesRing(4)
        pairs = [(float(i), float(-i)) for i in range(held + more)]
        for ring in (bulk, single):
            for pair in pairs[:held]:
                ring.append(*pair)
        bulk.extend(pairs[held:])
        for pair in pairs[held:]:
            single.append(*pair)
        assert len(bulk) == len(single) == min(held + more, 4)
        assert bulk.latest() == single.latest()
        for got, want in zip(bulk.arrays(), single.arrays()):
            assert got.tolist() == want.tolist()
        bulk.append(99.0, 99.0)
        assert bulk.latest() == (99.0, 99.0)
        assert bulk.arrays()[0].tolist() == (
            [p[0] for p in pairs] + [99.0])[-4:]

    def test_arrays_never_hands_out_a_view(self):
        ring = TimeSeriesRing(64)
        ring.extend((float(i), float(i)) for i in range(8))
        reads = [ring.arrays(), ring.window(2.0, 5.0), ring.downsample(2)]
        for i in range(8, 40):      # growth reallocates the buffer:
            ring.append(float(i), float(i))     # no BufferError
        t, v = reads[0]
        t[:] = -1.0                 # and the arrays are the caller's own
        assert ring.arrays()[0].tolist() == [float(i) for i in range(40)]
        assert v.tolist() == [float(i) for i in range(8)]


class TestUnits:
    def test_mbit_per_s(self):
        assert mbit_per_s(100) == pytest.approx(12.5e6)

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.0 KiB"
        assert fmt_bytes(3 * 1024 ** 3) == "3.0 GiB"

    def test_fmt_duration_bands(self):
        assert "us" in fmt_duration(5e-6)
        assert "ms" in fmt_duration(0.005)
        assert fmt_duration(12.0) == "12.0 s"
        assert fmt_duration(125) == "2m 05.0s"
        assert fmt_duration(3725) == "1h 2m 05.0s"

"""Unit tests for repro.util: ring buffers, units."""

import gc
import struct

import numpy as np
import pytest

from repro.util import (
    ByteRingBuffer,
    RecordLog,
    TimeSeriesRing,
    fmt_bytes,
    fmt_duration,
    mbit_per_s,
)
from repro.util.ringbuffer import downsample, window


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


def _series(capacity, pairs=()):
    """A layout and one series holding ``pairs``, appended one by one."""
    ring = TimeSeriesRing(capacity)
    series = ring.new()
    for pair in pairs:
        ring.append(series, *pair)
    return ring, series


class TestTimeSeriesRing:
    def test_append_and_arrays(self):
        ring, series = _series(8, [(1.0, 10.0), (2.0, 20.0)])
        t, v = ring.arrays(series)
        assert list(t) == [1.0, 2.0] and list(v) == [10.0, 20.0]

    def test_wrap_keeps_newest_in_order(self):
        ring, series = _series(4, [(float(i), float(i * i))
                                   for i in range(10)])
        t, v = ring.arrays(series)
        assert list(t) == [6.0, 7.0, 8.0, 9.0]
        assert list(v) == [36.0, 49.0, 64.0, 81.0]

    def test_window_query(self):
        ring, series = _series(100)
        ring.extend(series, ((float(i), float(i)) for i in range(50)))
        t, v = window(*ring.arrays(series), 10.0, 19.5)
        assert t[0] == 10.0 and t[-1] == 19.0 and len(t) == 10

    def test_latest(self):
        ring, series = _series(4)
        assert ring.latest(series) is None
        ring.append(series, 5.0, 55.0)
        assert ring.latest(series) == (5.0, 55.0)

    def test_downsample_means(self):
        ring, series = _series(100)
        ring.extend(series, ((float(i), 1.0) for i in range(100)))
        centers, mean, lo, hi = downsample(*ring.arrays(series), 10)
        assert len(centers) == 10
        assert np.allclose(mean[~np.isnan(mean)], 1.0)

    def test_downsample_minmax(self):
        ring, series = _series(100)
        ring.extend(series, ((float(i), float(i % 10)) for i in range(100)))
        _, _, lo, hi = downsample(*ring.arrays(series), 5)
        assert np.nanmin(lo) == 0.0 and np.nanmax(hi) == 9.0

    def test_downsample_empty(self):
        ring, series = _series(4)
        centers, mean, lo, hi = downsample(*ring.arrays(series), 5)
        assert len(centers) == 0

    def test_downsample_invalid_buckets(self):
        ring, series = _series(4)
        with pytest.raises(ValueError):
            downsample(*ring.arrays(series), 0)

    def test_ring_is_its_own_buffer(self):
        """A series is one plain ``bytearray`` — an 8-byte head, then the
        interleaved doubles — that the cyclic collector never walks; the
        layout holds ``capacity`` and no per-series state."""
        ring, series = _series(4, [(1.0, 10.0)])
        assert type(series) is bytearray and len(series) == 8 + 16
        assert gc.is_tracked(series) is False
        assert ring.capacity == 4 and ring.held(series) == 1
        ring.extend(series, [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0),
                             (5.0, 50.0)])
        assert len(series) == 8 + 4 * 16 and ring.held(series) == 4
        assert struct.unpack_from("<q", series)[0] == ~0
        ring.append(series, 6.0, 60.0)
        assert struct.unpack_from("<q", series)[0] == ~1
        assert struct.unpack_from("<dd", series, 8) == (6.0, 60.0)

    @pytest.mark.parametrize("held", [0, 2, 4, 6])
    @pytest.mark.parametrize("more", [0, 1, 2, 3, 9])
    def test_extend_equals_repeated_append(self, held, more):
        """From empty, growing, just full and wrapped (head != 0), into
        still growing, exactly full and overflowing."""
        pairs = [(float(i), float(-i)) for i in range(held + more)]
        ring, bulk = _series(4, pairs[:held])
        _, single = _series(4, pairs[:held])
        ring.extend(bulk, pairs[held:])
        for pair in pairs[held:]:
            ring.append(single, *pair)
        assert ring.held(bulk) == ring.held(single) == min(held + more, 4)
        assert ring.latest(bulk) == ring.latest(single)
        for got, want in zip(ring.arrays(bulk), ring.arrays(single)):
            assert got.tolist() == want.tolist()
        ring.append(bulk, 99.0, 99.0)
        assert ring.latest(bulk) == (99.0, 99.0)
        assert ring.arrays(bulk)[0].tolist() == (
            [p[0] for p in pairs] + [99.0])[-4:]

    def test_arrays_never_hands_out_a_view(self):
        ring, series = _series(64)
        ring.extend(series, ((float(i), float(i)) for i in range(8)))
        t, v = ring.arrays(series)
        for i in range(8, 40):      # growth reallocates the buffer:
            ring.append(series, float(i), float(i))     # no BufferError
        t[:] = -1.0                 # and the arrays are the caller's own
        assert ring.arrays(series)[0].tolist() == [float(i)
                                                   for i in range(40)]
        assert v.tolist() == [float(i) for i in range(8)]


class TestRecordLog:
    def test_keeps_the_newest_and_counts_every_record(self):
        log = RecordLog(3)
        for record in range(5):
            log.append(record)
        log.extend([5, 6])
        assert log == [4, 5, 6] and log.total == 7 and log.bound == 3

    def test_an_extend_past_the_bound_keeps_its_tail(self):
        log = RecordLog(2)
        log.extend(range(10))
        assert log == [8, 9] and log.total == 10

    def test_a_copy_keeps_bound_records_and_total(self):
        log = RecordLog(2)
        log.extend("abc")
        copy = log.copy()
        copy.append("d")
        assert (copy, copy.total) == (["c", "d"], 4)
        assert (log, log.total) == (["b", "c"], 3)

    def test_one_class_per_bound(self):
        assert type(RecordLog(5)) is type(RecordLog(5))
        assert type(RecordLog(5)) is not type(RecordLog(6))
        assert isinstance(RecordLog(5), RecordLog)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_a_log_keeps_at_least_one_record(self, bound):
        with pytest.raises(ValueError):
            RecordLog(bound)


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

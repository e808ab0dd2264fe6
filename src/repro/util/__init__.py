"""Shared utilities: ring buffers, the bounded record log, units."""

from repro.util.recordlog import RecordLog
from repro.util.ringbuffer import ByteRingBuffer, TimeSeriesRing
from repro.util.units import (
    GIB,
    KIB,
    MIB,
    fmt_bytes,
    fmt_duration,
    mbit_per_s,
)

__all__ = [
    "ByteRingBuffer",
    "GIB",
    "KIB",
    "MIB",
    "RecordLog",
    "TimeSeriesRing",
    "fmt_bytes",
    "fmt_duration",
    "mbit_per_s",
]

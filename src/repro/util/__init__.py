"""Shared utilities: ring buffers, units."""

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
    "TimeSeriesRing",
    "fmt_bytes",
    "fmt_duration",
    "mbit_per_s",
]

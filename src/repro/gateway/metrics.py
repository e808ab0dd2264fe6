"""Gateway-side request metrics: QPS, latency quantiles, bytes out.

The serving shell owns the wall clock (this is real traffic, not
simulation); this module owns the arithmetic.  Every entry point takes
explicit timestamps/durations, so the accounting itself stays
deterministic and unit-testable (WORX102-clean), and the shell remains
the only module that reads ``perf_counter``.

Latency quantiles come from a bounded reservoir of the most recent
samples (a ``deque(maxlen=...)``), sorted on demand — /stats is a cold
endpoint, request recording is the hot one, so the cost lands on the
reader.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["GatewayMetrics"]


class GatewayMetrics:
    """Counters + a latency reservoir for one gateway instance."""

    #: how many of the most recent latencies the quantiles read.
    reservoir = 8192

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        #: server-side failures only (status >= 500) — the E19 campaign
        #: asserts this stays 0 through a shard fail-over.
        self.server_errors = 0
        self.bytes_out = 0
        self._latencies: Deque[float] = deque(maxlen=self.reservoir)
        self._started_at: Optional[float] = None

    def start(self, now: float) -> None:
        """Mark serving start; ``now`` is the shell's monotonic clock."""
        self._started_at = now

    def record(self, status: int, latency_s: float,
               bytes_out: int) -> None:
        """Account one completed (non-streaming) request."""
        with self._lock:
            self.requests += 1
            if status >= 400:
                self.errors += 1
            if status >= 500:
                self.server_errors += 1
            self.bytes_out += bytes_out
            self._latencies.append(latency_s)

    def record_stream_bytes(self, n: int) -> None:
        with self._lock:
            self.bytes_out += n

    def _quantile(self, ordered, q: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def values(self, now: float) -> Dict[str, object]:
        """The flat /stats payload (shell supplies ``now``)."""
        with self._lock:
            ordered = sorted(self._latencies)
            started = self._started_at
            elapsed = (now - started) if started is not None else 0.0
            return {
                "requests": self.requests,
                "qps": round(self.requests / elapsed, 1)
                if elapsed > 0 else 0.0,
                "latency_p50_ms": round(
                    self._quantile(ordered, 0.50) * 1e3, 3),
                "latency_p99_ms": round(
                    self._quantile(ordered, 0.99) * 1e3, 3),
                "bytes_out": self.bytes_out,
                "errors": self.errors,
                "server_errors": self.server_errors,
            }

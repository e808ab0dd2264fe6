"""Historical graphing storage (§5.1).

"Historical graphing allows the administrator to chart monitoring values
over time ... view cluster use and performance trends over a selected time
interval, analyze the relationships between monitored values, or compare
performance between nodes."

:class:`HistoryStore` keeps one table per host — ``{metric: series}``,
each series a plain ``bytearray`` laid out by the store's one
:class:`~repro.util.ringbuffer.TimeSeriesRing` — and provides windowed
queries, RRD-style downsampling for chart rendering,
cross-node comparison, and a correlation helper for the "relationships
between monitored values" use case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.ringbuffer import TimeSeriesRing, downsample, window

__all__ = ["HistoryStore", "EMPTY_SERIES_BYTES"]

#: what :meth:`HistoryStore.series_bytes` reads for a series it does not
#: hold: an empty series's bytes.
EMPTY_SERIES_BYTES = bytes(TimeSeriesRing.new())


class HistoryStore:
    """Time-series history for every (node, metric) pair.

    Keyed by host first: one update, one drain step and one decommission
    each touch a single host's table, never the whole cluster's.
    """

    def __init__(self, capacity: int = 4096):
        #: the layout every series is read and written through.
        self._ring = TimeSeriesRing(capacity)
        #: hostname -> {metric: series}; a host appears with its first
        #: numeric value, so a host that only reports strings has no entry.
        self._series: Dict[str, Dict[str, bytearray]] = {}

    @property
    def capacity(self) -> int:
        """Samples kept per series."""
        return self._ring.capacity

    def _find(self, hostname: str, metric: str) -> Optional[bytearray]:
        table = self._series.get(hostname)
        return table.get(metric) if table is not None else None

    def record(self, hostname: str, t: float,
               values: Dict[str, object]) -> None:
        """Store the numeric subset of one update."""
        table = self._series.get(hostname)
        known = table is not None
        if not known:
            table = {}
        append = self._ring.append
        for name, value in values.items():
            kind = type(value)
            if kind is not float and kind is not int:
                if isinstance(value, bool):
                    value = int(value)
                elif not isinstance(value, (int, float)):
                    continue
            series = table.get(name)
            if series is None:
                series = table[name] = self._ring.new()
            append(series, t, float(value))
        if not known and table:
            self._series[hostname] = table

    def ingest(self, update) -> None:
        """Typed entry point: store one
        :class:`~repro.core.statestore.Update` — the store-subscription
        form of :meth:`record`."""
        self.record(update.hostname, update.time, update.values)

    def forget(self, hostname: str) -> None:
        """Drop every series for a decommissioned node."""
        self._series.pop(hostname, None)

    # -- queries ------------------------------------------------------------
    def series(self, hostname: str, metric: str
               ) -> Tuple[np.ndarray, np.ndarray]:
        series = self._find(hostname, metric)
        if series is None:
            return np.empty(0), np.empty(0)
        return self._ring.arrays(series)

    def series_bytes(self, hostname: str, metric: str) -> bytes:
        """One series as a single ``bytes`` copy, head included, for
        a reader that unpacks it after a lock is released
        (:meth:`TimeSeriesRing.arrays`,
        :func:`~repro.util.ringbuffer.downsample_bytes`); an unknown
        series reads as an empty one."""
        series = self._find(hostname, metric)
        return bytes(series) if series is not None else EMPTY_SERIES_BYTES

    def window(self, hostname: str, metric: str, t0: float, t1: float
               ) -> Tuple[np.ndarray, np.ndarray]:
        series = self._find(hostname, metric)
        if series is None:
            return np.empty(0), np.empty(0)
        return window(*self._ring.arrays(series), t0, t1)

    def latest(self, hostname: str, metric: str
               ) -> Optional[Tuple[float, float]]:
        series = self._find(hostname, metric)
        return self._ring.latest(series) if series is not None else None

    def graph(self, hostname: str, metric: str, buckets: int = 60
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Downsampled (centers, mean, min, max) for chart rendering."""
        series = self._find(hostname, metric)
        if series is None:
            empty = np.empty(0)
            return empty, empty, empty, empty
        return downsample(*self._ring.arrays(series), buckets)

    def compare_nodes(self, hostnames: Sequence[str], metric: str
                      ) -> Dict[str, float]:
        """Mean of ``metric`` per node over its stored history."""
        result: Dict[str, float] = {}
        for hostname in hostnames:
            _, v = self.series(hostname, metric)
            if len(v):
                result[hostname] = float(np.mean(v))
        return result

    def correlate(self, hostname: str, metric_a: str, metric_b: str
                  ) -> float:
        """Pearson correlation between two metrics on one node.

        Series are resampled onto the union time grid by nearest-previous
        interpolation before correlating.  Returns NaN when either series
        is too short or constant.
        """
        ta, va = self.series(hostname, metric_a)
        tb, vb = self.series(hostname, metric_b)
        if len(ta) < 3 or len(tb) < 3:
            return float("nan")
        grid = np.union1d(ta, tb)
        ia = np.clip(np.searchsorted(ta, grid, side="right") - 1, 0,
                     len(ta) - 1)
        ib = np.clip(np.searchsorted(tb, grid, side="right") - 1, 0,
                     len(tb) - 1)
        a, b = va[ia], vb[ib]
        if np.std(a) == 0 or np.std(b) == 0:
            return float("nan")
        return float(np.corrcoef(a, b)[0, 1])

    def trend(self, hostname: str, metric: str, *,
              window: Optional[float] = None
              ) -> Tuple[float, float]:
        """Least-squares linear trend ``(slope per second, intercept)``.

        ``window`` restricts the fit to the trailing seconds of history.
        Returns (nan, nan) when there is not enough data.
        """
        t, v = self.series(hostname, metric)
        if window is not None and len(t):
            mask = t >= t[-1] - window
            t, v = t[mask], v[mask]
        if len(t) < 2 or t[-1] == t[0]:
            return float("nan"), float("nan")
        slope, intercept = np.polyfit(t, v, 1)
        return float(slope), float(intercept)

    def forecast(self, hostname: str, metric: str, at: float, *,
                 window: Optional[float] = None) -> float:
        """Extrapolated value of ``metric`` at future time ``at``.

        The §5.1 use case: "predict future computing needs" — e.g. when a
        leaking node exhausts memory or a filesystem fills.
        """
        slope, intercept = self.trend(hostname, metric, window=window)
        return slope * at + intercept

    def time_to_threshold(self, hostname: str, metric: str,
                          threshold: float, *,
                          window: Optional[float] = None
                          ) -> Optional[float]:
        """Predicted absolute time the trend crosses ``threshold``.

        None when the trend never reaches it (wrong direction or flat).
        """
        slope, intercept = self.trend(hostname, metric, window=window)
        if not np.isfinite(slope):
            return None
        # Treat numerically-flat trends as flat: a slope that would take
        # longer than 1000x the observed history to cross is noise.
        t, v = self.series(hostname, metric)
        span = float(t[-1] - t[0]) if len(t) >= 2 else 0.0
        scale = float(np.max(np.abs(v))) if len(v) else 1.0
        if span > 0 and abs(slope) * span * 1000.0 < max(
                abs(threshold - intercept), 1e-12 * max(scale, 1.0)):
            return None
        if slope == 0.0:
            return None
        crossing = (threshold - intercept) / slope
        latest = self.latest(hostname, metric)
        if latest is None or crossing <= latest[0]:
            current = latest[1] if latest else None
            if current is not None:
                # Already past it in the trend direction?
                if (slope > 0 and current >= threshold) or \
                        (slope < 0 and current <= threshold):
                    return latest[0]
            return None
        return float(crossing)

    # -- migration --------------------------------------------------------
    def export_host(self, hostname: str
                    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Every stored series for one host, as ``{metric: (t, v)}``.

        The shard-rebalance path: a drained shard exports a node's
        history so the adopting shard keeps the trend lines intact.
        """
        return {metric: self._ring.arrays(series) for metric, series
                in self._series.get(hostname, {}).items()}

    def adopt_host(self, hostname: str,
                   series: Dict[str, Tuple[np.ndarray, np.ndarray]]
                   ) -> None:
        """Append an :meth:`export_host` payload to this store's series
        for the host, one bulk extend per metric."""
        table = self._series.get(hostname)
        for metric in sorted(series):
            t, v = series[metric]
            if not len(t):
                continue
            if table is None:
                table = self._series[hostname] = {}
            kept = table.get(metric)
            if kept is None:
                kept = table[metric] = self._ring.new()
            self._ring.extend(kept, zip(t.tolist(), v.tolist()))

    # -- persistence ------------------------------------------------------
    def export_text(self) -> str:
        """Serialize every series as ``host metric t value`` lines.

        The monitoring philosophy of §5.3.3 applied to storage: text,
        human-readable, platform-independent — compress it at rest if you
        care about bytes.
        """
        lines = []
        for host in sorted(self._series):
            table = self._series[host]
            for metric in sorted(table):
                t, v = self._ring.arrays(table[metric])
                for ti, vi in zip(t.tolist(), v.tolist()):
                    lines.append(f"{host} {metric} {ti!r} {vi!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def import_text(cls, text: str, capacity: int = 4096) -> "HistoryStore":
        """Rebuild a store from :meth:`export_text` output."""
        store = cls(capacity=capacity)
        for line_no, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"bad history line {line_no}: {line!r}")
            host, metric, t_s, v_s = fields
            try:
                store.record(host, float(t_s), {metric: float(v_s)})
            except ValueError:
                raise ValueError(
                    f"bad history line {line_no}: {line!r}") from None
        return store

    # -- bookkeeping ----------------------------------------------------------
    @property
    def metric_names(self) -> List[str]:
        return sorted({metric for table in self._series.values()
                       for metric in table})

    @property
    def hostnames(self) -> List[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        """Number of stored (host, metric) series."""
        return sum(map(len, self._series.values()))

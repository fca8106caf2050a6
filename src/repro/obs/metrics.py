"""Counters, gauges and histograms for the mapping search.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing count (nodes expanded,
  filter drops);
* :class:`Gauge` — last-written value plus its observed max (heap size,
  f-value frontier);
* :class:`Histogram` — streaming count/sum/min/max plus power-of-two
  bucket counts (heuristic-call latency, children per expansion).

Everything is snapshotable at any instant — crucially *including* the
moment a search budget trips — via :meth:`MetricsRegistry.snapshot`,
which returns a plain JSON-serializable dict.

Hot-path discipline: instrument lookups (``registry.counter(name)``)
happen once, outside the loop; the per-event operations (``inc`` /
``set`` / ``observe``) are a few attribute writes.
"""

from __future__ import annotations

from typing import Dict, Optional


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-set value, tracking the maximum ever observed."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0
        self.max = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Streaming distribution summary with power-of-two buckets.

    Bucket ``i`` counts observations in ``[2^(i-1), 2^i)`` units of
    ``scale`` (default scale 1.0; latency callers pass seconds and read
    the summary back in seconds).  Sixteen buckets cover five orders of
    magnitude, enough to tell a 10 µs heuristic call from a 100 ms one.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "scale")

    NUM_BUCKETS = 16

    def __init__(self, scale: float = 1.0) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * self.NUM_BUCKETS
        self.scale = scale

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        scaled = value / self.scale
        index = 0
        while scaled >= 1.0 and index < self.NUM_BUCKETS - 1:
            scaled /= 2.0
            index += 1
        self.buckets[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        # Keys in sorted order so JSONL serializations diff stably
        # (json.dumps preserves insertion order).
        return {
            "buckets": list(self.buckets),
            "count": self.count,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "sum": self.total,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted strings (``search.nodes_expanded``,
    ``heuristic.pending_gates``); a name belongs to exactly one instrument
    kind — asking for it as another kind raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(**kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, scale: float = 1.0) -> Histogram:
        return self._get(name, Histogram, scale=scale)

    def set_many(self, values: Dict[str, float]) -> None:
        """Write a dict of values into same-named gauges (bulk mirror)."""
        for name, value in values.items():
            if isinstance(value, (int, float)):
                self.gauge(name).set(value)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of every instrument right now.

        Counters flatten to their value, gauges to ``{max, value}``,
        histograms to their full summary.  Instrument names and every
        nested stat key come out in sorted order — snapshots of equal
        state serialize byte-identically, so JSONL diffs and test
        assertions are stable.
        """
        out: Dict[str, object] = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = {"max": instrument.max, "value": instrument.value}
            else:
                out[name] = instrument.summary()
        return out

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

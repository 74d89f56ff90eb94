"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The simulator's components publish operational numbers here — migrations
attempted, PMs overloaded, blast radii — and the registry exports as a
JSON dict.  Everything is plain Python
(no numpy in the hot paths): one ``inc()`` is an attribute add, one
histogram ``observe()`` is a bisect into a fixed bucket array, so the
metrics plane is cheap enough to leave on even for large runs.

Percentiles come from the histogram's cumulative bucket counts with linear
interpolation inside the target bucket (the classic fixed-bucket
estimator): the error is bounded by the width of the bucket the quantile
lands in, and exact observed min/max clamp the tails.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets: log-ish spread covering counts and loads
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name must match [a-zA-Z_][a-zA-Z0-9_]*, got {name!r}"
        )
    return name


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimation.

    Parameters
    ----------
    name, help:
        Metric identity.
    buckets:
        Strictly increasing upper bucket bounds.  Observations above the
        last bound land in an implicit ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum",
                 "_min", "_max")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) via bucket interpolation.

        The estimate is exact to within the width of the bucket the quantile
        falls in; the observed min/max bound the first and overflow buckets
        (and clamp the result), so the error never exceeds one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0 or not self._min <= self._max:
            # Empty, or no observation ever established a finite range
            # (e.g. only NaNs were observed): there is no quantile, and
            # answering with 0.0 or +/-inf would be a lie.
            return float("nan")
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.bounds[i - 1] if i > 0 else self._min
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if hi <= lo:
                    return lo
                frac = (target - cumulative) / n
                return lo + frac * (hi - lo)
            cumulative += n
        return self._max

    def to_dict(self) -> dict:
        """JSON-friendly snapshot including p50/p90/p99 estimates.

        Undefined statistics (empty histogram, or a NaN-poisoned one with
        no finite range) are emitted as ``None`` — never as NaN/inf, which
        ``json.dumps`` would render as invalid JSON.
        """
        def _safe(value: float) -> float | None:
            return value if math.isfinite(value) else None

        return {
            "count": self.count,
            "sum": _safe(self.sum),
            "min": _safe(self._min) if self.count else None,
            "max": _safe(self._max) if self.count else None,
            "mean": _safe(self.mean) if self.count else None,
            "buckets": {
                **{repr(b): c for b, c in zip(self.bounds, self.counts)},
                "+Inf": self.counts[-1],
            },
            "p50": _safe(self.percentile(0.5)) if self.count else None,
            "p90": _safe(self.percentile(0.9)) if self.count else None,
            "p99": _safe(self.percentile(0.99)) if self.count else None,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics, get-or-create, with a JSON exporter."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram, help=help,
                                   buckets=buckets)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------ #
    # exporters
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every metric."""
        out: dict[str, dict] = {}
        for key, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[key] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[key] = {"type": "gauge", "value": metric.value}
            else:
                out[key] = {"type": "histogram", **metric.to_dict()}
        return out

    def to_json(self, *, indent: int | None = None) -> str:
        """The :meth:`to_dict` snapshot as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

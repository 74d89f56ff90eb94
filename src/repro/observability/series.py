"""Bounded-memory time-series primitives for the run observatory.

Two containers cover what the recorder needs:

- :class:`RollingWindow` — a fixed-size ring with an O(1) running sum, for
  burn-rate math over the last N intervals;
- :class:`TieredSeries` — a chart-resolution series with downsampled
  retention tiers: the newest points are kept raw, older points are
  averaged into coarser and coarser buckets, so a million-interval run
  still fits in a few KB while the dashboard keeps full recent detail and
  a faithful long-range shape.

Both are plain Python (no numpy in the push path): one push is a couple of
attribute writes, cheap enough to run every simulated interval.
"""

from __future__ import annotations

from collections import deque

__all__ = ["RollingWindow", "TieredSeries"]


class RollingWindow:
    """Fixed-size ring of float samples with an O(1) running sum."""

    __slots__ = ("size", "_buf", "_sum")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._buf: deque[float] = deque(maxlen=size)
        self._sum = 0.0

    def push(self, value: float) -> None:
        """Add one sample, evicting the oldest when full."""
        value = float(value)
        if len(self._buf) == self.size:
            self._sum -= self._buf[0]
        self._buf.append(value)
        self._sum += value

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def sum(self) -> float:
        """Sum of the samples currently in the window."""
        return self._sum

    def sum_last(self, n: int) -> float:
        """Sum of the most recent ``min(n, len)`` samples."""
        if n >= len(self._buf):
            return self._sum
        return sum(list(self._buf)[-n:])

    def count_last(self, n: int) -> int:
        """How many samples a ``sum_last(n)`` actually covered."""
        return min(n, len(self._buf))

    @property
    def mean(self) -> float:
        """Mean of the buffered samples (0.0 when empty)."""
        return self._sum / len(self._buf) if self._buf else 0.0

    @property
    def last(self) -> float:
        """Most recent sample (0.0 when empty)."""
        return self._buf[-1] if self._buf else 0.0


class TieredSeries:
    """Append-only series with a raw head and downsampled retention tiers.

    Parameters
    ----------
    raw:
        Points kept at full resolution (the newest), and the capacity of
        each downsampled tier.
    factor:
        Downsampling factor between consecutive tiers: when a tier
        overflows, its ``factor`` oldest points collapse into one averaged
        point of the next tier.
    tiers:
        Number of downsampled tiers behind the raw ring.  When the last
        tier overflows its oldest points age out, bounding total memory at
        ``(tiers + 1) * raw`` points regardless of run length.
    """

    __slots__ = ("raw_capacity", "factor", "_levels", "n_pushed")

    def __init__(self, raw: int = 240, factor: int = 8, tiers: int = 2):
        if raw < 1:
            raise ValueError(f"raw must be >= 1, got {raw}")
        if factor < 2:
            raise ValueError(f"factor must be >= 2, got {factor}")
        if tiers < 0:
            raise ValueError(f"tiers must be >= 0, got {tiers}")
        self.raw_capacity = raw
        self.factor = factor
        # _levels[0] is the raw ring; _levels[i > 0] holds points averaged
        # over factor**i raw intervals.  All hold (time, value) pairs.
        self._levels: list[deque[tuple[int, float]]] = [
            deque() for _ in range(tiers + 1)
        ]
        self.n_pushed = 0

    def push(self, time: int, value: float) -> None:
        """Append one (time, value) sample."""
        self._levels[0].append((int(time), float(value)))
        self.n_pushed += 1
        self._spill(0)

    def _spill(self, level: int) -> None:
        """Collapse the oldest ``factor`` points of an overflowing level."""
        buf = self._levels[level]
        while len(buf) > self.raw_capacity:
            chunk = [buf.popleft() for _ in range(self.factor)]
            if level + 1 >= len(self._levels):
                continue  # past the last tier: history ages out
            mean = sum(v for _, v in chunk) / len(chunk)
            self._levels[level + 1].append((chunk[0][0], mean))
            self._spill(level + 1)

    def series(self) -> tuple[list[int], list[float]]:
        """The retained series, oldest first: (times, values)."""
        times: list[int] = []
        values: list[float] = []
        for buf in reversed(self._levels):
            for t, v in buf:
                times.append(t)
                values.append(v)
        return times, values

    @property
    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        for buf in self._levels:
            if buf:
                return buf[-1][1]
        return 0.0

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._levels)

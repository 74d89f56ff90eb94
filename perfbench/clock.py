"""The benchmark's clock: CPU time of this process at a reference speed.

Wall time on a small shared host measures the neighbours as much as the
program: time the host hands the vCPU to someone else (steal) and time
another process runs on it both count.  Process CPU time leaves those out
(the kernel subtracts steal when paravirtual time accounting is on).  What
it keeps is the speed of a CPU second itself, which on the 2-vCPU
container this benchmark was sized on moved by up to 2.7x within seconds,
as neighbours came and went on the physical core.

So the workloads also run a fixed probe -- interpreter work, objects,
JSON and numpy, the kinds of work the program does -- every few timed
units.  A lap's CPU time is multiplied by ``REFERENCE_PROBE_S`` over the
mean CPU time of the probes just before and just after it: a reported
time is what the lap would have taken at the speed at which the probe
takes ``REFERENCE_PROBE_S``.  The probe never calls the program, so
a change to the program leaves the rescaling alone.

Time spent waiting in the kernel (the WAL's ``fsync``) is not CPU time and
is left out of every lap.
"""

from __future__ import annotations

import gc
import json
from time import process_time

import numpy as np

#: CPU seconds of one probe at the reference speed: a round figure near the
#: fastest probes seen on the container the benchmark was sized on.  It
#: only sets the scale; changing it would move every reported time at once.
REFERENCE_PROBE_S = 2.7e-4

_ROW = np.linspace(0.0, 1.0, 64)
_WIDE = np.random.default_rng(0).random(2048)
_DOC = {"pms": [{"id": i, "vms": list(range(i % 13)), "load": [0.5 * i, 1.5]}
                for i in range(50)]}


class _Item:
    __slots__ = ("key", "size", "name")

    def __init__(self, key: int, size: float, name: str) -> None:
        self.key, self.size, self.name = key, size, name


def _probe_kernel() -> float:
    """Fixed work in four parts that slow down differently when the core
    is shared: small numpy calls in a Python loop, objects with a dict
    index and a sort, a JSON round trip, and wide numpy arithmetic.
    Their sum tracks the program's own slow-down better than any part."""
    acc = 0.0
    table: dict[int, list] = {}
    for i in range(30):
        row = _ROW * float(i % 7) + 1.0
        acc += float(row.sum())
        table[i & 31] = [acc, i]
    items = [_Item(i, i * 0.5, str(i)) for i in range(100)]
    index = {item.name: item for item in items}
    for item in items:
        acc += index[item.name].size * item.key
    items.sort(key=lambda item: -item.size)
    acc += len(json.loads(json.dumps(_DOC))["pms"])
    wide = _WIDE
    for _ in range(2):
        wide = np.sqrt(wide * wide + 1.0) - 0.5
    return acc + float(np.sort(wide)[100])


class SpeedClock:
    """Times laps in CPU seconds and rescales them to the reference speed.

    Call :meth:`probe` every few laps, including once before the first lap
    and once after the last.  A lap is timed into a :class:`Laps` from
    :meth:`laps`; its scaled seconds are read once the probes around it
    ran.
    """

    now = staticmethod(process_time)

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self) -> None:
        """Time the probe kernel once.  The collector is off meanwhile, so
        a collection the program's allocations are due never lands in a
        probe; the kernel frees all it allocates, so the program's next
        collection comes no sooner for it."""
        gc.disable()
        try:
            t0 = process_time()
            _probe_kernel()
            self.probes.append(process_time() - t0)
        finally:
            gc.enable()

    def laps(self) -> Laps:
        return Laps(self)

    def scale(self, after: int) -> float:
        """Reference seconds per CPU second for work done after ``after``
        probes had run: the reference probe time over the mean of the
        probe before that work and the probe after it."""
        around = self.probes[max(after - 1, 0):after + 1]
        return REFERENCE_PROBE_S * len(around) / sum(around)

    def speed(self) -> float:
        """Median reference-to-measured probe ratio (1.0 = reference)."""
        return REFERENCE_PROBE_S / float(np.median(self.probes))


class Laps:
    """CPU seconds of timed units, each tagged with the probes around it."""

    __slots__ = ("_clock", "_raw", "_after")

    def __init__(self, clock: SpeedClock) -> None:
        self._clock = clock
        self._raw: list[float] = []
        self._after: list[int] = []

    def stop(self, start: float) -> None:
        """Record the CPU seconds since ``start``.  Nothing the collector
        tracks is allocated after the clock is read, so a collection can
        not fall between two laps and go uncounted."""
        end = process_time()
        self._raw.append(end - start)
        self._after.append(len(self._clock.probes))

    def seconds(self) -> list[float]:
        """The laps in reference seconds."""
        scale = self._clock.scale
        return [raw * scale(k) for raw, k in zip(self._raw, self._after)]

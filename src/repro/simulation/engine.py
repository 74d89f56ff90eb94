"""The interval clock: a minimal hook-driven time-stepped engine.

One engine tick = one information-update interval (the paper's sigma).
Hooks run in registration order each tick; the scheduler and the monitor are
just hooks, which keeps the engine reusable for ablations that add e.g. an
arrival process or an energy meter.
"""

from __future__ import annotations

from typing import Callable

from repro.utils.validation import check_integer

Hook = Callable[[int], None]


class SimulationEngine:
    """Runs registered hooks for a fixed number of intervals.

    Hooks receive the current interval index (0-based).  Exceptions
    propagate — a failed invariant should abort the run loudly.
    """

    def __init__(self) -> None:
        self._hooks: list[tuple[str, Hook]] = []
        self._time = 0

    @property
    def time(self) -> int:
        """Intervals completed so far."""
        return self._time

    @time.setter
    def time(self, value: int) -> None:
        """Jump the clock (checkpoint restore); hooks see the new index."""
        self._time = check_integer(value, "time", minimum=0)

    def add_hook(self, name: str, hook: Hook) -> None:
        """Register a per-interval hook; names must be unique."""
        if any(n == name for n, _ in self._hooks):
            raise ValueError(f"hook {name!r} is already registered")
        self._hooks.append((name, hook))

    def run(self, n_intervals: int) -> None:
        """Advance ``n_intervals`` ticks, invoking every hook each tick."""
        n_intervals = check_integer(n_intervals, "n_intervals", minimum=0)
        for _ in range(n_intervals):
            for _, hook in self._hooks:
                hook(self._time)
            self._time += 1

"""Migration triggers: when is a PM's overflow bad enough to act on?

The paper's formulation (Section I/III) imposes the threshold rho "rather
than conducting migration upon PM's capacity overflow ... to tolerate minor
fluctuation of resource usage".  The default scheduler acts on every
overflow (:class:`OverflowTrigger` — what a real reactive controller does);
:class:`SlidingWindowCVRTrigger` implements the paper's tolerant semantics:
migrate only when the PM's violation *frequency* over a recent window
exceeds rho.

Triggers are observe-then-ask objects: the scheduler calls
:meth:`MigrationTrigger.observe` once per interval with the current loads,
then :meth:`MigrationTrigger.should_migrate` per overloaded PM.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.simulation.datacenter import Datacenter
from repro.utils.validation import check_integer, check_probability

_EPS = 1e-9


class MigrationTrigger(Protocol):
    """Decides whether an overloaded PM warrants a migration right now."""

    def observe(self, dc: Datacenter, time: int) -> None:
        """Record this interval's fleet state (called once per interval)."""

    def should_migrate(self, pm_id: int) -> bool:
        """Whether PM ``pm_id`` (currently overloaded) should shed a VM."""


class OverflowTrigger:
    """Act on every capacity overflow (the reactive default)."""

    def observe(self, dc: Datacenter, time: int) -> None:  # noqa: D102
        pass

    def should_migrate(self, pm_id: int) -> bool:  # noqa: D102
        return True

    def capture_state(self) -> dict:
        """Stateless: nothing to snapshot."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Stateless: nothing to restore."""


class SlidingWindowCVRTrigger:
    """Migrate only when a PM's windowed violation fraction exceeds rho.

    Parameters
    ----------
    n_pms:
        Fleet size.
    rho:
        Tolerated violation fraction (the paper's threshold).
    window:
        Number of recent intervals over which CVR is measured.

    Notes
    -----
    Maintains a circular buffer of per-PM violation flags; memory is
    ``O(n_pms * window)`` bits and each observe is one vectorized compare.
    Until a PM has a full window of history, its CVR is measured over the
    intervals seen so far (so a violation in the very first interval exceeds
    any rho < 1 — matching the reactive behaviour early on).
    """

    def __init__(self, n_pms: int, rho: float = 0.01, *, window: int = 50):
        self.n_pms = check_integer(n_pms, "n_pms", minimum=1)
        self.rho = check_probability(rho, "rho")
        self.window = check_integer(window, "window", minimum=1)
        self._flags = np.zeros((n_pms, window), dtype=bool)
        self._cursor = 0
        self._filled = 0

    def observe(self, dc: Datacenter, time: int) -> None:
        """Record which PMs violate capacity this interval."""
        if dc.n_pms != self.n_pms:
            raise ValueError(
                f"datacenter has {dc.n_pms} PMs but trigger was built for "
                f"{self.n_pms}"
            )
        loads = dc.pm_loads()
        caps = dc.pm_capacities()
        self._flags[:, self._cursor] = loads > caps + _EPS
        self._cursor = (self._cursor + 1) % self.window
        self._filled = min(self._filled + 1, self.window)

    def windowed_cvr(self, pm_id: int) -> float:
        """Violation fraction of PM ``pm_id`` over the observed window."""
        if not 0 <= pm_id < self.n_pms:
            raise ValueError(f"pm_id must be in [0, {self.n_pms}), got {pm_id}")
        if self._filled == 0:
            return 0.0
        return float(self._flags[pm_id].sum()) / self._filled

    def should_migrate(self, pm_id: int) -> bool:
        """True when the windowed CVR strictly exceeds rho."""
        return self.windowed_cvr(pm_id) > self.rho

    def capture_state(self) -> dict:
        """JSON-safe snapshot of the circular violation-flag buffer."""
        return {
            "flags": self._flags.tolist(),
            "cursor": self._cursor,
            "filled": self._filled,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the window buffer from a snapshot."""
        flags = np.array(state["flags"], dtype=bool)
        if flags.shape != (self.n_pms, self.window):
            raise ValueError(
                f"checkpoint trigger window has shape {flags.shape} but "
                f"trigger was built for ({self.n_pms}, {self.window})"
            )
        self._flags = flags
        self._cursor = int(state["cursor"])
        self._filled = int(state["filled"])

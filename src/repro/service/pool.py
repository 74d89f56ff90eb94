"""Elastic PM pool: hysteresis scaling with a drain-before-retire guard.

Follows the reservation-headroom idea of Psychas & Ghaderi (PAPERS.md,
arXiv:2005.13744): keep a small reserve of *empty* active PMs as headroom,
activate standby machines when the reserve runs dry, and retire machines
when the reserve is persistently oversized.  Three robustness rules shape
the implementation:

- **Hysteresis.**  Scale-up triggers when empty active PMs drop below
  ``low_watermark``; scale-down only after the count exceeds
  ``high_watermark`` for ``patience`` consecutive evaluations — a burst
  cannot flap the pool.
- **Two-phase scale-down.**  Retiring is ``down_prepare`` (active ->
  draining; the PM stops taking admissions but keeps its VMs) followed,
  ``drain_ticks`` evaluations later, by ``down_commit`` (draining ->
  retired).  Renewed pressure in between *aborts* the drain
  (``down_abort``: draining -> active) — the journaled decision rolls
  back instead of thrashing standby machines.
- **The guard.**  ``down_commit`` refuses — :class:`PoolGuardError` — to
  retire a PM hosting VMs.  Since draining PMs are excluded from
  admission and only empty PMs are ever prepared, the guard should never
  fire; it is an assertion about the whole service, not a code path.

``evaluate`` only *proposes* actions; the service journals each one to
the WAL and then calls ``apply`` (journal-then-apply).  On WAL replay the
recorded actions are applied directly and the policy is never re-run.
"""

from __future__ import annotations

from typing import Iterable

ACTIVE = "active"
STANDBY = "standby"
DRAINING = "draining"
RETIRED = "retired"

#: journaled scale actions
SCALE_ACTIONS = ("up", "down_prepare", "down_commit", "down_abort")


class PoolGuardError(RuntimeError):
    """The drain-before-retire invariant was about to be violated."""


class ElasticPMPool:
    """Lifecycle manager for a fixed fleet's active subset."""

    def __init__(self, n_pms: int, *, initial_active: int | None = None,
                 low_watermark: int = 1, high_watermark: int = 3,
                 patience: int = 8, drain_ticks: int = 2):
        if n_pms < 1:
            raise ValueError("need at least one PM")
        if initial_active is None:
            initial_active = n_pms
        if not 1 <= initial_active <= n_pms:
            raise ValueError("initial_active out of range")
        if low_watermark < 0 or high_watermark < low_watermark:
            raise ValueError("need 0 <= low_watermark <= high_watermark")
        if patience < 1 or drain_ticks < 1:
            raise ValueError("patience and drain_ticks must be >= 1")
        self.low_watermark = int(low_watermark)
        self.high_watermark = int(high_watermark)
        self.patience = int(patience)
        self.drain_ticks = int(drain_ticks)
        self.status: list[str] = [ACTIVE] * initial_active \
            + [STANDBY] * (n_pms - initial_active)
        self._over_ticks = 0            # consecutive over-watermark ticks
        self._drain_age: dict[int, int] = {}   # pm -> evaluations draining

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def indices(self, status: str) -> list[int]:
        return [i for i, s in enumerate(self.status) if s == status]

    def active_indices(self) -> list[int]:
        """PMs eligible for admission (active only; draining is excluded)."""
        return self.indices(ACTIVE)

    def counts(self) -> dict[str, int]:
        out = {ACTIVE: 0, STANDBY: 0, DRAINING: 0, RETIRED: 0}
        for s in self.status:
            out[s] += 1
        return out

    # ------------------------------------------------------------------ #
    # policy: propose journaled actions
    # ------------------------------------------------------------------ #
    def evaluate(self, empty_pms: Iterable[int]) -> list[tuple[str, int]]:
        """Propose scale actions given the set of currently-empty PMs.

        Returns ``(action, pm_index)`` tuples in apply order.  Pure policy:
        nothing is mutated here — the service journals each action and
        then calls :meth:`apply`.
        """
        empty = set(int(i) for i in empty_pms)
        actions: list[tuple[str, int]] = []
        empty_active = [i for i in self.active_indices() if i in empty]
        draining = self.indices(DRAINING)
        # Commit drains that have aged past the abort window; a PM retired
        # here is no drain to roll back below.
        for pm in list(draining):
            if self._drain_age.get(pm, 0) >= self.drain_ticks \
                    and pm in empty:
                actions.append(("down_commit", pm))
                draining.remove(pm)
        if len(empty_active) < self.low_watermark:
            # Pressure: roll back the newest drain first, then wake standby.
            if draining:
                newest = max(draining, key=lambda i: -self._drain_age.get(i, 0))
                actions.append(("down_abort", newest))
            else:
                standby = self.indices(STANDBY)
                if standby:
                    actions.append(("up", standby[0]))
        elif len(empty_active) > self.high_watermark \
                and self._over_ticks + 1 >= self.patience:
            # Persistently oversized reserve: drain the highest empty active
            # PM (keeps low-index PMs hot, matching first-fit's bias).
            actions.append(("down_prepare", max(empty_active)))
        return actions

    def tick(self, empty_pms: Iterable[int]) -> None:
        """Advance hysteresis/drain clocks by one evaluation.

        Called once per evaluation *after* the proposed actions were
        journaled and applied, so the clocks never advance for decisions
        that were not durably recorded.
        """
        empty = set(int(i) for i in empty_pms)
        empty_active = [i for i in self.active_indices() if i in empty]
        if len(empty_active) > self.high_watermark:
            self._over_ticks += 1
        else:
            self._over_ticks = 0
        for pm in self.indices(DRAINING):
            self._drain_age[pm] = self._drain_age.get(pm, 0) + 1

    # ------------------------------------------------------------------ #
    # transitions (journal-then-apply target; also the replay path)
    # ------------------------------------------------------------------ #
    def apply(self, action: str, pm: int, *, pm_empty: bool = True) -> None:
        """Apply one journaled scale action, enforcing the lifecycle.

        ``pm_empty`` is the caller's statement about the PM's hosted-VM
        count at apply time; ``down_commit`` raises :class:`PoolGuardError`
        unless it is True — never retire a PM hosting VMs.
        """
        pm = int(pm)
        if not 0 <= pm < len(self.status):
            raise ValueError(f"PM index {pm} out of range")
        current = self.status[pm]
        if action == "up":
            if current != STANDBY:
                raise PoolGuardError(f"cannot activate PM {pm}: {current}")
            self.status[pm] = ACTIVE
        elif action == "down_prepare":
            if current != ACTIVE:
                raise PoolGuardError(f"cannot drain PM {pm}: {current}")
            self.status[pm] = DRAINING
            self._drain_age[pm] = 0
            self._over_ticks = 0
        elif action == "down_commit":
            if current != DRAINING:
                raise PoolGuardError(f"cannot retire PM {pm}: {current}")
            if not pm_empty:
                raise PoolGuardError(
                    f"refusing to retire PM {pm}: it still hosts VMs "
                    "(drain-before-retire guard)")
            self.status[pm] = RETIRED
            self._drain_age.pop(pm, None)
        elif action == "down_abort":
            if current != DRAINING:
                raise PoolGuardError(f"cannot abort drain of PM {pm}: {current}")
            self.status[pm] = ACTIVE
            self._drain_age.pop(pm, None)
        else:
            raise ValueError(f"unknown scale action {action!r}")

    # ------------------------------------------------------------------ #
    # durable state
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        return {
            "status": list(self.status),
            "over_ticks": self._over_ticks,
            "drain_age": {str(k): v for k, v in sorted(self._drain_age.items())},
        }

    def restore_state(self, state: dict) -> None:
        status = list(state["status"])
        if len(status) != len(self.status):
            raise ValueError("pool snapshot has a different fleet size")
        if any(s not in (ACTIVE, STANDBY, DRAINING, RETIRED) for s in status):
            raise ValueError("pool snapshot has an unknown PM status")
        self.status = status
        self._over_ticks = int(state.get("over_ticks", 0))
        self._drain_age = {int(k): int(v)
                           for k, v in state.get("drain_age", {}).items()}

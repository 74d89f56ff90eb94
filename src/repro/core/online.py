"""Online consolidation: arrivals, departures, batches (paper Section IV-E).

The paper's online rules:

- **single arrival** — place the VM on the first PM satisfying Eq. (17) and
  recompute that PM's queue (block count/size);
- **departure** — remove the VM and recompute the PM's queue;
- **batch arrival** — run the Algorithm 2 ordering over the batch.

Reservation states make all recomputation implicit: block count follows the
hosted count through the precomputed mapping table and block size follows the
running ``max R_e``.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.mapcal import BlockMapping, mapcal_table, table_fingerprint
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import PMReservationState, ReservationKernel
from repro.core.types import PMSpec, VMSpec
from repro.durable import canonical
from repro.placement.base import (
    REASON_CVR_THRESHOLD,
    REASON_DRAINING,
    REASON_FLEET_FULL,
    REASON_VM_CAP,
    AdmissionRejectedError,
    InsufficientCapacityError,
    PlacementExplainer,
)
from repro.telemetry import PRE_RUN, Telemetry, resolve


class AdmissionDecision(NamedTuple):
    """An admission decision, not yet applied, with the full-fleet Eq. (17)
    terms it was made from (its ``PlacementDecided`` rows come from them)."""

    pm: int  # -1: no eligible PM passes Eq. (17)
    vm_id: int  # -1 when rejected
    need: np.ndarray
    count_ok: np.ndarray
    eligible: np.ndarray | None  # per-PM mask; None = every PM


class OnlineConsolidator:
    """Incremental VM admission/eviction over a fixed PM fleet.

    Parameters
    ----------
    pms:
        The PM fleet.
    placer:
        A configured :class:`QueuingFFD`; supplies rho, d, clustering and the
        mapping table.  The consolidator locks the mapping to the switch
        probabilities of the *first* VMs it sees and, per the paper's note,
        can be refreshed with :meth:`recalibrate` when the population's
        rounded ``(p_on, p_off)`` has drifted.
    """

    def __init__(self, pms: Sequence[PMSpec], placer: QueuingFFD | None = None,
                 *, telemetry: Telemetry | None = None):
        if not pms:
            raise ValueError("need at least one PM")
        self.placer = placer if placer is not None else QueuingFFD()
        self.telemetry = telemetry
        self._pms = list(pms)
        self._mapping: BlockMapping | None = None
        self._kernel: ReservationKernel | None = None
        self._locations: dict[int, int] = {}  # vm_id -> pm index
        self._next_id = 0
        #: recalibrate() calls that found the mapping unchanged (or had no
        #: population to refit against) and deliberately did nothing
        self.recalibrate_noops = 0

    # ------------------------------------------------------------------ #
    # state accessors
    # ------------------------------------------------------------------ #
    @property
    def n_pms(self) -> int:
        """Fleet size."""
        return len(self._pms)

    @property
    def n_vms(self) -> int:
        """Currently hosted VM count."""
        return len(self._locations)

    @property
    def n_used_pms(self) -> int:
        """PMs currently hosting at least one VM."""
        if self._kernel is None:
            return 0
        return int(np.count_nonzero(self._kernel.counts))

    @property
    def kernel(self) -> ReservationKernel | None:
        """The live Eq. (17) state, read-only (None before any arrival)."""
        return self._kernel

    def pm_of(self, vm_id: int) -> int:
        """PM index hosting ``vm_id``."""
        try:
            return self._locations[vm_id]
        except KeyError:
            raise KeyError(f"unknown VM id {vm_id}") from None

    def hosts(self, vm_id: int) -> bool:
        """Whether VM ``vm_id`` is hosted now."""
        return vm_id in self._locations

    def state_of(self, pm_index: int) -> PMReservationState:
        """A snapshot of PM ``pm_index``'s reservation state."""
        if self._kernel is None:
            raise RuntimeError(
                "no VMs admitted yet; the mapping table is created on the "
                "first arrival"
            )
        return self._kernel.snapshot(pm_index, self._pms[pm_index],
                                     self._mapping)

    def hosted_vms(self) -> dict[int, VMSpec]:
        """Snapshot mapping vm_id -> spec of all hosted VMs."""
        out: dict[int, VMSpec] = {}
        if self._kernel is not None:
            for hosted in self._kernel.hosted:
                out.update(hosted)
        return out

    # ------------------------------------------------------------------ #
    # online operations
    # ------------------------------------------------------------------ #
    def _init_mapping(self, vms: Sequence[VMSpec]) -> None:
        self._set_mapping(self.placer.mapping_for(vms))

    def _set_mapping(self, mapping: BlockMapping) -> None:
        """Start from an empty fleet under ``mapping``."""
        self._mapping = mapping
        self._kernel = ReservationKernel([p.capacity for p in self._pms],
                                         mapping.d, mapping.table)

    def _mask(self, eligible: Iterable[int] | None) -> np.ndarray | None:
        if eligible is None:
            return None
        mask = np.zeros(len(self._pms), dtype=bool)
        mask[np.asarray(list(eligible), dtype=np.int64)] = True
        return mask

    def _decide(self, kernel: ReservationKernel, vm: VMSpec, vm_id: int,
                eligible: np.ndarray | None = None,
                choose: Callable[[Sequence[int]], int] | None = None,
                ) -> AdmissionDecision:
        need, count_ok = kernel.need(vm)
        ok = count_ok & kernel.within(need)
        if eligible is not None:
            ok &= eligible
        feasible = np.flatnonzero(ok)
        pm = -1
        if feasible.size and choose is None:
            pm = int(feasible[0])
        elif feasible.size:
            candidates = feasible.tolist()
            pm = int(choose(candidates))
            if pm not in candidates:
                raise ValueError(
                    f"choose() returned PM {pm}, not one of the feasible "
                    f"candidates {candidates}")
        return AdmissionDecision(pm, vm_id if pm >= 0 else -1, need,
                                 count_ok, eligible)

    def decide(self, vm: VMSpec, *, eligible: Iterable[int] | None = None,
               choose: Callable[[Sequence[int]], int] | None = None,
               ) -> AdmissionDecision:
        """Choose a PM for ``vm`` in one Eq. (17) pass, changing no state
        (but the first call builds the block table from ``vm``).

        ``eligible`` and ``choose`` are as in :meth:`admit`; the decision's
        ``vm_id`` is the one :meth:`apply_admit` expects next.
        """
        if self._kernel is None:
            self._init_mapping([vm])
        return self._decide(self._kernel, vm, self._next_id,
                            self._mask(eligible), choose)

    def explain(self, decision: AdmissionDecision, *, time: int,
                context: str = "online") -> None:
        """Emit one ``PlacementDecided`` for a decision (when traced)."""
        tel = resolve(self.telemetry)
        if tel is None or not tel.events.enabled:
            return
        explainer = PlacementExplainer(tel, self.placer.name, context=context)
        explainer.set_inputs(
            p_on=self._mapping.p_on, p_off=self._mapping.p_off,
            table_fingerprint=table_fingerprint(self._mapping),
            score_kind="reservation_headroom")
        eligible = decision.eligible
        explainer.record(decision.vm_id, decision.pm, [
            (REASON_DRAINING, None if eligible is None else ~eligible),
            (REASON_VM_CAP, ~decision.count_ok),
            (REASON_CVR_THRESHOLD, ~self._kernel.within(decision.need)),
        ], self._kernel.caps - decision.need, time=time)

    def fleet_headroom(self, vm: VMSpec | None = None, *,
                       eligible: Iterable[int] | None = None) -> dict:
        """Actionable fleet summary stamped on admission rejections.

        Counts eligible PMs, remaining VM slots under the per-PM cap ``d``,
        and the largest single-PM capacity headroom; with a candidate ``vm``
        it additionally splits the blocked PMs by veto layer (``d`` cap vs.
        the Eq. (17) reservation test), so a rejection message says what it
        would take to admit the VM, not just that it failed.
        """
        mask = self._mask(eligible)
        out: dict[str, object] = {
            "pms": len(self._pms),
            "hosted_vms": len(self._locations),
        }
        if self._kernel is None:
            out["eligible_pms"] = (len(self._pms) if mask is None
                                   else int(mask.sum()))
            return out
        kernel = self._kernel
        pick = slice(None) if mask is None else mask
        n_eligible = int(kernel.counts[pick].size)
        out["eligible_pms"] = n_eligible
        out["free_slots"] = int(
            np.maximum(0, kernel.d - kernel.counts[pick]).sum())
        headroom = (kernel.caps - kernel.committed())[pick]
        out["max_headroom"] = (round(float(headroom.max()), 6)
                               if n_eligible else 0.0)
        if vm is not None:
            need, count_ok = kernel.need(vm)
            out["vm_cap_blocked"] = int((~count_ok)[pick].sum())
            out["cvr_blocked"] = int(
                (count_ok & ~kernel.within(need))[pick].sum())
        return out

    def admit(self, vm: VMSpec, *, time: int = PRE_RUN,
              eligible: Iterable[int] | None = None,
              choose: Callable[[Sequence[int]], int] | None = None,
              ) -> tuple[int, int]:
        """Admit one VM; returns ``(vm_id, pm_index)``.

        First-fit over PMs with the Eq. (17) test, exactly the paper's
        single-arrival rule: :meth:`decide`, :meth:`explain`, then
        :meth:`apply_admit`.  When an event-enabled telemetry context is
        resolved, the attempt (successful or not) is recorded as a
        ``PlacementDecided`` with ``context="online"``, stamped ``time``.

        Parameters
        ----------
        eligible:
            Optional PM-index whitelist; PMs outside it are skipped (and
            recorded with the ``draining_pm`` verdict under tracing).  The
            placement service passes its non-draining pool here.
        choose:
            Optional selection rule: called with the sorted list of *all*
            feasible eligible PM indices and must return one of them.  The
            default (``None``) keeps the paper's first-fit.

        Raises
        ------
        AdmissionRejectedError
            If no eligible PM can take the VM (``reason="fleet_full"``,
            with a :meth:`fleet_headroom` summary attached).
        """
        decision = self.decide(vm, eligible=eligible, choose=choose)
        self.explain(decision, time=time)
        if decision.pm < 0:
            raise AdmissionRejectedError(
                -1, REASON_FLEET_FULL,
                headroom=self.fleet_headroom(vm, eligible=eligible))
        self.apply_admit(vm, decision.pm, decision.vm_id)
        return decision.vm_id, decision.pm

    def apply_admit(self, vm: VMSpec, pm_index: int, vm_id: int) -> None:
        """Apply an admission outcome: a fresh decision or a WAL record.

        Replay must reproduce decisions, not re-make them — selection policy,
        pool eligibility, and circuit-breaker state at decision time are all
        already baked into the journaled ``(vm_id, pm_index)``.  This applies
        that outcome verbatim: no Eq. (17) re-test, no events, strict id
        sequencing (``vm_id`` must equal the next id, so a divergent or
        reordered log fails loudly instead of silently corrupting state).
        """
        if self._kernel is None:
            self._init_mapping([vm])
        if int(vm_id) != self._next_id:
            raise ValueError(
                f"replayed vm_id {vm_id} != expected next id {self._next_id}; "
                "WAL is divergent from the restored checkpoint")
        pm_index = int(pm_index)
        if not 0 <= pm_index < len(self._pms):
            raise ValueError(f"replayed pm_index {pm_index} out of range")
        self._kernel.add(pm_index, int(vm_id), vm)
        self._locations[int(vm_id)] = pm_index
        self._next_id = int(vm_id) + 1

    def admit_batch(self, vms: Sequence[VMSpec],
                    *, time: int = PRE_RUN) -> list[tuple[int, int]]:
        """Admit a batch using Algorithm 2's ordering over the batch.

        Returns ``(vm_id, pm_index)`` per input VM, in input order.  The
        operation is atomic: the batch is decided on a copy of the state,
        which replaces the live one only if every VM fits.  Under tracing
        each admission becomes a ``PlacementDecided`` with
        ``context="online_batch"`` (the candidate verdicts reflect earlier
        batch members, matching the actual test).
        """
        if not vms:
            return []
        if self._kernel is None:
            self._init_mapping(vms)
        trial = copy.deepcopy(self._kernel)
        placed: list[tuple[int, AdmissionDecision]] = []
        for pos in self.placer.order_vms(vms):
            pos = int(pos)
            decision = self._decide(trial, vms[pos],
                                    self._next_id + len(placed))
            if decision.pm < 0:
                self.explain(decision, time=time, context="online_batch")
                raise InsufficientCapacityError(
                    pos, f"batch VM {pos} does not fit")
            trial.add(decision.pm, decision.vm_id, vms[pos])
            placed.append((pos, decision))
        self._kernel = trial
        self._next_id += len(placed)
        results: list[tuple[int, int]] = [(-1, -1)] * len(vms)
        for pos, decision in placed:
            self._locations[decision.vm_id] = decision.pm
            results[pos] = (decision.vm_id, decision.pm)
            self.explain(decision, time=time, context="online_batch")
        return results

    def depart(self, vm_id: int) -> int:
        """Remove VM ``vm_id``; returns the PM it left.

        The PM's queue shrinks automatically (block count via the mapping
        table, block size via the recomputed ``max R_e``).
        """
        pm_idx = self.pm_of(vm_id)
        self._kernel.remove(pm_idx, vm_id)
        del self._locations[vm_id]
        return pm_idx

    def move(self, vm_id: int, pm_index: int) -> None:
        """Migrate hosted VM ``vm_id`` to PM ``pm_index`` (already tested)."""
        vm = self._kernel.remove(self.pm_of(vm_id), vm_id)
        self._kernel.add(pm_index, vm_id, vm)
        self._locations[vm_id] = pm_index

    def check_mapping(self, new_mapping: BlockMapping) -> None:
        """Raise unless every PM's hosted set fits under ``new_mapping``."""
        if not self._kernel.fits_table(new_mapping.table):
            raise InsufficientCapacityError(
                -1,
                "recalibrated reservations exceed capacity; "
                "re-consolidate the fleet",
            )

    def _apply_mapping(self, new_mapping: BlockMapping) -> None:
        """Swap the block table under the live reservations, or raise
        without changing anything."""
        self.check_mapping(new_mapping)
        self._mapping = new_mapping
        self._kernel.table = new_mapping.table

    def recalibrate(self) -> bool:
        """Recompute the mapping from the current population (Section IV-E).

        Returns True if the refit block table actually differs in its
        ``k -> K`` entries — the only thing the Eq. (17) test consults —
        and was swapped in; otherwise the call is a counted no-op
        (:attr:`recalibrate_noops`), so periodic recalibration is free to
        run on a timer without churning journals or provenance.  (Entries,
        not :func:`table_fingerprint`: re-rounding a drifting population
        perturbs ``p_on``/``p_off`` in the last float bits without moving a
        single block count, and that is not a recalibration.)  Raises, and
        keeps the old table, if the rebuilt reservations no longer fit —
        the caller should then re-consolidate the fleet.
        """
        hosted = self.hosted_vms()
        if not hosted or self._mapping is None:
            self.recalibrate_noops += 1
            return False
        new_mapping = self.placer.mapping_for(list(hosted.values()))
        if list(new_mapping.table) == list(self._mapping.table):
            self.recalibrate_noops += 1
            return False
        self._apply_mapping(new_mapping)
        return True

    def apply_recalibrate(self, p_on: float, p_off: float) -> None:
        """Apply a *recorded* recalibration outcome (WAL replay path).

        Rebuilds the block table from the journaled rounded probabilities
        (``d`` and ``rho`` come from the configured placer, which is part
        of service configuration, not state) instead
        of refitting against the population — replay applies outcomes, it
        does not re-decide.
        """
        if self._mapping is None:
            raise RuntimeError("cannot replay recalibrate before any mapping "
                               "exists")
        self._apply_mapping(mapcal_table(
            self.placer.d, float(p_on), float(p_off), self.placer.rho))

    # ------------------------------------------------------------------ #
    # durable state capture / restore
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """Full consolidator state, its hosted VMs as parallel columns.

        ``hosted`` holds ``id``, ``pm`` and ``spec`` (each VM's ``(p_on,
        p_off, r_base, r_extra)``, :func:`spec_column`) in ``_locations``
        order, which is ascending id.  Beside it: the mapping parameters
        (the table itself is recomputed deterministically from them on
        restore), the id counter and the fleet's capacities.  This is the
        layout the service checkpoint stores; :func:`vms_of` turns the
        columns into the version 1 ``vms`` dict, which
        :meth:`state_fingerprint` hashes.
        """
        mapping = None
        if self._mapping is not None:
            mapping = {
                "p_on": self._mapping.p_on,
                "p_off": self._mapping.p_off,
                "rho": self._mapping.rho,
                "d": self._mapping.d,
                "fingerprint": table_fingerprint(self._mapping),
            }
        hosted = self._kernel.hosted if self._kernel is not None else ()
        return {
            "format": "online-consolidator",
            "version": 1,
            "next_id": self._next_id,
            "recalibrate_noops": self.recalibrate_noops,
            "pm_capacities": [p.capacity for p in self._pms],
            "mapping": mapping,
            "hosted": {
                "id": list(self._locations),
                "pm": list(self._locations.values()),
                "spec": spec_column([_spec_row(hosted[pm][vm_id]) for vm_id,
                                     pm in self._locations.items()]),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Reset this consolidator to a :meth:`capture_state` snapshot.

        The fleet must match the snapshot (capacities are verified) and the
        rebuilt mapping table must hash to the recorded fingerprint — a
        checkpoint taken under different MapCal parameters fails here
        instead of replaying a WAL against the wrong Eq. (17) table.

        The kernel is rebuilt in bulk over the VMs in id order: ``counts``
        by ``np.bincount``, each PM's ``base_sums`` by a weighted
        ``bincount``, which makes the same sequential float adds as
        :meth:`ReservationKernel.add` does VM by VM, and ``max_extras`` by
        ``np.maximum.at``.  Raises ``ValueError``, changing nothing, for a
        VM on a PM outside the fleet, an id held twice or not below
        ``next_id`` (each naming its column), VMs without a mapping and,
        as ``add`` does, a PM past ``d`` VMs.
        """
        if state.get("format") != "online-consolidator":
            raise ValueError(f"not a consolidator snapshot: {state.get('format')!r}")
        caps = [p.capacity for p in self._pms]
        if list(state["pm_capacities"]) != caps:
            raise ValueError(
                "snapshot PM capacities do not match this fleet: "
                f"{state['pm_capacities']} != {caps}")
        hosted = state["hosted"]
        ids, pms = _ints(hosted, "id"), _ints(hosted, "pm")
        spec = hosted["spec"]
        values = np.asarray(spec, dtype=float).reshape(ids.size, len(_SPEC))
        next_id = int(state["next_id"])
        order = np.argsort(ids, kind="stable")
        ids, pms, values = ids[order], pms[order], values[order]
        twice = np.flatnonzero(ids[1:] == ids[:-1])
        if twice.size:
            raise ValueError(f"column hosted.id holds VM {ids[twice[0]]} twice")
        if ids.size and ids[-1] >= next_id:
            raise ValueError(f"column hosted.id holds VM {ids[-1]}, not below "
                             f"next_id {next_id}")
        outside = np.flatnonzero((pms < 0) | (pms >= len(caps)))
        if outside.size:
            raise ValueError(
                f"column hosted.pm puts VM {ids[outside[0]]} on PM "
                f"{pms[outside[0]]}, outside this fleet of {len(caps)}")
        mapping = None
        if state["mapping"] is not None:
            m = state["mapping"]
            mapping = mapcal_table(int(m["d"]), float(m["p_on"]),
                                   float(m["p_off"]), float(m["rho"]))
            got = table_fingerprint(mapping)
            if got != m["fingerprint"]:
                raise ValueError(
                    f"rebuilt mapping fingerprint {got} != recorded "
                    f"{m['fingerprint']}; MapCal configuration drifted")
        if mapping is None and ids.size:
            raise ValueError(f"snapshot hosts {ids.size} VMs but has no "
                             "mapping")
        if mapping is not None:
            counts = np.bincount(pms, minlength=len(caps))
            full = np.flatnonzero(counts > mapping.d)
            if full.size:
                raise ValueError(f"PM {full[0]} already hosts d={mapping.d} "
                                 "VMs; cannot admit more")
        rows = spec.tolist() if isinstance(spec, np.ndarray) else spec
        vms = [VMSpec(*rows[i]) for i in order.tolist()]
        self._mapping = self._kernel = None
        if mapping is not None:
            self._set_mapping(mapping)
            kernel = self._kernel
            kernel.counts = counts.astype(np.int64, copy=False)
            # (an empty input gives int zeros, weights or not)
            kernel.base_sums = np.bincount(
                pms, weights=values[:, 2],
                minlength=len(caps)).astype(float, copy=False)
            np.maximum.at(kernel.max_extras, pms, values[:, 3])
            for vm_id, pm, vm in zip(ids.tolist(), pms.tolist(), vms):
                kernel.hosted[pm][vm_id] = vm
        self._locations = dict(zip(ids.tolist(), pms.tolist()))
        self._next_id = next_id
        self.recalibrate_noops = int(state.get("recalibrate_noops", 0))

    def state_fingerprint(self) -> str:
        """sha256 over the canonical version 1 snapshot (first 16 hex chars).

        Two consolidators share a fingerprint iff :meth:`capture_state`
        agrees on every field — locations, reservation contents, mapping
        fingerprint, and ``next_id`` — which is exactly the crash-recovery
        parity criterion.  It hashes the ``vms`` dict :func:`vms_of` makes
        of the ``hosted`` columns, so it reads as it did before the
        columns.
        """
        state = self.capture_state()
        state["vms"] = vms_of(state.pop("hosted"))
        return hashlib.sha256(canonical(state)).hexdigest()[:16]


#: a hosted VM's spec fields, in the order of a ``spec`` row
_SPEC = ("p_on", "p_off", "r_base", "r_extra")
_spec_row = attrgetter(*_SPEC)
_spec_of = itemgetter(*_SPEC)


def spec_column(rows: list) -> np.ndarray | list:
    """Spec rows as a read-only float64 ``(n, 4)`` array when every value is
    a ``float``, which the array then holds exactly; else the rows as they
    are (an int spec would come back from float64 as a float)."""
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {float}:
        return rows
    column = np.array(rows, dtype=float).reshape(len(rows), len(_SPEC))
    column.setflags(write=False)
    return column


def vms_of(hosted: dict) -> dict:
    """The version 1 ``vms`` dict of ``hosted`` columns: ``str(id) ->
    {"pm", "p_on", "p_off", "r_base", "r_extra"}``, in column order."""
    spec = hosted["spec"]
    rows = spec.tolist() if isinstance(spec, np.ndarray) else spec
    return {str(vm_id): {"pm": pm, **dict(zip(_SPEC, row))}
            for vm_id, pm, row in zip(hosted["id"], hosted["pm"], rows)}


def hosted_of(vms: dict) -> dict:
    """The ``hosted`` columns of a version 1 ``vms`` dict, in its order."""
    return {"id": list(map(int, vms)), "pm": [v["pm"] for v in vms.values()],
            "spec": spec_column(list(map(_spec_of, vms.values())))}


def _ints(hosted: dict, name: str) -> np.ndarray:
    """Column ``hosted[name]`` as int64, refused unless every value is an
    int (a float would be truncated, a bool taken for 0 or 1)."""
    values = hosted[name]
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"column hosted.{name} holds a value that is not "
                         "an int")
    return np.array(values, dtype=np.int64).reshape(len(values))

"""The placement control plane: durable, overload-safe, elastic.

:class:`PlacementService` wraps an :class:`~repro.core.online.OnlineConsolidator`
with the three robustness layers the service tier owes its operators:

1. **Durability** (:mod:`repro.service.wal`).  Every decision —
   admission, shed, departure, recalibration — is journaled with its
   *outcome* and fsync'd before in-memory state mutates
   (journal-then-apply).  Recovery is checkpoint + WAL replay, and replay
   applies recorded outcomes verbatim; it never re-decides.  Autoscale
   actions ride in the *same* record as the decision that triggered them,
   evaluated against the post-decision state, so each record is an atomic
   unit: a torn line at the tail means the whole decision (placement and
   scaling alike) simply never happened.
2. **Overload protection** (:mod:`repro.service.shed`,
   :mod:`repro.service.breaker`).  Arrivals queue in a bounded inbox;
   overflow sheds with typed, journaled rejections.  MapCal solves run
   behind a circuit breaker — solver failure degrades to the
   last-known-good mapping with a staleness counter, never to failed
   admissions.
3. **Elastic pool** (:mod:`repro.service.pool`).  Optional: hysteresis
   scale-up/down with two-phase, journaled, abortable scale-down and the
   drain-before-retire guard.

The WAL sequence number is the service's only clock: telemetry events,
the breaker cooldown and the pool hysteresis all count decisions, not
wall time, which is what makes every drill deterministic and every crash
replayable.

A request is durable once *decided* (journaled), not once submitted: a
crash can lose requests still parked in the inbox, and the driving loop
re-submits them by idempotency key — a key the service still keeps
returns its recorded outcome without re-journaling.  It keeps a hosted
VM's admission for as long as the VM is hosted, and every other outcome
for the last :attr:`PlacementService.dedupe_window` journal records; each
checkpoint forgets the rest, so checkpoints, recovery and memory grow with
the live fleet, not with the service's age.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np

from repro.core.mapcal import table_fingerprint
from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import (
    REASON_FLEET_FULL,
    REASON_SHED_SOLVER,
    SHED_REASONS,
)
from repro.service.breaker import SolverCircuitBreaker
from repro.service.pool import ElasticPMPool
from repro.service.shed import AdmissionInbox, Request
from repro.service.wal import (
    WALCorruptError,
    WALError,
    WALRecord,
    WriteAheadLog,
    _unpack_state,
    kept_columns,
    load_service_checkpoint,
    outcomes_of,
    save_service_checkpoint,
)
from repro.telemetry import (
    AdmissionRejected,
    PoolScaled,
    ServiceSnapshot,
    SolverDegraded,
    Telemetry,
    WALReplayed,
    resolve,
)

logger = logging.getLogger(__name__)

#: chaos-hook phases, in the order they occur for one decision
CHAOS_PHASES = ("appended", "applied", "checkpointed")


def _spec_dict(vm: VMSpec) -> dict:
    return {"p_on": vm.p_on, "p_off": vm.p_off,
            "r_base": vm.r_base, "r_extra": vm.r_extra}


def _spec_from(d: dict) -> VMSpec:
    return VMSpec(p_on=d["p_on"], p_off=d["p_off"],
                  r_base=d["r_base"], r_extra=d["r_extra"])


class PlacementService:
    """Long-running admission/departure control plane over one PM fleet.

    Parameters
    ----------
    pms:
        The full fleet (the elastic pool activates/retires a subset).
    placer:
        A :class:`QueuingFFD` (first-fit) or
        :class:`~repro.placement.grand.GreedyRandomPlacer` (uniform-random
        choice; detected via its ``choose_for`` hook).
    wal_path / checkpoint_path:
        Journal and checkpoint locations.  Opening an existing WAL scans
        and verifies it but does **not** replay — use :meth:`recover`.
    checkpoint_every:
        Journal records between automatic checkpoint+compaction cycles
        (0 disables; :meth:`checkpoint` can always be called manually).
        It also sets the dedupe window, ``4 * checkpoint_every`` records
        (:attr:`dedupe_window`).
    pool:
        An :class:`ElasticPMPool`; ``None`` keeps the whole fleet active
        forever (no autoscaling, nothing extra journaled).
    chaos_hook:
        Test/drill hook called as ``hook(phase, seq)`` at each
        :data:`CHAOS_PHASES` point; raising (or ``os._exit``) there is how
        the crash drills hit exact kill points.
    """

    def __init__(self, pms: Sequence[PMSpec], placer: QueuingFFD | None = None,
                 *, wal_path, checkpoint_path=None,
                 inbox_capacity: int = 256, checkpoint_every: int = 128,
                 pool: ElasticPMPool | None = None,
                 breaker: SolverCircuitBreaker | None = None,
                 telemetry: Telemetry | None = None,
                 chaos_hook: Callable[[str, int], None] | None = None):
        self.placer = placer if placer is not None else QueuingFFD()
        self.consolidator = OnlineConsolidator(pms, self.placer,
                                               telemetry=telemetry)
        self.wal = WriteAheadLog(wal_path)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.inbox = AdmissionInbox(inbox_capacity)
        self.pool = pool
        self.breaker = breaker if breaker is not None else SolverCircuitBreaker()
        self.telemetry = telemetry
        self.chaos_hook = chaos_hook
        #: idempotency map: request key -> recorded outcome dict; read it
        #: through :meth:`outcome`, which applies the dedupe window
        self.results: dict[str, dict] = {}
        self.counters = {"requests": 0, "admitted": 0, "shed": 0,
                         "departed": 0, "recalibrations": 0}

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #
    def _chaos(self, phase: str, seq: int) -> None:
        if self.chaos_hook is not None:
            self.chaos_hook(phase, seq)

    def _emit(self, event) -> None:
        tel = resolve(self.telemetry)
        if tel is not None and tel.events.enabled:
            tel.emit(event)

    @property
    def dedupe_window(self) -> int | None:
        """Journal records a non-admission outcome is kept for.

        ``4 * checkpoint_every`` while automatic checkpoints compact the
        WAL; ``None`` (keep every outcome) when they are off, since the WAL
        then keeps all history too.
        """
        if not self.checkpoint_path or self.checkpoint_every <= 0:
            return None
        return 4 * self.checkpoint_every

    def _keeps(self, outcome: dict, floor: int) -> bool:
        """Whether an outcome is still kept: journaled after ``floor``, or
        the admission of a hosted VM (VM ids are never reused)."""
        return outcome["seq"] > floor or (
            outcome["op"] == "admit"
            and self.consolidator.hosts(outcome["vm_id"]))

    def _floor(self) -> int:
        """Outcomes journaled at or below this seq are out of the window."""
        window = self.dedupe_window
        return -1 if window is None else self.wal.last_seq - window

    def outcome(self, key: str) -> dict | None:
        """The recorded outcome of ``key``, or ``None`` if it is not kept.

        A pure function of the journal: a recovered service answers every
        key as the uninterrupted one does at the same seq.  A key that is
        no longer kept is decided again when resubmitted.
        """
        out = self.results.get(key)
        if out is None or not self._keeps(out, self._floor()):
            return None
        return out

    def _empty_pms(self) -> set[int]:
        """PMs hosting no VM, which only the pool reads: without a pool,
        an empty set."""
        kernel = self.consolidator.kernel
        if self.pool is None or kernel is None:
            return set()
        return set(np.flatnonzero(kernel.counts == 0).tolist())

    def _eligible(self) -> list[int] | None:
        """Active PM indices; ``None`` (every PM) without a pool."""
        return None if self.pool is None else self.pool.active_indices()

    def _plan_scale(self, empty_after: set[int]) -> list[list]:
        """Autoscale actions for the post-decision state (pure; journaled
        inside the decision record, applied after it)."""
        if self.pool is None or self.consolidator._mapping is None:
            return []
        return [[a, pm] for a, pm in self.pool.evaluate(empty_after)]

    def _apply_scale(self, actions: list, empty_after: set[int],
                     seq: int, *, live: bool) -> None:
        for action, pm in actions:
            self.pool.apply(action, int(pm), pm_empty=int(pm) in empty_after)
            if live:
                counts = self.pool.counts()
                self._emit(PoolScaled(
                    time=seq, action=str(action), pm_id=int(pm),
                    active_pms=counts["active"],
                    draining_pms=counts["draining"],
                    cause="hysteresis"))
        if self.pool is not None and self.consolidator._mapping is not None:
            self.pool.tick(empty_after)

    # ------------------------------------------------------------------ #
    # the decision pipeline
    # ------------------------------------------------------------------ #
    def submit(self, key: str, vm: VMSpec,
               vm_class: str = "standard") -> dict | None:
        """Queue one admission request; returns its outcome if already known.

        Idempotent: a key whose outcome is still kept (:meth:`outcome`),
        from this run or any journaled predecessor, returns it immediately.
        If the inbox sheds — the arrival or a lower-class victim — the
        shed is journaled and its outcome recorded before this returns.
        Otherwise the request waits for :meth:`process_next`.
        """
        known = self.outcome(key)
        if known is not None:
            return known
        # "requests" is counted at *decision* time (in _decide_admit /
        # _decide_shed), not here: a checkpoint taken while requests sit
        # undecided in the inbox must not bake in counts that replay will
        # produce again when those decisions' records apply.
        shed = self.inbox.offer(Request(key=key, vm=vm, vm_class=vm_class))
        if shed is not None:
            self._decide_shed(shed.request, shed.reason)
            if shed.request.key == key:
                return self.outcome(key)
        return None

    def process_next(self) -> dict | None:
        """Place the next queued request; returns its outcome (or None)."""
        req = self.inbox.pop()
        if req is None:
            return None
        known = self.outcome(req.key)
        if known is not None:  # duplicate that slipped into the queue
            return known
        return self._decide_admit(req)

    def drain(self) -> int:
        """Process the whole inbox; returns the number of decisions made."""
        n = 0
        while self.inbox.depth:
            self.process_next()
            n += 1
        return n

    def _decide_admit(self, req: Request) -> dict:
        vm, seq_next = req.vm, self.wal.last_seq + 1
        if self.consolidator._mapping is None:
            # First arrival builds the block table — a MapCal solve, so it
            # runs behind the breaker; with no last-known-good mapping to
            # fall back to, a degraded solve sheds the request.
            _, degraded = self.breaker.call(
                seq_next,
                lambda: self.consolidator._init_mapping([vm]) or True)
            if degraded:
                self._emit_degraded(seq_next)
                return self._decide_shed(req, REASON_SHED_SOLVER)
        chooser = getattr(self.placer, "choose_for", None)
        decision = self.consolidator.decide(
            vm, eligible=self._eligible(),
            choose=chooser(seq_next) if chooser is not None else None)
        if decision.pm < 0:
            return self._decide_shed(req, REASON_FLEET_FULL)
        pm, vm_id = decision.pm, decision.vm_id
        empty_after = self._empty_pms() - {pm}
        scale = self._plan_scale(empty_after)
        body = {"vm": _spec_dict(vm), "vm_id": vm_id, "pm": pm,
                "vm_class": req.vm_class, "scale": scale}
        seq = self.wal.append("admit", body, key=req.key)
        self._chaos("appended", seq)
        self.consolidator.explain(decision, time=seq)
        self.consolidator.apply_admit(vm, pm, vm_id)
        outcome = {"op": "admit", "vm_id": vm_id, "pm": pm, "seq": seq}
        self.results[req.key] = outcome
        self.counters["requests"] += 1
        self.counters["admitted"] += 1
        self._apply_scale(scale, empty_after, seq, live=True)
        self._chaos("applied", seq)
        self._maybe_checkpoint()
        return outcome

    def _decide_shed(self, req: Request, reason: str) -> dict:
        assert reason in SHED_REASONS
        empty_after = self._empty_pms()
        scale = self._plan_scale(empty_after)
        body = {"vm": _spec_dict(req.vm), "reason": reason,
                "vm_class": req.vm_class, "scale": scale}
        seq = self.wal.append("shed", body, key=req.key)
        self._chaos("appended", seq)
        outcome = {"op": "shed", "reason": reason, "seq": seq}
        self.results[req.key] = outcome
        self.counters["requests"] += 1
        self.counters["shed"] += 1
        headroom = self.consolidator.fleet_headroom(req.vm,
                                                    eligible=self._eligible())
        logger.warning("shed %s (%s): %s", req.key, reason, headroom)
        self._emit(AdmissionRejected(
            time=seq, request_key=req.key, vm_class=req.vm_class,
            reason=reason, inbox_depth=self.inbox.depth,
            active_pms=int(headroom.get("eligible_pms", 0)),
            free_slots=int(headroom.get("free_slots", 0)),
            max_headroom=float(headroom.get("max_headroom", 0.0))))
        self._apply_scale(scale, empty_after, seq, live=True)
        self._chaos("applied", seq)
        self._maybe_checkpoint()
        return outcome

    def depart(self, key: str, vm_id: int) -> dict:
        """Journal and apply one departure (idempotent by ``key``)."""
        known = self.outcome(key)
        if known is not None:
            return known
        pm = self.consolidator.pm_of(vm_id)
        becomes_empty = self.consolidator.kernel.counts[pm] == 1
        empty_after = self._empty_pms() | ({pm} if becomes_empty else set())
        scale = self._plan_scale(empty_after)
        body = {"vm_id": int(vm_id), "pm": pm, "scale": scale}
        seq = self.wal.append("depart", body, key=key)
        self._chaos("appended", seq)
        self.consolidator.depart(vm_id)
        outcome = {"op": "depart", "vm_id": int(vm_id), "pm": pm, "seq": seq}
        self.results[key] = outcome
        self.counters["departed"] += 1
        self._apply_scale(scale, empty_after, seq, live=True)
        self._chaos("applied", seq)
        self._maybe_checkpoint()
        return outcome

    def recalibrate(self, key: str) -> bool:
        """Refit the mapping against the hosted population (idempotent).

        Always journaled as a decision — a refit whose block table is
        unchanged lands as a ``recalibrate_noop`` record, so the no-op
        counter survives checkpoint + replay like every other outcome.
        The MapCal solve runs behind the breaker — a degraded solve keeps
        the current (stale) mapping and emits ``solver_degraded``.
        """
        known = self.outcome(key)
        if known is not None:
            return known["op"] == "recalibrate"
        hosted = self.consolidator.hosted_vms()
        if not hosted or self.consolidator._mapping is None:
            return self._decide_recalibrate_noop(key)
        seq_next = self.wal.last_seq + 1
        new_mapping, degraded = self.breaker.call(
            seq_next,
            lambda: self.placer.mapping_for(list(hosted.values())))
        if degraded:
            self._emit_degraded(seq_next)
            return False
        if list(new_mapping.table) == list(self.consolidator._mapping.table):
            return self._decide_recalibrate_noop(key)
        # A refit the live reservations do not fit is refused here, before
        # it is journaled: a WAL record must be an outcome that applies.
        self.consolidator.check_mapping(new_mapping)
        empty_after = self._empty_pms()
        scale = self._plan_scale(empty_after)
        body = {"p_on": new_mapping.p_on, "p_off": new_mapping.p_off,
                "fingerprint": table_fingerprint(new_mapping),
                "scale": scale}
        seq = self.wal.append("recalibrate", body, key=key)
        self._chaos("appended", seq)
        self.consolidator._apply_mapping(new_mapping)
        self.results[key] = {"op": "recalibrate", "seq": seq,
                             "fingerprint": body["fingerprint"]}
        self.counters["recalibrations"] += 1
        self._apply_scale(scale, empty_after, seq, live=True)
        self._chaos("applied", seq)
        self._maybe_checkpoint()
        return True

    def _decide_recalibrate_noop(self, key: str) -> bool:
        """Journal a refit that changed nothing, so the counter is durable."""
        empty_after = self._empty_pms()
        scale = self._plan_scale(empty_after)
        seq = self.wal.append("recalibrate_noop", {"scale": scale}, key=key)
        self._chaos("appended", seq)
        self.consolidator.recalibrate_noops += 1
        self.results[key] = {"op": "recalibrate_noop", "seq": seq}
        self._apply_scale(scale, empty_after, seq, live=True)
        self._chaos("applied", seq)
        self._maybe_checkpoint()
        return False

    def _emit_degraded(self, seq: int) -> None:
        self._emit(SolverDegraded(
            time=seq, state=self.breaker.state,
            failures=self.breaker.failures,
            staleness=self.breaker.staleness,
            error=self.breaker.last_error))

    # ------------------------------------------------------------------ #
    # checkpoint / compaction
    # ------------------------------------------------------------------ #
    def _capture(self) -> tuple[dict, dict]:
        """The durable state in columns, as the checkpoint stores it, and
        the kept outcomes, filtered and key-sorted in one pass.

        ``kept`` holds the kept outcomes only, so the state is a pure
        function of the journal, however long ago the map was trimmed.
        """
        floor = self._floor()
        results = {key: out for key, out in sorted(self.results.items())
                   if self._keeps(out, floor)}
        return {
            "consolidator": self.consolidator.capture_state(),
            "pool": self.pool.capture_state() if self.pool else None,
            "kept": kept_columns(results),
            "counters": dict(sorted(self.counters.items())),
        }, results

    def capture_state(self) -> dict:
        """The full durable service state in the version 1 layout, JSON-safe
        and canonical: the checkpoint's columns with the hosted VMs as
        ``consolidator.vms`` and the kept outcomes as ``results``, a map of
        key to outcome (``repro.service.wal._unpack_state``)."""
        return _unpack_state(self._capture()[0])

    def _restore_state(self, state: dict, path) -> None:
        """Restore a :meth:`_capture` state read from checkpoint ``path``;
        a consolidator state it refuses makes the file unusable."""
        try:
            self.consolidator.restore_state(state["consolidator"])
        except ValueError as exc:
            raise WALCorruptError(
                f"service checkpoint {path} does not restore: {exc}") from exc
        if self.pool is not None and state.get("pool") is not None:
            self.pool.restore_state(state["pool"])
        self.results = outcomes_of(state["kept"])
        self.counters = dict(state["counters"])

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_path or self.checkpoint_every <= 0:
            return
        if self.wal.last_seq - self.wal.base_seq >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Forget the outcomes no longer kept, snapshot state at the current
        WAL position, then compact.

        Two independently-atomic steps; a crash between them leaves a
        checkpoint newer than the WAL base, which recovery handles by
        skipping already-absorbed records.
        """
        if not self.checkpoint_path:
            raise WALError("service has no checkpoint_path configured")
        seq, chain = self.wal.last_seq, self.wal.last_chain
        state, self.results = self._capture()
        save_service_checkpoint(self.checkpoint_path, state=state,
                                wal_seq=seq, wal_chain=chain)
        self._chaos("checkpointed", seq)
        dropped = self.wal.compact(base_seq=seq, base_chain=chain)
        logger.info("service checkpoint at seq %d (%d WAL records compacted)",
                    seq, dropped)

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def recover(cls, pms: Sequence[PMSpec], placer=None, *, wal_path,
                checkpoint_path=None, **kwargs) -> "PlacementService":
        """Rebuild a service from its checkpoint + WAL (the only restart path).

        Loads the newest usable checkpoint (a missing file means replay
        from genesis), verifies the WAL chain, truncates a torn tail,
        replays every record past the checkpoint, and emits one
        ``wal_replayed`` event summarizing what recovery did.  It ends with
        the checkpoint the uninterrupted service would have taken at this
        seq — the crash may have landed on the record that triggers one,
        or between a checkpoint and its compaction — so both keep one
        cadence and write the same files.
        """
        svc = cls(pms, placer, wal_path=wal_path,
                  checkpoint_path=checkpoint_path, **kwargs)
        start_seq = 0
        if checkpoint_path is not None:
            from pathlib import Path
            if Path(checkpoint_path).exists():
                payload = load_service_checkpoint(checkpoint_path)
                svc._restore_state(payload["state"], checkpoint_path)
                start_seq = int(payload["wal_seq"])
        if start_seq < svc.wal.base_seq:
            raise WALError(
                f"checkpoint at seq {start_seq} predates the WAL base "
                f"{svc.wal.base_seq}; the compacted prefix is gone")
        if start_seq > svc.wal.last_seq:
            raise WALError(
                f"checkpoint at seq {start_seq} is ahead of the WAL end "
                f"{svc.wal.last_seq}; the journal was truncated or swapped")
        records = svc.wal.records(after_seq=start_seq)
        for rec in records:
            svc._replay(rec)
        tel = resolve(svc.telemetry)
        events = tel is not None and tel.events.enabled
        # the fingerprint encodes the whole state: only for a reader
        fingerprint = (svc.consolidator.state_fingerprint()
                       if events or logger.isEnabledFor(logging.INFO)
                       else None)
        if events:
            svc._emit(WALReplayed(
                time=svc.wal.last_seq, path=str(svc.wal.path),
                checkpoint_seq=start_seq, records=len(records),
                truncated_tail=svc.wal.truncated_tail,
                fingerprint=fingerprint))
        logger.info(
            "recovered: checkpoint seq %d + %d WAL records (%d torn tail "
            "lines dropped), state %s", start_seq, len(records),
            svc.wal.truncated_tail, fingerprint)
        svc._maybe_checkpoint()
        return svc

    def _replay(self, rec: WALRecord) -> None:
        """Apply one journaled decision's recorded outcome (no re-deciding,
        no provenance events, no chaos hooks, no re-journaling)."""
        body = rec.body
        if rec.op == "admit":
            vm = _spec_from(body["vm"])
            self.consolidator.apply_admit(vm, body["pm"], body["vm_id"])
            self.results[rec.key] = {"op": "admit", "vm_id": body["vm_id"],
                                     "pm": body["pm"], "seq": rec.seq}
            self.counters["requests"] += 1
            self.counters["admitted"] += 1
        elif rec.op == "shed":
            self.results[rec.key] = {"op": "shed", "reason": body["reason"],
                                     "seq": rec.seq}
            self.counters["requests"] += 1
            self.counters["shed"] += 1
        elif rec.op == "depart":
            self.consolidator.depart(int(body["vm_id"]))
            self.results[rec.key] = {"op": "depart", "vm_id": body["vm_id"],
                                     "pm": body["pm"], "seq": rec.seq}
            self.counters["departed"] += 1
        elif rec.op == "recalibrate":
            self.consolidator.apply_recalibrate(body["p_on"], body["p_off"])
            got = table_fingerprint(self.consolidator._mapping)
            if got != body["fingerprint"]:
                raise WALError(
                    f"replayed recalibration at seq {rec.seq} rebuilt "
                    f"fingerprint {got} != journaled {body['fingerprint']}")
            self.results[rec.key] = {"op": "recalibrate", "seq": rec.seq,
                                     "fingerprint": body["fingerprint"]}
            self.counters["recalibrations"] += 1
        elif rec.op == "recalibrate_noop":
            self.consolidator.recalibrate_noops += 1
            self.results[rec.key] = {"op": "recalibrate_noop",
                                     "seq": rec.seq}
        else:
            raise WALError(f"unknown WAL op {rec.op!r} at seq {rec.seq}")
        if self.pool is not None:
            self._apply_scale(body.get("scale", []), self._empty_pms(),
                              rec.seq, live=False)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def wal_lag(self) -> int:
        """Journal records accumulated since the last compaction."""
        return self.wal.last_seq - self.wal.base_seq

    def metrics(self) -> dict:
        counts = (self.pool.counts() if self.pool is not None
                  else {"active": self.consolidator.n_pms, "standby": 0,
                        "draining": 0, "retired": 0})
        return {
            **self.counters,
            "inbox_depth": self.inbox.depth,
            "hosted_vms": self.consolidator.n_vms,
            "used_pms": self.consolidator.n_used_pms,
            "active_pms": counts["active"],
            "draining_pms": counts["draining"],
            "retired_pms": counts["retired"],
            "wal_lag": self.wal_lag,
            "staleness": self.breaker.staleness,
            "recalibrate_noops": self.consolidator.recalibrate_noops,
        }

    def emit_snapshot(self) -> ServiceSnapshot:
        """Publish a ``service_snapshot`` event at the current WAL seq.

        In standalone service mode this is the observability tier's
        interval clock — the recorder finalizes a window per snapshot.
        """
        m = self.metrics()
        snap = ServiceSnapshot(
            time=self.wal.last_seq, requests=m["requests"],
            admitted=m["admitted"], shed=m["shed"], departed=m["departed"],
            active_pms=m["active_pms"], draining_pms=m["draining_pms"],
            retired_pms=m["retired_pms"], hosted_vms=m["hosted_vms"],
            used_pms=m["used_pms"], wal_lag=m["wal_lag"],
            staleness=m["staleness"])
        self._emit(snap)
        return snap

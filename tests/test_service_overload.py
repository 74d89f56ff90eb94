"""Overload protection: bounded inbox, typed sheds, priorities, breaker."""

import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import (
    REASON_FLEET_FULL,
    REASON_SHED_INBOX,
    REASON_SHED_PRIORITY,
    REASON_SHED_SOLVER,
    SHED_REASONS,
)
from repro.service.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    SolverCircuitBreaker,
)
from repro.service.service import PlacementService
from repro.service.shed import AdmissionInbox, Request
from repro.telemetry import AdmissionRejected, RingBufferSink, Telemetry

VM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)


def req(key, vm_class="standard"):
    return Request(key=key, vm=VM, vm_class=vm_class)


class TestInbox:
    def test_depth_never_exceeds_capacity(self):
        inbox = AdmissionInbox(4)
        sheds = [inbox.offer(req(f"k{i}")) for i in range(10)]
        assert inbox.depth == 4
        assert all(s is None for s in sheds[:4])
        assert all(s is not None for s in sheds[4:])
        assert {s.reason for s in sheds[4:]} == {REASON_SHED_INBOX}

    def test_critical_arrival_evicts_newest_batch_request(self):
        inbox = AdmissionInbox(3)
        for i in range(3):
            inbox.offer(req(f"batch{i}", "batch"))
        shed = inbox.offer(req("crit", "critical"))
        assert shed.reason == REASON_SHED_PRIORITY
        assert shed.request.key == "batch2"  # newest victim — waited least
        assert inbox.depth == 3
        assert inbox.pop().key == "crit"

    def test_equal_class_arrival_is_backpressured_not_evicting(self):
        inbox = AdmissionInbox(2)
        inbox.offer(req("s0"))
        inbox.offer(req("s1"))
        shed = inbox.offer(req("s2"))
        assert shed.reason == REASON_SHED_INBOX
        assert shed.request.key == "s2"

    def test_service_order_is_class_then_fifo(self):
        inbox = AdmissionInbox(8)
        for key, cls in [("b0", "batch"), ("s0", "standard"),
                         ("c0", "critical"), ("s1", "standard"),
                         ("c1", "critical")]:
            inbox.offer(req(key, cls))
        order = [inbox.pop().key for _ in range(len(inbox))]
        assert order == ["c0", "c1", "s0", "s1", "b0"]
        assert inbox.pop() is None

    def test_unknown_class_is_rejected_at_the_type(self):
        with pytest.raises(ValueError, match="vm_class"):
            req("x", "turbo")


class TestServiceSheds:
    def test_fleet_full_sheds_are_typed_and_journaled(self, tmp_path):
        sink = RingBufferSink()
        svc = PlacementService([PMSpec(8.0)],  # one tiny PM
                               wal_path=tmp_path / "wal.jsonl",
                               telemetry=Telemetry(sink))
        for i in range(6):
            svc.submit(f"k{i}", VM)
        svc.drain()
        sheds = [o for o in svc.results.values() if o["op"] == "shed"]
        assert sheds and all(o["reason"] == REASON_FLEET_FULL for o in sheds)
        assert svc.counters["admitted"] + svc.counters["shed"] == 6
        rejects = [e for e in sink.events if isinstance(e, AdmissionRejected)]
        assert len(rejects) == len(sheds)
        assert all(e.reason in SHED_REASONS for e in rejects)
        assert all(e.active_pms == 1 for e in rejects)
        # shed decisions are in the WAL, so a recovered service remembers
        recovered = PlacementService.recover(
            [PMSpec(8.0)], wal_path=tmp_path / "wal.jsonl")
        assert recovered.counters["shed"] == svc.counters["shed"]

    def test_inbox_overflow_sheds_before_placement(self, tmp_path):
        svc = PlacementService([PMSpec(100.0)] * 4,
                               wal_path=tmp_path / "wal.jsonl",
                               inbox_capacity=2)
        outcomes = [svc.submit(f"k{i}", VM) for i in range(5)]
        # the three overflow arrivals were decided (shed) synchronously
        assert [o["reason"] for o in outcomes[2:]] \
            == [REASON_SHED_INBOX] * 3
        assert svc.inbox.depth == 2
        svc.drain()
        assert svc.counters["admitted"] == 2
        assert svc.counters["shed"] == 3


class FailingPlacer(QueuingFFD):
    """A placer whose MapCal solve can be switched off."""

    def __init__(self):
        super().__init__(rho=0.01, d=8)
        self.broken = True

    def mapping_for(self, vms):
        if self.broken:
            raise RuntimeError("solver down")
        return super().mapping_for(vms)


class TestBreaker:
    def test_opens_after_threshold_and_reprobes_after_cooldown(self):
        breaker = SolverCircuitBreaker(failure_threshold=2, cooldown=5)
        boom = RuntimeError("nope")

        def solve():
            raise boom

        for seq in (1, 2):
            result, degraded = breaker.call(seq, solve, fallback="stale")
            assert (result, degraded) == ("stale", True)
        assert breaker.state == STATE_OPEN
        # open: solves skipped outright, staleness climbs
        _, degraded = breaker.call(3, lambda: "fresh", fallback="stale")
        assert degraded and breaker.staleness == 3
        # past the cooldown the probe runs; success closes and resets
        result, degraded = breaker.call(2 + 5, lambda: "fresh")
        assert (result, degraded) == ("fresh", False)
        assert breaker.state == STATE_CLOSED
        assert breaker.staleness == 0

    def test_half_open_failure_reopens(self):
        breaker = SolverCircuitBreaker(failure_threshold=1, cooldown=4)

        def solve():
            raise RuntimeError("still down")

        breaker.call(1, solve)
        assert breaker.state == STATE_OPEN
        assert breaker.allow(5)  # transitions to half-open for the probe
        assert breaker.state == STATE_HALF_OPEN
        breaker.call(5, solve)
        assert breaker.state == STATE_OPEN
        assert breaker.opened_at == 5

    def test_first_arrival_with_dead_solver_sheds_typed(self, tmp_path):
        svc = PlacementService([PMSpec(100.0)] * 2, FailingPlacer(),
                               wal_path=tmp_path / "wal.jsonl")
        svc.submit("k0", VM)
        svc.drain()
        assert svc.results["k0"] == {"op": "shed",
                                     "reason": REASON_SHED_SOLVER, "seq": 1}

    def test_degrades_to_last_known_good_mapping(self, tmp_path):
        placer = FailingPlacer()
        placer.broken = False
        svc = PlacementService([PMSpec(100.0)] * 2, placer,
                               wal_path=tmp_path / "wal.jsonl")
        svc.submit("k0", VM)
        svc.drain()  # healthy solve built the mapping
        placer.broken = True
        assert svc.recalibrate("recal-bad") is False  # degraded, not raised
        assert svc.breaker.staleness >= 1
        # admissions still succeed on the stale mapping
        svc.submit("k1", VM)
        svc.drain()
        assert svc.results["k1"]["op"] == "admit"
        assert svc.metrics()["staleness"] >= 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SolverCircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            SolverCircuitBreaker(cooldown=0)

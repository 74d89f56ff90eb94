"""Rejection-reason provenance: every placer explains every loser.

Satellite contract of the decision-provenance PR: each ``Placer`` (and the
migration target selector) must attach a *typed* rejection verdict to every
candidate PM it passes over — drawn from the fixed ``PLACEMENT_REASONS``
vocabulary, which is a wire protocol (``repro explain`` renders these
strings and recorded traces must stay readable).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heterogeneous import HeterogeneousQueuingFFD, poisson_binomial_pmf
from repro.core.multidim import MultiDimFirstFit
from repro.core.online import OnlineConsolidator
from repro.core.quantile import QuantileFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import fits_with_reservation
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import (
    PLACEMENT_REASONS,
    REASON_BLACKLISTED,
    REASON_CAPACITY,
    REASON_CHOSEN,
    REASON_CRASHED,
    REASON_CVR_THRESHOLD,
    REASON_FEASIBLE,
    REASON_SOURCE,
    REASON_SPREAD,
    REASON_VM_CAP,
    InsufficientCapacityError,
    PlacementExplainer,
    candidate_rows,
)
from repro.placement.ffd import (
    FirstFitDecreasing,
    ffd_by_base,
    ffd_by_peak,
    size_by_base,
    size_by_peak,
)
from repro.placement.grand import GreedyRandomPlacer
from repro.placement.rbex import RBExPlacer
from repro.placement.sbp import StochasticBinPacker
from repro.placement.spread import DomainSpreadConstraint
from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import (
    StandardPolicy,
    select_target_reservation_aware,
)
from repro.simulation.scheduler import DynamicScheduler
from repro.simulation.topology import Topology
from repro.telemetry import (
    MigrationDecided,
    PlacementDecided,
    RingBufferSink,
    Telemetry,
)
from tests.helpers import provenance_generator, quantile_reservation

P_ON, P_OFF = 0.01, 0.09
#: the provenance fixture's generator: its placer factories and the
#: two-dimensional QUEUE-MD it runs on one-dimensional specs
GENERATE = provenance_generator()


def vm(base, extra=0.0, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


def pms(*caps):
    return [PMSpec(c) for c in caps]


def decisions_for(placer, vms, pm_list):
    """Run an instrumented pass; return its PlacementDecided events."""
    sink = RingBufferSink()
    tel = Telemetry(sink)
    placer.place_and_report(vms, pm_list, telemetry=tel)
    return [e for e in sink.events if isinstance(e, PlacementDecided)]


ALL_PLACERS = [
    pytest.param(lambda: FirstFitDecreasing(size_by_peak), id="FFD"),
    pytest.param(lambda: ffd_by_peak(), id="RP"),
    pytest.param(lambda: ffd_by_base(), id="RB"),
    pytest.param(lambda: StochasticBinPacker(), id="SBP"),
    pytest.param(lambda: QueuingFFD(rho=0.01, d=16), id="QUEUE"),
    pytest.param(lambda: RBExPlacer(delta=0.3), id="RBEx"),
    pytest.param(lambda: GreedyRandomPlacer(rho=0.01, d=16, seed=3),
                 id="GRAND"),
    pytest.param(lambda: HeterogeneousQueuingFFD(rho=0.01, d=16),
                 id="QUEUE-HET"),
    pytest.param(lambda: QuantileFFD(rho=0.01, d=16), id="QUANTILE"),
    pytest.param(lambda: QuantileFFD(rho=0.01, d=16, resolution=1.0),
                 id="QUANTILE-1.0"),
    pytest.param(lambda: GENERATE.TwoDimFirstFit(rho=0.01, d=16),
                 id="QUEUE-MD"),
]


class TestReasonVocabulary:
    def test_reason_strings_are_stable(self):
        # Wire protocol: recorded traces must stay explainable.  Changing
        # any of these strings breaks `repro explain` on old JSONL.
        assert PLACEMENT_REASONS == {
            "chosen", "feasible", "capacity", "cvr_threshold", "vm_cap",
            "spread_constraint", "crashed_pm", "blacklisted_pm", "source_pm",
            "draining_pm", "fleet_full", "shed_inbox_full", "shed_priority",
            "shed_solver_degraded",
        }

    @pytest.mark.parametrize("make_placer", ALL_PLACERS)
    def test_every_placer_emits_typed_verdicts(self, make_placer):
        vms = [vm(20, 10) for _ in range(6)]
        events = decisions_for(make_placer(), vms, pms(*[64.0] * 4))
        assert len(events) == len(vms)  # one decision per VM
        for e in events:
            assert set(e.cand_verdicts) <= PLACEMENT_REASONS
            assert len(e.cand_pms) == len(e.cand_scores)
            assert len(e.cand_pms) == len(e.cand_verdicts)
            assert e.total_pms == 4
            # exactly one winner per successful decision
            assert e.chosen_pm >= 0
            assert e.cand_verdicts.count(REASON_CHOSEN) == 1
            assert e.cand_verdicts[e.cand_pms.index(e.chosen_pm)] \
                == REASON_CHOSEN

    @pytest.mark.parametrize("make_placer", ALL_PLACERS)
    def test_no_decisions_without_telemetry(self, make_placer):
        # The zero-telemetry hot path must not pay for provenance.
        placer = make_placer()
        placer.place([vm(20, 10) for _ in range(4)], pms(*[64.0] * 4))
        assert placer.explainer is None


class TestGreedyRejections:
    def test_capacity_rejection(self):
        events = decisions_for(FirstFitDecreasing(size_by_peak),
                               [vm(20)], pms(10, 30))
        (e,) = events
        assert e.chosen_pm == 1
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CAPACITY

    def test_vm_cap_rejection(self):
        placer = FirstFitDecreasing(size_by_base, max_vms_per_pm=1)
        events = decisions_for(placer, [vm(5), vm(5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_VM_CAP

    def test_spread_rejection(self):
        spread = DomainSpreadConstraint(Topology([0, 1]),
                                        max_vms_per_domain=1)
        placer = FirstFitDecreasing(size_by_base, spread=spread)
        events = decisions_for(placer, [vm(5), vm(5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_SPREAD

    def test_infeasible_decision_recorded_before_raise(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        with pytest.raises(InsufficientCapacityError):
            FirstFitDecreasing(size_by_peak).place_and_report(
                [vm(20)], pms(10, 5), telemetry=tel)
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.chosen_pm == -1
        assert set(e.cand_verdicts) == {REASON_CAPACITY}


class TestSBPRejections:
    def test_overflow_probability_rejection(self):
        # Each VM alone fits (peak 9 <= 12), but two share too much
        # variance: the z-scored need exceeds the capacity, which is the
        # SBP analogue of the CVR threshold.
        bursty = vm(5, 4, p_on=0.5, p_off=0.5)
        events = decisions_for(StochasticBinPacker(epsilon=0.01),
                               [bursty, bursty], pms(12, 12))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] \
            == REASON_CVR_THRESHOLD
        assert second.score_kind == "overflow_probability"

    def test_peak_capacity_rejection(self):
        events = decisions_for(StochasticBinPacker(epsilon=0.01),
                               [vm(5, 10)], pms(10, 20))
        (e,) = events
        assert e.chosen_pm == 1
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CAPACITY


class TestQueuingFFDRejections:
    def test_vm_cap_rejection(self):
        placer = QueuingFFD(rho=0.01, d=1, cluster_method="none")
        events = decisions_for(placer, [vm(5, 5), vm(5, 5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_VM_CAP

    def test_reservation_rejection(self):
        # One PM too small for the Eq. (17) reservation of two VMs but
        # fine for one: the second VM is turned away with cvr_threshold.
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none")
        big = vm(30, 30, p_on=0.2, p_off=0.2)
        events = decisions_for(placer, [big, big], pms(70, 200))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] \
            == REASON_CVR_THRESHOLD

    def test_spread_rejection(self):
        spread = DomainSpreadConstraint(Topology([0, 1]),
                                        max_vms_per_domain=1)
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none",
                            spread=spread)
        events = decisions_for(placer, [vm(5, 5), vm(5, 5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_SPREAD

    def test_inputs_carry_model_provenance(self):
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none")
        events = decisions_for(placer, [vm(5, 5)], pms(100,))
        (e,) = events
        assert len(e.table_fingerprint) == 12
        assert e.score_kind == "reservation_headroom"
        assert e.p_on == pytest.approx(P_ON, abs=0.05)


class TestOnlineRejections:
    def test_admission_decision_recorded(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        online = OnlineConsolidator([PMSpec(100.0)] * 3,
                                    QueuingFFD(rho=0.01, d=16),
                                    telemetry=tel)
        online.admit(vm(10, 10))
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.context == "online"
        assert e.chosen_pm == 0
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CHOSEN
        assert set(e.cand_verdicts) <= PLACEMENT_REASONS

    def test_rejected_admission_recorded(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        online = OnlineConsolidator([PMSpec(10.0)],
                                    QueuingFFD(rho=0.01, d=16),
                                    telemetry=tel)
        with pytest.raises(InsufficientCapacityError):
            online.admit(vm(50, 10))
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.chosen_pm == -1
        assert e.cand_verdicts[0] == REASON_CVR_THRESHOLD


def migration_decisions(dc, *, policy=None, crashed=None, blacklist=()):
    """Resolve one interval's overloads traced; return its MigrationDecided
    events.  ``crashed`` is the scheduler's excluded mask, ``blacklist``
    the targets the executor vetoes at that interval."""
    sink = RingBufferSink()
    scheduler = DynamicScheduler(
        dc, policy, telemetry=Telemetry(sink),
        excluded_pms_fn=None if crashed is None else lambda: crashed)
    state = scheduler.executor.capture_state()
    state["blacklist_until"] = {str(pm): 10 for pm in blacklist}
    scheduler.executor.restore_state(state)
    scheduler.resolve_overloads(0)
    return [e for e in sink.events if isinstance(e, MigrationDecided)]


def rows(event):
    return list(zip(event.cand_pms, event.cand_verdicts, event.cand_scores))


class TestMigrationRejections:
    def test_source_crashed_blacklisted_capacity(self):
        # PM0 (cap 15) is overloaded by its two VMs and also crashed; PM1
        # is crashed and blacklisted, PM2 blacklisted and too small, PM3
        # too small only.  PM4 takes VM0.
        vms = [vm(10, 0), vm(10, 0), vm(10, 0)]
        dc = Datacenter(vms, pms(15, 100, 5, 5, 100),
                        Placement(3, 5, assignment=np.array([0, 0, 1])),
                        seed=0)
        (e,) = migration_decisions(
            dc, crashed=np.array([True, True, False, False, False]),
            blacklist=(1, 2))
        assert (e.vm_id, e.source_pm, e.chosen_pm) == (0, 0, 4)
        assert e.cand_verdicts == (REASON_SOURCE, REASON_CRASHED,
                                   REASON_BLACKLISTED, REASON_CAPACITY,
                                   REASON_CHOSEN)
        assert e.total_pms == 5 and e.dropped_candidates == 0

    def test_capacity_veto(self):
        # VM0 (60) leaves the overloaded PM0 and fits on no other PM: the
        # overload is tolerated, and PM3's row carries the negative residual.
        big = [vm(60, 0), vm(50, 0), vm(10, 0)]
        dc = Datacenter(big, pms(100, 40, 40, 12),
                        Placement(3, 4, assignment=np.array([0, 0, 1])),
                        seed=0)
        (e,) = migration_decisions(dc)
        assert (e.vm_id, e.chosen_pm) == (0, -1)
        assert rows(e)[3] == (3, REASON_CAPACITY, -48.0)  # 12 - 60
        assert e.cand_verdicts[1:] == (REASON_CAPACITY,) * 3

    def test_reservation_aware_headroom_veto(self):
        # VM1 (R_b 70) leaves PM0; PM1 has room for its demand (20 + 70 <=
        # 100) but not under the selector's 30% base headroom (90 > 70).
        vms = [vm(40, 0), vm(70, 0), vm(20, 0)]
        dc = Datacenter(vms, pms(100, 100),
                        Placement(3, 2, assignment=np.array([0, 0, 1])),
                        seed=0)
        policy = StandardPolicy(
            pick_target_fn=select_target_reservation_aware)
        (e,) = migration_decisions(dc, policy=policy)
        assert (e.vm_id, e.chosen_pm) == (1, -1)
        assert rows(e) == [(0, REASON_SOURCE, -80.0),
                           (1, REASON_CVR_THRESHOLD, 10.0)]


def sorted_rule(verdicts, chosen, top_k):
    """The row rule as first written: a Python sort over every PM (winner,
    then feasible PMs, then the rest, by index), kept rows in PM order."""
    order = sorted(range(len(verdicts)), key=lambda i: (
        0 if i == chosen else 1 if verdicts[i] == REASON_FEASIBLE else 2, i))
    keep = sorted(order[:top_k])
    return keep, len(verdicts) - len(keep)


def first_match(vetoes, chosen, n):
    """Every PM's verdict, one PM at a time."""
    out = []
    for j in range(n):
        reasons = [r for r, mask in vetoes if mask is not None and mask[j]]
        out.append(REASON_CHOSEN if j == chosen
                   else reasons[0] if reasons else REASON_FEASIBLE)
    return out


@st.composite
def row_cases(draw):
    n = draw(st.integers(0, 24))
    top_k = draw(st.integers(0, 12))
    chosen = draw(st.integers(-1, n - 1))
    shape = draw(st.sampled_from(["random", "none_feasible",
                                  "all_feasible"]))
    bits = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda b: np.array(b, dtype=bool))
    masks = [draw(st.none() | bits) for _ in range(draw(st.integers(0, 3)))]
    if shape == "none_feasible":
        masks.append(np.ones(n, dtype=bool))
    elif shape == "all_feasible":
        masks = [None if m is None else np.zeros(n, dtype=bool)
                 for m in masks]
    reasons = [REASON_CAPACITY, REASON_VM_CAP, REASON_CVR_THRESHOLD,
               REASON_SPREAD]
    vetoes = list(zip(reasons, masks))
    scores = np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)))
    return n, top_k, chosen, vetoes, scores


class TestCandidateTruncation:
    @given(row_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_sorted_rule(self, case):
        n, top_k, chosen, vetoes, scores = case
        verdicts = first_match(vetoes, chosen, n)
        keep, dropped = sorted_rule(verdicts, chosen, top_k)
        assert candidate_rows(chosen, vetoes, scores, top_k) == {
            "cand_pms": tuple(keep),
            "cand_scores": tuple(round(float(scores[i]), 6) for i in keep),
            "cand_verdicts": tuple(verdicts[i] for i in keep),
            "dropped_candidates": dropped,
            "total_pms": n,
        }

    def test_winner_and_feasible_kept_first(self):
        capacity = np.array([True] * 5 + [False] * 6 + [True] * 5)
        out = candidate_rows(10, [(REASON_CAPACITY, capacity)],
                             np.zeros(16), top_k=8)
        assert out["dropped_candidates"] == 8
        assert out["cand_pms"] == (0, 1, 5, 6, 7, 8, 9, 10)
        assert out["cand_verdicts"][-1] == REASON_CHOSEN
        assert out["cand_verdicts"][2:7] == (REASON_FEASIBLE,) * 5

    def test_no_truncation_when_small(self):
        out = candidate_rows(0, [], np.zeros(2))
        assert out["cand_pms"] == (0, 1)
        assert out["cand_verdicts"] == (REASON_CHOSEN, REASON_FEASIBLE)
        assert out["dropped_candidates"] == 0

    def test_truncation_is_counted_in_events(self):
        events = decisions_for(FirstFitDecreasing(size_by_base),
                               [vm(5)], pms(*[100] * 20))
        (e,) = events
        assert len(e.cand_pms) == 8
        assert e.dropped_candidates == 12
        assert e.total_pms == 20


# ----------------------------------------------------------------------- #
# one property suite for the one first-fit loop
# ----------------------------------------------------------------------- #
def scalar_verdict(placer, vms, i, hosted, capacity):
    """The verdict ``placer``'s own scalar test gives VM ``i`` on a PM of
    ``capacity`` hosting the VM ids ``hosted`` (in hosting order): the
    reason of the first check it fails, or None when it passes."""
    vm, members = vms[i], [vms[h] for h in hosted]
    count = len(members)
    if isinstance(placer, FirstFitDecreasing):
        if isinstance(placer, RBExPlacer):
            capacity = capacity * (1.0 - placer.delta)
        free = capacity
        for member in members:
            free -= placer.size_fn(member)
        if not free + 1e-9 >= placer.size_fn(vm):
            return REASON_CAPACITY
        return REASON_VM_CAP if count >= placer.max_vms_per_pm else None
    if isinstance(placer, StochasticBinPacker):
        mean = var = 0.0
        for member in members:
            mu, sigma2 = placer.effective_mean_var(member)
            mean += mu
            var += sigma2
        mu, sigma2 = placer.effective_mean_var(vm)
        if not vm.r_peak <= capacity + 1e-9:
            return REASON_CAPACITY
        if count >= placer.max_vms_per_pm:
            return REASON_VM_CAP
        need = mean + mu + placer.z_score * math.sqrt(var + sigma2)
        return None if need <= capacity + 1e-9 else REASON_CVR_THRESHOLD
    if count + 1 > placer.d:
        return REASON_VM_CAP
    if isinstance(placer, QueuingFFD):
        mapping = placer.mapping_for(vms)
        fits = fits_with_reservation(
            vm, capacity, current_count=count,
            current_base_sum=sum(m.r_base for m in members),
            current_max_extra=max([0.0] + [m.r_extra for m in members]),
            mapping=mapping)
    elif isinstance(placer, MultiDimFirstFit):
        specs, _ = GENERATE.two_dim(vms, [])
        mapping = placer._mapping(specs)
        fits = all(fits_with_reservation(
            specs[i].projected(dim), capacity, current_count=count,
            current_base_sum=sum(specs[h].r_base[dim] for h in hosted),
            current_max_extra=max([0.0] + [specs[h].r_extra[dim]
                                           for h in hosted]),
            mapping=mapping) for dim in range(2))
    elif isinstance(placer, HeterogeneousQueuingFFD):
        on = [m.p_on / (m.p_on + m.p_off) for m in members + [vm]]
        meets = np.flatnonzero(np.cumsum(poisson_binomial_pmf(np.array(on)))
                               >= 1.0 - placer.rho - 1e-15)
        blocks = int(meets[0]) if meets.size else count + 1
        need = (max([vm.r_extra] + [m.r_extra for m in members]) * blocks
                + sum(m.r_base for m in members)) + vm.r_base
        fits = need <= capacity + 1e-9
    else:
        reserve = quantile_reservation(members + [vm], placer.rho,
                                       resolution=placer.resolution)
        need = reserve + sum(m.r_base for m in members) + vm.r_base
        fits = need <= capacity + 1e-9
    return None if fits else REASON_CVR_THRESHOLD


def outcome(run):
    """A pass's assignment list, or the VM index it raised at."""
    try:
        return run().assignment.tolist()
    except InsufficientCapacityError as exc:
        return exc.vm_index


class TestOneFirstFitLoop:
    """Every batch placer runs ``first_fit`` with its own state: on random
    fleets, its explained and plain passes agree, every PM's recorded
    verdict is its own scalar test's, each VM goes to the lowest-indexed
    PM that passes that test (GRAND: to one that passes) and an
    infeasible VM's decision is the last one."""

    @pytest.mark.parametrize("name", sorted(GENERATE.PLACERS))
    @pytest.mark.parametrize("seed", range(10))
    def test_decisions_follow_the_scalar_test(self, name, seed):
        rng = np.random.default_rng(500 + seed)
        vms = [vm(float(rng.uniform(0.0, 30.0)),
                  0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 40.0)),
                  p_on=float(rng.uniform(0.005, 0.2)),
                  p_off=float(rng.uniform(0.05, 0.6)))
               for _ in range(int(rng.integers(1, 40)))]
        fleet = pms(*rng.uniform(5.0, 120.0, int(rng.integers(9, 30))))
        placer = GENERATE.PLACERS[name](
            int(rng.choice([1, 2, 3, GENERATE.UNCAPPED])), None)
        self.check(name, placer, vms, fleet)

    @pytest.mark.parametrize("seed", range(10))
    def test_queue_het_at_rho_zero_follows_the_scalar_test(self, seed):
        """At rho = 0 a PM's exact block count is the least K whose ON-count
        CDF reaches ``1 - rho - 1e-15``.  PMs packed with up to 16 rarely-ON
        VMs have tails below 1e-15, where the summed PMF can stop an ulp
        short of 1, so the threshold's slack decides their assignments."""
        rng = np.random.default_rng(900 + seed)
        vms = [vm(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)),
                  p_on=float(rng.uniform(0.001, 0.02)),
                  p_off=float(rng.uniform(0.05, 0.6)))
               for _ in range(60)]
        fleet = pms(*rng.uniform(20.0, 80.0, int(rng.integers(9, 30))))
        self.check("QUEUE-HET", HeterogeneousQueuingFFD(rho=0.0, d=16), vms, fleet)

    @staticmethod
    def check(name, placer, vms, fleet):
        plain = outcome(lambda: placer.place(vms, fleet))
        # keep every candidate row, so every PM's verdict is checked
        sink = RingBufferSink()
        placer.explainer = PlacementExplainer(Telemetry(sink), placer.name,
                                              top_k=len(fleet))
        try:
            assert outcome(lambda: placer.place(vms, fleet)) == plain
        finally:
            placer.explainer = None
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        failed = plain if isinstance(plain, int) else None
        assert [e.chosen_pm < 0 for e in events] == (
            [False] * len(vms) if failed is None
            else [False] * (len(events) - 1) + [True])
        assert failed is None or events[-1].vm_id == failed
        hosted = [[] for _ in fleet]
        for e in events:
            verdicts = [scalar_verdict(placer, vms, e.vm_id, hosted[pm],
                                       fleet[pm].capacity)
                        for pm in range(len(fleet))]
            assert e.cand_pms == tuple(range(len(fleet)))
            for pm, verdict in enumerate(e.cand_verdicts):
                assert verdicts[pm] == (
                    None if verdict in (REASON_FEASIBLE, REASON_CHOSEN)
                    else verdict), (e.vm_id, pm)
            passing = [pm for pm, v in enumerate(verdicts) if v is None]
            if e.chosen_pm < 0:
                assert passing == []
            elif name == "GRAND":
                assert e.chosen_pm in passing
            else:
                assert e.chosen_pm == passing[0]
            if e.chosen_pm >= 0:
                hosted[e.chosen_pm].append(e.vm_id)

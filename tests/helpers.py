"""Reference implementations and checkers the tests use on ``repro`` code.

No entry point of the package calls these; each is here because a test
checks other, production code with it:

- placement validity checks (capacity at ``R_b`` and ``R_p``, completeness,
  the per-PM VM cap);
- the scalar placement loops the shared first-fit loop is checked against:
  literal Algorithm 2 (:func:`place_reference`) and QuantileFFD's
  re-convolving loop (:func:`quantile_ffd_reference`, with
  :func:`quantile_reservation`), and a QueuingFFD pass that also returns
  its per-PM reservation states (:func:`place_with_states`);
- the Engset loss system, the continuous-time limit of the discrete
  Geom/Geom/K/K model;
- the busy-block kernel (the paper's Eq. 12) by direct summation, and the
  2x2 matrix of one ON-OFF chain;
- the transient occupancy ``Pi_0 P^t`` of the busy-block chain;
- the closed-form Binomial stationary law the chain solve is checked
  against, and the occupancy and burst statistics of simulated traces;
- fleet set-up: forcing a VM ON or OFF, striped and single-domain
  topologies, and counting a placement's VMs per fault domain;
- reading back a placement that ``repro consolidate`` wrote, the
  checkpoints a retention directory keeps, and a latency histogram's tail;
- recounting a run's headline counters from its event stream;
- the ambient telemetry and the active profiler, so tests can see that
  ``tracing``/``Profiler`` blocks restore them;
- the provenance fixture's generator module.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln
from scipy.stats import binom

from repro.core.quantile import spike_sum_distribution
from repro.core.reservation import PMReservationState, ReservationKernel
from repro.core.types import Placement, PMSpec, VMSpec
from repro.markov.binomial import binomial_pmf_table
from repro.placement.base import InsufficientCapacityError, first_fit
from repro.queueing.transient import _kernel
from repro.simulation.checkpoint import CheckpointRetention
from repro.simulation.topology import Topology
from repro.telemetry import context, profiling
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.sinks import read_events_tolerant
from repro.utils.validation import check_integer, check_positive, check_probability
from repro.workload.io import _FORMAT_VERSION

_EPS = 1e-9


# --------------------------------------------------------------------- #
# placement validity
# --------------------------------------------------------------------- #
def check_placement_complete(placement: Placement) -> None:
    """Raise if any VM is unplaced."""
    if not placement.all_placed:
        missing = np.flatnonzero(placement.assignment == -1)
        raise AssertionError(f"placement leaves VMs unplaced: {missing[:10].tolist()}")


def _aggregate(placement: Placement, sizes: np.ndarray) -> np.ndarray:
    totals = np.zeros(placement.n_pms)
    placed = placement.assignment != -1
    np.add.at(totals, placement.assignment[placed], sizes[placed])
    return totals


def check_capacity_at_base(placement: Placement, vms: Sequence[VMSpec],
                           pms: Sequence[PMSpec]) -> None:
    """Raise unless every PM's aggregate ``R_b`` fits its capacity.

    This is the paper's Eq. (3) at ``t = 0`` with all VMs OFF — the weakest
    physical-feasibility requirement every strategy must satisfy.
    """
    sizes = np.array([v.r_base for v in vms])
    caps = np.array([p.capacity for p in pms])
    totals = _aggregate(placement, sizes)
    bad = np.flatnonzero(totals > caps + _EPS)
    if bad.size:
        raise AssertionError(
            f"base demand exceeds capacity on PMs {bad[:10].tolist()} "
            f"(e.g. {totals[bad[0]]:.3f} > {caps[bad[0]]:.3f})"
        )


def check_capacity_at_peak(placement: Placement, vms: Sequence[VMSpec],
                           pms: Sequence[PMSpec]) -> None:
    """Raise unless every PM fits the aggregate *peak* demand ``R_p``.

    Only peak-provisioned placements (the RP baseline) are expected to pass;
    for QUEUE placements this holds only when MapCal returned ``K = k``
    everywhere.
    """
    sizes = np.array([v.r_peak for v in vms])
    caps = np.array([p.capacity for p in pms])
    totals = _aggregate(placement, sizes)
    bad = np.flatnonzero(totals > caps + _EPS)
    if bad.size:
        raise AssertionError(
            f"peak demand exceeds capacity on PMs {bad[:10].tolist()} "
            f"(e.g. {totals[bad[0]]:.3f} > {caps[bad[0]]:.3f})"
        )


def max_vms_on_any_pm(placement: Placement) -> int:
    """Largest number of VMs collocated on one PM (0 if nothing placed)."""
    placed = placement.assignment[placement.assignment != -1]
    if placed.size == 0:
        return 0
    return int(np.bincount(placed).max())


# --------------------------------------------------------------------- #
# the Engset loss system
# --------------------------------------------------------------------- #
# The discrete Geom/Geom/K/K model converges to the Engset system when the
# per-interval switch probabilities shrink with their ratio fixed (geometric
# sojourns -> exponential sojourns).  The classical closed forms are an
# independent analytic check of the matrix machinery:
#
#     pi_j  proportional to  C(k, j) * alpha^j,     alpha = lambda / mu
#
# where ``k`` sources think for Exp(lambda) and hold a server for Exp(mu).
# For the discrete chain, ``alpha = p_on / p_off``.
def engset_distribution(k: int, n_servers: int, alpha: float) -> np.ndarray:
    """Stationary occupancy law of the Engset loss system.

    Parameters
    ----------
    k:
        Number of sources.
    n_servers:
        Number of servers ``K`` (occupancy states are ``0..K``).
    alpha:
        Offered load per free source, ``lambda / mu``.

    Returns
    -------
    numpy.ndarray
        Probabilities ``pi_0 .. pi_K``.  Computed in log-space so large ``k``
        does not overflow the binomial coefficients.
    """
    k = check_integer(k, "k", minimum=1)
    K = check_integer(n_servers, "n_servers", minimum=0, maximum=k)
    alpha = check_positive(alpha, "alpha")
    j = np.arange(K + 1)
    log_terms = (
        gammaln(k + 1) - gammaln(j + 1) - gammaln(k - j + 1) + j * np.log(alpha)
    )
    log_terms -= log_terms.max()
    terms = np.exp(log_terms)
    return terms / terms.sum()


def engset_blocking_probability(k: int, n_servers: int, alpha: float) -> float:
    """Time-blocking probability of the Engset system (all servers busy).

    Note this is *time* blocking (the fraction of time the system is full);
    call blocking seen by arrivals would use ``k - 1`` sources (the Engset
    arrival theorem).
    """
    return float(engset_distribution(k, n_servers, alpha)[-1])


# --------------------------------------------------------------------- #
# busy-block process references
# --------------------------------------------------------------------- #
def busy_block_kernel_bruteforce(k: int, p_on: float, p_off: float) -> np.ndarray:
    """Reference implementation of :func:`busy_block_kernel` by direct summation.

    Evaluates the paper's Eq. 12 term-by-term with scipy binomial PMFs.  Used
    only for cross-validation in tests; ``O(k^3)`` scalar operations.
    """
    k = check_integer(k, "k", minimum=0)
    p_on = check_probability(p_on, "p_on")
    p_off = check_probability(p_off, "p_off")
    P = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            total = 0.0
            for r in range(i + 1):
                s = j - i + r
                if 0 <= s <= k - i:
                    total += binom.pmf(r, i, p_off) * binom.pmf(s, k - i, p_on)
            P[i, j] = total
    return P


def occupancy_at(k: int, p_on: float, p_off: float, t: int,
                 *, initial_state: int = 0) -> np.ndarray:
    """Distribution of the busy-block count after ``t`` steps.

    Starts from a point mass at ``initial_state`` (the paper's ``Pi_0`` is
    state 0 — all VMs OFF right after consolidation).
    """
    t = check_integer(t, "t", minimum=0)
    P = _kernel(k, p_on, p_off)
    check_integer(initial_state, "initial_state", minimum=0, maximum=k)
    pi = np.zeros(k + 1)
    pi[initial_state] = 1.0
    # Repeated squaring for large t, plain multiplication for small t.
    if t > 64:
        Pt = np.linalg.matrix_power(P, t)
        return pi @ Pt
    for _ in range(t):
        pi = pi @ P
    return pi


def onoff_matrix(p_on: float, p_off: float) -> np.ndarray:
    """2x2 row-stochastic matrix of an ON-OFF chain, state order (OFF, ON)."""
    return np.array([[1.0 - p_on, p_on], [p_off, 1.0 - p_off]])


def stationary_distribution_closed_form(model) -> np.ndarray:
    """Closed-form stationary law of a ``FiniteSourceGeomGeomK`` ``model``:
    ``Binomial(k, p_on / (p_on + p_off))``.

    Because the k sources evolve independently and each source's
    stationary ON-probability is ``q = p_on/(p_on+p_off)``, the number of
    ON sources at stationarity is binomial.  This provides an O(k)
    analytic cross-check of the O(k^3) matrix solve.
    """
    q = model.p_on / (model.p_on + model.p_off)
    return binomial_pmf_table(model.k, q)[model.k]


def occupancy_from_trajectory(states: np.ndarray, n_states: int) -> np.ndarray:
    """Empirical state-occupancy frequencies of a simulated trajectory."""
    states = np.asarray(states)
    if states.size == 0:
        raise ValueError("trajectory is empty")
    counts = np.bincount(states, minlength=n_states)
    return counts / counts.sum()


def burst_lengths(states: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of ON (truthy) intervals in a 0/1 trace.

    Returns an empty array if the trace never turns ON.  Runs touching the
    trace boundary are counted as-is (right-censoring is negligible for the
    long traces used in the tests).
    """
    s = np.asarray(states).astype(bool)
    if s.ndim != 1:
        raise ValueError(f"states must be 1-D, got shape {s.shape}")
    if s.size == 0:
        return np.empty(0, dtype=np.int64)
    padded = np.concatenate(([False], s, [False])).astype(np.int8)
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return (ends - starts).astype(np.int64)


def mean_burst_length(states: np.ndarray) -> float:
    """Average ON-run length; 0.0 if the trace never turns ON."""
    lengths = burst_lengths(states)
    return float(lengths.mean()) if lengths.size else 0.0


# --------------------------------------------------------------------- #
# fleet set-up
# --------------------------------------------------------------------- #
def set_on(dc, vm_id: int, on: bool) -> None:
    """Put VM ``vm_id`` of datacenter ``dc`` in its ON (spiking) or OFF
    state through the checkpoint round trip; the chain continues from this
    state at the next ``step``."""
    state = dc.capture_state()
    state["on"][vm_id] = bool(on)
    dc.restore_state(state)


def striped(n_pms: int, n_domains: int) -> Topology:
    """Round-robin striping: PM ``i`` lands in domain ``i % n_domains``."""
    n_pms = check_integer(n_pms, "n_pms", minimum=1)
    n_domains = check_integer(n_domains, "n_domains", minimum=1)
    if n_domains > n_pms:
        raise ValueError(
            f"n_domains ({n_domains}) cannot exceed n_pms ({n_pms}): empty domains"
        )
    return Topology(np.arange(n_pms) % n_domains)


def single_domain(n_pms: int) -> Topology:
    """Every PM in one domain (the degenerate all-correlated case)."""
    n_pms = check_integer(n_pms, "n_pms", minimum=1)
    return Topology(np.zeros(n_pms, dtype=np.int64))


def vm_domain_counts(topology: Topology, assignment: np.ndarray) -> np.ndarray:
    """VMs per domain of ``topology`` given a VM -> PM ``assignment``.

    Unplaced entries (negative) are ignored.
    """
    assignment = np.asarray(assignment)
    placed = assignment[assignment >= 0]
    if placed.size and int(placed.max()) >= topology.n_pms:
        raise ValueError("assignment references PMs outside the topology")
    return np.bincount(topology.domain_of[placed], minlength=topology.n_domains)


# --------------------------------------------------------------------- #
# files and event streams
# --------------------------------------------------------------------- #
def load_placement(path: str | Path) -> Placement:
    """Read a placement written by :func:`save_placement` (validated)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported placement format in {path}")
    return Placement(
        n_vms=payload["n_vms"],
        n_pms=payload["n_pms"],
        assignment=np.array(payload["assignment"], dtype=np.int64),
    )


def retained_checkpoints(directory: str | Path) -> list[Path]:
    """The checkpoints a ``CheckpointRetention`` directory's index keeps,
    oldest first."""
    index = json.loads((Path(directory) / CheckpointRetention.INDEX_NAME).read_text())
    return [Path(directory) / e["file"] for e in index["checkpoints"]]


def tail_probability(histogram, t: int) -> float:
    """Empirical ``P(T_S > t)`` of a ``LatencyHistogram``: the fraction of
    completions slower than ``t`` intervals (0.0 before any completion)."""
    t = check_integer(t, "t", minimum=0)
    if histogram.total == 0:
        return 0.0
    slow = sum(histogram.counts[min(t, histogram.max_latency) + 1:])
    return slow / histogram.total


def count_by_kind(events: Iterable[TelemetryEvent]) -> dict[str, int]:
    """Number of events of each ``kind``."""
    return dict(TallyCounter(e.kind for e in events))


def replay_summary(
    events: Iterable[TelemetryEvent] | str | Path,
) -> dict[str, int]:
    """Recompute the run's headline counters from its event stream.

    The event stream must be *sufficient*: the headline counters a
    :class:`~repro.simulation.scenario.ScenarioReport` prints (migrations,
    crashes, capacity violations, ...) must be exactly recomputable from
    the events alone, and the tests assert the two bookkeeping paths agree.

    ``events`` is either an iterable of typed events or a path to a JSONL
    event log.  Paths are parsed tolerantly: truncated or corrupt lines are
    skipped with a counted warning (see
    :func:`~repro.telemetry.sinks.read_events_tolerant`) rather than
    aborting the whole replay — a crashed writer must not take its
    post-mortem down with it.

    Returns a dict with the counters a scenario report also tracks:
    ``migrations`` (completed), ``failed_migrations``, ``crashes``,
    ``repairs``, ``capacity_violations``, ``degradations``,
    ``strandings``, ``restorations``, ``blacklistings``,
    ``reconsolidations``, ``vms_placed``, the observability-plane counts
    (``snapshots``, ``alerts_fired``, ``alerts_resolved``,
    ``drift_detections``), the decision-provenance counts
    (``placement_decisions``, ``migration_decisions``,
    ``reconsolidation_decisions``, ``replan_decisions``, plus
    ``decisions_dropped_total`` — candidate/move rows truncated out of
    decision events) and ``skipped_lines`` (0 when typed events were
    passed directly).
    """
    skipped = 0
    if isinstance(events, (str, Path)):
        events, skipped = read_events_tolerant(events)
    events = list(events)
    kinds = count_by_kind(events)
    dropped = sum(getattr(e, "dropped_candidates", 0)
                  + getattr(e, "dropped_moves", 0) for e in events)
    return {
        "skipped_lines": skipped,
        "snapshots": kinds.get("interval_snapshot", 0),
        "alerts_fired": kinds.get("alert_fired", 0),
        "alerts_resolved": kinds.get("alert_resolved", 0),
        "drift_detections": kinds.get("drift_detected", 0),
        "vms_placed": kinds.get("vm_placed", 0),
        "migrations": kinds.get("migration_completed", 0),
        "failed_migrations": kinds.get("migration_failed", 0),
        "crashes": kinds.get("pm_crashed", 0),
        "repairs": kinds.get("pm_repaired", 0),
        "capacity_violations": kinds.get("capacity_violation", 0),
        "degradations": kinds.get("degradation_applied", 0),
        "strandings": kinds.get("vm_stranded", 0),
        "restorations": kinds.get("service_restored", 0),
        "blacklistings": kinds.get("target_blacklisted", 0),
        "reconsolidations": kinds.get("reconsolidation_triggered", 0),
        "placement_decisions": kinds.get("placement_decided", 0),
        "migration_decisions": kinds.get("migration_decided", 0),
        "reconsolidation_decisions": kinds.get("reconsolidation_decided", 0),
        "replan_decisions": kinds.get("replan_decided", 0),
        "decisions_dropped_total": dropped,
    }


# --------------------------------------------------------------------- #
# scalar placement loops
# --------------------------------------------------------------------- #
def place_reference(
    placer, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
) -> tuple[Placement, list[PMReservationState]]:
    """Literal Algorithm 2 (per-PM Python scan) for a ``QueuingFFD``; used
    to cross-validate the vectorized path in the test suite."""
    placement = Placement(len(vms), len(pms))
    if not vms:
        return placement, []
    mapping = placer.mapping_for(vms)
    states = [PMReservationState(spec=p, mapping=mapping) for p in pms]
    domain_counts = None
    if placer.spread is not None:
        placer.spread.check_n_pms(len(pms))
        domain_counts = placer.spread.new_counts()
    for vm_idx in placer.order_vms(vms):
        vm_idx = int(vm_idx)
        vm = vms[vm_idx]
        for pm_idx, state in enumerate(states):
            if placer.spread is not None and not bool(
                    placer.spread.allowed_pms(domain_counts)[pm_idx]):
                continue
            if state.fits(vm):
                state.add(vm_idx, vm)
                placement.place(vm_idx, pm_idx)
                if placer.spread is not None:
                    placer.spread.admit(pm_idx, domain_counts)
                break
        else:
            raise InsufficientCapacityError(vm_idx)
    return placement, states


def place_with_states(
    placer, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
) -> tuple[Placement, list[PMReservationState]]:
    """Place VMs with a ``QueuingFFD`` ``placer`` and also return the per-PM
    reservation states.

    VMs go in ``placer.order_vms`` order through
    :func:`~repro.placement.base.first_fit`, with a
    :class:`ReservationKernel` as its state, as ``QueuingFFD.place`` runs
    them; each PM's state is the kernel's snapshot after the pass.
    """
    if not vms:
        return Placement(0, len(pms)), []
    mapping = placer.mapping_for(vms)
    kernel = ReservationKernel([p.capacity for p in pms], mapping.d,
                               mapping.table)
    placement = first_fit(
        placer, vms, len(pms), placer.order_vms(vms), kernel,
        spread=placer.spread,
        choose_for=getattr(placer, "choose_for", None))
    return placement, [kernel.snapshot(i, p, mapping)
                       for i, p in enumerate(pms)]


def quantile_reservation(vms: Sequence[VMSpec], rho: float, *,
                         resolution: float = 0.25) -> float:
    """Smallest grid amount ``R`` with ``P[spike mass > R] <= rho``.

    The exact blockless analogue of MapCal's Eq. 15: reserving ``R`` bounds
    the stationary CVR by rho (spike sizes were rounded up to the grid, so
    the bound is conservative by at most ``len(vms) * resolution``).
    """
    check_probability(rho, "rho")
    pmf, res = spike_sum_distribution(vms, resolution=resolution)
    cumulative = np.cumsum(pmf)
    meets = np.flatnonzero(cumulative >= 1.0 - rho - 1e-15)
    idx = int(meets[0]) if meets.size else pmf.size - 1
    return idx * res


def quantile_ffd_reference(placer, vms: Sequence[VMSpec],
                           pms: Sequence[PMSpec]) -> Placement:
    """A ``QuantileFFD`` pass that re-convolves each PM's hosted set for
    every admission test, one PM at a time."""
    from repro.core.queuing_ffd import algorithm2_order

    placement = Placement(len(vms), len(pms))
    if not vms:
        return placement
    hosted: list[list[int]] = [[] for _ in pms]
    base_sum = np.zeros(len(pms))
    for vm_idx in algorithm2_order(vms, placer.n_clusters):
        vm_idx = int(vm_idx)
        vm = vms[vm_idx]
        placed = False
        for pm_idx, pm in enumerate(pms):
            if len(hosted[pm_idx]) + 1 > placer.d:
                continue
            members = [vms[i] for i in hosted[pm_idx]] + [vm]
            reserve = quantile_reservation(members, placer.rho,
                                           resolution=placer.resolution)
            need = reserve + base_sum[pm_idx] + vm.r_base
            if need <= pm.capacity + _EPS:
                hosted[pm_idx].append(vm_idx)
                base_sum[pm_idx] += vm.r_base
                placement.place(vm_idx, pm_idx)
                placed = True
                break
        if not placed:
            raise InsufficientCapacityError(vm_idx)
    return placement


# --------------------------------------------------------------------- #
# the provenance fixture's generator
# --------------------------------------------------------------------- #
def provenance_generator():
    """``tests/data/provenance_v1/generate.py``, loaded as a module."""
    path = Path(__file__).parent / "data" / "provenance_v1" / "generate.py"
    spec = importlib.util.spec_from_file_location("provenance_v1_generate",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------- #
# ambient telemetry state
# --------------------------------------------------------------------- #
def get_telemetry():
    """The ambient default telemetry, if one is installed."""
    return context._default


def active_profiler():
    """The profiler `timed` spans currently report to, if any."""
    return profiling._active

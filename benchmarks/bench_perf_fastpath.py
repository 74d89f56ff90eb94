"""Fastpath floors: ratios of two code paths timed in one process.

The vectorized :class:`~repro.simulation.datacenter.Datacenter` tick must
be (a) bit-identical to :class:`~repro.perf.reference.ScalarReferenceDatacenter`
and (b) substantially faster at the paper's Fig. 9 scale (200 VMs with
failures, flaky migrations and energy accounting).  The identity is
asserted exactly; the speedup floor is set below the typically measured
3-4x so CI noise does not flake the build while a real regression (losing
the vectorization) still fails loudly.

Explaining a placement (one ``PlacementDecided`` per VM, top-K candidate
rows) must cost at most 10x the unexplained placement: QUEUE, RP and SBP
on 3,200 VMs and 3,200 PMs, QUEUE-HET, QUEUE-MD and QUANTILE on 800; a
per-PM Python loop in any explained path costs 40-120x.

The row-batched trace fit (:func:`~repro.workload.estimation.fit_fleet`)
must equal :func:`~repro.perf.reference.fit_onoff_reference` on every
field of every row and be at least 3x faster on ``fleet_replan``-shaped
traces (measured 4.7-6.2x), so losing the batching fails loudly.

A version 2 (columnar) checkpoint of a ``fleet_replan``-shaped end state
must restore to the same state bytes as the version 1 file
:func:`~repro.perf.reference.save_checkpoint_v1` writes, and at least 3x
faster, so a restore that rebuilds lists or per-migration objects again
fails loudly.

The online consolidator's bulk restore from columns must rebuild an
``online_admission``-shaped end state (about 900 VMs on 256 PMs) to the
same fingerprint and kernel bytes as
:func:`~repro.perf.reference.restore_consolidator_v1`, which re-adds the
VMs one at a time, and at least 1.5x faster, so a restore that goes back
to one ``ReservationKernel.add`` per VM fails loudly.
"""

from __future__ import annotations

import dataclasses
import gc
import time

import numpy as np

from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.multidim import MultiDimFirstFit, MultiDimPMSpec, MultiDimVMSpec
from repro.core.quantile import QuantileFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.perf.cache import cache_stats
from repro.core.online import OnlineConsolidator
from repro.perf.reference import (
    capture_consolidator_v1,
    fit_onoff_reference,
    restore_consolidator_v1,
    save_checkpoint_v1,
)
from repro.placement.base import AdmissionRejectedError, InsufficientCapacityError
from repro.placement.ffd import ffd_by_peak
from repro.placement.sbp import StochasticBinPacker
from repro.simulation.checkpoint import (
    canonical_state_bytes,
    restore_checkpoint,
    save_checkpoint,
)
from repro.simulation.costmodel import MigrationCostModel
from repro.simulation.energy import EnergyModel
from repro.simulation.scenario import Scenario
from repro.telemetry import RingBufferSink, Telemetry
from repro.workload.estimation import fit_fleet
from repro.workload.onoff_generator import demand_trace, ensemble_states
from repro.workload.patterns import generate_pattern_instance, make_pms

N_VMS = 200
N_INTERVALS = 300
SEED = 2013


def _scenario(tick_mode: str) -> Scenario:
    vms, pms = generate_pattern_instance("large", N_VMS, seed=SEED)
    return Scenario(
        vms, pms,
        placer=QueuingFFD(rho=0.01, d=16),
        failures=True,
        migration_failure_probability=0.05,
        cost_model=MigrationCostModel(),
        energy_model=EnergyModel(),
        start_stationary=True,
        tick_mode=tick_mode,
    )


def _best_of(n_runs: int, tick_mode: str):
    """Minimum wall-clock over ``n_runs`` (noise-robust) plus one report."""
    best, report = float("inf"), None
    for _ in range(n_runs):
        scenario = _scenario(tick_mode)
        t0 = time.perf_counter()
        report = scenario.run(N_INTERVALS, seed=SEED)
        best = min(best, time.perf_counter() - t0)
    return best, report


def test_fastpath_identical_and_faster(benchmark, save_result):
    # Warm the MapCal cache so both paths time the tick, not the solves.
    _scenario("vectorized").run(2, seed=SEED)
    warm = cache_stats()

    t_fast, fast = _best_of(3, "vectorized")
    t_slow, slow = _best_of(2, "scalar")

    # -- identity: the entire report must match bit for bit ------------- #
    np.testing.assert_array_equal(fast.record.pms_used_series,
                                  slow.record.pms_used_series)
    np.testing.assert_array_equal(fast.record.violation_counts,
                                  slow.record.violation_counts)
    np.testing.assert_array_equal(fast.record.migrations_per_interval,
                                  slow.record.migrations_per_interval)
    assert fast.record.migrations == slow.record.migrations
    assert fast.mean_cvr == slow.mean_cvr
    assert fast.max_cvr == slow.max_cvr
    assert fast.fairness == slow.fairness
    assert fast.energy_joules == slow.energy_joules
    assert fast.failures == slow.failures

    # -- speedup: regression floor below the typical 3-4x --------------- #
    speedup = t_slow / max(t_fast, 1e-9)
    assert speedup >= 2.0, (
        f"vectorized tick only {speedup:.2f}x over the scalar reference "
        f"({t_fast * 1e3:.0f} ms vs {t_slow * 1e3:.0f} ms) — vectorization "
        "regressed"
    )

    # -- solve cache: post-warm-up traffic must be nearly all hits ------ #
    # Every timed run re-solves the same (rho, d, demand-profile) MapCal
    # instances the warm-up already populated, so a windowed hit rate
    # below 90% means the cache key or eviction policy regressed — a
    # slowdown wall-clock noise could otherwise mask.
    stats = cache_stats()
    hits = stats["hits"] - warm["hits"]
    misses = stats["misses"] - warm["misses"]
    lookups = hits + misses
    hit_rate = hits / lookups if lookups else 1.0
    assert hit_rate > 0.90, (
        f"mapcal solve-cache hit rate {hit_rate:.1%} after warm-up "
        f"({hits:.0f} hits / {misses:.0f} misses) — cache regressed"
    )

    benchmark.pedantic(
        lambda: _scenario("vectorized").run(N_INTERVALS, seed=SEED),
        rounds=2, iterations=1,
    )

    save_result(
        "\n".join([
            "fastpath speedup (fig9-shape scenario, "
            f"{N_VMS} VMs x {N_INTERVALS} intervals, seed {SEED})",
            f"scalar reference : {t_slow * 1e3:8.1f} ms",
            f"vectorized tick  : {t_fast * 1e3:8.1f} ms",
            f"speedup          : {speedup:8.2f}x",
            "report parity    : bit-identical",
            f"cache hit rate   : {hit_rate:8.1%} (post-warm-up)",
        ]),
        name="perf_fastpath",
    )


EXPLAIN_FLEET = 3200
#: the fleet of the placers whose plain pass costs more per VM
EXTENSION_FLEET = 800
EXPLAIN_CEILING = 10.0


def _min_cpu(n_runs: int, fn):
    """Minimum process CPU time over ``n_runs`` calls, and the last result."""
    best, out = float("inf"), None
    for _ in range(n_runs):
        t0 = time.process_time()
        out = fn()
        best = min(best, time.process_time() - t0)
    return best, out


def test_explained_placement_within_ceiling():
    vms, pms = generate_pattern_instance("large", EXPLAIN_FLEET, seed=SEED)
    small_vms, small_pms = generate_pattern_instance("large", EXTENSION_FLEET,
                                                     seed=SEED)
    # QUEUE-MD's second dimension: half the spike as base, half the base
    # as spike
    md_vms = [MultiDimVMSpec(v.p_on, v.p_off, (v.r_base, 0.5 * v.r_extra),
                             (v.r_extra, 0.5 * v.r_base)) for v in small_vms]
    md_pms = [MultiDimPMSpec((p.capacity, p.capacity)) for p in small_pms]
    cases = [(QueuingFFD(rho=0.01, d=16), vms, pms), (ffd_by_peak(), vms, pms),
             (StochasticBinPacker(), vms, pms),
             (HeterogeneousQueuingFFD(rho=0.01, d=16), small_vms, small_pms),
             (MultiDimFirstFit(rho=0.01, d=16), md_vms, md_pms),
             (QuantileFFD(rho=0.01, d=16), small_vms, small_pms)]
    ratios = {}
    for placer, vms, pms in cases:
        placer.place(vms, pms)  # warm the MapCal cache
        t_plain, plain = _min_cpu(3, lambda: placer.place(vms, pms))
        t_explained, explained = _min_cpu(3, lambda: placer.place_and_report(
            vms, pms, telemetry=Telemetry(RingBufferSink(capacity=64))))
        np.testing.assert_array_equal(plain.assignment, explained.assignment)
        ratios[placer.name] = t_explained / max(t_plain, 1e-9)
    assert max(ratios.values()) <= EXPLAIN_CEILING, (
        "explained placement costs more than "
        f"{EXPLAIN_CEILING:g}x the unexplained one: "
        + ", ".join(f"{name} {r:.1f}x" for name, r in ratios.items()))


FIT_FLEET = 3200
FIT_SAMPLES = 1000
FIT_FLOOR = 3.0


def _fields(fit):
    """Every field's type and float64 bit pattern."""
    values = dataclasses.astuple(fit)
    return ([type(v) for v in values],
            np.array(values, dtype=np.float64).tobytes())


def test_batched_fit_identical_and_faster():
    # "large" traces built as perfbench's fleet_replan builds them
    vms, _ = generate_pattern_instance("large", FIT_FLEET, seed=SEED)
    states = ensemble_states(vms, FIT_SAMPLES - 1, start_stationary=True,
                             seed=SEED + 1)
    traces = demand_trace(vms, states)

    t_batch, fits = _min_cpu(3, lambda: fit_fleet(traces))
    t_rows, reference = _min_cpu(3, lambda: [
        fit_onoff_reference(row) for row in traces])
    mismatched = [i for i, (got, want) in enumerate(zip(fits, reference))
                  if _fields(got) != _fields(want)]
    assert len(fits) == FIT_FLEET and not mismatched, (
        f"{len(mismatched)} of {FIT_FLEET} rows differ from the per-row fit, "
        f"first at row {mismatched[:1]}")
    speedup = t_rows / max(t_batch, 1e-9)
    assert speedup >= FIT_FLOOR, (
        f"fit_fleet only {speedup:.2f}x over the per-row reference "
        f"({t_batch * 1e3:.0f} ms vs {t_rows * 1e3:.0f} ms) — the row "
        "batching regressed")


RESTORE_FLEET = 3200
RESTORE_TICKS = 700
RESTORE_FLOOR = 3.0


def _min_cpu_alternating(n_runs: int, *fns) -> list[float]:
    """Minimum process CPU time of each of ``fns`` over ``n_runs`` rounds
    that call every one in turn, with the collector off while one runs
    (as ``timeit`` does): a full collection that one side happens to
    trigger, or a slow spell of the machine, does not decide the ratio."""
    best = [float("inf")] * len(fns)
    for _ in range(n_runs):
        for i, fn in enumerate(fns):
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                fn()
                best[i] = min(best[i], time.process_time() - t0)
            finally:
                gc.enable()
    return best


def test_columnar_restore_identical_and_faster(tmp_path):
    # the end state of one fleet_replan repeat: "large" VMs fitted from
    # 1,000-sample traces, failures, 5% failed migrations and a replan
    # every 25 ticks (thousands of migrations in the monitor's history)
    vms, pms = generate_pattern_instance("large", RESTORE_FLEET, seed=SEED)
    states = ensemble_states(vms, FIT_SAMPLES - 1, start_stationary=True,
                             seed=SEED + 1)
    fitted = [fit.to_vmspec() for fit in fit_fleet(demand_trace(vms, states))]
    scenario = Scenario(fitted, pms, placer=QueuingFFD(rho=0.01, d=16),
                        failures=True, migration_failure_probability=0.05,
                        energy_model=EnergyModel(), start_stationary=True,
                        reconsolidation={"period": 25})
    run = scenario.start(seed=SEED)
    run.advance(RESTORE_TICKS)
    run.close()
    state = canonical_state_bytes(run.capture_state())
    v1 = save_checkpoint_v1(run, tmp_path / "v1.ckpt.json")
    v2 = save_checkpoint(run, tmp_path / "v2.ckpt.json")
    assert v2.stat().st_size <= v1.stat().st_size

    t_v2, t_v1 = _min_cpu_alternating(
        3, lambda: restore_checkpoint(v2, scenario=scenario),
        lambda: restore_checkpoint(v1, scenario=scenario))
    for path in (v1, v2):
        assert canonical_state_bytes(restore_checkpoint(
            path, scenario=scenario).capture_state()) == state
    speedup = t_v1 / max(t_v2, 1e-9)
    assert speedup >= RESTORE_FLOOR, (
        f"a version 2 restore is only {speedup:.2f}x a version 1 one "
        f"({t_v2 * 1e3:.1f} ms vs {t_v1 * 1e3:.1f} ms) — the columnar "
        "restore regressed")


ONLINE_SEED = 7
ONLINE_DECISIONS = 5984
SERVICE_RESTORE_FLOOR = 1.5


def _online_end_state() -> OnlineConsolidator:
    """The consolidator at the end of a seed-7 ``online_admission`` repeat:
    256 PMs, Poisson 10 "large" arrivals per tick with geometric lives of
    mean 100 ticks, ``QueuingFFD(0.01, 16)``, a recalibration every 25
    ticks, 5,984 decisions (perfbench/admission.py, without the WAL)."""
    rng = np.random.default_rng(ONLINE_SEED)
    s_pms, s_vms = rng.integers(0, 2**31 - 1, size=2)
    counts = rng.poisson(10.0, size=600)
    lives = rng.geometric(1.0 / 100.0, size=int(counts.sum()))
    vms, _ = generate_pattern_instance("large", int(counts.sum()), n_pms=1,
                                       seed=int(s_vms))
    cons = OnlineConsolidator(make_pms(256, seed=int(s_pms)),
                              QueuingFFD(rho=0.01, d=16))
    deaths: dict[int, list[int]] = {}
    decisions, k = 0, 0
    for t, n in enumerate(counts.tolist()):
        ops = [("depart", vm_id) for vm_id in sorted(deaths.pop(t, ()))]
        ops += [("admit", k + j) for j in range(n)]
        k += n
        if t and t % 25 == 0:
            ops.append(("recalibrate", None))
        for op, arg in ops[:ONLINE_DECISIONS - decisions]:
            decisions += 1
            try:
                if op == "depart":
                    cons.depart(arg)
                elif op == "admit":
                    vm_id, _ = cons.admit(vms[arg])
                    deaths.setdefault(t + int(lives[arg]), []).append(vm_id)
                else:
                    cons.recalibrate()
            except (AdmissionRejectedError, InsufficientCapacityError):
                pass
        if decisions == ONLINE_DECISIONS:
            return cons
    return cons


def _kernel_bytes(cons: OnlineConsolidator) -> tuple:
    kernel = cons.kernel
    return (kernel.counts.tobytes(), kernel.base_sums.tobytes(),
            kernel.max_extras.tobytes(),
            [list(hosted.items()) for hosted in kernel.hosted],
            list(cons._locations.items()))


def test_service_restore_identical_and_faster():
    live = _online_end_state()
    assert live.n_vms > 500
    columns, v1 = live.capture_state(), capture_consolidator_v1(live)
    bulk = OnlineConsolidator(live._pms, live.placer)
    scalar = OnlineConsolidator(live._pms, live.placer)
    # the mapping table is solved by now: both sides hit a warm cache
    t_bulk, t_scalar = _min_cpu_alternating(
        3, lambda: bulk.restore_state(columns),
        lambda: restore_consolidator_v1(scalar, v1))
    fingerprint = live.state_fingerprint()
    assert bulk.state_fingerprint() == scalar.state_fingerprint() \
        == fingerprint
    assert _kernel_bytes(bulk) == _kernel_bytes(scalar) == _kernel_bytes(live)
    speedup = t_scalar / max(t_bulk, 1e-9)
    assert speedup >= SERVICE_RESTORE_FLOOR, (
        f"the bulk consolidator restore is only {speedup:.2f}x the per-VM "
        f"one ({t_bulk * 1e3:.2f} ms vs {t_scalar * 1e3:.2f} ms) — the "
        "restore from columns regressed")

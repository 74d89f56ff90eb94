"""Ablation experiments: the design-choice studies DESIGN.md calls out.

Each ``run_*`` function regenerates one ablation table deterministically
(same contract as the fig/table experiments).  The benchmarks in
``benchmarks/bench_ablation_*.py`` are thin timed wrappers around these, and
``python -m repro run <ablation_id>`` exposes them from the CLI.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cvr import evaluate_placement_cvr
from repro.analysis.report import ExperimentResult
from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.mapcal import mapcal
from repro.core.quantile import QuantileFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.markov.hmm import fit_hmm_onoff
from repro.markov.multilevel import spiky_levels
from repro.placement.ffd import (
    FirstFitDecreasing,
    ffd_by_base,
    ffd_by_peak,
    size_by_peak,
)
from repro.placement.optimal import BranchAndBoundPacker, lower_bound_l2
from repro.placement.sbp import StochasticBinPacker
from repro.queueing.transient import expected_violation_episode_length
from repro.simulation.arrivals import DynamicFleetSimulator
from repro.simulation.costmodel import CostedScheduler, MigrationCostModel
from repro.simulation.datacenter import Datacenter
from repro.simulation.engine import SimulationEngine
from repro.simulation.failures import FailureInjector
from repro.simulation.migration import (
    StandardPolicy,
    select_target_least_loaded,
    select_target_reservation_aware,
)
from repro.simulation.monitor import Monitor
from repro.simulation.reconsolidation import ReconsolidationScheduler
from repro.simulation.scheduler import DynamicScheduler, run_simulation
from repro.utils.rng import spawn_children
from repro.workload.estimation import fit_fleet, fit_onoff
from repro.workload.onoff_generator import demand_trace, ensemble_states
from repro.workload.patterns import (
    PATTERN_RANGES,
    generate_pattern_instance,
    make_pms,
    table_i_vms,
)


# --------------------------------------------------------------------- #
# from bench_ablation_clustering.py
# --------------------------------------------------------------------- #
CLUSTER_METHODS = ("binning", "kmeans", "none")


def run_clustering_ablation(n_vms=300, seeds=(50, 51, 52, 53, 54)):
    result = ExperimentResult(
        experiment_id="ablation_clustering",
        description="PMs used by QUEUE with different R_e clustering schemes",
        params={"n_vms": n_vms, "repetitions": len(seeds)},
        headers=["pattern"] + [f"PMs_{m}" for m in CLUSTER_METHODS],
    )
    for pattern in ("equal", "small", "large"):
        used = {m: [] for m in CLUSTER_METHODS}
        for seed in seeds:
            vms, pms = generate_pattern_instance(pattern, n_vms, seed=seed)
            for m in CLUSTER_METHODS:
                placer = QueuingFFD(rho=0.01, d=16, cluster_method=m)
                used[m].append(placer.place(vms, pms).n_used_pms)
        result.add_row(
            {"equal": "Rb=Re", "small": "Rb>Re", "large": "Rb<Re"}[pattern],
            *[float(np.mean(used[m])) for m in CLUSTER_METHODS],
        )
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_elasticity.py
# --------------------------------------------------------------------- #
ELASTICITY_RHOS = (0.001, 0.01, 0.1, 0.9)


def spiky_vm(rng):
    return VMSpec(0.05, 0.15, float(rng.uniform(5, 15)),
                  float(rng.uniform(10, 30)))


def run_elasticity_ablation(n_pms=10, n_intervals=400, seeds=(120, 121, 122)):
    result = ExperimentResult(
        experiment_id="ablation_elasticity",
        description="Admission vs performance under VM arrivals (rho sweep)",
        params={"n_pms": n_pms, "n_intervals": n_intervals,
                "arrival_p": 1.0, "departure_p": 0.01},
        headers=["rho", "admitted_avg", "rejected_avg", "violations_avg",
                 "migrations_avg", "final_pop_avg"],
    )
    for rho in ELASTICITY_RHOS:
        admitted, rejected, violations, migrations, pop = [], [], [], [], []
        for seed in seeds:
            sim = DynamicFleetSimulator(
                [PMSpec(100.0)] * n_pms,
                QueuingFFD(rho=rho, d=16),
                arrival_probability=1.0,
                departure_probability=0.01,
                vm_factory=spiky_vm,
                seed=seed,
            )
            record = sim.run(n_intervals)
            admitted.append(record.admitted)
            rejected.append(record.rejected)
            violations.append(record.violations)
            migrations.append(record.migrations)
            pop.append(record.population_series[-1])
        result.add_row(rho, float(np.mean(admitted)), float(np.mean(rejected)),
                       float(np.mean(violations)), float(np.mean(migrations)),
                       float(np.mean(pop)))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_estimators.py
# --------------------------------------------------------------------- #
ESTIMATOR_TRUTH = VMSpec(0.02, 0.1, 10.0, 6.0)
NOISE_LEVELS = (0.2, 1.0, 2.0, 3.0)


def _param_error(fit) -> float:
    """Aggregate relative parameter error of a fit vs the ground truth."""
    return (
        abs(fit.p_on - ESTIMATOR_TRUTH.p_on) / ESTIMATOR_TRUTH.p_on
        + abs(fit.p_off - ESTIMATOR_TRUTH.p_off) / ESTIMATOR_TRUTH.p_off
        + abs(fit.r_base - ESTIMATOR_TRUTH.r_base) / ESTIMATOR_TRUTH.r_base
        + abs(fit.r_extra - ESTIMATOR_TRUTH.r_extra) / ESTIMATOR_TRUTH.r_extra
    ) / 4.0


def run_estimator_ablation(n_steps=60_000, seeds=(170, 171, 172)):
    result = ExperimentResult(
        experiment_id="ablation_estimators",
        description="Threshold vs Baum-Welch fit error vs measurement noise",
        params={"true": "(0.02, 0.1, 10, 6)", "n_steps": n_steps,
                "repetitions": len(seeds)},
        headers=["noise_sigma", "threshold_err", "hmm_err"],
    )
    for noise in NOISE_LEVELS:
        thr_errs, hmm_errs = [], []
        for seed in seeds:
            rngs = spawn_children(seed, 2)
            states = ensemble_states([ESTIMATOR_TRUTH], n_steps, start_stationary=True,
                                     seed=rngs[0])
            trace = demand_trace([ESTIMATOR_TRUTH], states)[0]
            trace = trace + rngs[1].normal(0.0, noise, trace.size)
            thr_errs.append(_param_error(fit_onoff(trace)))
            hmm_errs.append(_param_error(fit_hmm_onoff(trace)))
        result.add_row(noise, float(np.mean(thr_errs)), float(np.mean(hmm_errs)))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_migration_cost.py
# --------------------------------------------------------------------- #
def _run_costed(vms, pms, placement, seed):
    dc = Datacenter(vms, pms, placement, seed=seed)
    scheduler = CostedScheduler(
        dc, cost_model=MigrationCostModel(bandwidth_units_per_interval=8.0,
                                          cpu_overhead_fraction=0.1),
    )
    monitor = Monitor(dc.n_pms)
    engine = SimulationEngine()

    def tick(t):
        dc.step()
        monitor.record_interval(dc, scheduler.resolve_overloads(t))

    engine.add_hook("tick", tick)
    engine.run(100)
    return monitor.finalize(), scheduler.account


def run_migration_cost(n_vms=120, seeds=(160, 161, 162, 163, 164)):
    result = ExperimentResult(
        experiment_id="ablation_migration_cost",
        description="Migration events priced as downtime + overhead",
        params={"n_vms": n_vms, "n_intervals": 100,
                "bandwidth": 8.0, "cpu_overhead": 0.1,
                "repetitions": len(seeds)},
        headers=["strategy", "migrations_avg", "downtime_s_avg",
                 "overhead_pm_intervals_avg"],
    )
    strategies = {
        "QUEUE": QueuingFFD(rho=0.01, d=16),
        "RB": ffd_by_base(max_vms_per_pm=16),
    }
    for name, placer in strategies.items():
        migs, downtime, overhead = [], [], []
        for seed in seeds:
            vms = table_i_vms("equal", n_vms, seed=seed)
            pms = make_pms(n_vms, seed=seed)
            placement = placer.place(vms, pms)
            record, account = _run_costed(vms, pms, placement, seed + 600)
            migs.append(record.total_migrations)
            downtime.append(account.total_downtime_seconds)
            overhead.append(account.overhead_pm_intervals)
        result.add_row(name, float(np.mean(migs)), float(np.mean(downtime)),
                       float(np.mean(overhead)))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_model_mismatch.py
# --------------------------------------------------------------------- #
MISMATCH_RHO = 0.01
MISMATCH_N_VMS = 80


def _true_chain(rng):
    base = float(rng.uniform(4, 12))
    magnitudes = sorted(float(base + rng.uniform(4, 16)) for _ in range(3))
    return spiky_levels(base, magnitudes, p_spike=0.01, p_recover=0.09)


def run_model_mismatch(seed=140, n_obs=30_000, n_eval=30_000):
    rngs = spawn_children(seed, MISMATCH_N_VMS + 1)
    chains = [_true_chain(rngs[i]) for i in range(MISMATCH_N_VMS)]
    observe = np.stack([
        c.simulate_demand(n_obs, seed=rngs[i]) for i, c in enumerate(chains)
    ])
    evaluate = np.stack([
        c.simulate_demand(n_eval, seed=rngs[-1]) for c in chains
    ])

    result = ExperimentResult(
        experiment_id="ablation_model_mismatch",
        description="Two-level fit of three-magnitude workloads: CVR impact",
        params={"rho": MISMATCH_RHO, "n_vms": MISMATCH_N_VMS, "true_model": "3-magnitude spiky"},
        headers=["fit", "PMs_used", "mean_CVR", "max_CVR"],
    )
    pms = [PMSpec(100.0)] * MISMATCH_N_VMS
    for label, kwargs in (("mean-level fit", {}),
                          ("p95-margin fit", {"percentile_margin": 0.95})):
        specs = [fit.to_vmspec() for fit in fit_fleet(observe, **kwargs)]
        placement = QuantileFFD(rho=MISMATCH_RHO, d=16).place(specs, pms)
        loads = np.zeros((len(pms), evaluate.shape[1]))
        np.add.at(loads, placement.assignment, evaluate)
        caps = np.array([p.capacity for p in pms])
        cvr = (loads > caps[:, None] + 1e-9).mean(axis=1)
        used = placement.used_pms()
        result.add_row(label, placement.n_used_pms,
                       float(cvr[used].mean()), float(cvr[used].max()))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_optimality.py
# --------------------------------------------------------------------- #
def run_optimality_gap(n_vms=14, n_instances=10):
    result = ExperimentResult(
        experiment_id="ablation_optimality",
        description="FFD vs exact optimum on the peak-provisioning packing",
        params={"n_vms": n_vms, "instances": n_instances,
                "capacity": 100.0},
        headers=["pattern", "FFD_avg", "OPT_avg", "L2_avg",
                 "instances_where_FFD_suboptimal"],
    )
    for pattern in ("equal", "large"):
        ffd_used, opt_used, l2s, subopt = [], [], [], 0
        for seed in range(n_instances):
            vms, _ = generate_pattern_instance(pattern, n_vms, seed=seed)
            pms = [PMSpec(100.0)] * n_vms
            ffd = FirstFitDecreasing(size_by_peak).place(vms, pms)
            packer = BranchAndBoundPacker(size_by_peak, max_nodes=500_000)
            opt = packer.place(vms, pms)
            sizes = np.array([v.r_peak for v in vms])
            ffd_used.append(ffd.n_used_pms)
            opt_used.append(opt.n_used_pms)
            l2s.append(lower_bound_l2(sizes, 100.0))
            subopt += opt.n_used_pms < ffd.n_used_pms
        label = {"equal": "Rb=Re", "large": "Rb<Re"}[pattern]
        result.add_row(label, float(np.mean(ffd_used)), float(np.mean(opt_used)),
                       float(np.mean(l2s)), subopt)
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_policies.py
# --------------------------------------------------------------------- #
POLICIES = {
    "least-loaded (unaware)": select_target_least_loaded,
    "reservation-aware": select_target_reservation_aware,
}


def run_policy_ablation(n_vms=120, seeds=(80, 81, 82, 83, 84)):
    result = ExperimentResult(
        experiment_id="ablation_policies",
        description="RB placement under unaware vs burstiness-aware targets",
        params={"n_vms": n_vms, "n_intervals": 100, "repetitions": len(seeds)},
        headers=["target_policy", "migrations_avg", "final_pms_avg"],
    )
    for name, target_fn in POLICIES.items():
        migs, pms_used = [], []
        for seed in seeds:
            vms = table_i_vms("equal", n_vms, seed=seed)
            pms = make_pms(n_vms, seed=seed)
            placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
            sim = run_simulation(
                vms, pms, placement, n_intervals=100,
                policy=StandardPolicy(pick_target_fn=target_fn),
                seed=seed + 1000,
            )
            migs.append(sim.total_migrations)
            pms_used.append(sim.final_pms_used)
        result.add_row(name, float(np.mean(migs)), float(np.mean(pms_used)))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_reconsolidation.py
# --------------------------------------------------------------------- #
PERIODS = (10, 25, 50, None)  # None = purely reactive


def _run_replanned(vms, pms, placement, period, seed):
    dc = Datacenter(vms, pms, placement, seed=seed)
    if period is None:
        scheduler = DynamicScheduler(dc)
    else:
        scheduler = ReconsolidationScheduler(
            dc, placer=QueuingFFD(rho=0.01, d=16), period=period,
            max_planned_moves=20,
        )
    monitor = Monitor(dc.n_pms)
    engine = SimulationEngine()

    def tick(t):
        dc.step()
        monitor.record_interval(dc, scheduler.resolve_overloads(t))

    engine.add_hook("tick", tick)
    engine.run(100)
    record = monitor.finalize()
    planned = getattr(scheduler, "planned_migrations", 0)
    return record, planned


def run_reconsolidation_ablation(n_vms=100, seeds=(110, 111, 112)):
    result = ExperimentResult(
        experiment_id="ablation_reconsolidation",
        description="Periodic QueuingFFD re-plan over an RB initial packing",
        params={"n_vms": n_vms, "n_intervals": 100, "repetitions": len(seeds)},
        headers=["period", "planned_avg", "reactive_avg", "final_pms_avg",
                 "violations_avg"],
    )
    for period in PERIODS:
        planned_l, reactive_l, pms_l, viol_l = [], [], [], []
        for seed in seeds:
            vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
            placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
            record, planned = _run_replanned(vms, pms, placement, period, seed + 500)
            planned_l.append(planned)
            reactive_l.append(record.total_migrations - planned)
            pms_l.append(record.final_pms_used)
            viol_l.append(int(record.violation_counts.sum()))
        result.add_row(
            "reactive-only" if period is None else period,
            float(np.mean(planned_l)), float(np.mean(reactive_l)),
            float(np.mean(pms_l)), float(np.mean(viol_l)),
        )
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_reservation_shape.py
# --------------------------------------------------------------------- #
SHAPE_STRATEGIES = {
    "QUEUE (paper blocks)": lambda: QueuingFFD(rho=0.01, d=16),
    "QUEUE-HET (exact blocks)": lambda: HeterogeneousQueuingFFD(rho=0.01, d=16),
    "QUANTILE (blockless)": lambda: QuantileFFD(rho=0.01, d=16),
}


def run_reservation_shape(n_vms=200, seeds=(130, 131, 132)):
    result = ExperimentResult(
        experiment_id="ablation_reservation_shape",
        description="Reservation sizing rules at the same CVR target",
        params={"rho": 0.01, "n_vms": n_vms, "repetitions": len(seeds)},
        headers=["pattern", "strategy", "PMs_avg", "mean_CVR", "max_CVR"],
    )
    for pattern in ("equal", "large"):
        label = {"equal": "Rb=Re", "large": "Rb<Re"}[pattern]
        agg = {name: {"pms": [], "mean": [], "max": []} for name in SHAPE_STRATEGIES}
        for seed in seeds:
            vms, pms = generate_pattern_instance(pattern, n_vms, seed=seed)
            for name, factory in SHAPE_STRATEGIES.items():
                placement = factory().place(vms, pms)
                stats = evaluate_placement_cvr(placement, vms, pms,
                                               n_steps=15_000, seed=seed + 7)
                agg[name]["pms"].append(placement.n_used_pms)
                agg[name]["mean"].append(stats["mean"])
                agg[name]["max"].append(stats["max"])
        for name in SHAPE_STRATEGIES:
            result.add_row(label, name,
                           float(np.mean(agg[name]["pms"])),
                           float(np.mean(agg[name]["mean"])),
                           float(np.mean(agg[name]["max"])))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_resilience.py
# --------------------------------------------------------------------- #
RESILIENCE_STRATEGIES = {
    "QUEUE": lambda: QueuingFFD(rho=0.01, d=16),
    "RB": lambda: ffd_by_base(max_vms_per_pm=16),
    "RP": lambda: ffd_by_peak(max_vms_per_pm=16),
}


def run_resilience(n_vms=100, n_intervals=150, seeds=(150, 151, 152, 153)):
    result = ExperimentResult(
        experiment_id="ablation_resilience",
        description="PM crash injection: evacuation success per strategy",
        params={"n_vms": n_vms, "n_intervals": n_intervals,
                "p_fail": 0.01, "p_repair": 0.1, "repetitions": len(seeds)},
        headers=["strategy", "initial_pms", "failures_avg", "evacuations_avg",
                 "stranded_vm_intervals_avg"],
    )
    from repro.core.types import Placement

    for name, factory in RESILIENCE_STRATEGIES.items():
        pms_used, failures, evac, stranded = [], [], [], []
        for seed in seeds:
            vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
            placement = factory().place(vms, pms)
            # Truncate the fleet to the used prefix plus ONE spare so
            # evacuations compete for realistic headroom (with 100 idle
            # spares nothing would ever strand).
            m = int(placement.used_pms().max()) + 2
            pms = pms[:m]
            placement = Placement(len(vms), m, assignment=placement.assignment)
            dc = Datacenter(vms, pms, placement, seed=seed + 300)
            inj = FailureInjector(dc, failure_probability=0.01,
                                  repair_probability=0.1, seed=seed + 400)
            for t in range(n_intervals):
                dc.step()
                inj.step(t)
            pms_used.append(placement.n_used_pms)
            failures.append(inj.record.failures)
            evac.append(inj.record.evacuations)
            stranded.append(inj.record.stranded_vm_intervals)
        result.add_row(name, float(np.mean(pms_used)), float(np.mean(failures)),
                       float(np.mean(evac)), float(np.mean(stranded)))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_rho_sweep.py
# --------------------------------------------------------------------- #
SWEEP_RHOS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.3)


def run_rho_sweep(n_vms=200, seed=60):
    vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
    result = ExperimentResult(
        experiment_id="ablation_rho_sweep",
        description="QUEUE packing density and CVR vs the threshold rho",
        params={"n_vms": n_vms, "pattern": "Rb=Re"},
        headers=["rho", "PMs_used", "mean_CVR", "max_CVR"],
    )
    for rho in SWEEP_RHOS:
        placement = QueuingFFD(rho=rho, d=16).place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms,
                                       n_steps=20_000, seed=61)
        result.add_row(rho, placement.n_used_pms, stats["mean"], stats["max"])
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_rounding.py
# --------------------------------------------------------------------- #
def heterogeneous_fleet(n_vms, seed):
    rng = np.random.default_rng(seed)
    (b_lo, b_hi), (e_lo, e_hi) = PATTERN_RANGES["equal"]
    return [
        VMSpec(
            p_on=float(rng.uniform(0.005, 0.015)),
            p_off=float(rng.uniform(0.045, 0.135)),
            r_base=float(rng.uniform(b_lo, b_hi)),
            r_extra=float(rng.uniform(e_lo, e_hi)),
        )
        for _ in range(n_vms)
    ]


def run_rounding_ablation(n_vms=200, seed=90):
    vms = heterogeneous_fleet(n_vms, seed)
    pms = make_pms(n_vms, seed=seed)
    result = ExperimentResult(
        experiment_id="ablation_rounding",
        description="Heterogeneous (p_on, p_off): mean vs conservative rounding",
        params={"n_vms": n_vms, "p_on": "U[0.005,0.015]", "p_off": "U[0.045,0.135]"},
        headers=["rounding", "PMs_used", "mean_CVR", "max_CVR"],
    )
    for rule in ("mean", "median", "conservative"):
        placer = QueuingFFD(rho=0.01, d=16, rounding_rule=rule)
        placement = placer.place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms,
                                       n_steps=20_000, seed=seed + 1)
        result.add_row(rule, placement.n_used_pms, stats["mean"], stats["max"])
    # Our exact extension: Poisson-binomial reservation, no rounding at all.
    from repro.core.heterogeneous import HeterogeneousQueuingFFD

    placement = HeterogeneousQueuingFFD(rho=0.01, d=16).place(vms, pms)
    stats = evaluate_placement_cvr(placement, vms, pms,
                                   n_steps=20_000, seed=seed + 1)
    result.add_row("exact (ours)", placement.n_used_pms, stats["mean"],
                   stats["max"])
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_sbp.py
# --------------------------------------------------------------------- #
def run_sbp_comparison(n_vms=200, seeds=(70, 71, 72)):
    result = ExperimentResult(
        experiment_id="ablation_sbp",
        description="QUEUE vs normal-approximation stochastic bin packing",
        params={"n_vms": n_vms, "risk": 0.01, "repetitions": len(seeds)},
        headers=["pattern", "strategy", "PMs_used", "mean_CVR", "max_CVR"],
    )
    for pattern in ("equal", "large"):
        agg = {name: {"pms": [], "mean": [], "max": []}
               for name in ("QUEUE", "SBP")}
        for seed in seeds:
            vms, pms = generate_pattern_instance(pattern, n_vms, seed=seed)
            strategies = {
                "QUEUE": QueuingFFD(rho=0.01, d=16),
                "SBP": StochasticBinPacker(epsilon=0.01, max_vms_per_pm=16),
            }
            for name, placer in strategies.items():
                placement = placer.place(vms, pms)
                stats = evaluate_placement_cvr(placement, vms, pms,
                                               n_steps=15_000, seed=seed + 100)
                agg[name]["pms"].append(placement.n_used_pms)
                agg[name]["mean"].append(stats["mean"])
                agg[name]["max"].append(stats["max"])
        label = {"equal": "Rb=Re", "large": "Rb<Re"}[pattern]
        for name in ("QUEUE", "SBP"):
            result.add_row(label, name,
                           float(np.mean(agg[name]["pms"])),
                           float(np.mean(agg[name]["mean"])),
                           float(np.mean(agg[name]["max"])))
    return result


# --------------------------------------------------------------------- #
# from bench_ablation_switch_sweep.py
# --------------------------------------------------------------------- #
SWEEP_K, SWEEP_RHO = 16, 0.01


def run_switch_sweep():
    result = ExperimentResult(
        experiment_id="ablation_switch_sweep",
        description="Blocks and episode length vs spike frequency/duration",
        params={"k": SWEEP_K, "rho": SWEEP_RHO},
        headers=["p_on", "p_off", "on_fraction", "blocks_K",
                 "mean_violation_episode"],
    )
    for p_on, p_off in [
        (0.005, 0.045), (0.01, 0.09), (0.02, 0.18), (0.05, 0.45),   # q = 0.1
        (0.01, 0.04), (0.01, 0.19),                                  # vary q
        (0.05, 0.05), (0.002, 0.198),                                # q = .5 / .01
    ]:
        q = p_on / (p_on + p_off)
        blocks = mapcal(SWEEP_K, p_on, p_off, SWEEP_RHO)
        episode = expected_violation_episode_length(SWEEP_K, p_on, p_off, blocks)
        result.add_row(p_on, p_off, q, blocks, episode)
    return result


#: registry of every ablation study: id -> (runner, one-line description)
ABLATIONS = {
    "ablation_clustering": (
        run_clustering_ablation,
        "R_e clustering: binning vs k-means vs none",
    ),
    "ablation_rho_sweep": (
        run_rho_sweep,
        "QUEUE packing density and CVR vs the threshold rho",
    ),
    "ablation_sbp": (
        run_sbp_comparison,
        "QUEUE vs normal-approximation stochastic bin packing",
    ),
    "ablation_policies": (
        run_policy_ablation,
        "Scheduler target selection: unaware vs reservation-aware",
    ),
    "ablation_rounding": (
        run_rounding_ablation,
        "Heterogeneous (p_on, p_off): rounding rules vs the exact variant",
    ),
    "ablation_optimality": (
        run_optimality_gap,
        "FFD vs exact branch-and-bound optimum",
    ),
    "ablation_reconsolidation": (
        run_reconsolidation_ablation,
        "Periodic global re-plan vs purely reactive scheduling",
    ),
    "ablation_elasticity": (
        run_elasticity_ablation,
        "Admission vs performance under VM arrivals (rho sweep)",
    ),
    "ablation_reservation_shape": (
        run_reservation_shape,
        "Paper blocks vs exact blocks vs blockless quantile",
    ),
    "ablation_model_mismatch": (
        run_model_mismatch,
        "Two-level fit of multi-magnitude workloads: CVR impact",
    ),
    "ablation_switch_sweep": (
        run_switch_sweep,
        "Spike frequency/duration sensitivity of blocks and episodes",
    ),
    "ablation_estimators": (
        run_estimator_ablation,
        "Threshold vs Baum-Welch estimation under measurement noise",
    ),
    "ablation_resilience": (
        run_resilience,
        "PM crash injection: evacuation success per strategy",
    ),
    "ablation_migration_cost": (
        run_migration_cost,
        "Migration events priced as downtime and CPU overhead",
    ),
}


# --------------------------------------------------------------------- #
# diurnal (time-varying spike rate) sizing study
# --------------------------------------------------------------------- #
def run_diurnal_ablation(n_vms=150, n_steps=40_000, seed=180):
    """QUEUE sized at the mean vs the peak-hour spike rate under a diurnal
    schedule: per-phase CVR shows where average sizing breaks."""
    from repro.workload.diurnal import (
        STANDARD_DAY,
        effective_q,
        ensemble_states_diurnal,
        phase_cvr,
    )
    from repro.workload.onoff_generator import demand_trace, pm_load_trace

    result = ExperimentResult(
        experiment_id="ablation_diurnal",
        description="Sizing point under a diurnal spike-rate schedule",
        params={"n_vms": n_vms, "n_steps": n_steps, "rho": 0.01,
                "schedule": "STANDARD_DAY (0.2x..3x)"},
        headers=["sizing", "PMs_used", "overall_CVR",
                 "quiet_CVR(0.2x)", "busy_CVR(3x)"],
    )
    vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
    states = ensemble_states_diurnal(vms, STANDARD_DAY, n_steps,
                                     seed=seed + 1)
    demands = demand_trace(vms, states[:, 1:])
    caps = np.array([p.capacity for p in pms])

    q_ref = effective_q(vms[0], STANDARD_DAY)
    for label in ("mean", "peak"):
        # Re-express the sizing point as an equivalent homogeneous p_on so
        # the unmodified QueuingFFD machinery can be used.
        q = q_ref[label]
        p_on_equiv = q * vms[0].p_off / (1.0 - q)
        sized_vms = [
            VMSpec(min(p_on_equiv, 0.99), v.p_off, v.r_base, v.r_extra)
            for v in vms
        ]
        placement = QueuingFFD(rho=0.01, d=16).place(sized_vms, pms)
        loads = pm_load_trace(placement, demands)
        used = placement.used_pms()
        by_phase = phase_cvr(loads[used], caps[used], STANDARD_DAY)
        overall = float((loads[used] > caps[used][:, None] + 1e-9).mean())
        result.add_row(f"{label}-hour q", placement.n_used_pms, overall,
                       by_phase.get(0.2, 0.0), by_phase.get(3.0, 0.0))
    return result


ABLATIONS["ablation_diurnal"] = (
    run_diurnal_ablation,
    "Diurnal schedules: sizing at the mean vs the peak hour",
)


# --------------------------------------------------------------------- #
# fairness of violation suffering
# --------------------------------------------------------------------- #
def run_fairness_ablation(n_vms=100, n_intervals=300, seeds=(190, 191, 192)):
    """Who absorbs the violations?  Per-VM suffering fairness on spare-free
    fleets.  Measured shape: RB's suffering is *ubiquitous* — so many PMs
    violate that nearly every VM shares it (high Jain index), at ~10,000x
    QUEUE's total; QUEUE's negligible total concentrates on the tenants of
    the one-in-twenty PM whose CVR sits slightly above rho (lower Jain,
    tiny total).  Fairness indices must be read alongside magnitude."""
    from repro.analysis.fairness import fairness_report
    from repro.core.types import Placement

    result = ExperimentResult(
        experiment_id="ablation_fairness",
        description="Per-VM violation suffering: totals and fairness indices",
        params={"n_vms": n_vms, "n_intervals": n_intervals,
                "repetitions": len(seeds), "fleet": "spare-free"},
        headers=["strategy", "total_suffering_avg", "jain_avg", "gini_avg",
                 "max_share_avg"],
    )
    strategies = {
        "QUEUE": lambda: QueuingFFD(rho=0.01, d=16),
        "RB": lambda: ffd_by_base(max_vms_per_pm=16),
    }
    for name, factory in strategies.items():
        totals, jains, ginis, shares = [], [], [], []
        for seed in seeds:
            vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
            placement = factory().place(vms, pms)
            m = int(placement.used_pms().max()) + 1
            placement = Placement(len(vms), m,
                                  assignment=placement.assignment)
            sim = run_simulation(vms, pms[:m], placement,
                                 n_intervals=n_intervals, seed=seed + 900)
            report = fairness_report(sim.record.vm_suffering_fraction())
            totals.append(report["total"])
            jains.append(report["jain"])
            ginis.append(report["gini"])
            shares.append(report["max_share"])
        result.add_row(name, float(np.mean(totals)), float(np.mean(jains)),
                       float(np.mean(ginis)), float(np.mean(shares)))
    return result


ABLATIONS["ablation_fairness"] = (
    run_fairness_ablation,
    "Per-VM violation-suffering fairness (Jain/Gini) per strategy",
)


# --------------------------------------------------------------------- #
# fault domains: correlated rack outages vs packing density
# --------------------------------------------------------------------- #
def run_faultdomain_ablation(n_vms=100, n_intervals=200, rack_size=2,
                             spread_cap=8, seeds=(210, 211, 212)):
    """Correlated rack outages: availability and blast radius per strategy.

    Each strategy gets a fleet sized to its own packing plus one spare
    rack (rounded up to whole racks), wired into racks of ``rack_size``
    PMs that fail together — so spare headroom is equally scarce for
    dense and loose packers alike.  QUEUE is run twice — unconstrained
    and with a :class:`DomainSpreadConstraint` of ``spread_cap`` VMs per
    rack — to price the density/blast-radius trade: the spread variant
    uses more PMs but caps how many VMs one rack outage can take down at
    once."""
    from repro.placement.base import InsufficientCapacityError
    from repro.placement.spread import DomainSpreadConstraint
    from repro.simulation.scenario import Scenario
    from repro.simulation.topology import Topology

    result = ExperimentResult(
        experiment_id="ablation_faultdomains",
        description="Rack-correlated failures: availability vs packing density",
        params={"n_vms": n_vms, "n_intervals": n_intervals,
                "rack_size": rack_size, "spread_cap": spread_cap,
                "p_fail": 0.002, "p_domain_fail": 0.01,
                "repetitions": len(seeds)},
        headers=["strategy", "initial_pms_avg", "mean_avail", "min_avail",
                 "mttr_avg", "blast_max_avg", "degraded_vmi_avg",
                 "stranded_vmi_avg"],
    )
    failure_kwargs = {"failure_probability": 0.002,
                      "repair_probability": 0.2,
                      "domain_failure_probability": 0.01,
                      "domain_repair_probability": 0.2}

    factories = {
        "QUEUE": lambda topo: QueuingFFD(rho=0.01, d=16),
        "QUEUE+spread": lambda topo: QueuingFFD(
            rho=0.01, d=16,
            spread=DomainSpreadConstraint(topo, spread_cap)),
        "RP": lambda topo: ffd_by_peak(max_vms_per_pm=16),
        "RB": lambda topo: ffd_by_base(max_vms_per_pm=16),
    }

    def racks_for(n):
        """Smallest whole-rack fleet size covering ``n`` PMs + 1 spare rack."""
        return (-(-n // rack_size) + 1) * rack_size

    rows: dict[str, list[list[float]]] = {}
    for seed in seeds:
        vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
        for name, make in factories.items():
            # Size each strategy's fleet to its own packing plus one spare
            # rack so headroom is equally scarce across strategies.  The
            # spread cap can force extra PMs beyond the unconstrained
            # packing; grow rack by rack until the placement fits.
            probe_topo = Topology.racks(len(pms), rack_size)
            m = racks_for(make(probe_topo).place(vms, pms).n_used_pms)
            while True:
                topology = Topology.racks(m, rack_size)
                try:
                    report = Scenario(
                        vms, pms[:m], placer=make(topology),
                        topology=topology, failures=failure_kwargs,
                    ).run(n_intervals, seed=seed + 500)
                    break
                except InsufficientCapacityError:
                    m += rack_size
            avail = report.availability
            rows.setdefault(name, []).append([
                float(report.initial_pms_used),
                avail["mean_availability"],
                avail["min_availability"],
                avail["mttr_intervals"],
                avail["blast_max"],
                float(report.failures.degraded_vm_intervals),
                float(report.failures.stranded_vm_intervals),
            ])
    for name, samples in rows.items():
        result.add_row(name, *[float(np.mean(col))
                               for col in zip(*samples)])
    return result


ABLATIONS["ablation_faultdomains"] = (
    run_faultdomain_ablation,
    "Correlated rack outages: availability vs packing density",
)


# imported late: autopilot_ablation pulls in the full simulation stack
from repro.experiments.autopilot_ablation import run_autopilot_ablation  # noqa: E402

ABLATIONS["ablation_autopilot"] = (
    run_autopilot_ablation,
    "Regime shift: autopilot vs oracle refit vs never adapting",
)


# --------------------------------------------------------------------- #
# request-level serving: consolidation strategy x load-leveling tier
# --------------------------------------------------------------------- #
def run_serving_ablation(n_vms=40, n_intervals=150, seed=7):
    """Consolidation strategies scored on what the user feels.

    Runs the same fleet under QUEUE (the paper's QueuingFFD), FFD-by-base
    and FFD-by-peak placements, each with and without the queue-based
    load-leveling tier, and reports the request-level outcomes alongside
    the paper's CVR: latency percentiles, loss rate, and the empirical
    ``P(T_S > t)`` SLA tail (see ``docs/SERVING.md``).

    Migration uses the paper's tolerant sliding-window CVR trigger (not
    instant overflow repair) so placements that rely on repair carry
    their residual violations into the serving plane — that is the
    consolidation-to-latency coupling the ablation measures.
    """
    from repro.simulation.scenario import Scenario
    from repro.simulation.triggers import SlidingWindowCVRTrigger

    sla_t = Scenario.SERVING_DEFAULTS["sla_t"]
    result = ExperimentResult(
        experiment_id="ablation_serving",
        description="Request-level serving: placement x load-leveling tier",
        params={"n_vms": n_vms, "n_intervals": n_intervals, "seed": seed,
                "sla_t": sla_t},
        headers=["strategy", "PMs_used", "mean_CVR", "p50", "p95", "p99",
                 "loss_rate", "P(T>t)"],
    )
    vms, pms = generate_pattern_instance("equal", n_vms, seed=seed)
    strategies = {
        "QUEUE": QueuingFFD(rho=0.01, d=16),
        "FFD-base": ffd_by_base(max_vms_per_pm=16),
        "FFD-peak": ffd_by_peak(max_vms_per_pm=16),
    }
    for name, placer in strategies.items():
        for tier in (False, True):
            report = Scenario(
                vms, pms, placer=placer, serving={"tier": tier},
                trigger=SlidingWindowCVRTrigger(len(pms), rho=0.05),
            ).run(n_intervals, seed=seed)
            serving = report.serving
            result.add_row(
                name + ("+tier" if tier else ""),
                report.final_pms_used,
                report.mean_cvr,
                serving.p50,
                serving.p95,
                serving.p99,
                serving.loss_rate,
                serving.sla_violation_fraction,
            )
    return result


ABLATIONS["ablation_serving"] = (
    run_serving_ablation,
    "Request-level serving: latency/loss per placement, with/without tier",
)


# imported late: the service tier pulls in WAL/pool/breaker machinery
from repro.experiments.service_ablation import run_service_ablation  # noqa: E402

ABLATIONS["ablation_service"] = (
    run_service_ablation,
    "Placement service: GRAND vs QueuingFFD under sustained load, "
    "elastic pool, fluid-limit bound",
)

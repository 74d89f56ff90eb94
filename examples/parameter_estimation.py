"""Scenario: consolidating from raw monitoring traces.

The paper assumes each VM's four-tuple (p_on, p_off, R_b, R_e) is known.  In
an operating cloud you only have monitoring traces.  This example closes the
loop:

1. generate "monitoring data" for a heterogeneous fleet (ground truth known
   only to the generator);
2. fit the ON-OFF model to each trace (two-means level split + Markov-chain
   MLE for the switch probabilities);
3. consolidate with the exact Poisson-binomial variant (no parameter
   rounding needed);
4. verify on fresh workload that the CVR bound survives estimation error.

Run:  python examples/parameter_estimation.py
"""

import numpy as np

from repro.analysis.cvr import evaluate_placement_cvr
from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.viz.ascii_charts import sparkline
from repro.workload.estimation import fit_fleet
from repro.workload.onoff_generator import demand_trace, ensemble_states

RHO = 0.01
N_VMS = 80
OBSERVATION_INTERVALS = 20_000  # ~1 week at sigma = 30 s


def ground_truth_fleet(seed: int) -> list[VMSpec]:
    rng = np.random.default_rng(seed)
    return [
        VMSpec(
            p_on=float(rng.uniform(0.005, 0.03)),
            p_off=float(rng.uniform(0.05, 0.15)),
            r_base=float(rng.uniform(4, 18)),
            r_extra=float(rng.uniform(4, 18)),
        )
        for _ in range(N_VMS)
    ]


def main() -> None:
    truth = ground_truth_fleet(seed=17)

    # 1. "Monitoring": demand samples with measurement noise.
    states = ensemble_states(truth, OBSERVATION_INTERVALS,
                             start_stationary=True, seed=18)
    traces = demand_trace(truth, states)
    traces = traces + np.random.default_rng(19).normal(0, 0.3, traces.shape)
    print("one VM's observed demand (first 120 intervals):")
    print("  " + sparkline(traces[0][:120]))

    # 2. Fit the four-tuple per VM.
    fits = fit_fleet(traces)
    p_on_err = np.mean([abs(f.p_on - v.p_on) / v.p_on
                        for f, v in zip(fits, truth)])
    base_err = np.mean([abs(f.r_base - v.r_base) for f, v in zip(fits, truth)])
    print(f"\nfit quality over {N_VMS} VMs: mean |p_on| error "
          f"{100 * p_on_err:.0f}%, mean R_b error {base_err:.2f} units, "
          f"mean transitions observed "
          f"{np.mean([f.n_transitions for f in fits]):.0f}")

    # 3. Consolidate on the *fitted* specs; margin the demand levels by the
    #    90th percentile of each regime to absorb estimation noise.
    margin_specs = [f.to_vmspec()
                    for f in fit_fleet(traces, percentile_margin=0.9)]
    pms = [PMSpec(100.0) for _ in range(N_VMS)]
    placer = HeterogeneousQueuingFFD(rho=RHO, d=16)
    placement = placer.place(margin_specs, pms)
    print(f"\nconsolidated onto {placement.n_used_pms} PMs "
          f"(peak provisioning would need "
          f"{int(np.ceil(sum(v.r_peak for v in truth) / 100.0))}+)")

    # 4. Verify against the TRUE workload on a fresh seed.
    stats = evaluate_placement_cvr(placement, truth, pms,
                                   n_steps=40_000, seed=20)
    print(f"verification on fresh ground-truth workload: "
          f"mean CVR {stats['mean']:.4f}, max {stats['max']:.4f} "
          f"(bound rho = {RHO})")
    verdict = "holds" if stats["mean"] <= RHO * 1.5 else "VIOLATED"
    print(f"-> the CVR guarantee {verdict} despite parameters being estimated.")


if __name__ == "__main__":
    main()

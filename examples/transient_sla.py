"""Scenario: quoting operational SLAs from the transient analysis.

The paper's rho bounds the *long-run* violation fraction.  An operator also
wants transient answers right after a consolidation event:

1. how quickly does the violation probability ramp up from the all-OFF
   start (is the steady-state CVR already the right number an hour in)?
2. how long, in expectation, until a freshly consolidated PM suffers its
   first violation?
3. once a violation starts, how long does the episode last (this is where
   spike *duration* matters even though it never moves the stationary CVR)?

All three come from the same busy-block chain MapCal builds — no simulation
required (we simulate anyway, to show the curves agree).

Run:  python examples/transient_sla.py
"""

import numpy as np

from repro.core.mapcal import mapcal
from repro.core.types import VMSpec
from repro.queueing.transient import (
    expected_time_to_violation,
    expected_violation_episode_length,
    violation_probability_curve,
)
from repro.viz.ascii_charts import line_chart
from repro.workload.onoff_generator import ensemble_states

K_VMS = 16          # VMs on the PM
RHO = 0.01
P_ON = 0.01
SIGMA_SECONDS = 30  # one interval


def main() -> None:
    blocks = mapcal(K_VMS, P_ON, 0.09, RHO)
    print(f"PM with {K_VMS} VMs, rho = {RHO}: MapCal reserves {blocks} blocks.\n")

    # 1. Violation-probability ramp from the all-OFF start.
    horizon = 120
    curve = violation_probability_curve(K_VMS, P_ON, 0.09, blocks, horizon)
    n_pops, steps = 3000, horizon
    vms = [VMSpec(P_ON, 0.09, 0.0, 1.0)] * (K_VMS * n_pops)
    states = ensemble_states(vms, steps, seed=1)
    busy = states.reshape(n_pops, K_VMS, steps + 1).sum(axis=1)
    empirical = (busy > blocks).mean(axis=0)
    print(line_chart(
        {"analytic": curve.tolist(), "empirical": empirical.tolist()},
        height=8, width=60,
        title=f"P[violation] after consolidation (reaches {curve[-1]:.4f})",
    ))
    settle = int(np.argmax(curve >= 0.95 * curve[-1]))
    print(f"\nThe ramp settles within ~{settle} intervals "
          f"({settle * SIGMA_SECONDS / 60:.0f} minutes): after that, quoting "
          f"the stationary CVR is honest.\n")

    # 2. Expected time to the first violation.
    ttv = expected_time_to_violation(K_VMS, P_ON, 0.09, blocks)
    print(f"Expected time to first violation: {ttv:,.0f} intervals "
          f"(~{ttv * SIGMA_SECONDS / 3600:.1f} hours).")

    # 3. Episode length vs spike duration (same stationary CVR!).
    print("\nEpisode length depends on spike duration, CVR does not:")
    print(f"{'mean spike (intervals)':>23s} {'blocks':>6s} "
          f"{'CVR bound':>9s} {'mean episode':>12s} {'time-to-violation':>18s}")
    for mean_burst in (2, 11.1, 50):
        p_off = 1.0 / mean_burst
        p_on = p_off / 9.0  # hold q = 0.1
        k_blocks = mapcal(K_VMS, p_on, p_off, RHO)
        episode = expected_violation_episode_length(K_VMS, p_on, p_off, k_blocks)
        t_first = expected_time_to_violation(K_VMS, p_on, p_off, k_blocks)
        print(f"{mean_burst:23.1f} {k_blocks:6d} {RHO:9.3f} "
              f"{episode:12.2f} {t_first:18,.0f}")
    print("\n-> long spikes concentrate the same violation budget into "
          "fewer, longer episodes; short spikes spread it into frequent "
          "blips. An SLA about *outage duration* needs the episode column, "
          "not just rho.")


if __name__ == "__main__":
    main()

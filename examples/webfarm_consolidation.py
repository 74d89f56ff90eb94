"""Scenario: consolidating a bursty web-server farm with live migration.

This is the paper's Section V-D setting end-to-end: a farm of web-server VMs
whose user populations surge aperiodically (flash crowds), consolidated with
three strategies and then run for 100 scheduling intervals under a dynamic
scheduler that migrates VMs off overloaded hosts.  We report the paper's two
runtime metrics (migrations = performance, final PMs = energy) plus a
watt-level energy estimate from the linear power model.

Run:  python examples/webfarm_consolidation.py
"""

from repro import QueuingFFD, RBExPlacer, ffd_by_base
from repro.markov.onoff import OnOffChain
from repro.simulation.energy import EnergyModel
from repro.simulation.scheduler import run_simulation
from repro.workload.patterns import make_pms, table_i_vms
from repro.workload.webserver import WebServerWorkload

N_VMS = 120
N_INTERVALS = 100       # the paper's 100 sigma evaluation period
INTERVAL_SECONDS = 30.0  # sigma


def main() -> None:
    # 1. Peek at one web server's request trace (the paper's Fig. 8).
    chain = OnOffChain(p_on=0.01, p_off=0.09)
    workload = WebServerWorkload(chain, normal_users=400, peak_users=1200,
                                 interval=INTERVAL_SECONDS)
    states, requests = workload.generate(60, seed=1)
    spikes = int(states.sum())
    print(f"sample web server: {spikes}/60 intervals spiking, request rate "
          f"{requests[states == 0].mean():.0f}/interval normal vs "
          f"{requests[states == 1].mean():.0f}/interval in flash crowd"
          if spikes else
          f"sample web server: no spike in 60 intervals "
          f"(expected every ~{1/0.01:.0f})")

    # 2. A 120-VM farm drawn from the paper's Table I specs (Rb=Re pattern).
    vms = table_i_vms("equal", N_VMS, seed=11)
    pms = make_pms(N_VMS, seed=11)

    strategies = {
        "QUEUE": QueuingFFD(rho=0.01, d=16),
        "RB": ffd_by_base(max_vms_per_pm=16),
        "RB-EX": RBExPlacer(delta=0.3, max_vms_per_pm=16),
    }

    # 3. Place and run each strategy on identical workload randomness.
    energy_model = EnergyModel(idle_power=150.0, peak_power=300.0)
    print(f"\n{'strategy':8s} {'initial PMs':>11s} {'migrations':>10s} "
          f"{'final PMs':>9s} {'energy kWh':>10s} {'worst CVR':>9s}")
    for name, placer in strategies.items():
        placement = placer.place(vms, pms)
        sim = run_simulation(vms, pms, placement,
                             n_intervals=N_INTERVALS, seed=99)
        kwh = energy_model.run_energy(
            sim.record.pms_used_series, interval_seconds=INTERVAL_SECONDS
        ) / 3.6e6
        worst_cvr = float(sim.record.cvr_per_pm().max())
        print(f"{name:8s} {sim.initial_pms_used:11d} {sim.total_migrations:10d} "
              f"{sim.final_pms_used:9d} {kwh:10.2f} {worst_cvr:9.3f}")

    print("\nReading the table: RB packs tightest but thrashes with migrations "
          "(each one risks downtime for the VM and CPU overhead for both "
          "hosts); QUEUE pays a few extra PMs up front and the farm then "
          "runs essentially migration-free.")


if __name__ == "__main__":
    main()

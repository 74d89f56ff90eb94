"""End-to-end integration tests: the paper's central claims, verified.

These cross module boundaries — analytic MapCal guarantees against
simulated workloads, full placement pipelines against the runtime
scheduler — and assert the *shapes* the paper reports.
"""

import numpy as np
import pytest

from repro.analysis.cvr import cvr_per_pm, evaluate_placement_cvr
from repro.core.mapcal import mapcal
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import VMSpec
from repro.placement.ffd import ffd_by_base, ffd_by_peak
from repro.placement.rbex import RBExPlacer
from repro.simulation.scheduler import run_simulation
from repro.workload.onoff_generator import ensemble_states
from repro.workload.patterns import generate_pattern_instance, make_pms, table_i_vms
from tests.helpers import place_with_states

RHO, D = 0.01, 16


class TestCvrGuarantee:
    """The paper's core claim: QUEUE placements keep CVR <= rho."""

    @pytest.mark.parametrize("pattern", ["equal", "small", "large"])
    def test_mean_cvr_bounded(self, pattern):
        vms, pms = generate_pattern_instance(pattern, 120, seed=10)
        placement = QueuingFFD(rho=RHO, d=D).place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms,
                                       n_steps=40_000, seed=11)
        # Mean over PMs must be within statistical noise of rho; the paper
        # itself admits "very few PMs with CVRs slightly higher than rho".
        assert stats["mean"] <= RHO * 1.3
        per_pm = stats["per_pm"]
        assert (per_pm > 2.5 * RHO).mean() < 0.1

    def test_analytic_equals_empirical_per_pm(self):
        """For a PM with known hosted set, the analytic overflow probability
        matches the simulated CVR."""
        from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK

        vms, pms = generate_pattern_instance("equal", 100, seed=12)
        placer = QueuingFFD(rho=RHO, d=D)
        placement, states_list = place_with_states(placer, vms, pms)
        mapping = placer.mapping_for(vms)
        sim_states = ensemble_states(vms, 60_000, start_stationary=True, seed=13)
        cvrs = cvr_per_pm(placement, vms, pms, sim_states)
        checked = 0
        for pm_idx, state in enumerate(states_list):
            k = state.count
            if k < 3:
                continue
            model = FiniteSourceGeomGeomK(k, 0.01, 0.09)
            # The PM violates when > K' VMs spike, where K' is the number of
            # blocks that physically fit: depends on capacity headroom. With
            # Eq. 17 satisfied, at least mapping[k] blocks fit, so the CVR is
            # at most the analytic tail at mapping[k].
            bound = model.overflow_probability(mapping.blocks_for(k))
            assert cvrs[pm_idx] <= max(2.0 * bound, 0.02) + 0.01
            checked += 1
        assert checked > 0


class TestPackingShapes:
    def test_paper_reduction_ordering(self):
        """Abstract: ~45% reduction (large spikes) > ~30% (normal) > (small)."""
        reductions = {}
        for pattern in ("equal", "small", "large"):
            vals = []
            for seed in (20, 21, 22):
                vms, pms = generate_pattern_instance(pattern, 200, seed=seed)
                queue = QueuingFFD(rho=RHO, d=D).place(vms, pms)
                rp = ffd_by_peak(max_vms_per_pm=D).place(vms, pms)
                vals.append(100 * (rp.n_used_pms - queue.n_used_pms) / rp.n_used_pms)
            reductions[pattern] = np.mean(vals)
        assert reductions["large"] > reductions["equal"] > reductions["small"]
        assert reductions["large"] > 35.0   # paper: up to 45%
        assert 15.0 < reductions["equal"] < 40.0  # paper: ~30%

    def test_queue_between_rb_and_rp(self):
        vms, pms = generate_pattern_instance("equal", 300, seed=23)
        queue = QueuingFFD(rho=RHO, d=D).place(vms, pms)
        rb = ffd_by_base(max_vms_per_pm=D).place(vms, pms)
        rp = ffd_by_peak(max_vms_per_pm=D).place(vms, pms)
        assert rb.n_used_pms < queue.n_used_pms < rp.n_used_pms


class TestRuntimeShapes:
    """Fig. 9/10 shapes under the live-migration scheduler."""

    @pytest.fixture(scope="class")
    def runtime_results(self):
        results = {}
        vms = table_i_vms("equal", 100, seed=30)
        pms = make_pms(100, seed=30)
        strategies = {
            "QUEUE": QueuingFFD(rho=RHO, d=D),
            "RB": ffd_by_base(max_vms_per_pm=D),
            "RB-EX": RBExPlacer(0.3, max_vms_per_pm=D),
        }
        for name, placer in strategies.items():
            placement = placer.place(vms, pms)
            results[name] = run_simulation(vms, pms, placement,
                                           n_intervals=100, seed=31)
        return results

    def test_queue_rarely_migrates(self, runtime_results):
        assert runtime_results["QUEUE"].total_migrations <= 3

    def test_rb_migrates_an_order_more(self, runtime_results):
        assert runtime_results["RB"].total_migrations >= (
            5 * max(runtime_results["QUEUE"].total_migrations, 1)
        )

    def test_rbex_between(self, runtime_results):
        rb = runtime_results["RB"].total_migrations
        rbex = runtime_results["RB-EX"].total_migrations
        assert rbex <= rb

    def test_rb_pm_count_grows_from_tight_start(self, runtime_results):
        series = runtime_results["RB"].record.pms_used_series
        assert series[-1] >= series[0]

    def test_queue_pm_count_stable(self, runtime_results):
        series = runtime_results["QUEUE"].record.pms_used_series
        assert series.max() - series.min() <= 1

    def test_rb_final_pms_not_more_than_queue(self, runtime_results):
        # Paper Fig. 9(b): RB commonly uses fewer PMs at the end (cycle
        # migration keeps its count low).
        assert (runtime_results["RB"].final_pms_used
                <= runtime_results["QUEUE"].final_pms_used + 1)


class TestMapcalSimulationAgreement:
    @pytest.mark.parametrize("k,rho", [(6, 0.05), (10, 0.01), (16, 0.02)])
    def test_blocks_bound_simulated_violations(self, k, rho):
        K = mapcal(k, 0.01, 0.09, rho)
        states = ensemble_states([VMSpec(0.01, 0.09, 1.0, 1.0)] * k, 200_000,
                                 start_stationary=True, seed=k)
        violation = float((states.sum(axis=0) > K).mean())
        assert violation <= rho * 1.5 + 0.002

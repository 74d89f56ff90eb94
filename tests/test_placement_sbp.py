"""Tests for repro.placement.sbp — stochastic bin packing baseline."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import ffd_by_base, ffd_by_peak
from repro.placement.sbp import StochasticBinPacker
from tests.helpers import check_placement_complete

P_ON, P_OFF = 0.01, 0.09  # q = 0.1


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestEffectiveSize:
    def test_mean_var_formulas(self):
        sbp = StochasticBinPacker(epsilon=0.01)
        mu, var = sbp.effective_mean_var(vm(10.0, 20.0))
        q = 0.1
        assert mu == pytest.approx(10.0 + q * 20.0)
        assert var == pytest.approx(q * (1 - q) * 400.0)

    def test_no_spike_no_variance(self):
        sbp = StochasticBinPacker()
        mu, var = sbp.effective_mean_var(vm(10.0, 0.0))
        assert (mu, var) == (10.0, 0.0)

    def test_z_score(self):
        sbp = StochasticBinPacker(epsilon=0.05)
        assert sbp.z_score == pytest.approx(float(norm.ppf(0.95)))


class TestPlacement:
    def test_between_rb_and_rp(self, medium_instance):
        """SBP packs tighter than peak provisioning, looser than base."""
        vms, pms = medium_instance
        sbp = StochasticBinPacker(epsilon=0.01, max_vms_per_pm=16).place(vms, pms)
        rp = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        assert rb.n_used_pms <= sbp.n_used_pms <= rp.n_used_pms

    def test_complete(self, medium_instance):
        vms, pms = medium_instance
        placement = StochasticBinPacker(max_vms_per_pm=16).place(vms, pms)
        check_placement_complete(placement)

    def test_tighter_epsilon_uses_more_pms(self, medium_instance):
        vms, pms = medium_instance
        loose = StochasticBinPacker(epsilon=0.2, max_vms_per_pm=16).place(vms, pms)
        tight = StochasticBinPacker(epsilon=0.001, max_vms_per_pm=16).place(vms, pms)
        assert tight.n_used_pms >= loose.n_used_pms

    def test_aggregate_gaussian_bound_respected(self, medium_instance):
        vms, pms = medium_instance
        sbp = StochasticBinPacker(epsilon=0.01, max_vms_per_pm=16)
        placement = sbp.place(vms, pms)
        stats = np.array([sbp.effective_mean_var(v) for v in vms])
        for pm_idx in placement.used_pms():
            hosted = placement.vms_on(int(pm_idx))
            mu = stats[hosted, 0].sum()
            sd = np.sqrt(stats[hosted, 1].sum())
            assert mu + sbp.z_score * sd <= pms[int(pm_idx)].capacity + 1e-6

    def test_lone_vm_peak_must_fit(self):
        # Even if the effective size fits, a VM whose peak exceeds every
        # capacity is rejected (physical impossibility).
        big = vm(1.0, 200.0)
        with pytest.raises(InsufficientCapacityError):
            StochasticBinPacker(epsilon=0.4).place([big], [PMSpec(100.0)])

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            StochasticBinPacker(epsilon=0.0)
        with pytest.raises(ValueError):
            StochasticBinPacker(epsilon=1.0)

    def test_empty(self):
        placement = StochasticBinPacker().place([], [PMSpec(10.0)])
        assert placement.n_vms == 0

"""Tests for repro.core.mapcal — Algorithm 1."""

import numpy as np
import pytest

from repro.core.mapcal import BlockMapping, mapcal, mapcal_table
from repro.core.types import VMSpec
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from repro.workload.onoff_generator import ensemble_states

P_ON, P_OFF, RHO = 0.01, 0.09, 0.01


class TestMapcal:
    def test_k_zero(self):
        assert mapcal(0, P_ON, P_OFF, RHO) == 0

    def test_k_one_low_on_probability(self):
        # One VM is ON 10% of the time > rho=1%, so it needs its own block.
        assert mapcal(1, P_ON, P_OFF, RHO) == 1

    def test_k_one_loose_rho(self):
        # If rho exceeds the ON fraction, no block is needed.
        assert mapcal(1, P_ON, P_OFF, 0.2) == 0

    def test_returned_k_satisfies_bound(self):
        for k in (2, 5, 9, 16):
            K = mapcal(k, P_ON, P_OFF, RHO)
            model = FiniteSourceGeomGeomK(k, P_ON, P_OFF)
            assert model.overflow_probability(K) <= RHO + 1e-12

    def test_returned_k_is_minimal(self):
        for k in (2, 5, 9, 16):
            K = mapcal(k, P_ON, P_OFF, RHO)
            if K > 0:
                model = FiniteSourceGeomGeomK(k, P_ON, P_OFF)
                assert model.overflow_probability(K - 1) > RHO - 1e-12

    def test_monotone_in_k(self):
        Ks = [mapcal(k, P_ON, P_OFF, RHO) for k in range(1, 25)]
        assert all(a <= b for a, b in zip(Ks, Ks[1:]))

    def test_sublinear_growth(self):
        # Statistical multiplexing: K(16) is far below 16.
        assert mapcal(16, P_ON, P_OFF, RHO) <= 6

    def test_monotone_in_rho(self):
        Ks = [mapcal(12, P_ON, P_OFF, rho) for rho in (0.5, 0.1, 0.01, 0.001)]
        assert Ks == sorted(Ks)

    def test_never_exceeds_k(self):
        for k in range(1, 20):
            assert 0 <= mapcal(k, P_ON, P_OFF, 1e-12) <= k

    def test_higher_on_fraction_needs_more_blocks(self):
        low = mapcal(16, 0.01, 0.09, RHO)   # 10% ON
        high = mapcal(16, 0.05, 0.05, RHO)  # 50% ON
        assert high > low

    @pytest.mark.parametrize("method", ["linear", "power", "eig"])
    def test_solver_methods_agree(self, method):
        assert mapcal(10, P_ON, P_OFF, RHO, method=method) == mapcal(
            10, P_ON, P_OFF, RHO, method="linear"
        )

    def test_agrees_with_simulation(self):
        """The reserved K truly bounds the simulated violation fraction."""
        k = 8
        K = mapcal(k, P_ON, P_OFF, RHO)
        states = ensemble_states([VMSpec(P_ON, P_OFF, 1.0, 1.0)] * k, 300_000,
                                 start_stationary=True, seed=3)
        busy = states.sum(axis=0)
        violation_fraction = float((busy > K).mean())
        # Statistical tolerance: a couple of standard errors above rho.
        assert violation_fraction <= RHO * 1.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mapcal(-1, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapcal(3, P_ON, P_OFF, 1.5)


class TestMapcalTable:
    def test_table_matches_pointwise(self):
        mapping = mapcal_table(10, P_ON, P_OFF, RHO)
        for k in range(11):
            assert mapping.blocks_for(k) == mapcal(k, P_ON, P_OFF, RHO)

    def test_zero_entry(self):
        assert mapcal_table(4, P_ON, P_OFF, RHO).blocks_for(0) == 0

    def test_getitem(self):
        mapping = mapcal_table(6, P_ON, P_OFF, RHO)
        assert mapping[4] == mapping.blocks_for(4)

    def test_d_property(self):
        assert mapcal_table(7, P_ON, P_OFF, RHO).d == 7

    def test_out_of_range_k(self):
        mapping = mapcal_table(5, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapping.blocks_for(6)
        with pytest.raises(ValueError):
            mapping.blocks_for(-1)

    def test_table_immutable(self):
        mapping = mapcal_table(4, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapping.table[2] = 99

    def test_blockmapping_from_array(self):
        m = BlockMapping(p_on=0.1, p_off=0.2, rho=0.05,
                         table=np.array([0, 1, 1, 2]))
        assert m.d == 3 and m[3] == 2

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            mapcal_table(0, P_ON, P_OFF, RHO)

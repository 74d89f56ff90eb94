"""Tests for repro.simulation.topology — fault-domain maps."""

import numpy as np
import pytest

from repro.simulation.topology import Topology
from tests.helpers import single_domain, striped, vm_domain_counts


class TestConstruction:
    def test_racks_contiguous(self):
        topo = Topology.racks(6, 2)
        assert topo.n_pms == 6
        assert topo.n_domains == 3
        np.testing.assert_array_equal(topo.domain_of, [0, 0, 1, 1, 2, 2])

    def test_racks_ragged_tail(self):
        topo = Topology.racks(5, 2)
        assert topo.n_domains == 3
        np.testing.assert_array_equal(topo.domain_of, [0, 0, 1, 1, 2])

    def test_striped_round_robin(self):
        topo = striped(6, 2)
        np.testing.assert_array_equal(topo.domain_of, [0, 1, 0, 1, 0, 1])

    def test_striped_rejects_empty_domains(self):
        with pytest.raises(ValueError, match="empty domains"):
            striped(3, 5)

    def test_single_domain(self):
        topo = single_domain(4)
        assert topo.n_domains == 1
        assert list(topo.pms_in(0)) == [0, 1, 2, 3]

    def test_rejects_non_contiguous_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            Topology([0, 2, 2])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            Topology([0, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Topology([])

    def test_domain_of_is_immutable(self):
        topo = Topology.racks(4, 2)
        with pytest.raises(ValueError):
            topo.domain_of[0] = 1


class TestQueries:
    def test_pms_in(self):
        topo = Topology.racks(6, 3)
        np.testing.assert_array_equal(topo.pms_in(1), [3, 4, 5])

    def test_pms_in_validates_domain(self):
        topo = Topology.racks(4, 2)
        with pytest.raises(ValueError):
            topo.pms_in(2)

    def test_vm_domain_counts(self):
        topo = Topology.racks(4, 2)
        assignment = np.array([0, 1, 3, 3, -1])  # one unplaced VM
        np.testing.assert_array_equal(vm_domain_counts(topo, assignment), [2, 2])

    def test_vm_domain_counts_rejects_unknown_pm(self):
        topo = Topology.racks(4, 2)
        with pytest.raises(ValueError, match="outside the topology"):
            vm_domain_counts(topo, np.array([0, 4]))

"""Tests for the placement checkers in tests/helpers.py."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from tests.helpers import (
    check_capacity_at_base,
    check_capacity_at_peak,
    check_placement_complete,
    max_vms_on_any_pm,
)

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra=0.0):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestChecks:
    def test_complete_passes(self):
        p = Placement(2, 1, assignment=np.array([0, 0]))
        check_placement_complete(p)

    def test_incomplete_fails_with_indices(self):
        p = Placement(3, 1, assignment=np.array([0, -1, -1]))
        with pytest.raises(AssertionError, match=r"\[1, 2\]"):
            check_placement_complete(p)

    def test_base_capacity_ok(self):
        p = Placement(2, 1, assignment=np.array([0, 0]))
        check_capacity_at_base(p, [vm(5), vm(5)], [PMSpec(10.0)])

    def test_base_capacity_violation(self):
        p = Placement(2, 1, assignment=np.array([0, 0]))
        with pytest.raises(AssertionError, match="base demand"):
            check_capacity_at_base(p, [vm(6), vm(5)], [PMSpec(10.0)])

    def test_peak_capacity(self):
        p = Placement(2, 1, assignment=np.array([0, 0]))
        check_capacity_at_peak(p, [vm(3, 2), vm(3, 2)], [PMSpec(10.0)])
        with pytest.raises(AssertionError, match="peak demand"):
            check_capacity_at_peak(p, [vm(3, 3), vm(3, 2)], [PMSpec(10.0)])

    def test_unplaced_vms_ignored_in_aggregates(self):
        p = Placement(2, 1, assignment=np.array([0, -1]))
        check_capacity_at_base(p, [vm(10), vm(100)], [PMSpec(10.0)])

    def test_max_vms_on_any_pm(self):
        p = Placement(4, 3, assignment=np.array([0, 0, 0, 2]))
        assert max_vms_on_any_pm(p) == 3

    def test_max_vms_empty_placement(self):
        assert max_vms_on_any_pm(Placement(3, 2)) == 0

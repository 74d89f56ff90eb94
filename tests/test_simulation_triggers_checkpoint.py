"""Capture/restore parity for every MigrationTrigger implementation.

The scheduler snapshots its trigger inside ``capture_state()``; a restored
run must make byte-identical decisions, so each trigger's window/counter
state has to roundtrip exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation import Scenario, canonical_state_bytes
from repro.simulation.datacenter import Datacenter
from repro.simulation.triggers import OverflowTrigger, SlidingWindowCVRTrigger
from tests.helpers import set_on


def _dc(seed=0):
    vms = [VMSpec(0.01, 0.09, 40.0, 30.0), VMSpec(0.01, 0.09, 40.0, 30.0)]
    pms = [PMSpec(90.0), PMSpec(90.0)]
    placement = Placement(2, 2, assignment=np.array([0, 0]))
    return Datacenter(vms, pms, placement, seed=seed)


def _force_spike(dc, vm_ids):
    for v in vm_ids:
        set_on(dc, v, True)


def _roundtrip(state: dict) -> dict:
    """A checkpoint state must survive JSON serialization unchanged."""
    return json.loads(json.dumps(state))


class TestOverflowTriggerParity:
    def test_capture_is_empty_and_restore_is_noop(self):
        trigger = OverflowTrigger()
        assert trigger.capture_state() == {}
        trigger.restore_state(_roundtrip(trigger.capture_state()))
        assert trigger.should_migrate(0)


class TestSlidingWindowParity:
    def test_restored_window_reproduces_decisions(self):
        dc = _dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.2, window=6)
        _force_spike(dc, [0, 1])
        for t in range(4):
            trigger.observe(dc, t)
        state = _roundtrip(trigger.capture_state())

        clone = SlidingWindowCVRTrigger(2, rho=0.2, window=6)
        clone.restore_state(state)
        for pm in range(2):
            assert clone.windowed_cvr(pm) == trigger.windowed_cvr(pm)
            assert clone.should_migrate(pm) == trigger.should_migrate(pm)
        # and the cursors stay aligned after further observations
        calm = _dc()
        trigger.observe(calm, 4)
        clone.observe(calm, 4)
        assert clone.capture_state() == trigger.capture_state()

    def test_restore_validates_window_shape(self):
        trigger = SlidingWindowCVRTrigger(2, rho=0.2, window=6)
        state = trigger.capture_state()
        wrong = SlidingWindowCVRTrigger(2, rho=0.2, window=5)
        with pytest.raises(ValueError, match="shape"):
            wrong.restore_state(state)

    def test_partial_window_filled_count_roundtrips(self):
        dc = _dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.5, window=10)
        trigger.observe(dc, 0)
        state = _roundtrip(trigger.capture_state())
        assert state["filled"] == 1
        clone = SlidingWindowCVRTrigger(2, rho=0.5, window=10)
        clone.restore_state(state)
        assert clone._filled == 1 and clone._cursor == 1


class TestScenarioTriggerParity:
    """Split-run == straight-run with a windowed trigger in the loop."""

    def _scenario(self):
        vms = [VMSpec(0.2, 0.3, 10.0, 40.0) for _ in range(8)]
        pms = [PMSpec(60.0) for _ in range(4)]
        return Scenario(
            vms, pms, placer=QueuingFFD(rho=0.4, d=16),
            trigger=SlidingWindowCVRTrigger(4, rho=0.05, window=12),
            reconsolidation={"period": 25},
        )

    def test_split_run_matches_straight_run(self):
        straight = self._scenario().start(seed=11)
        straight.advance(60)
        expected = canonical_state_bytes(straight.capture_state())
        straight.close()

        split = self._scenario().start(seed=11)
        split.advance(30)
        state = json.loads(json.dumps(split.capture_state()))
        split.close()
        resumed = self._scenario().start(seed=0, _placement=None)
        resumed.restore_state(state)
        resumed.advance(30)
        assert canonical_state_bytes(resumed.capture_state()) == expected
        resumed.close()

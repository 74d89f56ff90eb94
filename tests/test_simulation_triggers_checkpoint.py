"""Capture/restore parity for every MigrationTrigger implementation.

The scheduler snapshots its trigger inside ``capture_state()``; a restored
run must make byte-identical decisions, so each trigger's window/counter
state has to roundtrip exactly — including an AlertReactiveTrigger frozen
mid-alert with escalations on the books.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation import Scenario, canonical_state_bytes
from repro.simulation.datacenter import Datacenter
from repro.simulation.triggers import (
    AlertReactiveTrigger,
    OverflowTrigger,
    SlidingWindowCVRTrigger,
)


def _dc(seed=0):
    vms = [VMSpec(0.01, 0.09, 40.0, 30.0), VMSpec(0.01, 0.09, 40.0, 30.0)]
    pms = [PMSpec(90.0), PMSpec(90.0)]
    placement = Placement(2, 2, assignment=np.array([0, 0]))
    return Datacenter(vms, pms, placement, seed=seed)


def _force_spike(dc, vm_ids):
    for v in vm_ids:
        dc.set_on(v, True)


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


class TestAlertReactiveParity:
    def test_mid_alert_escalations_and_base_roundtrip(self):
        alert = {"on": True}
        dc = _dc()
        base = SlidingWindowCVRTrigger(2, rho=0.9, window=8)
        trigger = AlertReactiveTrigger(base, lambda: alert["on"])
        for t in range(3):
            trigger.observe(dc, t)
        _force_spike(dc, [0, 1])
        trigger.observe(dc, 3)
        # windowed CVR = 1/4 <= rho: the base tolerates, the alert escalates
        assert not base.should_migrate(0)
        assert trigger.should_migrate(0)
        assert trigger.escalations == 1
        state = _roundtrip(trigger.capture_state())
        assert state["escalations"] == 1
        assert state["base"] is not None

        clone_alert = {"on": True}
        clone = AlertReactiveTrigger(
            SlidingWindowCVRTrigger(2, rho=0.9, window=8),
            lambda: clone_alert["on"])
        clone.restore_state(state)
        assert clone.escalations == 1
        assert clone.base.capture_state() == base.capture_state()
        # after the alert clears, both defer to the (restored) base
        alert["on"] = clone_alert["on"] = False
        assert clone.should_migrate(0) == trigger.should_migrate(0)

    def test_stateless_base_is_recorded_as_none(self):
        class Bare:
            def observe(self, dc, time):
                pass

            def should_migrate(self, pm_id):
                return False

        trigger = AlertReactiveTrigger(Bare(), lambda: False)
        state = trigger.capture_state()
        assert state["base"] is None
        trigger.restore_state(_roundtrip(state))
        assert trigger.escalations == 0


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

"""Elastic PM pool: hysteresis, two-phase scale-down, the retire guard."""

import pytest

from repro.service.pool import (
    ACTIVE,
    DRAINING,
    RETIRED,
    STANDBY,
    ElasticPMPool,
    PoolGuardError,
)


def pool(**kwargs):
    defaults = dict(initial_active=4, low_watermark=1, high_watermark=2,
                    patience=3, drain_ticks=2)
    defaults.update(kwargs)
    return ElasticPMPool(6, **defaults)


def run_policy(p, empty):
    """One service evaluation: propose, apply, advance the clocks."""
    actions = p.evaluate(empty)
    for action, pm in actions:
        p.apply(action, pm, pm_empty=pm in set(empty))
    p.tick(empty)
    return actions


class TestLifecycle:
    def test_initial_split(self):
        p = pool()
        assert p.counts() == {ACTIVE: 4, STANDBY: 2, DRAINING: 0, RETIRED: 0}
        assert p.active_indices() == [0, 1, 2, 3]

    def test_scale_up_wakes_standby_when_reserve_dry(self):
        p = pool()
        # no empty active PMs -> below low watermark -> wake a standby
        assert run_policy(p, empty=[]) == [("up", 4)]
        assert p.status[4] == ACTIVE

    def test_scale_down_needs_patience(self):
        p = pool()  # patience=3: two over-watermark ticks are not enough
        for _ in range(2):
            assert run_policy(p, empty=[0, 1, 2, 3]) == []
        assert run_policy(p, empty=[0, 1, 2, 3]) == [("down_prepare", 3)]
        assert p.status[3] == DRAINING
        assert 3 not in p.active_indices()  # drains take no admissions

    def test_drain_commits_only_after_drain_ticks(self):
        p = pool(patience=1, drain_ticks=2)
        run_policy(p, empty=[0, 1, 2, 3])      # prepares PM 3
        # reserve back at the watermark while the drain ages
        assert run_policy(p, empty=[0, 1, 3]) == []  # age 1 < 2
        actions = run_policy(p, empty=[0, 1, 3])
        assert ("down_commit", 3) in actions
        assert p.status[3] == RETIRED

    def test_pressure_aborts_the_drain_instead_of_waking_standby(self):
        p = pool(patience=1)
        run_policy(p, empty=[0, 1, 2, 3])  # prepares PM 3
        assert p.status[3] == DRAINING
        actions = run_policy(p, empty=[])  # reserve dry while draining
        assert actions == [("down_abort", 3)]
        assert p.status[3] == ACTIVE
        assert p._drain_age == {}

    def test_pressure_never_aborts_the_drain_it_retires(self):
        # the aged drain's PM is empty and commits; with the reserve dry the
        # pressure wakes a standby instead of aborting that retired PM
        p = pool(patience=1, drain_ticks=1)
        run_policy(p, empty=[0, 1, 2, 3])  # prepares PM 3
        assert run_policy(p, empty=[3]) == [("down_commit", 3), ("up", 4)]
        assert p.status[3] == RETIRED and p.status[4] == ACTIVE

    def test_retirement_is_terminal(self):
        p = pool(patience=1, drain_ticks=1)
        run_policy(p, empty=[0, 1, 2, 3])
        run_policy(p, empty=[0, 1, 3])
        assert p.status[3] == RETIRED
        # pressure wakes the remaining standby machines, never the retiree
        for _ in range(4):
            for action, pm in run_policy(p, empty=[]):
                assert (action, p.status[pm]) == ("up", ACTIVE)
        assert p.status[3] == RETIRED


class TestGuard:
    def test_never_retires_a_pm_hosting_vms(self):
        p = pool()
        p.apply("down_prepare", 3)
        with pytest.raises(PoolGuardError, match="still hosts VMs"):
            p.apply("down_commit", 3, pm_empty=False)
        assert p.status[3] == DRAINING  # unchanged; decision can roll back

    def test_lifecycle_order_is_enforced(self):
        p = pool()
        with pytest.raises(PoolGuardError):
            p.apply("up", 0)            # already active
        with pytest.raises(PoolGuardError):
            p.apply("down_commit", 0)   # active, never prepared
        with pytest.raises(PoolGuardError):
            p.apply("down_abort", 0)    # nothing to abort
        with pytest.raises(PoolGuardError):
            p.apply("down_prepare", 4)  # standby cannot drain

    def test_unknown_action_and_bad_index(self):
        p = pool()
        with pytest.raises(ValueError):
            p.apply("sideways", 0)
        with pytest.raises(ValueError):
            p.apply("up", 99)


class TestDurability:
    def test_capture_restore_round_trips_clocks(self):
        p = pool(patience=5)
        run_policy(p, empty=[0, 1, 2, 3])  # accumulates over_ticks
        p.apply("down_prepare", 3)
        p.tick([0, 1, 2])
        snapshot = p.capture_state()
        fresh = pool(patience=5)
        fresh.restore_state(snapshot)
        assert fresh.status == p.status
        assert fresh._over_ticks == p._over_ticks
        assert fresh._drain_age == p._drain_age
        assert fresh.capture_state() == snapshot

    def test_restore_rejects_wrong_fleet_size(self):
        snapshot = pool().capture_state()
        with pytest.raises(ValueError):
            ElasticPMPool(3).restore_state(snapshot)

    def test_restore_rejects_unknown_status(self):
        snapshot = pool().capture_state()
        snapshot["status"][0] = "melted"
        with pytest.raises(ValueError):
            pool().restore_state(snapshot)


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            ElasticPMPool(0)
        with pytest.raises(ValueError):
            ElasticPMPool(4, initial_active=5)
        with pytest.raises(ValueError):
            ElasticPMPool(4, low_watermark=3, high_watermark=1)
        with pytest.raises(ValueError):
            ElasticPMPool(4, patience=0)

"""Load-leveling tier failure paths: back pressure, retries → DLQ, resume."""

from __future__ import annotations

import pytest

from repro.serving import LoadLevelingTier


def drain_all(tier: LoadLevelingTier, headroom: int = 10**6):
    return tier.drain([headroom] * tier.n_vms)


class TestBackPressure:
    def test_full_buffer_rejects_anonymous_batches(self):
        tier = LoadLevelingTier(2, buffer_size=10)
        assert tier.accept(0, 0, 7) == 7
        assert tier.accept(1, 0, 7) == 3  # only 3 slots left
        assert tier.depth == 10
        assert tier.rejected == 4
        assert tier.accept(0, 1, 1) == 0

    def test_full_buffer_rejects_until_drained(self):
        tier = LoadLevelingTier(1, buffer_size=1)
        assert tier.accept(0, 0, 1) == 1
        assert tier.accept(0, 0, 1) == 0
        assert tier.rejected == 1
        # a rejected request holds no slot: once the buffer drains, the
        # producer's retry is accepted
        drain_all(tier)
        assert tier.accept(0, 1, 1) == 1
        assert tier.accepted == 2

    def test_no_headroom_burns_attempts_then_dlq(self):
        tier = LoadLevelingTier(1, buffer_size=10, max_attempts=3)
        tier.accept(0, 0, 4)
        for _ in range(2):
            assert tier.drain([0]) == [[]]
            assert tier.dlq == []
        # third failed delivery attempt dead-letters the batch
        tier.drain([0])
        assert tier.dlq == [[0, 4, 3]]
        assert tier.dlq_requests == 4
        assert tier.depth == 0


class TestPartialDelivery:
    def test_partial_delivery_is_not_a_failed_attempt(self):
        tier = LoadLevelingTier(1, drain_rate=3, max_attempts=2)
        tier.accept(0, 0, 10)
        for _ in range(3):
            out = tier.drain([100])
            assert out == [[(0, 3)]]
            # the partially-delivered head batch must not burn attempts
            assert tier.dlq == []
        out = tier.drain([100])
        assert out == [[(0, 1)]]
        assert tier.depth == 0
        assert tier.delivered == 10


def build_mid_queue() -> LoadLevelingTier:
    """A tier with partial, retried and dead-lettered batches in flight."""
    tier = LoadLevelingTier(3, buffer_size=50, drain_rate=4, max_attempts=2)
    tier.accept(0, 0, 9)
    tier.accept(1, 0, 2)
    tier.accept(2, 0, 5)
    tier.drain([2, 5, 0])
    tier.accept(0, 1, 3)
    tier.accept(2, 1, 1)
    tier.drain([0, 5, 0])  # VM 2's first batch is out of attempts
    tier.accept(1, 2, 6)
    return tier


class TestCheckpoint:
    def test_mid_queue_resume_is_bit_identical(self):
        reference = build_mid_queue()
        assert reference.dlq and reference.depth
        snap = reference.capture_state()

        resumed = LoadLevelingTier(3, buffer_size=50, drain_rate=4,
                                   max_attempts=2)
        resumed.restore_state(snap)
        assert resumed.capture_state() == snap
        assert resumed.depth == reference.depth

        # advance both identically: states stay bit-identical
        for t in range(3, 7):
            a = reference.drain([3, 3, 1])
            b = resumed.drain([3, 3, 1])
            assert a == b
            assert reference.accept(t % 3, t, 2) == resumed.accept(t % 3, t, 2)
        assert resumed.capture_state() == reference.capture_state()

    def test_restores_the_keyed_entry_layout(self):
        """Snapshots whose entries carry a key and a poison flag, and which
        hold ``seen_keys``/``duplicates``, restore to the same tier."""
        reference = build_mid_queue()
        snap = reference.capture_state()
        old = dict(snap)
        old["pending"] = [[e + [None, False] for e in q]
                          for q in snap["pending"]]
        old["dlq"] = [e + [None, False] for e in snap["dlq"]]
        old["seen_keys"] = []
        old["duplicates"] = 0

        resumed = LoadLevelingTier(3, buffer_size=50, drain_rate=4,
                                   max_attempts=2)
        resumed.restore_state(old)
        assert resumed.capture_state() == snap
        for t in range(3, 7):
            assert reference.drain([3, 0, 2]) == resumed.drain([3, 0, 2])
            assert reference.accept(2, t, 4) == resumed.accept(2, t, 4)
        assert resumed.capture_state() == reference.capture_state()

    def test_restore_rejects_vm_count_mismatch(self):
        tier = LoadLevelingTier(2)
        snap = tier.capture_state()
        with pytest.raises(ValueError, match="routes"):
            LoadLevelingTier(3).restore_state(snap)


class TestValidation:
    def test_bad_vm_id(self):
        tier = LoadLevelingTier(2)
        with pytest.raises(ValueError, match="vm_id"):
            tier.accept(2, 0, 1)
        with pytest.raises(ValueError, match="vm_id"):
            tier.accept(-1, 0, 1)

    def test_bad_free_vector(self):
        tier = LoadLevelingTier(2)
        with pytest.raises(ValueError, match="routes"):
            tier.drain([1])

    def test_negative_count(self):
        tier = LoadLevelingTier(1)
        with pytest.raises(ValueError, match="count"):
            tier.accept(0, 0, -1)

"""Per-VM queues, the latency histogram, and the capacity rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    LatencyHistogram,
    QueueStore,
    VMQueue,
    service_capacity,
)
from tests.helpers import tail_probability


class TestLatencyHistogram:
    def test_empty_histogram(self):
        h = LatencyHistogram(16)
        assert h.total == 0
        assert h.percentile(0.5) != h.percentile(0.5)  # NaN
        assert h.mean != h.mean  # NaN
        assert tail_probability(h, 3) == 0.0

    def test_percentiles_are_exact_order_statistics(self):
        h = LatencyHistogram(16)
        for latency, n in ((1, 50), (2, 30), (5, 15), (9, 5)):
            h.record(latency, n)
        assert h.total == 100
        assert h.percentile(0.50) == 1.0
        assert h.percentile(0.80) == 2.0
        assert h.percentile(0.95) == 5.0
        assert h.percentile(0.99) == 9.0
        assert h.percentile(1.00) == 9.0

    def test_percentile_zero_is_the_smallest_recorded_sojourn(self):
        h = LatencyHistogram(16)
        h.record(5, 10)
        assert h.percentile(0.0) == 5.0
        h.record(3, 1)
        assert h.percentile(0.0) == 3.0

    def test_record_many_equals_pairwise_record(self):
        rng = np.random.default_rng(4)
        latencies = rng.integers(1, 20, size=200)
        counts = rng.integers(0, 6, size=200)
        bulk, loop = LatencyHistogram(8), LatencyHistogram(8)
        bulk.record_many(latencies, counts)
        for latency, n in zip(latencies.tolist(), counts.tolist()):
            loop.record(latency, n)
        assert bulk.overflow > 0
        assert bulk.capture_state() == loop.capture_state()

    def test_record_many_validation(self):
        h = LatencyHistogram(8)
        h.record_many(np.array([], dtype=np.int64), np.array([]))  # no-op
        assert h.total == 0
        with pytest.raises(ValueError, match="latency"):
            h.record_many(np.array([0, 2]), np.array([1, 1]))
        with pytest.raises(ValueError, match="counts"):
            h.record_many(np.array([1, 2]), np.array([1, -1]))
        with pytest.raises(ValueError, match="length"):
            h.record_many(np.array([1, 2]), np.array([1]))

    def test_tail_probability(self):
        h = LatencyHistogram(16)
        h.record(2, 90)
        h.record(10, 10)
        assert tail_probability(h, 2) == pytest.approx(0.10)
        assert tail_probability(h, 9) == pytest.approx(0.10)
        assert tail_probability(h, 10) == 0.0
        assert tail_probability(h, 0) == 1.0

    def test_mean_uses_unclamped_sum(self):
        h = LatencyHistogram(4)
        h.record(2, 1)
        h.record(100, 1)  # clamped into top bucket
        assert h.overflow == 1
        assert h.counts[4] == 1
        assert h.mean == pytest.approx(51.0)

    def test_record_validation(self):
        h = LatencyHistogram(4)
        with pytest.raises(ValueError, match="latency"):
            h.record(0)
        h.record(1, n=0)  # no-op
        assert h.total == 0

    def test_capture_restore_round_trip(self):
        h = LatencyHistogram(8)
        h.record(3, 7)
        h.record(20, 2)
        state = h.capture_state()
        h2 = LatencyHistogram(8)
        h2.restore_state(state)
        assert h2.capture_state() == state
        assert h2.mean == h.mean
        with pytest.raises(ValueError, match="max_latency"):
            LatencyHistogram(4).restore_state(state)


class TestVMQueue:
    def test_admit_blocks_at_capacity(self):
        q = VMQueue(10)
        assert q.admit(0, 7) == 7
        assert q.admit(0, 7) == 3  # only 3 slots left
        assert q.depth == 10
        assert q.free == 0
        assert q.admit(1, 5) == 0

    def test_fifo_service_and_sojourn(self):
        q = VMQueue(100)
        h = LatencyHistogram(16)
        q.admit(0, 5)
        q.admit(1, 5)
        served, slow = q.serve(2, 7, h, sla_t=2)
        assert served == 7
        # the 5 requests from t=0 have sojourn 3, the 2 from t=1 sojourn 2
        assert h.counts[3] == 5
        assert h.counts[2] == 2
        assert slow == 5  # sojourn 3 > sla_t 2
        assert q.depth == 3

    def test_same_interval_service_is_one_interval(self):
        q = VMQueue(10)
        h = LatencyHistogram(16)
        q.admit(4, 3)
        q.serve(4, 10, h, sla_t=8)
        assert h.counts[1] == 3

    def test_batches_merge_per_interval(self):
        q = VMQueue(100)
        q.admit(3, 2)
        q.admit(3, 2)
        assert len(q.batches) == 1
        q.admit(4, 1)
        assert len(q.batches) == 2

    def test_capture_restore(self):
        q = VMQueue(50)
        q.admit(0, 10)
        q.admit(2, 5)
        state = q.capture_state()
        q2 = VMQueue(50)
        q2.restore_state(state)
        assert q2.capture_state() == state
        assert q2.depth == 15
        with pytest.raises(ValueError, match="max_depth"):
            VMQueue(10).restore_state(state)
        bad = {"max_depth": 50, "batches": [[0, 60]]}
        with pytest.raises(ValueError, match="exceeds"):
            VMQueue(50).restore_state(bad)


class TestQueueStore:
    """One array store against one ``VMQueue`` per VM, operation by
    operation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_vmqueues_under_random_traffic(self, seed):
        rng = np.random.default_rng(seed)
        n, max_depth = 7, 40
        store = QueueStore(n, max_depth)
        queues = [VMQueue(max_depth) for _ in range(n)]
        h_store, h_queues = LatencyHistogram(6), LatencyHistogram(6)
        for t in range(120):
            caps = rng.integers(0, 16, size=n)
            served, slow = 0, 0
            for q, cap in zip(queues, caps.tolist()):
                done, late = q.serve(t, cap, h_queues, 3)
                served += done
                slow += late
            assert store.serve(t, caps, h_store, 3) == (served, slow)
            if t % 3 == 0:
                # older stamps, some equal to a tail batch (merge)
                deliveries = []
                for q in queues:
                    out, room = [], q.free
                    for _ in range(int(rng.integers(0, 3))):
                        c = min(int(rng.integers(1, 4)), room)
                        if c:
                            out.append((t - int(rng.integers(0, 2)), c))
                            room -= c
                    for a, c in out:
                        q.admit(a, c)
                    deliveries.append(out)
                store.deliver(deliveries)
            arrivals = rng.integers(0, 25, size=n)
            admitted = store.admit(t, arrivals)
            assert admitted.tolist() == [q.admit(t, int(a)) for q, a in
                                         zip(queues, arrivals.tolist())]
            assert store.capture_state() == [q.capture_state()
                                             for q in queues]
            assert store.depth.tolist() == [q.depth for q in queues]
        assert h_store.capture_state() == h_queues.capture_state()
        assert store.width <= 64  # max_depth rounded up to a power of 2

    def test_restores_vmqueue_snapshots(self):
        queues = [VMQueue(50) for _ in range(3)]
        queues[0].admit(0, 10)
        queues[0].admit(2, 5)
        queues[2].admit(1, 50)
        states = [q.capture_state() for q in queues]
        store = QueueStore(3, 50)
        store.restore_state(states)
        assert store.capture_state() == states
        assert store.depth.tolist() == [15, 0, 50]
        # a restored tail stamp still merges, like VMQueue.admit
        store.push(np.array([0]), np.array([2]), np.array([1]))
        queues[0].admit(2, 1)
        assert store.capture_state() == [q.capture_state() for q in queues]

    def test_restore_validation(self):
        state = VMQueue(50).capture_state()
        with pytest.raises(ValueError, match="max_depth"):
            QueueStore(1, 10).restore_state([state])
        with pytest.raises(ValueError, match="exceeds"):
            QueueStore(1, 50).restore_state(
                [{"max_depth": 50, "batches": [[0, 30], [1, 30]]}])
        with pytest.raises(ValueError, match="queues"):
            QueueStore(2, 50).restore_state([state])

    def test_width_doubles_only_when_a_vm_needs_a_slot(self):
        store = QueueStore(2, 100)
        width = QueueStore.INITIAL_WIDTH
        for t in range(width):
            store.admit(t, np.array([1, 1]))
        assert store.width == width
        store.admit(width, np.array([1, 0]))
        assert store.width == 2 * width
        assert store.length.tolist() == [width + 1, width]


class TestServiceCapacity:
    def test_nominal(self):
        assert service_capacity(120.0, violated=False, thrashing=False,
                                degraded_factor=0.7, thrash_factor=0.6) == 120

    def test_degradations_compose_multiplicatively(self):
        assert service_capacity(120.0, violated=True, thrashing=False,
                                degraded_factor=0.7, thrash_factor=0.6) == 84
        assert service_capacity(120.0, violated=False, thrashing=True,
                                degraded_factor=0.7, thrash_factor=0.6) == 72
        assert service_capacity(120.0, violated=True, thrashing=True,
                                degraded_factor=0.7, thrash_factor=0.6) == 50

    def test_floor_not_round(self):
        assert service_capacity(99.9, violated=False, thrashing=False,
                                degraded_factor=0.5, thrash_factor=0.5) == 99

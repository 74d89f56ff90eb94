"""Per-VM finite-capacity request queues and the latency histogram.

The request-level serving model (see ``docs/SERVING.md``) gives every VM a
finite-capacity FIFO: requests arrive per interval, wait in the queue, and
are served in batches of up to the VM's per-interval service capacity.  A
request that arrives when the queue is full is *lost* — the request-level
face of the paper's Geom/Geom/K blocking semantics
(:class:`repro.queueing.geom_geom_k.FiniteSourceGeomGeomK`).

Queued work is stored as ``[arrival_interval, count]`` batches, not
individual request objects, so per-interval cost is proportional to the
number of *intervals* with backlog rather than the number of requests —
and the state is exact integers, which is what makes the scalar and
vectorized tick paths agree bit-for-bit and checkpoints round-trip
losslessly.  The scalar tick keeps one :class:`VMQueue` per VM; the
vectorized tick keeps every VM's batches in one :class:`QueueStore` and
serves and admits the whole fleet with array operations.

End-to-end sojourn times (in intervals, arrival to completion inclusive)
are folded into a :class:`LatencyHistogram` — a bounded integer histogram
whose percentiles are *exact* order statistics over the recorded
completions, so p50/p95/p99 and the empirical ``P(T_S > t)`` SLA tail are
deterministic and replayable.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain

import numpy as np

from repro.utils.validation import check_integer

__all__ = ["LatencyHistogram", "QueueStore", "VMQueue", "queue_columns",
           "queue_snapshots", "service_capacity"]


class LatencyHistogram:
    """Bounded integer histogram of end-to-end sojourn times.

    Latencies are whole intervals, minimum 1 (a request served in its
    arrival interval took one interval).  Values above ``max_latency`` are
    clamped into the top bucket, so memory is bounded regardless of how
    pathological a run gets; the clamp count is visible via
    :attr:`overflow`.

    Parameters
    ----------
    max_latency:
        Largest distinguishable sojourn, in intervals.
    """

    __slots__ = ("max_latency", "counts", "total", "overflow", "_sum")

    def __init__(self, max_latency: int = 512):
        self.max_latency = check_integer(max_latency, "max_latency", minimum=1)
        #: ``counts[v]`` = completions with sojourn exactly ``v`` intervals
        self.counts = [0] * (self.max_latency + 1)
        self.total = 0
        #: completions clamped into the ``max_latency`` bucket
        self.overflow = 0
        self._sum = 0

    def record(self, latency: int, n: int = 1) -> None:
        """Record ``n`` completions with the given sojourn (>= 1)."""
        if latency < 1:
            raise ValueError(f"latency must be >= 1 interval, got {latency}")
        if n <= 0:
            return
        self._sum += latency * n
        if latency > self.max_latency:
            self.overflow += n
            latency = self.max_latency
        self.counts[latency] += n
        self.total += n

    def record_many(self, latencies: np.ndarray, counts: np.ndarray) -> None:
        """Record ``counts[j]`` completions with sojourn ``latencies[j]``.

        One vector update with the same result as calling :meth:`record`
        for every pair: ``total``, ``overflow`` and the unclamped sum stay
        exact integers.  Latencies must be >= 1 and counts >= 0.
        """
        lat = np.asarray(latencies, dtype=np.int64).ravel()
        n = np.asarray(counts, dtype=np.int64).ravel()
        if lat.shape != n.shape:
            raise ValueError(
                f"latencies and counts differ in length: {lat.size} vs "
                f"{n.size}")
        if not lat.size:
            return
        if lat.min() < 1:
            raise ValueError(
                f"latency must be >= 1 interval, got {int(lat.min())}")
        if n.min() < 0:
            raise ValueError(f"counts must be >= 0, got {int(n.min())}")
        top = self.max_latency
        self._sum += int(lat @ n)
        self.total += int(n.sum())
        # sojourns past max_latency land in bin top + 1 (the overflow) and
        # fold into the top bucket; per-bin sums stay far below 2**53, so
        # the float weights are exact
        binned = np.bincount(np.minimum(lat, top + 1), weights=n)
        if binned.size > top + 1:
            self.overflow += int(binned[top + 1])
        hist = self.counts
        nonzero = np.flatnonzero(binned)
        for v, c in zip(nonzero.tolist(), binned[nonzero].tolist()):
            hist[min(v, top)] += int(c)

    def percentile(self, q: float) -> float:
        """Exact ``q``-quantile of the recorded sojourns (``q`` in [0, 1]).

        Returns the smallest latency ``v`` whose cumulative count reaches
        ``q * total`` — the order statistic, not an interpolation — or NaN
        when nothing has completed yet.  ``q = 0`` gives the smallest
        recorded sojourn.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.total == 0:
            return float("nan")
        target = q * self.total
        cum = 0
        for v in range(1, self.max_latency + 1):
            cum += self.counts[v]
            if cum and cum >= target:
                return float(v)
        return float(self.max_latency)  # pragma: no cover - cum reaches total

    @property
    def mean(self) -> float:
        """Mean sojourn over all completions (NaN when empty).

        Uses the *unclamped* sum, so the mean stays honest even when some
        completions landed in the overflow bucket.
        """
        if self.total == 0:
            return float("nan")
        return self._sum / self.total

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot (counts stored sparsely)."""
        return {
            "max_latency": self.max_latency,
            "counts": {str(v): c for v, c in enumerate(self.counts) if c},
            "total": self.total,
            "overflow": self.overflow,
            "sum": self._sum,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite from a :meth:`capture_state` snapshot."""
        if int(state["max_latency"]) != self.max_latency:
            raise ValueError(
                f"checkpoint histogram has max_latency "
                f"{state['max_latency']} but this one has {self.max_latency}")
        self.counts = [0] * (self.max_latency + 1)
        for v, c in state["counts"].items():
            self.counts[int(v)] = int(c)
        self.total = int(state["total"])
        self.overflow = int(state["overflow"])
        self._sum = int(state["sum"])


class VMQueue:
    """One VM's finite-capacity FIFO of ``[arrival_interval, count]`` batches.

    Service order is strictly FIFO; within an interval the service
    discipline is *serve-then-admit*: up to ``capacity`` queued requests
    complete first, then new arrivals are admitted into the freed space.
    A request admitted at interval ``a`` and served at interval ``t`` has
    sojourn ``t - a + 1`` (same-interval service = 1 interval).
    """

    __slots__ = ("max_depth", "depth", "batches")

    def __init__(self, max_depth: int):
        self.max_depth = check_integer(max_depth, "max_depth", minimum=1)
        self.depth = 0
        self.batches: deque[list[int]] = deque()

    @property
    def free(self) -> int:
        """Admission slots left this instant."""
        return self.max_depth - self.depth

    def admit(self, t: int, count: int) -> int:
        """Admit up to ``count`` requests arriving at interval ``t``.

        Returns the number admitted; the caller accounts the rest as lost
        (blocking — the Geom/Geom/K "no free window" outcome).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        admitted = min(count, self.free)
        if admitted > 0:
            if self.batches and self.batches[-1][0] == t:
                self.batches[-1][1] += admitted
            else:
                self.batches.append([t, admitted])
            self.depth += admitted
        return admitted

    def serve(self, t: int, capacity: int, histogram: LatencyHistogram,
              sla_t: int) -> tuple[int, int]:
        """Serve up to ``capacity`` requests at interval ``t``.

        Pops FIFO batches, records each completion's sojourn in
        ``histogram``, and returns ``(completions, slow)`` where ``slow``
        counts completions with sojourn exceeding ``sla_t`` intervals.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        served = 0
        slow = 0
        budget = capacity
        while budget > 0 and self.batches:
            arrival, n = self.batches[0]
            take = n if n <= budget else budget
            latency = t - arrival + 1
            histogram.record(latency, take)
            if latency > sla_t:
                slow += take
            served += take
            budget -= take
            if take == n:
                self.batches.popleft()
            else:
                self.batches[0][1] = n - take
        self.depth -= served
        return served, slow

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of the pending batches."""
        return {
            "max_depth": self.max_depth,
            "batches": [[int(a), int(n)] for a, n in self.batches],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite from a :meth:`capture_state` snapshot."""
        if int(state["max_depth"]) != self.max_depth:
            raise ValueError(
                f"checkpoint queue has max_depth {state['max_depth']} but "
                f"this queue has {self.max_depth}")
        self.batches = deque([int(a), int(n)] for a, n in state["batches"])
        self.depth = sum(n for _, n in self.batches)
        if self.depth > self.max_depth:
            raise ValueError(
                f"checkpoint queue depth {self.depth} exceeds max_depth "
                f"{self.max_depth}")


class QueueStore:
    """Every VM's batch FIFO in one set of int64 arrays.

    Column ``i`` of :attr:`arrival` and :attr:`count` (shape
    ``[width, n_vms]``) holds VM ``i``'s pending ``(arrival_interval,
    count)`` batches in FIFO order from row 0; :attr:`length` counts them
    and :attr:`depth` sums their requests.  Rows at or past a VM's length
    hold non-negative leftovers that no operation reads as a batch.

    :meth:`serve` and :meth:`admit` act on the whole fleet at once and
    leave exactly the state, histogram and counts that one :class:`VMQueue`
    per VM would (the scalar reference).  The width doubles only when some
    VM needs one more slot; every batch holds at least one request, so it
    never exceeds ``max_depth`` rounded up to a power of two, however long
    the run.
    """

    __slots__ = ("n_vms", "max_depth", "arrival", "count", "length", "depth",
                 "_newest")

    #: batch slots per VM before the first doubling
    INITIAL_WIDTH = 8

    def __init__(self, n_vms: int, max_depth: int):
        self.n_vms = check_integer(n_vms, "n_vms", minimum=1)
        self.max_depth = check_integer(max_depth, "max_depth", minimum=1)
        shape = (self.INITIAL_WIDTH, n_vms)
        self.arrival = np.zeros(shape, dtype=np.int64)
        self.count = np.zeros(shape, dtype=np.int64)
        self.length = np.zeros(n_vms, dtype=np.int64)
        self.depth = np.zeros(n_vms, dtype=np.int64)
        #: newest arrival stamp ever stored: a push of strictly newer
        #: batches cannot merge into any tail, so it skips the check
        self._newest: int | None = None

    @property
    def width(self) -> int:
        """Batch slots per VM currently allocated."""
        return self.count.shape[0]

    def _fit(self, slots: int) -> None:
        """Double the width until ``slots`` batches fit in every column."""
        width = self.width
        if slots <= width:
            return
        while width < slots:
            width *= 2
        for name in ("arrival", "count"):
            old = getattr(self, name)
            grown = np.zeros((width, self.n_vms), dtype=np.int64)
            grown[:old.shape[0]] = old
            setattr(self, name, grown)

    def serve(self, t: int, caps: np.ndarray, histogram: LatencyHistogram,
              sla_t: int) -> tuple[int, int]:
        """Serve up to ``caps[i]`` requests of every VM ``i`` at interval ``t``.

        FIFO service of batches is a prefix sum: with ``cum`` the running
        request count down a VM's batches and ``served = min(cap, depth)``,
        batch ``k`` gives ``min(cum_k, served) - min(cum_{k-1}, served)``.
        Sojourns go to ``histogram`` in one :meth:`LatencyHistogram.
        record_many` call.  Returns ``(completions, slow)`` summed over the
        fleet, ``slow`` counting sojourns longer than ``sla_t``.
        """
        rows = int(self.length.max())
        if rows == 0:
            return 0, 0
        n_vms = self.n_vms
        count = self.count
        # one add per row: numpy's cumsum down axis 0 walks one column at
        # a time, several times slower for a few rows of many VMs
        cum = np.empty((rows, n_vms), dtype=np.int64)
        cum[0] = count[0]
        for r in range(1, rows):
            np.add(cum[r - 1], count[r], out=cum[r])
        # leftover rows past a VM's length hold non-negative counts, so
        # their cum is at least the VM's depth: they take nothing (and the
        # popped count below is clamped to the length)
        served = np.minimum(caps, self.depth)
        done = np.minimum(cum, served)
        take = np.empty_like(done)
        take[0] = done[0]
        np.subtract(done[1:], done[:-1], out=take[1:])
        # flat index r * n_vms + i is row r of VM i in take, cum and the
        # store's own arrays alike
        hit = np.flatnonzero(take > 0)
        n = take.ravel()[hit]
        latency = (t + 1) - self.arrival.ravel()[hit]
        histogram.record_many(latency, n)
        slow = int(n @ (latency > sla_t))

        # pop the fully served batches; the next one keeps the remainder
        popped = np.minimum((done == cum).sum(axis=0), self.length)
        self.length -= popped
        self.depth -= served
        left = np.flatnonzero(self.length)
        head = popped[left]
        flat_count = count.ravel()
        at = head * n_vms + left
        flat_count[at] = cum.ravel()[at] - served[left]
        moved = left[head > 0]
        if moved.size:
            flat_arrival = self.arrival.ravel()
            dst = (np.arange(int(self.length[moved].max()))[:, None] * n_vms
                   + moved)
            src = np.minimum(dst + popped[moved] * n_vms, flat_count.size - 1)
            flat_count[dst] = flat_count[src]
            flat_arrival[dst] = flat_arrival[src]
        return int(served.sum()), slow

    def _append(self, vms: np.ndarray, arrival, counts: np.ndarray) -> None:
        """Write one new tail batch for each VM of ``vms`` (distinct);
        the caller updates :attr:`depth`."""
        tail = self.length[vms]
        self._fit(int(tail.max()) + 1)
        at = tail * self.n_vms + vms
        self.arrival.ravel()[at] = arrival
        self.count.ravel()[at] = counts
        self.length[vms] = tail + 1

    def push(self, vms: np.ndarray, arrival: np.ndarray,
             counts: np.ndarray) -> None:
        """Append batch ``(arrival[j], counts[j])`` to VM ``vms[j]``.

        ``vms`` holds distinct indices and ``counts`` positive ones.  Like
        :meth:`VMQueue.admit`, a batch whose stamp equals its VM's tail
        batch merges into it.
        """
        if not vms.size:
            return
        self.depth[vms] += counts
        if self._newest is not None and arrival.min() <= self._newest:
            tail = self.length[vms]
            at = (tail - 1) * self.n_vms + vms
            merge = (tail > 0) & (self.arrival.ravel()[np.maximum(at, 0)]
                                  == arrival)
            if merge.any():
                self.count.ravel()[at[merge]] += counts[merge]
                keep = ~merge
                vms, arrival, counts = vms[keep], arrival[keep], counts[keep]
                if not vms.size:
                    return
        self._append(vms, arrival, counts)
        newest = int(arrival.max())
        if self._newest is None or newest > self._newest:
            self._newest = newest

    def admit(self, t: int, arrivals: np.ndarray) -> np.ndarray:
        """Admit ``arrivals[i]`` requests at interval ``t`` into every VM.

        Returns the admitted counts, ``min(arrivals, max_depth - depth)``;
        the caller accounts the rest as lost.  When ``t`` is newer than
        every stored stamp no batch can merge, so this writes one new
        batch per admitting VM.
        """
        admitted = np.minimum(arrivals, self.max_depth - self.depth)
        vms = np.flatnonzero(admitted)
        if self._newest is not None and t <= self._newest:
            self.push(vms, np.full(vms.size, t, dtype=np.int64),
                      admitted[vms])
        elif vms.size:
            self._append(vms, t, admitted[vms])
            self.depth += admitted
            self._newest = t
        return admitted

    def deliver(self, deliveries: list[list[tuple[int, int]]]) -> None:
        """Admit per-VM lists of ``(arrival, count)`` batches in FIFO order
        (the load-leveling tier's :meth:`drain` result)."""
        batches = [(i, rank, a, c) for i, out in enumerate(deliveries)
                   for rank, (a, c) in enumerate(out)]
        if not batches:
            return
        vms, ranks, arrivals, counts = np.array(batches, dtype=np.int64).T
        # each round appends at most one batch per VM, in FIFO order
        for rank in range(int(ranks.max()) + 1):
            sel = ranks == rank
            self.push(vms[sel], arrivals[sel], counts[sel])
        if (self.depth > self.max_depth).any():  # pragma: no cover - drain
            # is bounded by free space, so this cannot happen
            raise RuntimeError("tier overdelivered into a queue")

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> list[dict]:
        """Per-VM :meth:`VMQueue.capture_state` snapshots, same bytes."""
        rows = int(self.length.max())
        held = np.arange(rows) < self.length[:, None]
        return queue_snapshots({
            "max_depth": self.max_depth, "length": self.length,
            "arrival": self.arrival[:rows].T[held],
            "count": self.count[:rows].T[held]})

    def restore_state(self, states: list[dict] | dict) -> None:
        """Overwrite from per-VM snapshots or their :func:`queue_columns`,
        built from the flat columns in one pass."""
        cols = queue_columns(states) if isinstance(states, list) else states
        if len(cols["length"]) != self.n_vms:
            raise ValueError(
                f"checkpoint holds {len(cols['length'])} queues but this "
                f"store has {self.n_vms}")
        if int(cols["max_depth"]) != self.max_depth:
            raise ValueError(
                f"checkpoint queue has max_depth {cols['max_depth']} but "
                f"this queue has {self.max_depth}")
        length = np.array(cols["length"], dtype=np.int64)
        arrival = np.asarray(cols["arrival"], dtype=np.int64)
        count = np.asarray(cols["count"], dtype=np.int64)
        total = int(length.sum())
        ends = np.cumsum(length)
        starts = ends - length
        running = np.concatenate(([0], np.cumsum(count)))
        depth = running[ends] - running[starts]
        over = np.flatnonzero(depth > self.max_depth)
        if over.size:
            raise ValueError(
                f"checkpoint queue depth {int(depth[over[0]])} exceeds "
                f"max_depth {self.max_depth}")
        vms = np.repeat(np.arange(self.n_vms), length)
        slot = np.arange(total) - np.repeat(starts, length)
        self.arrival = np.zeros_like(self.arrival)
        self.count = np.zeros_like(self.count)
        self._fit(int(length.max()))
        self.arrival[slot, vms] = arrival
        self.count[slot, vms] = count
        self.length = length
        self.depth = depth
        self._newest = int(arrival.max()) if total else None


def queue_columns(states: list[dict]) -> dict:
    """Per-VM :meth:`VMQueue.capture_state` snapshots as flat columns.

    ``{"max_depth", "length", "arrival", "count"}``: the queues' one
    ``max_depth``, each VM's batch count, and every batch's arrival stamp
    and request count, VM by VM in FIFO order, as int lists.
    :func:`queue_snapshots` takes them back apart.
    """
    depths = {s["max_depth"] for s in states}
    if len(depths) != 1:
        raise ValueError(f"checkpoint queues must share one max_depth, got "
                         f"{sorted(depths)}")
    batches = [s["batches"] for s in states]
    flat = list(chain.from_iterable(batches))
    return {"max_depth": depths.pop(), "length": list(map(len, batches)),
            "arrival": [a for a, _ in flat], "count": [c for _, c in flat]}


def queue_snapshots(columns: dict) -> list[dict]:
    """The per-VM snapshots whose :func:`queue_columns` are ``columns``
    (lists or arrays)."""
    max_depth = int(columns["max_depth"])
    pairs = list(map(list, zip(np.asarray(columns["arrival"]).tolist(),
                               np.asarray(columns["count"]).tolist())))
    ends = np.cumsum(columns["length"]).tolist()
    return [{"max_depth": max_depth, "batches": pairs[start:end]}
            for start, end in zip([0, *ends], ends)]


def service_capacity(service_rate: float, *, violated: bool, thrashing: bool,
                     degraded_factor: float, thrash_factor: float) -> int:
    """Effective integer service capacity of one VM for one interval.

    The nominal per-interval ``service_rate`` shrinks multiplicatively when
    the host PM is capacity-violated (the consolidation-to-latency coupling:
    a violated PM steals cycles from every hosted server) and when the VM's
    own queue has grown past its thrash threshold (overload collapse).  The
    float product is floored to an integer count; the same expression is
    evaluated per-VM by the scalar tick path and elementwise by the
    vectorized one, so both floor identical IEEE doubles.
    """
    factor = 1.0
    if violated:
        factor *= degraded_factor
    if thrashing:
        factor *= thrash_factor
    return int(math.floor(service_rate * factor))

"""The per-interval request-serving layer a scenario tick drives.

:class:`ServingLayer` owns the per-VM request queues, the fleet
:class:`~repro.serving.queue.LatencyHistogram`, optionally a
:class:`~repro.serving.leveling.LoadLevelingTier`, and the serving RNG
stream.  Each interval it:

1. draws per-VM request arrivals — Poisson with the VM's ON/OFF-dependent
   rate (``base_rate`` OFF, ``peak_rate`` ON), one vectorized draw per
   interval in *both* tick modes so the RNG stream position is identical;
2. computes each VM's effective service capacity
   (:func:`~repro.serving.queue.service_capacity`): the nominal rate,
   degraded while the host PM is capacity-violated and again while the
   VM's own queue is past its thrash threshold — the coupling that turns
   the paper's CVR into user-visible latency;
3. serves each queue FIFO (sojourns into the histogram), then delivers
   levelled work from the tier (tier mode) or admits the new arrivals
   directly (direct mode), accounting every lost request.

The ``vectorized`` mode keeps every VM's queue in one
:class:`~repro.serving.queue.QueueStore` and runs steps 1–3 as
whole-fleet array operations (the tier, when on, still drains per VM);
the ``scalar`` mode is the reference, with one
:class:`~repro.serving.queue.VMQueue` per VM and explicit per-VM Python
loops over the same IEEE arithmetic.  Queue bookkeeping is exact
integers either way, so the two modes agree **bit-for-bit** on queue
state, histogram, and every counter (asserted in
``tests/test_serving_scenario.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.leveling import LoadLevelingTier
from repro.serving.queue import (
    LatencyHistogram,
    QueueStore,
    VMQueue,
    queue_columns,
    queue_snapshots,
    service_capacity,
)
from repro.telemetry import ServingSnapshot, Telemetry, resolve
from repro.utils.rng import (
    SeedLike,
    as_generator,
    capture_rng_state,
    restore_rng_state,
)
from repro.utils.validation import check_integer, check_positive

__all__ = ["ServingLayer", "ServingReport", "SERVING_DEFAULTS"]

#: serving-dict defaults (also the JSON-checkpoint schema of the config;
#: mirrored by :attr:`repro.simulation.scenario.Scenario.SERVING_DEFAULTS`)
SERVING_DEFAULTS = {
    "base_rate": 60.0,
    "peak_rate": 180.0,
    "service_rate": 120.0,
    "max_depth": 600,
    "thrash_threshold": 240,
    "thrash_factor": 0.6,
    "degraded_factor": 0.7,
    "sla_t": 8,
    "max_latency": 512,
    "tier": False,
    "buffer_size": 20000,
    "drain_rate": 120,
    "max_attempts": 3,
}


@dataclass(frozen=True)
class ServingReport:
    """End-of-run summary of the request-serving plane.

    Latency figures are in intervals (multiply by the scenario's
    ``interval_seconds`` for wall time); percentiles are exact order
    statistics over every completion.
    """

    arrivals: int
    completions: int
    lost_queue: int
    lost_tier: int
    dlq: int
    slow: int
    backlog: int
    tier_backlog: int
    mean_latency: float
    p50: float
    p95: float
    p99: float
    #: the SLA threshold ``t`` (intervals) the tail was evaluated at
    sla_t: int
    #: empirical ``P(T_S > sla_t)`` over all completions
    sla_violation_fraction: float

    @property
    def lost(self) -> int:
        """Requests lost anywhere: full VM queue, full buffer, or DLQ."""
        return self.lost_queue + self.lost_tier + self.dlq

    @property
    def loss_rate(self) -> float:
        """Fraction of produced requests never served."""
        return self.lost / self.arrivals if self.arrivals else 0.0

    def summary(self) -> str:
        """One-line human-readable digest (for ``ScenarioReport.summary``)."""
        return (
            f"serving: {self.completions}/{self.arrivals} served, "
            f"loss {self.loss_rate:.4f}, latency p50/p95/p99 "
            f"{self.p50:.0f}/{self.p95:.0f}/{self.p99:.0f} intervals, "
            f"P(T>{self.sla_t}) {self.sla_violation_fraction:.4f}"
        )


class ServingLayer:
    """Request-level serving state for a whole fleet.

    Parameters
    ----------
    n_vms:
        Fleet size.
    seed:
        The serving RNG stream (the 4th child the scenario spawns).
    mode:
        ``"vectorized"`` or ``"scalar"`` — mirrors the scenario's
        ``tick_mode``; both consume randomness identically.
    base_rate, peak_rate:
        Mean request arrivals per interval while the VM is OFF / ON.
    service_rate:
        Nominal requests served per VM per interval.
    max_depth:
        Per-VM queue capacity; arrivals beyond it are lost.
    thrash_threshold, thrash_factor:
        Queue depth beyond which the server collapses to
        ``service_rate * thrash_factor`` (overload thrashing).
    degraded_factor:
        Service multiplier while the host PM is capacity-violated.
    sla_t:
        SLA latency threshold in intervals (for ``P(T_S > t)``).
    max_latency:
        Histogram bound (see :class:`LatencyHistogram`).
    tier:
        Enable the load-leveling buffer between producers and VM queues.
    buffer_size, drain_rate, max_attempts:
        Tier knobs (see :class:`LoadLevelingTier`); ignored when ``tier``
        is off.
    telemetry:
        Optional telemetry context for per-interval
        :class:`~repro.telemetry.ServingSnapshot` events.
    """

    def __init__(self, n_vms: int, *, seed: SeedLike = None,
                 mode: str = "vectorized",
                 base_rate: float = 60.0, peak_rate: float = 180.0,
                 service_rate: float = 120.0, max_depth: int = 600,
                 thrash_threshold: int = 240, thrash_factor: float = 0.6,
                 degraded_factor: float = 0.7, sla_t: int = 8,
                 max_latency: int = 512, tier: bool = False,
                 buffer_size: int = 20000, drain_rate: int = 120,
                 max_attempts: int = 3,
                 telemetry: Telemetry | None = None):
        self.n_vms = check_integer(n_vms, "n_vms", minimum=1)
        if mode not in ("vectorized", "scalar"):
            raise ValueError(
                f"mode must be 'vectorized' or 'scalar', got {mode!r}")
        self.mode = mode
        check_positive(peak_rate, "peak_rate")
        check_positive(service_rate, "service_rate")
        if base_rate < 0:
            raise ValueError(f"base_rate must be >= 0, got {base_rate}")
        if peak_rate < base_rate:
            raise ValueError(
                f"peak_rate ({peak_rate}) must be >= base_rate ({base_rate})")
        for name, value in (("thrash_factor", thrash_factor),
                            ("degraded_factor", degraded_factor)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.service_rate = float(service_rate)
        self.thrash_threshold = check_integer(
            thrash_threshold, "thrash_threshold", minimum=0)
        self.thrash_factor = float(thrash_factor)
        self.degraded_factor = float(degraded_factor)
        self.sla_t = check_integer(sla_t, "sla_t", minimum=1)
        self._rng = as_generator(seed)
        self.telemetry = resolve(telemetry)
        # the vectorized mode keeps every queue in one array store; the
        # scalar reference keeps one VMQueue per VM
        self.store = (QueueStore(n_vms, max_depth)
                      if mode == "vectorized" else None)
        self.queues = ([VMQueue(max_depth) for _ in range(n_vms)]
                       if mode == "scalar" else None)
        self.histogram = LatencyHistogram(max_latency)
        self.tier = (
            LoadLevelingTier(n_vms, buffer_size=buffer_size,
                             drain_rate=drain_rate,
                             max_attempts=max_attempts)
            if tier else None
        )
        # cumulative counters
        self.arrivals_total = 0
        self.completions_total = 0
        self.lost_queue_total = 0
        self.lost_tier_total = 0
        self.slow_total = 0
        self._dlq_seen = 0  # DLQ requests already reported in snapshots

    # ------------------------------------------------------------------ #
    # the per-interval step
    # ------------------------------------------------------------------ #
    def step(self, t: int, on: np.ndarray, violated: np.ndarray) -> None:
        """Advance one interval.

        ``on`` is the per-VM ON mask and ``violated`` the per-VM mask of
        hosts currently over capacity (both length ``n_vms``); the scenario
        computes them from the datacenter after the scheduler ran.
        """
        n = self.n_vms
        queues = self.queues
        if self.store is not None:
            rates = np.where(on, self.peak_rate, self.base_rate)
            factor = np.ones(n)
            factor[violated] *= self.degraded_factor
            factor[self.store.depth > self.thrash_threshold] *= \
                self.thrash_factor
            caps = np.floor(self.service_rate * factor).astype(np.int64)
        else:
            rates = np.empty(n)
            caps = np.empty(n, dtype=np.int64)
            for i in range(n):
                rates[i] = self.peak_rate if on[i] else self.base_rate
                caps[i] = service_capacity(
                    self.service_rate,
                    violated=bool(violated[i]),
                    thrashing=queues[i].depth > self.thrash_threshold,
                    degraded_factor=self.degraded_factor,
                    thrash_factor=self.thrash_factor,
                )
        # One vectorized Poisson draw per interval in both modes keeps the
        # serving RNG stream position identical (same trick as the
        # datacenter's per-interval uniform draw vector).
        arrivals = self._rng.poisson(rates)

        if self.store is not None:
            completions, slow, lost_queue = self._serve_admit_store(
                t, caps, arrivals)
        else:
            completions, slow, lost_queue = self._serve_admit_scalar(
                t, caps, arrivals)
        lost_tier = 0
        if self.tier is not None:
            for i in range(n):
                count = int(arrivals[i])
                buffered = self.tier.accept(i, t, count)
                lost_tier += count - buffered

        interval_arrivals = int(arrivals.sum())
        self.arrivals_total += interval_arrivals
        self.completions_total += completions
        self.slow_total += slow
        self.lost_queue_total += lost_queue
        self.lost_tier_total += lost_tier

        tel = self.telemetry
        if tel is not None and tel.events.enabled:
            dlq_total = self.tier.dlq_requests if self.tier is not None else 0
            hist = self.histogram
            done = hist.total > 0
            tel.emit(ServingSnapshot(
                time=t,
                arrivals=interval_arrivals,
                completions=completions,
                slow=slow,
                lost_queue=lost_queue,
                lost_tier=lost_tier,
                dlq=dlq_total - self._dlq_seen,
                backlog=self.backlog,
                tier_backlog=(self.tier.backlog
                              if self.tier is not None else 0),
                p50=hist.percentile(0.50) if done else 0.0,
                p95=hist.percentile(0.95) if done else 0.0,
                p99=hist.percentile(0.99) if done else 0.0,
            ))
            self._dlq_seen = dlq_total

    def _serve_admit_store(self, t: int, caps: np.ndarray,
                           arrivals: np.ndarray) -> tuple[int, int, int]:
        """Serve, then admit, every VM at once; returns
        ``(completions, slow, lost_queue)``."""
        store = self.store
        completions, slow = store.serve(t, caps, self.histogram, self.sla_t)
        if self.tier is not None:
            # levelled delivery never pushes a VM past its thrash
            # threshold — the whole point of the tier is that a burst
            # cannot collapse a server's throughput
            depth = store.depth
            store.deliver(self.tier.drain(np.minimum(
                store.max_depth - depth,
                np.maximum(0, self.thrash_threshold - depth))))
            return completions, slow, 0
        admitted = store.admit(t, arrivals)
        return completions, slow, int(arrivals.sum() - admitted.sum())

    def _serve_admit_scalar(self, t: int, caps: np.ndarray,
                            arrivals: np.ndarray) -> tuple[int, int, int]:
        """The per-VM reference of :meth:`_serve_admit_store`."""
        n = self.n_vms
        queues = self.queues
        completions = 0
        slow = 0
        lost_queue = 0
        for i in range(n):
            served, late = queues[i].serve(t, int(caps[i]), self.histogram,
                                           self.sla_t)
            completions += served
            slow += late
        if self.tier is not None:
            # levelled delivery never pushes a VM past its thrash
            # threshold — the whole point of the tier is that a burst
            # cannot collapse a server's throughput
            deliveries = self.tier.drain(
                [min(q.free, max(0, self.thrash_threshold - q.depth))
                 for q in queues])
            for i in range(n):
                for arrival, count in deliveries[i]:
                    admitted = queues[i].admit(arrival, count)
                    if admitted != count:  # pragma: no cover - drain is
                        # bounded by free space, so this cannot happen
                        raise RuntimeError("tier overdelivered into a queue")
        else:
            for i in range(n):
                count = int(arrivals[i])
                admitted = queues[i].admit(t, count)
                lost_queue += count - admitted
        return completions, slow, lost_queue

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> int:
        """Requests waiting in VM queues right now."""
        if self.store is not None:
            return int(self.store.depth.sum())
        return sum(q.depth for q in self.queues)

    def report(self) -> ServingReport:
        """Summarize everything served so far."""
        hist = self.histogram
        done = hist.total > 0
        dlq = self.tier.dlq_requests if self.tier is not None else 0
        return ServingReport(
            arrivals=self.arrivals_total,
            completions=self.completions_total,
            lost_queue=self.lost_queue_total,
            lost_tier=self.lost_tier_total,
            dlq=dlq,
            slow=self.slow_total,
            backlog=self.backlog,
            tier_backlog=self.tier.backlog if self.tier is not None else 0,
            mean_latency=hist.mean if done else float("nan"),
            p50=hist.percentile(0.50) if done else float("nan"),
            p95=hist.percentile(0.95) if done else float("nan"),
            p99=hist.percentile(0.99) if done else float("nan"),
            sla_t=self.sla_t,
            # exact for any sla_t: the histogram clamps sojourns above
            # max_latency, so its tail cannot see past that bound
            sla_violation_fraction=(self.slow_total / self.completions_total
                                    if self.completions_total else 0.0),
        )

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of RNG, queues, histogram, tier, counters."""
        return {
            "rng": capture_rng_state(self._rng),
            "queues": (self.store.capture_state()
                       if self.store is not None
                       else [q.capture_state() for q in self.queues]),
            "histogram": self.histogram.capture_state(),
            "tier": (self.tier.capture_state()
                     if self.tier is not None else None),
            "arrivals_total": self.arrivals_total,
            "completions_total": self.completions_total,
            "lost_queue_total": self.lost_queue_total,
            "lost_tier_total": self.lost_tier_total,
            "slow_total": self.slow_total,
            "dlq_seen": self._dlq_seen,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot.

        Its ``queues`` may also be the :func:`~repro.serving.queue.
        queue_columns` of the per-VM snapshots, as a version 2 simulation
        checkpoint stores them.
        """
        queues = state["queues"]
        if isinstance(queues, list):
            queues = queue_columns(queues)
        if len(queues["length"]) != self.n_vms:
            raise ValueError(
                f"checkpoint serving layer covers {len(queues['length'])} "
                f"VMs but this layer has {self.n_vms}")
        if (state["tier"] is None) != (self.tier is None):
            raise ValueError(
                "checkpoint load-leveling configuration does not match this "
                "serving layer (one has a tier, the other does not)")
        self._rng = restore_rng_state(state["rng"])
        if self.store is not None:
            self.store.restore_state(queues)
        else:
            for q, qs in zip(self.queues, queue_snapshots(queues)):
                q.restore_state(qs)
        self.histogram.restore_state(state["histogram"])
        if self.tier is not None:
            self.tier.restore_state(state["tier"])
        self.arrivals_total = int(state["arrivals_total"])
        self.completions_total = int(state["completions_total"])
        self.lost_queue_total = int(state["lost_queue_total"])
        self.lost_tier_total = int(state["lost_tier_total"])
        self.slow_total = int(state["slow_total"])
        self._dlq_seen = int(state["dlq_seen"])

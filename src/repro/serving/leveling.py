"""Queue-based load leveling: a durable buffer between producers and VMs.

The classic queue-based load-leveling pattern, adapted to the simulator's
discrete intervals (see ``docs/SERVING.md`` for the full semantics):

- **durable bounded buffer** — bursts are absorbed here instead of
  hammering the per-VM queues; a full buffer rejects new work (back
  pressure, never silent loss);
- **paced drain** — each interval at most ``drain_rate`` requests per VM
  are delivered downstream, and only into free VM-queue space, so a burst
  can never push a server past its thrash threshold;
- **bounded retries → DLQ** — a delivery that finds the VM queue full is
  retried on later intervals, at most ``max_attempts`` times in total;
  work that keeps failing is moved to a dead-letter queue rather than
  blocking the buffer head forever.

Internally the buffer holds per-VM FIFO batches
``[arrival_interval, count, attempts]``.  Arrival intervals ride along
with every batch, so end-to-end latency measured at the VM includes time
spent levelled here.
"""

from __future__ import annotations

from collections import deque

from repro.utils.validation import check_integer

__all__ = ["LoadLevelingTier"]


class LoadLevelingTier:
    """Bounded per-VM buffer with paced drain, retries and a DLQ.

    Parameters
    ----------
    n_vms:
        Fleet size (entries are routed per destination VM).
    buffer_size:
        Total request capacity across all VMs; offers beyond it are
        rejected.
    drain_rate:
        Maximum requests delivered to any one VM per interval.
    max_attempts:
        Total delivery attempts before a batch is moved to the dead-letter
        queue.
    """

    def __init__(self, n_vms: int, *, buffer_size: int = 20000,
                 drain_rate: int = 120, max_attempts: int = 3):
        self.n_vms = check_integer(n_vms, "n_vms", minimum=1)
        self.buffer_size = check_integer(buffer_size, "buffer_size", minimum=1)
        self.drain_rate = check_integer(drain_rate, "drain_rate", minimum=1)
        self.max_attempts = check_integer(max_attempts, "max_attempts",
                                          minimum=1)
        #: per-VM FIFO of ``[arrival, count, attempts]``
        self.pending: list[deque[list]] = [deque() for _ in range(n_vms)]
        self.depth = 0
        #: quarantined batches ``[arrival, count, attempts]``
        self.dlq: list[list] = []
        # counters (requests, not batches)
        self.accepted = 0
        self.rejected = 0
        self.delivered = 0
        self.dlq_requests = 0

    # ------------------------------------------------------------------ #
    # producers
    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> int:
        """Requests currently levelled in the buffer."""
        return self.depth

    def accept(self, vm_id: int, t: int, count: int) -> int:
        """Offer ``count`` requests for ``vm_id`` at interval ``t``.

        Returns the number buffered; the remainder was rejected against
        the full buffer (the producer sees back pressure and accounts the
        loss).
        """
        if not 0 <= vm_id < self.n_vms:
            raise ValueError(f"vm_id must be in [0, {self.n_vms}), got {vm_id}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        admitted = min(count, self.buffer_size - self.depth)
        if admitted > 0:
            queue = self.pending[vm_id]
            # merge only into a same-interval, not yet retried tail batch
            if queue and queue[-1][0] == t and queue[-1][2] == 0:
                queue[-1][1] += admitted
            else:
                queue.append([t, admitted, 0])
            self.depth += admitted
        self.accepted += admitted
        self.rejected += count - admitted
        return admitted

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def drain(self, free: list[int]) -> list[list[tuple[int, int]]]:
        """Deliver up to ``drain_rate`` requests per VM into ``free`` space.

        ``free[i]`` is VM ``i``'s queue headroom this interval.  Returns,
        per VM, the delivered ``(arrival_interval, count)`` batches in FIFO
        order — arrival stamps are preserved so downstream latency is
        end-to-end.  A head batch that cannot be delivered (no headroom)
        burns one attempt; batches out of attempts move to the dead-letter
        queue.
        """
        if len(free) != self.n_vms:
            raise ValueError(
                f"free has {len(free)} entries but tier routes {self.n_vms} VMs")
        deliveries: list[list[tuple[int, int]]] = []
        for vm_id in range(self.n_vms):
            queue = self.pending[vm_id]
            budget = min(self.drain_rate, int(free[vm_id]))
            out: list[tuple[int, int]] = []
            partially_delivered: list | None = None
            while queue and budget > 0:
                entry = queue[0]
                arrival, count, _ = entry
                if count <= budget:
                    queue.popleft()
                    out.append((arrival, count))
                    self.depth -= count
                    self.delivered += count
                    budget -= count
                else:
                    out.append((arrival, budget))
                    entry[1] = count - budget
                    self.depth -= budget
                    self.delivered += budget
                    partially_delivered = entry
                    budget = 0
            if budget <= 0 and queue and queue[0] is not partially_delivered:
                # headroom exhausted with work still waiting: the head
                # entry's delivery attempt failed — bounded retries
                head = queue[0]
                head[2] += 1
                if head[2] >= self.max_attempts:
                    queue.popleft()
                    self.dlq.append(head)
                    self.depth -= head[1]
                    self.dlq_requests += head[1]
            deliveries.append(out)
        return deliveries

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of buffer, DLQ and counters."""
        return {
            "pending": [[list(e) for e in q] for q in self.pending],
            "dlq": [list(e) for e in self.dlq],
            "accepted": self.accepted,
            "rejected": self.rejected,
            "delivered": self.delivered,
            "dlq_requests": self.dlq_requests,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite from a :meth:`capture_state` snapshot.

        Also reads snapshots whose entries carry two more fields (a key and
        a poison flag) and which hold ``seen_keys`` and ``duplicates``, as
        earlier builds wrote them; those extras are ignored.
        """
        if len(state["pending"]) != self.n_vms:
            raise ValueError(
                f"checkpoint tier routes {len(state['pending'])} VMs but "
                f"this tier routes {self.n_vms}")
        self.pending = [deque([int(e[0]), int(e[1]), int(e[2])] for e in q)
                        for q in state["pending"]]
        self.depth = sum(e[1] for q in self.pending for e in q)
        self.dlq = [[int(e[0]), int(e[1]), int(e[2])] for e in state["dlq"]]
        self.accepted = int(state["accepted"])
        self.rejected = int(state["rejected"])
        self.delivered = int(state["delivered"])
        self.dlq_requests = int(state["dlq_requests"])

"""GRAND: greedy-random packing under the paper's reservation test.

Stolyar's GRAND family (PAPERS.md, arXiv:1212.0875) places each arriving
item on a server drawn *uniformly at random* from the feasible set, and is
asymptotically optimal in the fluid limit despite ignoring fit quality
entirely.  :class:`GreedyRandomPlacer` transplants that rule onto this
repo's Eq. (17) admission test: the feasible set for a VM is every PM that
passes the reservation check (same ``k -> K`` block table as
:class:`~repro.core.queuing_ffd.QueuingFFD`), and the pick among them is
uniform — so GRAND vs. QueuingFFD isolates the *selection rule* while the
burstiness model is held fixed.

Randomness is **stateless and replayable**: the pick for decision ``n`` is
a sha256 hash of ``(seed, n)``, not a stream from a stateful RNG.  The
placement service journals only the decision sequence number; crash
recovery replays journaled outcomes and never needs to capture or restore
RNG state, and two services configured with the same seed make identical
picks regardless of crash/restart history.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import VMSpec


def hash_pick(seed: int, decision_seq: int, n_choices: int) -> int:
    """Deterministic uniform index in ``[0, n_choices)`` for one decision.

    ``sha256(f"{seed}:{decision_seq}")`` reduced mod ``n_choices`` — a pure
    function of its arguments, so any party holding ``(seed, seq)`` agrees
    on the pick without sharing RNG state.  The 64-bit reduction's modulo
    bias is below ``n_choices / 2**64``, irrelevant for fleet-sized choice
    sets.
    """
    if n_choices <= 0:
        raise ValueError("n_choices must be positive")
    digest = hashlib.sha256(f"{seed}:{decision_seq}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_choices


class GreedyRandomPlacer(QueuingFFD):
    """GRAND(C, 0): uniform-random choice among Eq. (17)-feasible PMs.

    Inherits MapCal configuration (``rho``, ``d``, rounding, stationary
    method, spread cap) and the placement loop from :class:`QueuingFFD`,
    so the two strategies share block tables and the Eq. (17) kernel;
    only ordering and selection differ:

    - VMs are placed in **input order** (GRAND models an arrival stream;
      there is no batch-wide sort to exploit), and
    - the PM is drawn uniformly from all feasible candidates via
      :func:`hash_pick` keyed on ``(seed, decision_seq)``.

    Batch :meth:`place` picks for VM ``i`` with ``choose_for(i)``, its
    input index, so it makes the same picks as online admissions
    ``admit(vm_i, choose=placer.choose_for(i))`` for ``i = 0, 1, ...``
    against the same table.
    """

    name = "GRAND"

    def __init__(self, rho: float = 0.01, d: int = 16, *, seed: int = 0,
                 **kwargs):
        super().__init__(rho, d, **kwargs)
        self.seed = int(seed)

    # ------------------------------------------------------------------ #
    # what differs from QueuingFFD: the pick (batch first_fit and
    # OnlineConsolidator.admit(choose=...) both take it) and the order
    # ------------------------------------------------------------------ #
    def choose_for(self, decision_seq: int):
        """A ``choose`` callable for one decision.

        Bind the decision's sequence number up front (the service uses its
        WAL sequence), then hand the result to
        :meth:`repro.core.online.OnlineConsolidator.admit`; the callable
        receives the feasible PM list and returns the hash-picked member.
        """
        seq = int(decision_seq)

        def choose(feasible: Sequence[int]) -> int:
            return int(feasible[hash_pick(self.seed, seq, len(feasible))])

        return choose

    def order_vms(self, vms: Sequence[VMSpec]) -> np.ndarray:
        """Input order: GRAND places an arrival stream."""
        return np.arange(len(vms))

"""Datacenter fault-domain topology: racks and power domains.

Consolidation density concentrates blast radius: the tighter the packing,
the more VMs share the fate of one rack's power feed or top-of-rack switch.
A :class:`Topology` maps every PM to a *fault domain* — the unit that fails
together.  It feeds two consumers:

- :class:`~repro.simulation.failures.FailureInjector` draws *correlated*
  domain-level failure events (all PMs in the domain crash at once) on top
  of the independent per-PM crashes;
- :class:`~repro.placement.spread.DomainSpreadConstraint` caps how many VMs
  a placer may co-locate per domain, trading packing density against blast
  radius.

Domains are plain integers ``0..n_domains-1``; the canonical constructor
is :meth:`Topology.racks` (contiguous PM ranges), and any PM -> domain
array builds one directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_integer


class Topology:
    """Immutable PM -> fault-domain mapping.

    Parameters
    ----------
    domain_of:
        One domain index per PM.  Domain ids must be ``0..max`` with every
        id in the range used by at least one PM (no empty domains), so the
        injector can iterate domains densely.
    """

    def __init__(self, domain_of: Sequence[int] | np.ndarray):
        arr = np.asarray(domain_of, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"domain_of must be a non-empty 1-D sequence, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("domain ids must be non-negative")
        present = np.unique(arr)
        n_domains = int(arr.max()) + 1
        if present.size != n_domains:
            missing = sorted(set(range(n_domains)) - set(present.tolist()))
            raise ValueError(f"domain ids must be contiguous from 0; missing {missing[:5]}")
        arr.flags.writeable = False
        self.domain_of = arr
        self.n_domains = n_domains

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def racks(cls, n_pms: int, rack_size: int) -> "Topology":
        """Contiguous racks: PMs ``0..rack_size-1`` form domain 0, etc."""
        n_pms = check_integer(n_pms, "n_pms", minimum=1)
        rack_size = check_integer(rack_size, "rack_size", minimum=1)
        return cls(np.arange(n_pms) // rack_size)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_pms(self) -> int:
        """Number of PMs the topology covers."""
        return int(self.domain_of.size)

    def pms_in(self, domain: int) -> np.ndarray:
        """PM indices belonging to ``domain``."""
        if not 0 <= domain < self.n_domains:
            raise ValueError(f"domain must be in [0, {self.n_domains}), got {domain}")
        return np.flatnonzero(self.domain_of == domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology {self.n_pms} PMs in {self.n_domains} domains>"

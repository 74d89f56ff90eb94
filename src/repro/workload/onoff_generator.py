"""Vectorized ON-OFF demand traces for heterogeneous VM fleets.

These functions accept per-VM parameter arrays so a whole problem instance
evolves in one pass: the time loop is the only Python-level loop and each
step is O(n) vectorized work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Placement, VMSpec, vm_arrays
from repro.utils.rng import SeedLike, as_generator


def ensemble_states(vms: Sequence[VMSpec], n_steps: int, *,
                    start_stationary: bool = False,
                    seed: SeedLike = None) -> np.ndarray:
    """Simulate the ON/OFF state of every VM over ``n_steps`` intervals.

    Parameters
    ----------
    vms:
        VM specifications (per-VM ``p_on``/``p_off`` honoured).
    n_steps:
        Number of transitions; output has ``n_steps + 1`` columns.
    start_stationary:
        Draw initial states from each VM's stationary law instead of all-OFF.
        The paper starts all-OFF (``Pi_0``); stationary starts remove warm-up
        bias when measuring long-run CVR.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``(n_vms, n_steps + 1)``; True = ON.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    arrays = vm_arrays(vms)
    p_on, p_off = arrays["p_on"], arrays["p_off"]
    n = len(vms)
    rng = as_generator(seed)
    states = np.empty((n, n_steps + 1), dtype=bool)
    if start_stationary and n:
        q = p_on / (p_on + p_off)
        states[:, 0] = rng.random(n) < q
    else:
        states[:, 0] = False
    current = states[:, 0].copy()
    for t in range(n_steps):
        u = rng.random(n)
        current = np.where(current, u >= p_off, u < p_on)
        states[:, t + 1] = current
    return states


def demand_trace(vms: Sequence[VMSpec], states: np.ndarray) -> np.ndarray:
    """Instantaneous demand of each VM given its state trajectory.

    ``demand[i, t] = R_b[i] + R_e[i] * states[i, t]``.
    """
    arrays = vm_arrays(vms)
    states = np.asarray(states, dtype=bool)
    if states.shape[0] != len(vms):
        raise ValueError(
            f"states has {states.shape[0]} rows but there are {len(vms)} VMs"
        )
    return arrays["r_base"][:, None] + arrays["r_extra"][:, None] * states


def pm_load_trace(placement: Placement, demands: np.ndarray) -> np.ndarray:
    """Aggregate per-PM load over time.

    Parameters
    ----------
    placement:
        VM -> PM assignment (every VM must be placed).
    demands:
        ``(n_vms, T)`` instantaneous demand array.

    Returns
    -------
    numpy.ndarray
        ``(n_pms, T)`` aggregate load; rows of unused PMs are zero.
    """
    demands = np.asarray(demands, dtype=float)
    if demands.shape[0] != placement.n_vms:
        raise ValueError(
            f"demands has {demands.shape[0]} rows but the placement covers "
            f"{placement.n_vms} VMs"
        )
    if not placement.all_placed:
        raise ValueError("every VM must be placed to aggregate PM loads")
    loads = np.zeros((placement.n_pms, demands.shape[1]))
    np.add.at(loads, placement.assignment, demands)
    return loads

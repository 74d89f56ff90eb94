"""Binomial transition kernels for the busy-block process.

The paper (Section IV-B) models the number of busy reservation blocks on a PM
hosting ``k`` ON-OFF VMs as the stochastic process

    theta(t+1) = theta(t) - O(t) + I(t)

where, conditional on ``theta(t) = i``,

    O(t) ~ Binomial(i, p_off)        (VMs leaving ON)
    I(t) ~ Binomial(k - i, p_on)     (VMs entering ON)

are independent.  The one-step transition probability (the paper's Eq. 12) is
the discrete convolution

    p_ij = sum_r  P[O = r | i] * P[I = j - i + r | i]

This module builds the full ``(k+1) x (k+1)`` kernel.  :func:`busy_block_kernel`
is the production implementation: it computes the two binomial PMF families as
dense tables and contracts them with a vectorized diagonal-sum, costing
``O(k^3)`` flops (matching the paper's stated complexity) but with NumPy
constant factors.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom

from repro.utils.validation import check_integer, check_probability


def binomial_pmf_table(n_max: int, p: float) -> np.ndarray:
    """Table ``T[n, x] = P[Binomial(n, p) = x]`` for ``0 <= x <= n <= n_max``.

    Entries with ``x > n`` are zero.  Shape is ``(n_max + 1, n_max + 1)``.
    Built row-by-row with the stable multiplicative recurrence

        P[X = x+1] = P[X = x] * (n - x) / (x + 1) * p / (1 - p)

    seeded from ``P[X = 0] = (1 - p)^n``, falling back to scipy for the
    degenerate ``p in {0, 1}`` cases.
    """
    n_max = check_integer(n_max, "n_max", minimum=0)
    p = check_probability(p, "p")
    table = np.zeros((n_max + 1, n_max + 1))
    if p == 0.0:
        table[:, 0] = 1.0
        return table
    if p == 1.0:
        table[np.arange(n_max + 1), np.arange(n_max + 1)] = 1.0
        return table
    ratio = p / (1.0 - p)
    for n in range(n_max + 1):
        row = table[n]
        row[0] = (1.0 - p) ** n
        for x in range(n):
            row[x + 1] = row[x] * ((n - x) / (x + 1)) * ratio
    # Guard against underflow of the seed term for large n / extreme p: if the
    # row degenerated, recompute it with scipy's log-space implementation.
    # Each row is summed over its own n + 1 entries, so row n, fallback
    # included, is the same bytes in a table of any n_max >= n.
    sums = np.array([table[n, : n + 1].sum() for n in range(n_max + 1)])
    for n in np.flatnonzero(~np.isclose(sums, 1.0, atol=1e-9)):
        table[n, : n + 1] = binom.pmf(np.arange(n + 1), n, p)
    return table


def busy_block_kernel(k: int, p_on: float, p_off: float) -> np.ndarray:
    """One-step transition matrix of the busy-block count (paper Eq. 12).

    Parameters
    ----------
    k:
        Number of collocated VMs (states are ``0..k`` busy blocks).
    p_on:
        Per-interval probability an OFF VM switches ON.
    p_off:
        Per-interval probability an ON VM switches OFF.

    Returns
    -------
    numpy.ndarray
        Row-stochastic matrix ``P`` of shape ``(k+1, k+1)`` with
        ``P[i, j] = Pr[theta(t+1) = j | theta(t) = i]``.
    """
    k = check_integer(k, "k", minimum=0)
    p_on = check_probability(p_on, "p_on")
    p_off = check_probability(p_off, "p_off")
    return kernel_from_tables(k, binomial_pmf_table(k, p_off),
                              binomial_pmf_table(k, p_on))


def kernel_from_tables(k: int, off_tab: np.ndarray,
                       on_tab: np.ndarray) -> np.ndarray:
    """:func:`busy_block_kernel` for ``k`` VMs from the ``p_off`` and
    ``p_on`` :func:`binomial_pmf_table` tables, of any ``n_max >= k``.

    Row ``n`` of a table does not depend on ``n_max``, and only rows
    ``0..k`` are read, each over its own ``n + 1`` entries, so one pair of
    tables built at ``n_max = d`` gives every ``k <= d`` its kernel bit
    for bit (:func:`repro.core.mapcal.mapcal_table` builds them once).
    """
    # off_tab[i, r] = P[O = r | theta = i];  on_tab[m, s] = P[I = s | k - theta = m]
    P = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        # P[i, j] = sum_r off_tab[i, r] * on_tab[k - i, j - i + r]
        # For each r, the contribution lands on columns j = i - r .. i - r + (k - i).
        o = off_tab[i, : i + 1]
        a = on_tab[k - i, : k - i + 1]
        # full correlation: conv of o (reversed index) with a
        # row[j] = sum_r o[r] * a[j - i + r]  -> cross-correlation of a with o
        row = np.convolve(o[::-1], a)
        P[i, :] = row  # length (i+1) + (k-i+1) - 1 == k + 1; columns 0..k
    return P

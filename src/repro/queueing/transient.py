"""Transient analysis of the busy-block process.

The paper's guarantee is a *long-run* time fraction (CVR).  Operators also
ask transient questions: starting from all-OFF after consolidation, how does
the violation probability ramp up?  How long until the first violation?
How long does a violation episode last once it starts?  These quantities
come from the same (k+1)-state chain:

- :func:`violation_probability_curve` — ``P[theta(t) > K]`` over time; shows
  the warm-up the paper sidesteps by quoting the stationary value.
- :func:`expected_time_to_violation` — mean hitting time of the violation
  set ``{K+1..k}`` from a given start, via the fundamental-matrix linear
  system on the violation-states-absorbing chain.
- :func:`expected_violation_episode_length` — mean sojourn above K once a
  violation begins (conditional on the entry distribution), the flip side:
  with long spikes (small p_off) episodes are long even when rare.
"""

from __future__ import annotations

import numpy as np

from repro.markov.binomial import busy_block_kernel
from repro.utils.validation import check_integer, check_probability


def _kernel(k: int, p_on: float, p_off: float) -> np.ndarray:
    k = check_integer(k, "k", minimum=1)
    check_probability(p_on, "p_on", allow_zero=False)
    check_probability(p_off, "p_off", allow_zero=False)
    return busy_block_kernel(k, p_on, p_off)


def violation_probability_curve(k: int, p_on: float, p_off: float,
                                n_blocks: int, horizon: int,
                                *, initial_state: int = 0) -> np.ndarray:
    """``P[theta(t) > K]`` for ``t = 0..horizon`` from a point-mass start.

    Converges to the stationary overflow probability (the CVR bound input);
    the curve shows how quickly — with the paper's defaults the warm-up from
    all-OFF lasts tens of intervals.
    """
    K = check_integer(n_blocks, "n_blocks", minimum=0)
    horizon = check_integer(horizon, "horizon", minimum=0)
    P = _kernel(k, p_on, p_off)
    check_integer(initial_state, "initial_state", minimum=0, maximum=k)
    pi = np.zeros(k + 1)
    pi[initial_state] = 1.0
    out = np.empty(horizon + 1)
    for t in range(horizon + 1):
        out[t] = pi[K + 1:].sum() if K < k else 0.0
        pi = pi @ P
    return out


def expected_time_to_violation(k: int, p_on: float, p_off: float,
                               n_blocks: int, *, initial_state: int = 0) -> float:
    """Mean steps until ``theta(t) > K`` first holds, from ``initial_state``.

    Solves ``(I - Q) h = 1`` where ``Q`` is the kernel restricted to the
    non-violating states ``{0..K}`` (violating states absorbing).  Returns
    ``inf`` when ``K >= k`` (violation impossible) and 0 when the start is
    already violating.
    """
    K = check_integer(n_blocks, "n_blocks", minimum=0)
    check_integer(initial_state, "initial_state", minimum=0, maximum=k)
    if K >= k:
        return float("inf")
    if initial_state > K:
        return 0.0
    P = _kernel(k, p_on, p_off)
    Q = P[: K + 1, : K + 1]
    h = np.linalg.solve(np.eye(K + 1) - Q, np.ones(K + 1))
    if np.any(h <= 0.0):
        # Rare-event regime: (I - Q) is nearly singular (escape mass ~1e-16)
        # and float64 loses every significant digit.  Retry in extended
        # precision via Gaussian elimination on longdouble.
        A = (np.eye(K + 1) - Q).astype(np.longdouble)
        b = np.ones(K + 1, dtype=np.longdouble)
        n = K + 1
        for col in range(n):
            pivot = col + int(np.argmax(np.abs(A[col:, col])))
            if pivot != col:
                A[[col, pivot]] = A[[pivot, col]]
                b[[col, pivot]] = b[[pivot, col]]
            factor = A[col + 1:, col] / A[col, col]
            A[col + 1:] -= factor[:, None] * A[col]
            b[col + 1:] -= factor * b[col]
        h_ld = np.empty(n, dtype=np.longdouble)
        for row in range(n - 1, -1, -1):
            h_ld[row] = (b[row] - A[row, row + 1:] @ h_ld[row + 1:]) / A[row, row]
        h = h_ld
        if np.any(h <= 0.0):  # pragma: no cover - beyond longdouble too
            return float("inf")
    return float(h[initial_state])


def expected_violation_episode_length(k: int, p_on: float, p_off: float,
                                      n_blocks: int) -> float:
    """Mean consecutive violating intervals per violation episode.

    Computed exactly from stationary flow balance: the long-run rate of
    *entering* the violating set from outside is
    ``r = sum_{i<=K} pi_i * P[i -> >K]``, each episode contributes one entry,
    and the long-run fraction of time spent violating is ``CVR``; hence the
    mean episode length is ``CVR / r`` (renewal-reward).  Returns 0 when
    violation is impossible.
    """
    K = check_integer(n_blocks, "n_blocks", minimum=0)
    if K >= k:
        return 0.0
    P = _kernel(k, p_on, p_off)
    from repro.markov.chain import DiscreteMarkovChain

    pi = DiscreteMarkovChain(P).stationary_distribution()
    enter_rate = float(pi[: K + 1] @ P[: K + 1, K + 1:].sum(axis=1))
    cvr = float(pi[K + 1:].sum())
    if enter_rate <= 0.0:  # pragma: no cover - positive kernel prevents this
        return 0.0
    return cvr / enter_rate

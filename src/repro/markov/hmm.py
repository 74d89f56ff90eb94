"""Two-state Gaussian hidden Markov model (Baum-Welch).

The threshold estimator in :mod:`repro.workload.estimation` assumes the two
demand levels are separable by a scalar cut.  Under heavy measurement noise
(overlapping level distributions) thresholding misclassifies samples and
biases the switch probabilities; the classical fix is to treat the ON/OFF
state as *hidden* and fit by expectation-maximization (Baum-Welch):

- E-step: forward-backward smoothing in log-space gives per-sample state
  posteriors and pairwise transition posteriors;
- M-step: re-estimate the transition matrix from expected transition
  counts and the two Gaussian emission laws from posterior-weighted
  moments.

:func:`fit_hmm_onoff` wraps the EM loop and returns the same
:class:`~repro.workload.estimation.OnOffFit` the threshold path produces,
so both estimators are drop-in interchangeable; the state with the larger
emission mean is defined as ON.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass

from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.context import resolve
from repro.telemetry.logfilter import LogRateLimiter
from repro.utils.validation import check_integer, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.workload.estimation import OnOffFit

_LOG_EPS = 1e-300

logger = logging.getLogger(__name__)

#: relative spread below which a window is treated as degenerate (no
#: separable ON/OFF structure for the M-step to lock onto)
_DEGENERATE_REL_STD = 1e-6

#: one WARN per 50 degenerate windows; the rest are counted, not printed
_degenerate_limiter = LogRateLimiter(window=50)
_degenerate_seen = 0


def _degenerate_fallback(x: np.ndarray, reason: str,
                         return_diagnostics: bool):
    """Threshold-estimator fallback for windows Baum-Welch cannot fit.

    Emits a rate-limited WARN and bumps ``hmm_degenerate_window_total`` on
    the ambient telemetry, then delegates to
    :func:`repro.workload.estimation.fit_onoff` (which handles constant and
    near-constant traces without NaN risk).
    """
    from repro.workload.estimation import fit_onoff  # deferred: import cycle

    global _degenerate_seen
    _degenerate_seen += 1
    _degenerate_limiter.warning(
        logger, "fit_hmm_onoff", reason, _degenerate_seen,
        "degenerate observation window (%s): falling back to threshold "
        "estimator", reason,
    )
    tel = resolve(None)
    if tel is not None:
        tel.metrics.counter(
            "hmm_degenerate_window_total",
            "observation windows where Baum-Welch fell back to the "
            "threshold estimator",
        ).inc()
    fit = fit_onoff(x)
    if return_diagnostics:
        return fit, HMMFitDiagnostics(
            n_iterations=0, converged=False,
            log_likelihood_path=(fit.log_likelihood,),
        )
    return fit


@dataclass(frozen=True)
class HMMFitDiagnostics:
    """Convergence record of one Baum-Welch run."""

    n_iterations: int
    converged: bool
    log_likelihood_path: tuple[float, ...]


def _log_gaussian(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)


def _forward_backward(log_emit: np.ndarray, A: np.ndarray, pi0: np.ndarray):
    """Scaled forward-backward for a 2-state chain.

    Uses the classic per-step normalization (Rabiner scaling): emissions are
    exponentiated after subtracting their row max, alphas are renormalized
    each step, and the log-likelihood is recovered from the accumulated
    scale factors.  The time loop is hand-unrolled over the two states with
    scalar float arithmetic — ~50x faster than a log-space loop with
    ``logsumexp`` per step.

    Returns ``(gamma, xi_sum, log_likelihood)`` where ``gamma[t, s]`` is the
    posterior of state ``s`` at ``t`` and ``xi_sum[i, j]`` the expected
    number of ``i -> j`` transitions.
    """
    T = log_emit.shape[0]
    shift = log_emit.max(axis=1)
    emit = np.exp(log_emit - shift[:, None])
    e0 = emit[:, 0]
    e1 = emit[:, 1]
    a00, a01 = float(A[0, 0]), float(A[0, 1])
    a10, a11 = float(A[1, 0]), float(A[1, 1])

    alpha = np.empty((T, 2))
    log_scale = 0.0
    f0 = pi0[0] * e0[0]
    f1 = pi0[1] * e1[0]
    c = f0 + f1
    log_scale += np.log(max(c, _LOG_EPS))
    alpha[0, 0], alpha[0, 1] = f0 / c, f1 / c
    scales = np.empty(T)
    scales[0] = c
    for t in range(1, T):
        p0, p1 = alpha[t - 1, 0], alpha[t - 1, 1]
        f0 = (p0 * a00 + p1 * a10) * e0[t]
        f1 = (p0 * a01 + p1 * a11) * e1[t]
        c = f0 + f1
        if c < _LOG_EPS:  # pragma: no cover - scaling prevents underflow
            c = _LOG_EPS
        scales[t] = c
        alpha[t, 0], alpha[t, 1] = f0 / c, f1 / c
    ll = float(np.log(scales).sum() + shift.sum())

    beta = np.empty((T, 2))
    beta[-1, 0] = beta[-1, 1] = 1.0
    xi00 = xi01 = xi10 = xi11 = 0.0
    for t in range(T - 2, -1, -1):
        b0n = beta[t + 1, 0] * e0[t + 1]
        b1n = beta[t + 1, 1] * e1[t + 1]
        # xi contributions (unnormalized within the scaled scheme): the
        # per-t normalizer is scales[t + 1], making each xi matrix sum to 1.
        a0 = alpha[t, 0]
        a1 = alpha[t, 1]
        inv_c = 1.0 / scales[t + 1]
        xi00 += a0 * a00 * b0n * inv_c
        xi01 += a0 * a01 * b1n * inv_c
        xi10 += a1 * a10 * b0n * inv_c
        xi11 += a1 * a11 * b1n * inv_c
        beta[t, 0] = (a00 * b0n + a01 * b1n) * inv_c
        beta[t, 1] = (a10 * b0n + a11 * b1n) * inv_c

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = np.array([[xi00, xi01], [xi10, xi11]])
    return gamma, xi_sum, ll


def fit_hmm_onoff(trace: np.ndarray, *, max_iterations: int = 100,
                  tol: float = 1e-6, min_var: float = 1e-8,
                  return_diagnostics: bool = False):
    """Fit a 2-state Gaussian HMM to a demand trace by Baum-Welch.

    Parameters
    ----------
    trace:
        1-D demand samples.
    max_iterations:
        EM iteration cap.
    tol:
        Relative log-likelihood improvement below which EM stops.
    min_var:
        Variance floor for the emission Gaussians (prevents collapse onto a
        single sample).
    return_diagnostics:
        Also return an :class:`HMMFitDiagnostics`.

    Returns
    -------
    OnOffFit or (OnOffFit, HMMFitDiagnostics)
        Demand levels come from the emission means (``R_b`` = smaller mean,
        ``R_p`` = larger); switch probabilities from the fitted transition
        matrix, clipped to ``[CLIP, 1 - CLIP]`` as in the threshold
        estimator; ``threshold`` is the posterior decision boundary midpoint.
    """
    # deferred: import cycle
    from repro.workload.estimation import CLIP, OnOffFit

    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D trace of length >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("trace must be finite")
    check_integer(max_iterations, "max_iterations", minimum=1)
    check_positive(tol, "tol")

    # Degenerate input: a constant trace has one level and no spikes, and a
    # near-zero-variance window gives the M-step nothing to separate (the
    # posterior-weighted variances collapse onto the floor and the quartile
    # initialization is meaningless).  Both are served by the threshold
    # estimator, which handles single-regime traces exactly.
    span = float(x.max() - x.min())
    scale = max(abs(float(x.max())), abs(float(x.min())), 1.0)
    if span < 1e-12:
        return _degenerate_fallback(x, "constant", return_diagnostics)
    if float(x.std()) < _DEGENERATE_REL_STD * scale:
        return _degenerate_fallback(
            x, "near-zero variance", return_diagnostics)

    # Initialization from the quartiles (robust, deterministic).
    lo, hi = np.percentile(x, [25.0, 75.0])
    if hi == lo:
        hi = lo + max(abs(lo), 1.0) * 1e-3
    means = np.array([lo, hi])
    overall_var = max(float(x.var()), min_var)
    variances = np.array([overall_var, overall_var])
    A = np.array([[0.95, 0.05], [0.15, 0.85]])
    pi0 = np.array([0.5, 0.5])

    ll_path: list[float] = []
    converged = False
    gamma = None
    for _ in range(max_iterations):
        log_emit = np.stack(
            [_log_gaussian(x, means[s], variances[s]) for s in (0, 1)], axis=1
        )
        gamma, xi_sum, ll = _forward_backward(log_emit, A, pi0)
        if not np.isfinite(ll):  # pragma: no cover - defense in depth
            return _degenerate_fallback(
                x, "non-finite likelihood", return_diagnostics)
        if ll_path and abs(ll - ll_path[-1]) <= tol * (abs(ll_path[-1]) + 1.0):
            ll_path.append(ll)
            converged = True
            break
        ll_path.append(ll)
        # M-step
        occupancy = gamma[:-1].sum(axis=0)
        new_A = xi_sum / np.maximum(occupancy[:, None], _LOG_EPS)
        row_sums = new_A.sum(axis=1, keepdims=True)
        # A state with ~zero occupancy contributes no evidence: keep its row.
        valid = row_sums[:, 0] > 1e-12
        A = np.where(valid[:, None], new_A / np.maximum(row_sums, 1e-12), A)
        pi0 = gamma[0] / gamma[0].sum()
        weights = gamma.sum(axis=0)
        means = (gamma * x[:, None]).sum(axis=0) / np.maximum(weights, _LOG_EPS)
        variances = np.maximum(
            (gamma * (x[:, None] - means[None, :]) ** 2).sum(axis=0)
            / np.maximum(weights, _LOG_EPS),
            min_var,
        )

    # Identify ON as the larger-mean state.
    on = int(np.argmax(means))
    off = 1 - on
    p_on = float(np.clip(A[off, on], CLIP, 1.0 - CLIP))
    p_off = float(np.clip(A[on, off], CLIP, 1.0 - CLIP))
    r_base = max(float(means[off]), 0.0)
    r_peak = max(float(means[on]), r_base)
    posterior_on = gamma[:, on]
    fit = OnOffFit(
        p_on=p_on,
        p_off=p_off,
        r_base=r_base,
        r_extra=r_peak - r_base,
        threshold=float((means[0] + means[1]) / 2.0),
        on_fraction=float(posterior_on.mean()),
        n_transitions=int(np.abs(np.diff(posterior_on > 0.5)).sum()),
        log_likelihood=ll_path[-1],
    )
    if return_diagnostics:
        return fit, HMMFitDiagnostics(
            n_iterations=len(ll_path),
            converged=converged,
            log_likelihood_path=tuple(ll_path),
        )
    return fit

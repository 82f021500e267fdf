"""Reference values the benchmark checks pbnet's outputs against.

Rate oracle. Under partial sharing (tx != true) and under full sharing, the
log-ratio of two belief components of every agent follows an exact linear
recursion, y(t) = A^T (y(t-1) + Z(t)), where Z_k(t) is agent k's
log-likelihood-ratio increment for its observation at step t:

* partial sharing, y = log mu(theta)/mu(tx) for any theta != tx:
  Z = log L_mix(xi) - log L(xi | tx), with L_mix the uniform mixture of the
  non-tx likelihoods; E[Z] is ``theoretical_rate``;
* full sharing, y = log mu(true)/mu(theta): Z = log L(xi | true) -
  log L(xi | theta); E[Z_k] = D_KL(L_k(true) || L_k(theta)).

``measure_empirical_rate`` is a least-squares slope, i.e. a fixed linear
functional of agent 1's y (index 0), so its mean and variance over the i.i.d.
observations are computed exactly here (no mixing-time approximation; that
matters on a 1000-node ring, which mixes in ~10^6 steps). The slope is a
weighted sum of N*T independent increments, hence close to normal, and the
check accepts |slope - rate| <= |bias| + Z_SCORE * sd, where bias is the
exact finite-horizon mean minus the asymptotic rate (zero for homogeneous
models). Z_SCORE = 6 gives a two-sided normal false-failure probability of
about 2e-9 per check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

Z_SCORE = 6.0
FALSE_FAILURE_PROB = math.erfc(Z_SCORE / math.sqrt(2.0))

_HERMITE_POINTS = 120


def slope_moments(matrix, horizon: int, burn_in: int,
                  mean_inc: np.ndarray, var_inc: np.ndarray):
    """Exact mean and standard deviation of the least-squares slope of agent
    1's y(t) over t in (burn_in, horizon], for y(0) = 0 and independent
    increments with per-agent means ``mean_inc`` and variances ``var_inc``.

    slope = sum_s g_s . Z(s) with g_s = A u_s and u_s = w_s e_1 + A u_{s+1}
    (w the least-squares weights), by a backward recursion of 2T matvecs.
    ``matrix`` may be sparse; the recursion allocates only length-N vectors.
    """
    A = matrix
    t = np.arange(burn_in + 1, horizon + 1, dtype=float)
    w = np.zeros(horizon + 1)
    w[burn_in + 1:] = (t - t.mean()) / np.sum((t - t.mean()) ** 2)
    u = np.zeros(A.shape[0])
    mean = var = 0.0
    for s in range(horizon, 0, -1):
        u = A @ u
        u[0] += w[s]
        g = A @ u
        mean += float(g @ mean_inc)
        var += float((g * g) @ var_inc)
    return mean, math.sqrt(var)


def _increment_moments(log_num, log_den, probs):
    z = log_num - log_den
    m = float(probs @ z)
    return m, float(probs @ (z - m) ** 2)


def _gaussian_grid(mean_true: float):
    x, w = np.polynomial.hermite_e.hermegauss(_HERMITE_POINTS)
    return x + mean_true, w / w.sum()


def partial_increment_moments(means_or_pmf, gaussian: bool, true_index: int, tx_index: int):
    """Mean and variance of log L_mix(xi) - log L(xi|tx), xi ~ L(.|true)."""
    if gaussian:
        means = np.asarray(means_or_pmf, dtype=float)
        xi, probs = _gaussian_grid(means[true_index])
        loglik = -0.5 * (xi[:, None] - means[None, :]) ** 2
    else:
        pmf = np.asarray(means_or_pmf, dtype=float)
        probs = pmf[true_index]
        loglik = np.log(pmf).T
    others = [h for h in range(loglik.shape[1]) if h != tx_index]
    peak = loglik[:, others].max(axis=1)
    log_mix = peak + np.log(np.exp(loglik[:, others] - peak[:, None]).mean(axis=1))
    return _increment_moments(log_mix, loglik[:, tx_index], probs)


def full_increment_moments(means_or_pmf, gaussian: bool, true_index: int, theta: int):
    """Mean and variance of log L(xi|true) - log L(xi|theta), xi ~ L(.|true)."""
    if gaussian:
        means = np.asarray(means_or_pmf, dtype=float)
        d = means[true_index] - means[theta]
        return 0.5 * d * d, d * d
    pmf = np.asarray(means_or_pmf, dtype=float)
    logp = np.log(pmf)
    return _increment_moments(logp[true_index], logp[theta], pmf[true_index])


def direct_perron(matrix) -> np.ndarray:
    """Perron vector by a direct sparse LU solve of (A - I) v = 0, 1^T v = 1.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block: nonsingular for an irreducible A, and as
    sparse as A, so the factors stay sparse. The check thus allocates no
    N x N arrays, which on a 1000-agent ring would set the run's peak RSS
    instead of pbnet.
    """
    A = sparse.csc_array(matrix)
    n = A.shape[0]
    block = sparse.eye_array(n - 1, format="csc") - A[:n - 1, :n - 1]
    v = np.append(spsolve(block, A[:, [n - 1]].toarray()[:n - 1, 0]), 1.0)
    return v / v.sum()


def perron_rel_err(perron: np.ndarray, matrix) -> float:
    ref = direct_perron(matrix)
    return float(np.max(np.abs(np.asarray(perron) - ref) / ref))

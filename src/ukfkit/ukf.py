"""Unscented Kalman filter built on 2*l_x + 1 symmetric sigma points.

Sigma points are the columns of [c, c + p_1 .. c + p_{l_x}, c - p_1 ..
c - p_{l_x}] where p_i is the i-th column of alpha * chol(l_x * P) and c
is the current posterior mean.  The combination weights are

    w[0] = (alpha^2 - 1) / alpha^2,    w[i] = 1 / (2 alpha^2 l_x),

which sum to one for any alpha > 0.  The UKF and both variants in `eukf`
share :func:`unscented_prior` and the Kalman update :func:`kf.kf_correct`;
they differ only in the sigma scale and the covariance terms.  Here the
covariances are weighted outer products of the propagated deviations, with
Q added to the prior and R to the output covariance.

alpha < 1 makes the center weight negative and the estimated covariances
can lose definiteness; that surfaces as NotPositiveDefinite with the step
index rather than being repaired.
"""

from __future__ import annotations

import numpy as np

from .kf import KfStep, kf_correct
from .numerics import FilterDiverged, spd_sqrt_factor, symmetrize
from .statespace import StateEstimate, SystemModel, measure_batch, step_dynamics_batch

Array = np.ndarray


def ukf_weights(alpha: float, l_x: int) -> Array:
    """Weight vector [w0, w1 .. w_{2 l_x}] for a given alpha and state dimension."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if l_x < 1:
        raise ValueError(f"state dimension must be at least 1, got {l_x}")
    w = np.full(2 * l_x + 1, 1.0 / (2.0 * alpha**2 * l_x))
    w[0] = (alpha**2 - 1.0) / alpha**2
    return w


def sigma_points(center: Array, scale: Array, alpha: float, where: str = "") -> Array:
    """Columns [c, c + p_i, c - p_i] with p_i from alpha * chol(l_x * scale)."""
    center = np.asarray(center, dtype=float)
    return _spread(center, spd_sqrt_factor(center.size * np.asarray(scale, dtype=float), where), alpha)


def _spread(center: Array, factor: Array, alpha: float) -> Array:
    """Columns [c, c + p_i, c - p_i] with p_i the columns of alpha * factor."""
    p_sigma = alpha * factor
    c = center[:, None]
    return np.concatenate((c, c + p_sigma, c - p_sigma), axis=1)


def propagate_sigma(model: SystemModel, points: Array, k: int = 0) -> tuple[Array, Array]:
    """Push sigma points through f, then their images through g."""
    xprop = step_dynamics_batch(model, points, k)
    if not np.all(np.isfinite(xprop)):
        raise FilterDiverged(f"sigma points became non-finite at step {k + 1}")
    yprop = measure_batch(model, xprop, k + 1)
    if not np.all(np.isfinite(yprop)):
        raise FilterDiverged(f"sigma outputs became non-finite at step {k + 1}")
    return xprop, yprop


def deviations(m: Array, w: Array) -> Array:
    """Subtract the weighted column mean M @ w from every column."""
    m = np.asarray(m, dtype=float)
    return m - (m @ w)[:, None]


def ukf_covariances(
    xdev: Array, ydev: Array, w: Array, q: Array, r: Array
) -> tuple[Array, Array, Array]:
    """Unscented estimates (P_prior, P_z, P_ez) from centered deviations."""
    wx = xdev * w
    wy = ydev * w
    p_prior = symmetrize(wx @ xdev.T + q)
    p_z = symmetrize(wy @ ydev.T + r)
    p_ez = wx @ ydev.T
    return p_prior, p_z, p_ez


def unscented_prior(
    model: SystemModel, est: StateEstimate, scale: Array, alpha: float, name: str
) -> tuple[Array, Array, Array, Array, Array]:
    """Sigma points of `scale` around est.mean, pushed through f and g.

    When `scale` is est.cov itself, the estimate's cached factor is used.
    Returns (prior mean, predicted output, state deviations, output deviations, weights).
    """
    k = est.step
    where = f"{name} step {k}"
    w = ukf_weights(alpha, model.l_x)
    if scale is est.cov:
        points = _spread(est.mean, est.sigma_factor(where), alpha)
    else:
        points = sigma_points(est.mean, scale, alpha, where)
    xprop, yprop = propagate_sigma(model, points, k)
    prior_mean, predicted_y = xprop @ w, yprop @ w
    # The same subtraction as deviations(), without computing the means again.
    return prior_mean, predicted_y, xprop - prior_mean[:, None], yprop - predicted_y[:, None], w


def ukf_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """One UKF predict/update cycle, consuming the measurement at step k+1."""
    k = est.step
    prior_mean, predicted_y, xdev, ydev, w = unscented_prior(model, est, est.cov, alpha, "ukf")
    p_prior, p_z, p_ez = ukf_covariances(xdev, ydev, w, model.Q(k), model.R(k + 1))
    return kf_correct("ukf", k + 1, prior_mean, p_prior, p_z, p_ez, y, predicted_y)

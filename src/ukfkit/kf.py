"""Classical Kalman filter for linear systems, in covariance form.

Prediction:   x+ = A x,                  P+ = A P A^T + Q
Innovation:   P_z = C P+ C^T + R,        P_ez = P+ C^T
Gain:         K = P_ez P_z^{-1}
Update:       x = x+ + K (y - C x+),     P = P+ - K P_ez^T

The update covariance is the short (optimal-gain) form; the cost of an
arbitrary gain K under the true innovation statistics is

    P(K) = P+ + K P_z K^T - K P_ez^T - P_ez K^T,

computed by :func:`evaluate_gain_cov`, whose trace the Kalman gain
minimizes.

:func:`linearized_step` reads A and C as the model's Jacobians, so it is the
Kalman filter on a :class:`LinearSystem` and the EKF on any other model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import FilterDiverged, solve_spd, symmetrize
from .statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
    measure,
    step_dynamics,
)

Array = np.ndarray


@dataclass(frozen=True)
class KfStep:
    """All per-step filter quantities, shared by every filter in the package."""

    prior_mean: Array
    prior_cov: Array
    gain: Array
    innovation_cov: Array  # P_z, l_y x l_y
    cross_cov: Array  # P_ez, l_x x l_y
    posterior_mean: Array
    posterior_cov: Array


def kf_gain(p_z: Array, p_ez: Array, where: str = "") -> Array:
    """Gain K solving K P_z = P_ez."""
    return solve_spd(p_z, p_ez.T, where).T


def kf_update(
    prior_mean: Array,
    prior_cov: Array,
    gain: Array,
    cross_cov: Array,
    y: Array,
    predicted_y: Array,
) -> tuple[Array, Array]:
    """Measurement update: mean += K (y - y_hat), cov = P+ - K P_ez^T.

    The formula only: the estimate :func:`kf_correct` builds from it
    symmetrizes cov, and kf_correct checks that the result is finite and SPD.
    """
    y = np.asarray(y, dtype=float)
    mean = prior_mean + gain @ (y - predicted_y)
    cov = prior_cov - gain @ cross_cov.T
    return mean, cov


def evaluate_gain_cov(prior_cov: Array, p_z: Array, p_ez: Array, gain: Array) -> Array:
    """Posterior covariance achieved by an arbitrary gain under true statistics."""
    cross = gain @ p_ez.T
    return symmetrize(prior_cov + gain @ p_z @ gain.T - cross - cross.T)


def check_measurement(y, shape: tuple[int, ...], where: str) -> Array:
    """y as a float array; ValueError naming `where` unless it is finite with the given shape."""
    y = np.asarray(y, dtype=float)
    if y.shape != shape or not np.isfinite(y).all():
        raise ValueError(f"{where}: expected a finite measurement of shape {shape}, got {y!r}")
    return y


def kf_correct(
    name: str, k: int, prior_mean: Array, prior_cov: Array, p_z: Array, p_ez: Array, y, predicted_y: Array
) -> tuple[StateEstimate, KfStep]:
    """Gain, update and record for filter `name` consuming the step-k measurement y.

    A y that is not finite and shaped like `predicted_y` raises ValueError;
    a non-finite P_z, P_ez or posterior raises FilterDiverged, and a
    posterior that is not SPD NotPositiveDefinite.  All three name filter
    and step.  The SPD check factors l_x * P and leaves the factor on the
    returned estimate, where the next sigma-point step reuses it.
    """
    where = f"{name} step {k}"
    y = check_measurement(y, predicted_y.shape, where)
    if not (np.isfinite(p_z).all() and np.isfinite(p_ez).all()):
        raise FilterDiverged(f"{name} produced a non-finite innovation or cross covariance at step {k}")
    gain = kf_gain(p_z, p_ez, where)
    est = StateEstimate(*kf_update(prior_mean, prior_cov, gain, p_ez, y, predicted_y), k)
    if not (np.isfinite(est.mean).all() and np.isfinite(est.cov).all()):
        raise FilterDiverged(f"{name} produced a non-finite estimate at step {k}")
    est.sigma_factor(where)
    return est, KfStep(prior_mean, prior_cov, gain, p_z, p_ez, est.mean, est.cov)


def linearized_step(name: str, model: SystemModel, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One predict/update cycle of filter `name`, consuming the measurement at step k+1.

    The mean goes through f and g; the covariances use A_k = df/dx at the
    posterior mean and C_{k+1} = dg/dx at the prior mean.
    """
    k = est.step
    a = jacobian_dynamics(model, est.mean, k)
    prior_mean = step_dynamics(model, est.mean, k)
    prior_cov = symmetrize(a @ est.cov @ a.T + model.Q(k))
    c = jacobian_measurement(model, prior_mean, k + 1)
    p_z = symmetrize(c @ prior_cov @ c.T + model.R(k + 1))
    p_ez = prior_cov @ c.T
    predicted_y = measure(model, prior_mean, k + 1)
    return kf_correct(name, k + 1, prior_mean, prior_cov, p_z, p_ez, y, predicted_y)


def kf_step(model: LinearSystem, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One Kalman predict/update cycle, consuming the measurement at step k+1."""
    return linearized_step("kf", model, est, y)

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

:func:`kf_step` is a one-slice :func:`ukf.stack_step`: the stacked step
runs kf and ekf slices, with their covariances predicted by
:func:`linearized_covs` through the Jacobians (A and C of a
:class:`LinearSystem`), next to the sigma-point slices.
:func:`correct_stack`, the gain and update shared by every covariance-form
filter, works on that stack, one slice per filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import FilterDiverged, all_finite, cholesky_solve, spd_sqrt_factor, symmetric_part, symmetrize
from .statespace import LinearSystem, StateEstimate

Array = np.ndarray


@dataclass(frozen=True, slots=True)
class KfStep:
    """All per-step filter quantities, shared by every filter in the package; a stacked step's, one slice per filter."""

    prior_mean: Array
    prior_cov: Array
    gain: Array
    innovation_cov: Array  # P_z, l_y x l_y
    cross_cov: Array  # P_ez, l_x x l_y
    posterior_mean: Array
    posterior_cov: Array


def kf_gain(name: str, k: int, p_z: Array, p_ez: Array) -> tuple[Array, Array]:
    """(K, L): the gain K P_z = P_ez and the factor L L^T = P_z it is solved with, per slice of a stack.

    FilterDiverged names filter `name` and step k unless P_z and P_ez are finite.
    With one output, L and K take LAPACK's bits but no LAPACK call (:mod:`numerics`).
    """
    p_z, p_ez = np.asarray(p_z, dtype=float), np.asarray(p_ez, dtype=float)
    if not all_finite(p_z, p_ez):
        raise FilterDiverged(f"{name} produced a non-finite innovation or cross covariance at step {k}")
    where = f"{name} step {k}"
    factor = spd_sqrt_factor(p_z, where)
    return cholesky_solve(factor, p_ez.swapaxes(-1, -2), where).swapaxes(-1, -2), factor


def kf_update(
    prior_mean: Array,
    prior_cov: Array,
    gain: Array,
    cross_cov: Array,
    y: Array,
    predicted_y: Array,
) -> tuple[Array, Array]:
    """Measurement update: mean += K (y - y_hat), cov = P+ - K P_ez^T, for one filter or a stack.

    The formula only: :func:`correct_stack` symmetrizes cov and checks that
    the result is finite and SPD.
    """
    mean = prior_mean + (gain @ (y - predicted_y)[..., None])[..., 0]
    cov = prior_cov - gain @ cross_cov.swapaxes(-1, -2)
    return mean, cov


def evaluate_gain_cov(prior_cov: Array, p_z: Array, p_ez: Array, gain: Array) -> Array:
    """Posterior covariance achieved by an arbitrary gain under true statistics, for one gain or a stack."""
    cross = gain @ p_ez.swapaxes(-1, -2)
    return symmetrize(prior_cov + gain @ p_z @ gain.swapaxes(-1, -2) - cross - cross.swapaxes(-1, -2))


def check_measurement(y, shape: tuple[int, ...], where: str) -> Array:
    """y as a float array; ValueError naming `where` unless it is finite with the given shape."""
    y = np.asarray(y, dtype=float)
    if y.shape != shape or not all_finite(y):
        raise ValueError(f"{where}: expected a finite measurement of shape {shape}, got {y!r}")
    return y


def correct_stack(
    names, k: int, prior_mean: Array, prior_cov: Array, p_z: Array, p_ez: Array, y, predicted_y: Array
) -> tuple[KfStep, Array]:
    """Gain and update for a stack of filters consuming the step-k measurement y: (KfStep, chol(l_x P)) over the stack.

    Slice i of every array belongs to filter names[i].  The posterior factors
    come from the SPD check; the next sigma-point step spreads with them.  Only
    y comes from outside: one that is not finite of shape (l_y,) raises
    ValueError.  A non-finite P_z, P_ez (:func:`kf_gain`) or posterior raises
    FilterDiverged, and a P_z or posterior that is not SPD NotPositiveDefinite,
    all naming filters and step; the caller's arrays are not checked again.
    """
    label = "+".join(names)
    where = f"{label} step {k}"
    y = check_measurement(y, predicted_y.shape[1:], where)
    gain, _ = kf_gain(label, k, p_z, p_ez)
    mean, cov = kf_update(prior_mean, prior_cov, gain, p_ez, y, predicted_y)
    cov = symmetric_part(cov)
    if not all_finite(mean, cov):
        raise FilterDiverged(f"{label} produced a non-finite estimate at step {k}")
    factors = spd_sqrt_factor(mean.shape[1] * cov, where)
    return KfStep(prior_mean, prior_cov, gain, p_z, p_ez, mean, cov), factors


def linearized_covs(a: Array, cov: Array, c: Array, q: Array) -> tuple[Array, Array, Array]:
    """(P+, C P+ C^T, P+ C^T) with P+ = A P A^T + Q, symmetrized, for Jacobians A and C; R is left for the caller to add."""
    prior_cov = symmetric_part(a @ cov @ a.T + q)
    return prior_cov, c @ prior_cov @ c.T, prior_cov @ c.T


def kf_step(model: LinearSystem, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One Kalman predict/update cycle, consuming the measurement at step k+1."""
    from .ukf import _step_one  # ukf imports this module

    return _step_one("kf", model, est, y)

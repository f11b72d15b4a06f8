"""Two UKF variants that reduce exactly to the Kalman filter on linear systems.

The classical UKF feeds the process noise Q only into the prior state
covariance; the output covariance and the state-output cross-covariance it
estimates on a linear system come out short by C Q C^T and Q C^T, so its
gain is not the Kalman gain.  Both variants here repair that:

* ``eukfa_step`` draws sigma points from the inflated scale
  P + A^{-1} Q A^{-T} (A = dynamics Jacobian at the posterior mean) and
  drops the additive Q from the prior covariance, so Q reaches every
  covariance through the propagation itself.  Requires nonsingular A.

* ``eukfc_step`` keeps the standard sigma points and adds the missing
  C Q C^T and Q C^T terms explicitly (C = measurement Jacobian at the
  propagated sigma mean).

Both share the classical UKF's unscented prior (:func:`ukf.unscented_prior`)
and the Kalman update (:func:`kf.kf_correct`); each step differs from
``ukf_step`` only in its sigma scale and its three covariance lines.  With
Q = 0 both coincide with the classical UKF.
"""

from __future__ import annotations

import numpy as np

from .kf import KfStep, kf_correct
from .numerics import rcond_check, symmetrize
from .statespace import (
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
)
from .ukf import unscented_prior

Array = np.ndarray


class SingularDynamicsJacobian(Exception):
    """The dynamics Jacobian is too ill-conditioned to invert."""


def eukfa_sigma_scale(model: SystemModel, est: StateEstimate, u=None) -> Array:
    """Inflated sigma scale P + A^{-1} Q A^{-T} at the current estimate.

    A^{-1} is applied through two linear solves; a Jacobian with reciprocal
    condition number below 1e-12 raises SingularDynamicsJacobian.
    """
    k = est.step
    a = jacobian_dynamics(model, est.mean, u, k)
    if not rcond_check(a, 1e-12):
        raise SingularDynamicsJacobian(f"dynamics Jacobian at step {k} is numerically singular")
    q = model.Q(k)
    inv_q = np.linalg.solve(a, q)  # A^{-1} Q
    inflation = np.linalg.solve(a, inv_q.T)  # A^{-1} Q^T A^{-T} = A^{-1} Q A^{-T}
    return symmetrize(est.cov + inflation)


def eukfa_step(
    model: SystemModel, est: StateEstimate, u=None, y=None, alpha: float = 1.5
) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with noise-inflated sigma points and no additive Q in the prior."""
    k = est.step
    scale = eukfa_sigma_scale(model, est, u)
    prior_mean, predicted_y, xdev, ydev, w = unscented_prior(model, est, scale, alpha, u, "eukfa")
    wx = xdev * w
    p_prior = symmetrize(wx @ xdev.T)
    p_z = symmetrize((ydev * w) @ ydev.T + model.R(k + 1))
    p_ez = wx @ ydev.T
    return kf_correct("eukfa", k + 1, prior_mean, p_prior, p_z, p_ez, y, predicted_y)


def eukfc_step(
    model: SystemModel, est: StateEstimate, u=None, y=None, alpha: float = 1.5
) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with the C Q C^T and Q C^T corrections added to the output covariances."""
    k = est.step
    prior_mean, predicted_y, xdev, ydev, w = unscented_prior(model, est, est.cov, alpha, u, "eukfc")
    c = jacobian_measurement(model, prior_mean, k + 1)
    q = model.Q(k)
    qct = q @ c.T
    wx = xdev * w
    p_prior = symmetrize(wx @ xdev.T + q)
    p_z = symmetrize((ydev * w) @ ydev.T + c @ qct + model.R(k + 1))
    p_ez = wx @ ydev.T + qct
    return kf_correct("eukfc", k + 1, prior_mean, p_prior, p_z, p_ez, y, predicted_y)

"""Two UKF variants that reduce exactly to the Kalman filter on linear systems.

The classical UKF feeds the process noise Q only into the prior state
covariance; the output covariance and the state-output cross-covariance it
estimates on a linear system come out short by C Q C^T and Q C^T, so its
gain is not the Kalman gain.  Both variants here repair that:

* ``eukfa_step`` draws sigma points from the inflated scale
  P + A^{-1} Q A^{-T} (A = dynamics Jacobian at the posterior mean) and
  drops the additive Q from the prior covariance, so Q reaches every
  covariance through the propagation itself.  Requires nonsingular A.
  The sum is never formed: its sigma factor comes in array (square-root)
  form, as the triangular factor of one QR decomposition of the stacked
  factors of both terms (Van der Merwe & Wan, "The square-root unscented
  Kalman filter for state and parameter-estimation", ICASSP 2001).  That
  keeps the eps * cond(A)^2 loss of forming and factoring the sum out of
  the gain.

* ``eukfc_step`` keeps the standard sigma points and adds the missing
  C Q C^T and Q C^T terms explicitly (C = measurement Jacobian at the
  propagated sigma mean).

Both share the classical UKF's unscented prior (:func:`ukf.unscented_prior`)
and the Kalman update (:func:`kf.kf_correct`); each step differs from
``ukf_step`` only in its sigma factor and its three covariance lines.  With
Q = 0 both coincide with the classical UKF.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.lapack import dgecon, dgeqrf, dgetrf, dgetrs, dlange

from .kf import KfStep, kf_correct
from .numerics import symmetrize
from .statespace import (
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
)
from .ukf import unscented_prior

Array = np.ndarray

# Reciprocal condition number (1-norm estimate) below which A counts as singular.
_RCOND_MIN = 1e-12


class SingularDynamicsJacobian(Exception):
    """The dynamics Jacobian is too ill-conditioned to invert."""


def eukfa_sigma_scale(model: SystemModel, est: StateEstimate) -> Array:
    """Sigma factor of the inflated scale: lower-triangular S with S S^T = l_x (P + A^{-1} Q A^{-T}).

    S is R^T for the R factor of the QR decomposition of
    [chol(l_x P)^T ; sqrt(l_x) (A^{-1} L_Q)^T], with L_Q = chol(Q), and its
    columns' signs flipped so that its diagonal is positive; so S is the
    Cholesky factor up to rounding.  chol(l_x P) is the estimate's cached
    sigma factor, and L_Q is the model's ``q_factor``.  A^{-1}
    is applied through one LU factorization; a Jacobian whose estimated
    reciprocal 1-norm condition number is below 1e-12 raises
    SingularDynamicsJacobian.
    """
    k = est.step
    a = jacobian_dynamics(model, est.mean)
    lu, piv, info = dgetrf(a)
    if info == 0:
        rcond, info = dgecon(lu, dlange("1", a))
    if info != 0 or not rcond >= _RCOND_MIN:
        raise SingularDynamicsJacobian(f"dynamics Jacobian at step {k} is numerically singular")
    where = f"eukfa step {k}"
    inv_lq, _ = dgetrs(lu, piv, model.q_factor)  # A^{-1} L_Q
    n = model.l_x
    stacked = np.concatenate((est.sigma_factor(where), math.sqrt(n) * inv_lq), axis=1)
    qr, _, _, _ = dgeqrf(stacked.T, overwrite_a=1)  # the transpose is F-ordered, so no copy
    r = qr[:n]
    # The lower triangle of R^T, column j times sign(R_jj); R's strictly lower part holds Householder vectors.
    return r.T * np.copysign(_lower_ones(n), r.diagonal())


@functools.lru_cache(maxsize=16)
def _lower_ones(n: int) -> Array:
    """Read-only n x n matrix of ones on and below the diagonal; np.tri per call costs more than the product."""
    ones = np.tri(n)
    ones.flags.writeable = False
    return ones


def eukfa_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with noise-inflated sigma points and no additive Q in the prior."""
    k = est.step
    prior_mean, predicted_y, xdev, ydev, w = unscented_prior(model, est, eukfa_sigma_scale(model, est), alpha)
    wx = xdev * w
    p_prior = symmetrize(wx @ xdev.T)
    p_z = symmetrize((ydev * w) @ ydev.T + model.R)
    p_ez = wx @ ydev.T
    return kf_correct("eukfa", k + 1, prior_mean, p_prior, p_z, p_ez, y, predicted_y)


def eukfc_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with the C Q C^T and Q C^T corrections added to the output covariances."""
    k = est.step
    prior_mean, predicted_y, xdev, ydev, w = unscented_prior(model, est, est.sigma_factor(f"eukfc step {k}"), alpha)
    c = jacobian_measurement(model, prior_mean)
    q = model.Q
    qct = q @ c.T
    wx = xdev * w
    p_prior = symmetrize(wx @ xdev.T + q)
    p_z = symmetrize((ydev * w) @ ydev.T + c @ qct + model.R)
    p_ez = wx @ ydev.T + qct
    return kf_correct("eukfc", k + 1, prior_mean, p_prior, p_z, p_ez, y, predicted_y)

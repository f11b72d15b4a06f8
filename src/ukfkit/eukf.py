"""Two UKF variants that reduce exactly to the Kalman filter on linear systems.

The classical UKF feeds the process noise Q only into the prior state
covariance; the output covariance and the state-output cross-covariance it
estimates on a linear system come out short by C Q C^T and Q C^T, so its
gain is not the Kalman gain.  Both variants here repair that:

* ``eukfa_step`` draws sigma points from the inflated scale
  P + A^{-1} Q A^{-T} (A = dynamics Jacobian at the posterior mean) and
  drops the additive Q from the prior covariance, so Q reaches every
  covariance through the propagation itself.  Requires nonsingular A.  The
  sum is never formed: :func:`eukfa_sigma_scale` builds its sigma factor in
  square-root form (Van der Merwe & Wan, ICASSP 2001).

* ``eukfc_step`` keeps the standard sigma points and adds the missing
  C Q C^T and Q C^T terms explicitly (C = measurement Jacobian at the
  propagated sigma mean).

Both are one-slice calls of the UKF's recursion, :func:`ukf.stack_step`,
as the kf and ekf steps are; it holds their sigma factor and terms next to
the UKF's, so one stacked call advances all five.
With Q = 0 both coincide with the classical UKF.
"""

from __future__ import annotations

from .kf import KfStep
from .statespace import StateEstimate, SystemModel
from .ukf import SingularDynamicsJacobian, _step_one, eukfa_sigma_scale

__all__ = ["SingularDynamicsJacobian", "eukfa_sigma_scale", "eukfa_step", "eukfc_step"]


def eukfa_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with noise-inflated sigma points and no additive Q in the prior."""
    return _step_one("eukfa", model, est, y, alpha)


def eukfc_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """UKF cycle with the C Q C^T and Q C^T corrections added to the output covariances."""
    return _step_one("eukfc", model, est, y, alpha)

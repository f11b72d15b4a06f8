"""Extended Kalman filter: the linear recursions applied to local Jacobians.

The mean is propagated through the full nonlinear dynamics; covariances use
A = df/dx at the posterior mean and C = dg/dx at the prior mean.
On a linear system every quantity coincides with the Kalman filter's, since
both run :func:`kf.linearized_step`; stacked with other filters in
:func:`ukf.sigma_step`, an ekf slice gets the same bits.
"""

from __future__ import annotations

from .kf import KfStep, linearized_step
from .statespace import StateEstimate, SystemModel


def ekf_step(model: SystemModel, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One EKF predict/update cycle, consuming the measurement at step k+1."""
    return linearized_step("ekf", model, est, y)

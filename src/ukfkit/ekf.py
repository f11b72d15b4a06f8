"""Extended Kalman filter: the linear recursions applied to local Jacobians.

The mean is propagated through the full nonlinear dynamics; covariances use
A_k = df/dx at the posterior mean and C_{k+1} = dg/dx at the prior mean.
On a linear system every quantity coincides with the Kalman filter's.
"""

from __future__ import annotations

from .kf import KfStep, kf_correct
from .numerics import symmetrize
from .statespace import (
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
    measure,
    step_dynamics,
)


def ekf_step(model: SystemModel, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One EKF predict/update cycle, consuming the measurement at step k+1."""
    k = est.step
    a = jacobian_dynamics(model, est.mean, k)
    prior_mean = step_dynamics(model, est.mean, k)
    prior_cov = symmetrize(a @ est.cov @ a.T + model.Q(k))
    c = jacobian_measurement(model, prior_mean, k + 1)
    p_z = symmetrize(c @ prior_cov @ c.T + model.R(k + 1))
    p_ez = prior_cov @ c.T
    predicted_y = measure(model, prior_mean, k + 1)
    return kf_correct("ekf", k + 1, prior_mean, prior_cov, p_z, p_ez, y, predicted_y)

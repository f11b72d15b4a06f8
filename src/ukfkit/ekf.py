"""Extended Kalman filter: the linear recursions applied to local Jacobians.

The mean is propagated through the full nonlinear dynamics; covariances use
A = df/dx at the posterior mean and C = dg/dx at the prior mean.
``ekf_step`` is a one-slice :func:`ukf.stack_step`, as ``kf_step`` is, so
on a linear system every quantity coincides with the Kalman filter's, and
an ekf slice stacked with other filters gets the same bits.
"""

from __future__ import annotations

from .kf import KfStep
from .statespace import StateEstimate, SystemModel
from .ukf import _step_one


def ekf_step(model: SystemModel, est: StateEstimate, y) -> tuple[StateEstimate, KfStep]:
    """One EKF predict/update cycle, consuming the measurement at step k+1."""
    return _step_one("ekf", model, est, y)

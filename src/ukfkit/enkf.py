"""Stochastic ensemble Kalman filter with perturbed observations.

Serves as the large-N reference for the posterior covariance.  Sample
statistics use the N-1 divisor; the innovation covariance uses the sample
covariance of the predicted outputs plus the exact R (rather than sampling
the observation noise), which removes one source of Monte-Carlo noise from
the gain.

Randomness is counter-based: every draw comes from a Philox stream keyed
by (seed, step, draw kind), so member draws are independent of execution
order and a rerun with the same seed is bit-identical no matter how the
propagation is parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kf import KfStep, check_measurement, kf_gain
from .numerics import FilterDiverged, symmetrize
from .statespace import (
    StateEstimate,
    SystemModel,
    measure_batch,
    noise_factor,
    step_dynamics_batch,
)

Array = np.ndarray

# Draw kinds keying the Philox streams.  The truth simulator in `harness`
# uses kinds 3 and 4, so its noise never overlaps the ensemble's.
KIND_INIT = 0
KIND_PROCESS = 1
KIND_OBS = 2


def philox_stream(seed: int, step: int, kind: int) -> np.random.Generator:
    """Counter-based generator for one (seed, step, kind) cell."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(8 * step + kind)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Ensemble:
    """Column-stacked ensemble members plus the stream bookkeeping."""

    members: Array  # l_x x N
    seed: int
    step: int

    @property
    def size(self) -> int:
        return self.members.shape[1]


def enkf_init(est: StateEstimate, n: int, seed: int) -> Ensemble:
    """Draw N members from N(mean, cov) with the SPD factor of cov."""
    if n < 2:
        raise ValueError(f"ensemble size must be at least 2, got {n}")
    factor = noise_factor(est.cov, where="enkf init")
    z = philox_stream(seed, est.step, KIND_INIT).standard_normal((est.mean.size, n))
    members = est.mean[:, None] + factor @ z
    return Ensemble(members=members, seed=seed, step=est.step)


def enkf_step(
    model: SystemModel, ens: Ensemble, u=None, y=None
) -> tuple[Ensemble, StateEstimate, KfStep]:
    """Propagate, then assimilate the step-(k+1) measurement with perturbed observations."""
    k = ens.step
    n = ens.size
    y = check_measurement(y, (model.l_y,), f"enkf step {k + 1}")

    w = noise_factor(model.Q(k), where=f"enkf step {k}") @ philox_stream(
        ens.seed, k + 1, KIND_PROCESS
    ).standard_normal((model.l_x, n))
    xf = step_dynamics_batch(model, ens.members, u, k) + w
    if not np.all(np.isfinite(xf)):
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
    yf = measure_batch(model, xf, k + 1)

    xbar = xf.mean(axis=1)
    ybar = yf.mean(axis=1)
    xdev = xf - xbar[:, None]
    ydev = yf - ybar[:, None]
    # einsum keeps a fixed summation order, so the reductions do not depend
    # on BLAS threading and reruns are bit-identical across thread counts.
    denom = float(n - 1)
    prior_cov = symmetrize(np.einsum("ik,jk->ij", xdev, xdev) / denom)
    p_ez = np.einsum("ik,jk->ij", xdev, ydev) / denom
    p_z = symmetrize(np.einsum("ik,jk->ij", ydev, ydev) / denom + model.R(k + 1))
    gain = kf_gain(p_z, p_ez, where=f"enkf step {k + 1}")

    vr = noise_factor(model.R(k + 1), where=f"enkf step {k + 1}") @ philox_stream(
        ens.seed, k + 1, KIND_OBS
    ).standard_normal((model.l_y, n))
    xa = xf + gain @ (y[:, None] + vr - yf)
    if not np.all(np.isfinite(xa)):
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")

    mean = xa.mean(axis=1)
    adev = xa - mean[:, None]
    cov = symmetrize(np.einsum("ik,jk->ij", adev, adev) / denom)
    est = StateEstimate(mean, cov, k + 1)
    record = KfStep(xbar, prior_cov, gain, p_z, p_ez, mean, cov)
    return Ensemble(members=xa, seed=ens.seed, step=k + 1), est, record

"""Stochastic ensemble Kalman filter with perturbed observations.

Serves as the large-N reference for the posterior covariance.  Sample
statistics use the N-1 divisor; the innovation covariance uses the sample
covariance of the predicted outputs plus the exact R (rather than sampling
the observation noise), which removes one source of Monte-Carlo noise from
the gain.  The noise draws are scaled by the model's ``q_factor`` and
``r_factor``, which the model computes once.

Randomness is counter-based: every draw comes from a Philox stream keyed
by (seed, step, draw kind), so member draws are independent of execution
order and a rerun with the same seed is bit-identical no matter how the
propagation is parallelized.  The member-sized work arrays (noise
products, deviations, innovation) are allocated once per ensemble chain
and handed from each step to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kf import KfStep, check_innovation, check_measurement, kf_gain
from .numerics import FilterDiverged, symmetrize
from .statespace import StateEstimate, SystemModel, measure_batch, noise_factor, step_dynamics_batch

Array = np.ndarray

# Draw kinds keying the Philox streams.  The truth simulator in `harness`
# uses kinds 3 and 4, so its noise never overlaps the ensemble's.
KIND_INIT = 0
KIND_PROCESS = 1
KIND_OBS = 2


def _cell_key(seed: int, step: int, kind: int) -> Array:
    return np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(8 * step + kind)],
        dtype=np.uint64,
    )


def philox_stream(seed: int, step: int, kind: int) -> np.random.Generator:
    """Counter-based generator for one (seed, step, kind) cell."""
    return np.random.Generator(np.random.Philox(key=_cell_key(seed, step, kind)))


class PhiloxCells:
    """One Philox generator, rewound to the start of any (seed, step, kind) cell.

    ``cells(seed, step, kind)`` returns the same generator every call, in the
    state a fresh ``philox_stream(seed, step, kind)`` starts in, so it draws
    the same numbers.  Setting the state skips the OS entropy read that
    constructing a generator costs.  Not for sharing between threads.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._zeros = np.zeros(4, dtype=np.uint64)

    def __call__(self, seed: int, step: int, kind: int) -> np.random.Generator:
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._zeros, "key": _cell_key(seed, step, kind)},
            "buffer": self._zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen


class _Scratch:
    """Work arrays reused from one ensemble step to the next."""

    def __init__(self, l_x: int, l_y: int, n: int):
        self.state = np.empty((l_x, n))  # process noise, then deviations and correction
        self.output = np.empty((l_y, n))  # output deviations, then the innovation

    def fits(self, l_x: int, l_y: int, n: int) -> bool:
        return self.state.shape == (l_x, n) and self.output.shape == (l_y, n)


@dataclass(frozen=True)
class Ensemble:
    """Column-stacked ensemble members plus the stream bookkeeping.

    A stepped ensemble also holds the work arrays of the step that made it,
    for its next step to take over; they take no part in ``==`` or ``repr``.
    """

    members: Array  # l_x x N
    seed: int
    step: int
    _scratch: list[_Scratch] = field(default_factory=list, init=False, repr=False, compare=False)

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


def enkf_step(model: SystemModel, ens: Ensemble, y) -> tuple[Ensemble, KfStep]:
    """Propagate, then assimilate the step-(k+1) measurement with perturbed observations.

    The new members are formed in the array f returns, or in a C-ordered
    copy of it when it shares memory with ens.members (which is never
    written to), is read-only or is not C-contiguous.
    """
    k = ens.step
    n = ens.size
    l_x, l_y = model.l_x, model.l_y
    y = check_measurement(y, (l_y,), f"enkf step {k + 1}")
    # Take the work arrays over from ens (list.pop is atomic), so that a
    # second step of ens, from this thread or another, allocates its own.
    try:
        scratch = ens._scratch.pop()
    except IndexError:
        scratch = None
    if scratch is None or not scratch.fits(l_x, l_y, n):
        scratch = _Scratch(l_x, l_y, n)

    w = np.matmul(
        model.q_factor,
        philox_stream(ens.seed, k + 1, KIND_PROCESS).standard_normal((l_x, n)),
        out=scratch.state,
    )
    xf = step_dynamics_batch(model, ens.members)
    if np.shares_memory(xf, ens.members) or not (xf.flags.writeable and xf.flags.c_contiguous):
        xf = np.array(xf, order="C")
    xf += w
    if not np.all(np.isfinite(xf)):
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
    yf = measure_batch(model, xf)

    xbar = xf.mean(axis=1)
    ybar = yf.mean(axis=1)
    xdev = np.subtract(xf, xbar[:, None], out=scratch.state)
    ydev = np.subtract(yf, ybar[:, None], out=scratch.output)
    # einsum keeps a fixed summation order, so the reductions do not depend
    # on BLAS threading and reruns are bit-identical across thread counts.
    denom = float(n - 1)
    prior_cov = symmetrize(np.einsum("ik,jk->ij", xdev, xdev) / denom)
    p_ez = np.einsum("ik,jk->ij", xdev, ydev) / denom
    p_z = symmetrize(np.einsum("ik,jk->ij", ydev, ydev) / denom + model.R)
    check_innovation("enkf", k + 1, p_z, p_ez)
    gain = kf_gain(p_z, p_ez, where=f"enkf step {k + 1}")

    # xa = xf + K (y + v - yf), formed in xf, which this step owns.
    innovation = np.matmul(
        model.r_factor,
        philox_stream(ens.seed, k + 1, KIND_OBS).standard_normal((l_y, n)),
        out=scratch.output,
    )
    np.add(y[:, None], innovation, out=innovation)
    innovation -= yf
    xf += np.matmul(gain, innovation, out=scratch.state)
    xa = xf
    if not np.all(np.isfinite(xa)):
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")

    mean = xa.mean(axis=1)
    adev = np.subtract(xa, mean[:, None], out=scratch.state)
    cov = symmetrize(np.einsum("ik,jk->ij", adev, adev) / denom)
    nxt = Ensemble(members=xa, seed=ens.seed, step=k + 1)
    nxt._scratch.append(scratch)
    return nxt, KfStep(xbar, prior_cov, gain, p_z, p_ez, mean, cov)

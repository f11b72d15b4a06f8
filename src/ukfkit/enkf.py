"""Deterministic square-root ensemble Kalman filter (EnSRF).

Serves as the large-N reference for the posterior covariance.  Sample
statistics use the N-1 divisor; the innovation covariance uses the sample
covariance of the predicted outputs plus the exact R.  The analysis draws
no observation noise: the mean takes the Kalman update and the deviations
the square-root update of Whitaker & Hamill (Mon. Wea. Rev. 130, 2002;
Tippett et al., Mon. Wea. Rev. 131, 2003), whose sample covariance is the
Kalman posterior P+ - K P_ez^T of the ensemble's own statistics.  That
update is defined on the Cholesky factor of P_z which :func:`kf.kf_gain`
makes for the gain and hands back, so P_z is factored once per step; with
one output that factor is a square root and the deviation correction a
broadcast product.  The process-noise draws are scaled by the model's
``q_factor``, which the model computes once.

Randomness is counter-based: every draw comes from a Philox stream keyed
by (seed, step, draw kind), so member draws are independent of execution
order and a rerun with the same seed is bit-identical no matter how the
propagation is parallelized.  The member-sized work arrays (noise
products, output deviations, deviation corrections) are allocated once per
ensemble chain and handed from each step to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kf import KfStep, check_measurement, kf_gain
from .numerics import FilterDiverged, all_finite, symmetrize
from .statespace import StateEstimate, SystemModel, measure_batch, noise_factor, step_dynamics_batch

Array = np.ndarray

# Draw kinds keying the Philox streams.  Kind 2 is unused, and the truth
# simulator in `harness` uses kinds 3 and 4, so its noise never overlaps the
# ensemble's.
KIND_INIT = 0
KIND_PROCESS = 1


def _cell_key(seed: int, step: int, kind: int) -> Array:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, 8 * step + kind], dtype=np.uint64)


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
        zeros, self._key = np.zeros(4, dtype=np.uint64), np.zeros(2, dtype=np.uint64)
        # Built once: each call writes its cell's key into self._key in place, and the state setter copies it.
        self._state = dict(bit_generator="Philox", state={"counter": zeros, "key": self._key}, buffer=zeros, buffer_pos=4, has_uint32=0, uinteger=0)

    def __call__(self, seed: int, step: int, kind: int) -> np.random.Generator:
        key = self._key
        key[0] = seed & 0xFFFFFFFFFFFFFFFF  # as _cell_key
        key[1] = 8 * step + kind
        self._bitgen.state = self._state
        return self._gen


class _Scratch:
    """Work arrays reused from one ensemble step to the next."""

    def __init__(self, l_x: int, l_y: int, n: int):
        self.state = np.empty((l_x, n))  # process noise, then the deviation correction
        self.output = np.empty((l_y, n))  # output deviations

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


def _sqrt_gain(model: SystemModel, factor: Array, gain: Array) -> Array:
    """K L (L + L_R)^-1 for the lower factor L of P_z that :func:`kf_gain` returns and L_R = r_factor, by one solve.

    L + L_R is lower triangular with a positive diagonal, so the solve with
    its transpose, an upper triangle, pivots nowhere and gives the bits of a
    triangular solve.  Updating the deviations with this gain leaves the
    ensemble with sample covariance P+ - K P_ez^T, for any square roots
    L L^T = P_z and L_R L_R^T = R; with R = 0 it is K.
    """
    return np.linalg.solve((factor + model.r_factor).T, (gain @ factor).T).T  # (L + L_R)^T X^T = (K L)^T


def enkf_step(model: SystemModel, ens: Ensemble, y) -> tuple[Ensemble, KfStep]:
    """Propagate, then assimilate the step-(k+1) measurement with the square-root update.

    mean = xbar + K (y - ybar) and deviations xdev - K L (L + L_R)^-1 ydev,
    so the members' sample covariance is the Kalman posterior of the
    ensemble's statistics, with no observation noise drawn.  The new members
    are formed in the array f returns, or in a C-ordered copy of it when it
    shares memory with ens.members (which is never written to), is read-only
    or is not C-contiguous.
    """
    k = ens.step
    n = ens.size
    l_x, l_y = model.l_x, model.l_y
    where = f"enkf step {k + 1}"
    if ens.members.shape[0] != l_x:
        raise ValueError(f"{where}: ensemble members have {ens.members.shape[0]} rows, expected {l_x}")
    y = check_measurement(y, (l_y,), where)
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
    try:
        xf = step_dynamics_batch(model, ens.members)
        if np.shares_memory(xf, ens.members) or not (xf.flags.writeable and xf.flags.c_contiguous):
            xf = np.array(xf, order="C")
        xf += w
        if not all_finite(xf):
            raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
        yf = measure_batch(model, xf)
    except ValueError as exc:  # from the model's f or g
        raise ValueError(f"{where}: {exc}") from exc

    xbar = xf.mean(axis=1)
    ybar = yf.mean(axis=1)
    # ydev first: g may return a view of xf, which xdev then overwrites.
    ydev = np.subtract(yf, ybar[:, None], out=scratch.output)
    xdev = np.subtract(xf, xbar[:, None], out=xf)
    # einsum keeps a fixed summation order, so the reductions do not depend
    # on BLAS threading and reruns are bit-identical across thread counts.
    denom = float(n - 1)
    prior_cov = symmetrize(np.einsum("ik,jk->ij", xdev, xdev) / denom)
    p_ez = np.einsum("ik,jk->ij", xdev, ydev) / denom
    p_z = symmetrize(np.einsum("ik,jk->ij", ydev, ydev) / denom + model.R)
    gain, factor = kf_gain("enkf", k + 1, p_z, p_ez)

    mean = xbar + gain @ (y - ybar)
    # With one output each element of the product is one multiplication: the broadcast product has its bits, for less.
    correction = (np.multiply if l_y == 1 else np.matmul)(_sqrt_gain(model, factor, gain), ydev, out=scratch.state)
    adev = np.subtract(xdev, correction, out=xf)
    cov = symmetrize(np.einsum("ik,jk->ij", adev, adev) / denom)
    members = np.add(adev, mean[:, None], out=xf)
    if not all_finite(members):
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
    nxt = Ensemble(members=members, seed=ens.seed, step=k + 1)
    nxt._scratch.append(scratch)
    return nxt, KfStep(xbar, prior_cov, gain, p_z, p_ez, mean, cov)

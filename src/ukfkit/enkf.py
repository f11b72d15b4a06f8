"""Deterministic square-root ensemble Kalman filter (EnSRF).

Serves as the large-N reference for the posterior covariance.  Sample
statistics use the N-1 divisor; the innovation covariance uses the sample
covariance of the predicted outputs plus the exact R.  The analysis draws
no observation noise: the mean takes the Kalman update and the deviations
the square-root update of Whitaker & Hamill (Mon. Wea. Rev. 130, 2002;
Tippett et al., Mon. Wea. Rev. 131, 2003), whose sample covariance is the
Kalman posterior P+ - K P_ez^T of the ensemble's own statistics; the step
reports that formula as its posterior covariance, so it makes three passes
over the members for the moments (prior, cross and output), not four.  That
update is defined on the Cholesky factor of P_z which :func:`kf.kf_gain`
makes for the gain and hands back, so P_z is factored once per step; with
one output that factor is a square root and the deviation correction a
broadcast product.  The process-noise draws are scaled by the model's
``q_factor``, which the model computes once.

Randomness is keyed: every draw comes from a generator of its own (seed,
step, draw kind) cell, so member draws are independent of execution order
and a rerun with the same seed is bit-identical no matter how the
propagation is parallelized.  The per-step process noise is a float32
Box-Muller transform (Box & Muller, Ann. Math. Stat. 29, 1958) of uniforms
from SFC64 seeded through a SeedSequence of the cell key (:func:`sfc64_stream`,
:func:`_process_noise`): numpy's float32 log, sin and cos run SIMD kernels,
so it makes the step's normals in about half the time of the float64
ziggurat.  Each draw has float32 resolution and |z| <= sqrt(-2 ln 2^-24),
about 5.77; the normal law puts about 8e-9 of its mass beyond that.  The one
initial draw per run stays on the counter-based Philox
(:func:`philox_stream`), where moving it gains nothing measurable; so does
the truth simulator in `harness`.
The member-sized work arrays (uniforms, noise draws and products, output
deviations, deviation corrections) are allocated once per ensemble chain and
handed from each step to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kf import KfStep, check_measurement, kf_gain
from .numerics import FilterDiverged, all_finite, solve, symmetrize
from .statespace import StateEstimate, SystemModel, measure_batch, noise_factor, step_dynamics_batch

Array = np.ndarray

# Draw kinds keying the streams: init on Philox, process noise on SFC64.  Kind
# 2 is unused, and the truth simulator in `harness` uses kinds 3 and 4, so its
# noise never overlaps the ensemble's.
KIND_INIT = 0
KIND_PROCESS = 1


def _cell_key(seed: int, step: int, kind: int) -> Array:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, 8 * step + kind], dtype=np.uint64)


def philox_stream(seed: int, step: int, kind: int) -> np.random.Generator:
    """Counter-based generator for one (seed, step, kind) cell."""
    return np.random.Generator(np.random.Philox(key=_cell_key(seed, step, kind)))


def sfc64_stream(seed: int, step: int, kind: int) -> np.random.Generator:
    """SFC64 generator for one (seed, step, kind) cell, seeded by a SeedSequence of the cell key."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(_cell_key(seed, step, kind).tolist())))


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


_TWO_PI = np.float32(2 * np.pi)
_2_POW_M24 = np.float32(2.0**-24)


def _process_noise(seed: int, step: int, out: Array, work: Array) -> Array:
    """Fill out with the standard normal process draws of cell (seed, step, KIND_PROCESS); return out.

    With h = ceil(m / 2) for the m = out.size draws, the cell's SFC64
    generator draws 2h float32 uniforms, as ``random(2 * h, dtype=np.float32)``
    makes them: u1 is the first h and u2 the next h.  In float32,
    r = sqrt(-2 ln(1 - u1)) and theta = 2 pi u2, with 2 pi rounded to
    float32.  out, in C order, takes r cos(theta) in its first h entries and
    r sin(theta) in the rest, dropping the last sine when m is odd; both
    products are formed in float64, so each is exact.  work is a float32
    array of shape (3, h), overwritten; out must be a C-contiguous float64
    array.
    """
    flat = out.reshape(-1)  # a view, out being C-contiguous
    h = work.shape[1]
    r, theta, trig = work
    # The uniforms from h raw 64-bit outputs, as Generator.random makes float32s: each output gives
    # two 32-bit words, low first (the view's order on a little-endian host), and a word w gives
    # (w >> 8) 2^-24, exactly; this costs about half of random(dtype=np.float32).
    words = sfc64_stream(seed, step, KIND_PROCESS).bit_generator.random_raw(h).view(np.uint32)
    np.multiply(np.right_shift(words, 8, out=words), _2_POW_M24, out=work[:2].reshape(-1), casting="unsafe")
    np.subtract(1, r, out=r)  # exact: u1 is a multiple of 2^-24 in [0, 1)
    np.log(r, out=r)
    np.multiply(r, -2, out=r)
    np.sqrt(r, out=r)
    np.multiply(theta, _TWO_PI, out=theta)
    np.multiply(r, np.cos(theta, out=trig), out=flat[:h], dtype=np.float64)
    rest = flat.size - h
    np.multiply(r[:rest], np.sin(theta[:rest], out=trig[:rest]), out=flat[h:], dtype=np.float64)
    return out


class _Scratch:
    """Work arrays reused from one ensemble step to the next."""

    def __init__(self, l_x: int, l_y: int, n: int):
        self.uniforms = np.empty((3, (l_x * n + 1) // 2), dtype=np.float32)  # _process_noise's work
        self.noise = np.empty((l_x, n))  # standard normal process draws
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
    return solve((factor + model.r_factor).T, (gain @ factor).T).T  # (L + L_R)^T X^T = (K L)^T


def enkf_step(model: SystemModel, ens: Ensemble, y) -> tuple[Ensemble, KfStep]:
    """Propagate, then assimilate the step-(k+1) measurement with the square-root update.

    mean = xbar + K (y - ybar) and deviations xdev - K L (L + L_R)^-1 ydev,
    so the members' sample covariance is the Kalman posterior of the
    ensemble's statistics, with no observation noise drawn.  The new members
    are formed in the array f returns, or in a C-ordered copy of it when it
    shares memory with ens.members (which is never written to), is read-only
    or is not C-contiguous.

    The reported posterior covariance is P+ - K P_ez^T, the form of
    :func:`kf.kf_update`, formed from the l_x x l_x prior statistics instead of
    a fourth pass over the members; the members' sample covariance equals
    it to rounding.  Where the update contracts the covariance by orders of
    magnitude, the difference cancels digits that a sum of squares of the
    updated deviations would keep.

    Non-finite members raise FilterDiverged, seen in xbar and in the
    posterior mean and cov, not in a pass over the members.  The updated
    deviations adev stay finite whenever prior_cov, P_z and the gain are
    finite (P_z and P_ez are checked by :func:`kf_gain`, prior_cov through
    cov): row i of xdev has sum of squares (N-1) P+_ii, so each entry is at
    most sqrt((N-1) P+_ii); with one output the correction's entry is
    k_i ydev_j with |k_i| <= |P_ez,i| / P_z, |P_ez,i| <= sqrt(P+_ii P_yy)
    and |ydev_j| <= sqrt((N-1) P_yy), P_yy <= P_z, so it is bounded alike.
    A member that overflows only when the mean is added back is caught by
    the next step's xbar check.
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

    z = _process_noise(ens.seed, k + 1, scratch.noise, scratch.uniforms)
    w = np.matmul(model.q_factor, z, out=scratch.state)
    try:
        xf = step_dynamics_batch(model, ens.members)
        if np.shares_memory(xf, ens.members) or not (xf.flags.writeable and xf.flags.c_contiguous):
            xf = np.array(xf, order="C")
        xf += w
        xbar = np.add.reduce(xf, axis=1) / n  # np.mean's arithmetic, without its wrapper
        if not all_finite(xbar):  # a non-finite member makes its row's sum non-finite
            raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
        yf = measure_batch(model, xf)
    except ValueError as exc:  # from the model's f or g
        raise ValueError(f"{where}: {exc}") from exc

    ybar = np.add.reduce(yf, axis=1) / n
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
    cov = symmetrize(prior_cov - gain @ p_ez.T)  # kf_update's form: the sample covariance of adev, to rounding
    if not all_finite(mean, cov):  # a non-finite prior_cov makes cov non-finite; adev is then finite (docstring)
        raise FilterDiverged(f"enkf members became non-finite at step {k + 1}")
    members = np.add(adev, mean[:, None], out=xf)
    nxt = Ensemble(members=members, seed=ens.seed, step=k + 1)
    nxt._scratch.append(scratch)
    return nxt, KfStep(xbar, prior_cov, gain, p_z, p_ez, mean, cov)

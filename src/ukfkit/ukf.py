"""Unscented Kalman filter built on 2*l_x + 1 symmetric sigma points.

Sigma points are the columns of [c, c + p_1 .. c + p_{l_x}, c - p_1 ..
c - p_{l_x}] where p_i is the i-th column of alpha * chol(l_x * P) and c
is the current posterior mean.  The combination weights are

    w[0] = (alpha^2 - 1) / alpha^2,    w[i] = 1 / (2 alpha^2 l_x),

which sum to one for any alpha > 0.  The UKF and both variants in `eukf`
are one recursion, :func:`stack_step`, which advances a stack of filters
held as arrays, one slice per filter; each of the kf, ekf, ukf, eukfa and
eukfc steps is a one-slice call of it on an estimate.  The stack takes kf
and ekf slices, whose covariances come from :func:`kf.linearized_covs`, so
that one call per time step advances every covariance-form filter of a run,
and a caller that steps many (a run, ``verify``) carries the arrays from
step to step, at one alpha or one per sigma-point slice (``verify``'s alphas).
:func:`unscented_prior` is its one spread/propagate/centre step: it builds
the sigma points from each slice's factor, pushes those of every slice, and
the kf and ekf means of a SystemModel, through f and g in one call each, and
subtracts the weighted means.  The filters
differ only in the sigma factor and where Q enters the covariances, which
are weighted outer products of the propagated deviations, with R added to
the output covariance.

alpha < 1 makes the center weight negative and the estimated covariances
can lose definiteness; that surfaces as NotPositiveDefinite with the step
index rather than being repaired.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields

import numpy as np

from .kf import KfStep, correct_stack, linearized_covs
from .numerics import FilterDiverged, all_finite, qr_raw, solve, symmetric_part
from .statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
    measure_batch,
    step_dynamics_batch,
)

Array = np.ndarray

SIGMA_FILTERS = ("ukf", "eukfa", "eukfc")
STACK_FILTERS = ("kf", "ekf", *SIGMA_FILTERS)
_SIGMA_SET, _STACK_SET = frozenset(SIGMA_FILTERS), frozenset(STACK_FILTERS)

# Reciprocal 1-norm condition number below which A counts as singular.
_RCOND_MIN = 1e-12


class SingularDynamicsJacobian(Exception):
    """The dynamics Jacobian is too ill-conditioned to invert."""


def ukf_weights(alpha: float, l_x: int) -> Array:
    """Weight vector [w0, w1 .. w_{2 l_x}] for a float alpha and state dimension, computed once per pair and read-only."""
    if l_x < 1:
        raise ValueError(f"state dimension must be at least 1, got {l_x}")
    return _weights(float(alpha), int(l_x))[0]


@functools.lru_cache(maxsize=256)
def _weights(alpha: float | tuple, l_x: int) -> tuple[Array, Array, float | Array]:
    """Once per (alpha, l_x), alpha checked: the row weights (m,), column weights (m, 1) and spread scale alpha of a float;
    of a tuple, one alpha per sigma-point slice, the (s, 1, m), (s, m, 1) and (s, 1, 1) stacks of its entries' own."""
    if isinstance(alpha, tuple):
        rows = _read_only(np.array([_weights(a, l_x)[0] for a in alpha]).reshape(len(alpha), 1, 2 * l_x + 1))
        return rows, rows.swapaxes(-1, -2), _read_only(np.array(alpha, dtype=float).reshape(-1, 1, 1))
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    w = np.full(2 * l_x + 1, 1.0 / (2.0 * alpha**2 * l_x))
    w[0] = (alpha**2 - 1.0) / alpha**2
    return _read_only(w), w[:, None], float(alpha)


def unscented_prior(model: SystemModel, means: Array, factors: Array, alpha: float | tuple, k: int, extra: Array):
    """Sigma points around each mean (s, l_x) spread by alpha times its factor (s, l_x, l_x), pushed through f and g.

    A factor S has S S^T = l_x times the sigma scale, as est.sigma_factor()
    for est.cov.  Returns the stacked (prior means, predicted outputs, state
    deviations, output deviations), the row weights, and f(x) (e, l_x) and
    g(f(x)) (e, l_y) of each state x of `extra` (e, l_x).  alpha is a float or
    one value per slice in a tuple, list or array (ValueError if not).
    FilterDiverged names step k + 1 when f or g is non-finite at a sigma point.  f and g
    take one call each for the whole stack: the sigma points side by side as
    (l, s m) columns, then the extra states.  A LinearSystem takes stacked
    matmuls by A and by C instead, which, unlike one wide product, round each
    slice as a product over that slice alone.
    """
    try:
        w, wcol, scale = _weights(alpha, model.l_x)
    except TypeError:  # unhashable (a list, an array) or not a number: a 0-d array is read as a float, a 1-d one as a tuple
        a = np.asarray(alpha, dtype=float)
        if a.ndim > 1:
            raise ValueError(f"alpha must be a number or one per sigma-point slice, got shape {a.shape}") from None
        w, wcol, scale = _weights(tuple(a.tolist()) if a.ndim else float(a), model.l_x)
    (s, l_x), m = means.shape, w.shape[-1]
    if w.ndim > 1 and len(w) != s:
        raise ValueError(f"alpha has {len(w)} values for {s} sigma-point slices")
    p_sigma, c = scale * factors, means[..., None]
    points = np.concatenate((c, c + p_sigma, c - p_sigma), axis=-1)  # [c, c + p_i, c - p_i], p_i the columns of alpha * factor
    linear = isinstance(model, LinearSystem)
    if linear:
        xprop = np.matmul(model.A, points)
        fx = np.matmul(model.A, extra[..., None])[..., 0]
    else:
        fx = step_dynamics_batch(model, np.concatenate((points.swapaxes(0, 1).reshape(l_x, s * m), extra.T), axis=1))
        xprop = fx[:, : s * m].reshape(l_x, s, m).swapaxes(0, 1)
    if not all_finite(xprop):
        raise FilterDiverged(f"sigma points became non-finite at step {k + 1}")
    if linear:
        yprop = np.matmul(model.C, xprop)
        gx = np.matmul(model.C, fx[..., None])[..., 0]
    else:
        gx = measure_batch(model, fx)
        yprop = gx[:, : s * m].reshape(model.l_y, s, m).swapaxes(0, 1)
        fx, gx = fx[:, s * m :].T, gx[:, s * m :].T  # the extra states' columns
    if not all_finite(yprop):
        raise FilterDiverged(f"sigma outputs became non-finite at step {k + 1}")
    prior_mean, predicted_y = (xprop @ wcol)[..., 0], (yprop @ wcol)[..., 0]
    return prior_mean, predicted_y, xprop - prior_mean[..., None], yprop - predicted_y[..., None], w, fx, gx


def eukfa_sigma_scale(model: SystemModel, est: StateEstimate) -> Array:
    """Sigma factor of the inflated scale: lower-triangular S with S S^T = l_x (P + A^{-1} Q A^{-T}).

    S is R^T for the R factor of the QR decomposition of
    [chol(l_x P)^T ; sqrt(l_x) (A^{-1} L_Q)^T], with L_Q = chol(Q), and its
    columns' signs flipped so that its diagonal is positive; so S is the
    Cholesky factor up to rounding, without the eps * cond(A)^2 loss of
    forming and factoring the sum.  chol(l_x P) is the estimate's cached
    sigma factor, and L_Q is the model's ``q_factor``.  A Jacobian whose
    reciprocal 1-norm condition number is below 1e-12 raises
    SingularDynamicsJacobian naming the step.  A LinearSystem's A is
    constant, so its A^{-1} L_Q and that verdict are worked out once per model.
    """
    return _inflated_factor(model, est.mean, est.sigma_factor(f"eukfa step {est.step}"), est.step)


def _inflated_factor(model: SystemModel, mean: Array, factor: Array, k: int) -> Array:
    """:func:`eukfa_sigma_scale` from the step-k posterior mean and its factor chol(l_x P)."""
    spread = _linear_inverse_spread(model) if isinstance(model, LinearSystem) else _inverse_spread(model, jacobian_dynamics(model, mean))
    if spread is None:
        raise SingularDynamicsJacobian(f"dynamics Jacobian at step {k} is numerically singular")
    raw = np.concatenate((factor, spread), axis=1)
    qr_raw(raw.T)  # R overwrites the upper triangle of raw.T's first n rows, so R^T is the lower triangle of raw[:, :n]
    return raw[:, : model.l_x] * np.copysign(_lower_ones(model.l_x), raw.diagonal())  # column j of R^T times sign(R_jj)


def _inverse_spread(model: SystemModel, a: Array) -> Array | None:
    """sqrt(l_x) A^{-1} L_Q, or None when A is singular or 1 / (||A||_1 ||A^{-1}||_1) < 1e-12.

    One LU solve of A X = [L_Q | I] gives A^{-1} as well, so this reciprocal
    condition number is exact.  LAPACK's ``dgecon`` estimates it, up to about
    1.7x too high, so the check is very slightly stricter than an estimate's.
    """
    n = model.l_x
    try:
        x = solve(a, _q_factor_and_eye(model))
    except np.linalg.LinAlgError:  # an exact zero pivot
        return None
    norms = np.abs(np.concatenate((a, x[:, n:]))).reshape(2, n, n).sum(axis=1).max(axis=1)  # ||A||_1, ||A^{-1}||_1
    return math.sqrt(n) * x[:, :n] if 1.0 / (norms[0] * norms[1]) >= _RCOND_MIN else None


@functools.lru_cache(maxsize=16)
def _linear_inverse_spread(model: LinearSystem) -> Array | None:
    return _read_only(_inverse_spread(model, model.A))


def _output_noise(c: Array, q: Array) -> tuple[Array, Array]:
    """C Q C^T and Q C^T, the terms eukfc adds to P_z and P_ez."""
    qct = q @ c.T
    return c @ qct, qct


@functools.lru_cache(maxsize=16)
def _linear_output_noise(model: LinearSystem) -> tuple[Array, Array]:
    return tuple(map(_read_only, _output_noise(model.C, model.Q)))


@functools.lru_cache(maxsize=16)
def _q_factor_and_eye(model: SystemModel) -> Array:
    return _read_only(np.concatenate((model.q_factor, np.eye(model.l_x)), axis=1))


def _read_only(a: Array | None) -> Array | None:
    """a, made read-only, since a cache hands the same array to every caller."""
    if a is not None:
        a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _lower_ones(n: int) -> Array:
    """Read-only n x n matrix of ones on and below the diagonal; np.tri per call costs more than the product."""
    return _read_only(np.tri(n))


def _stack_error(names, k: int, l_x: int) -> ValueError:
    return ValueError(
        f"{'+'.join(map(str, names))} step {k + 1}: expected one state of shape {(l_x,)}"
        f" at one step per filter in {STACK_FILTERS}, got {names}"
    )


def _rows(rows: list[int]):
    """Row indices as a slice when they are contiguous, as run_experiment stacks its filters: an index list costs more to read and write through."""
    if not rows:
        return slice(0)
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


@functools.lru_cache(maxsize=64)
def _plan(names: tuple):
    """Once per tuple, where :func:`stack_step` finds each kind of slice (None unless all names are STACK_FILTERS): sigma-point
    rows, kf and ekf slices and rows, (sigma-point row, slice) of each eukfa, slices whose priors add Q (ukf, eukfc), eukfc slices."""
    if not names or not _STACK_SET.issuperset(names):
        return None
    sigma = [i for i, name in enumerate(names) if name in _SIGMA_SET]
    lin = [i for i, name in enumerate(names) if name not in _SIGMA_SET]
    eukfa = [(j, i) for j, i in enumerate(sigma) if names[i] == "eukfa"]
    return _rows(sigma), lin, _rows(lin), eukfa, [i for i in sigma if names[i] != "eukfa"], [i for i in sigma if names[i] == "eukfc"]


def stack_step(model: SystemModel, names, k: int, means: Array, covs: Array, factors: Array, y, alpha: float | tuple = 1.5) -> tuple[KfStep, Array]:
    """One predict/update cycle of a stack of filters at step k, as arrays, consuming the measurement at step k+1.

    Slice i runs filter names[i] (one of STACK_FILTERS, in any mix and order)
    from the posterior means[i] (l_x,), covs[i] and factors[i] = chol(l_x
    covs[i]), which sigma-point slices spread with at alpha, a float or a
    tuple (list, array) of one value per sigma-point slice.  f and g see the sigma points
    of every slice and the kf and ekf means in one call each
    (:func:`unscented_prior`); kf and ekf slices take their covariances from
    :func:`kf.linearized_covs`; eukfa's sigma factor and eukfc's C Q C^T and
    Q C^T terms (a LinearSystem's formed once) see one slice at a time; the
    rest runs as stacked numpy calls, with the bits of one-slice stacks when
    f and g keep a column's bits in any batch width (see :mod:`statespace`).
    Returns :func:`kf.correct_stack`'s stacked KfStep and posterior factors.

    What comes from outside is checked once, where it enters: the names and
    the three arrays' shapes here, alpha once per (alpha, l_x) and a tuple's
    length in :func:`unscented_prior`, y in :func:`kf.correct_stack`, and each
    output of f, g and the Jacobians as it is returned.  An unknown name, a
    wrong shape or alpha, or an f, g or Jacobian that returns one, raises
    ValueError naming filters and step.  The arrays the step forms itself are
    not checked again, except by the finiteness and definiteness checks that
    tell a diverged filter.  Where each kind of slice sits is worked out
    once per names tuple, and a message is formed only when it is raised.
    """
    n, l_x, l_y = len(names), model.l_x, model.l_y
    plan = _plan(tuple(names))
    if plan is None or means.shape != (n, l_x) or covs.shape != (n, l_x, l_x) or factors.shape != covs.shape:
        raise _stack_error(names, k, l_x)
    at, lin, lin_at, eukfa, add_q, eukfc = plan
    prior_mean, predicted_y = np.empty((n, l_x)), np.empty((n, l_y))
    p_prior, p_z, p_ez = np.empty((n, l_x, l_x)), np.empty((n, l_y, l_y)), np.empty((n, l_x, l_y))
    q = model.Q
    try:
        spread = factors[at]
        if eukfa:
            spread = spread.copy()
            for j, i in eukfa:
                spread[j] = _inflated_factor(model, means[i], factors[i], k)
        prior_mean[at], predicted_y[at], xdev, ydev, w, prior_mean[lin_at], predicted_y[lin_at] = unscented_prior(model, means[at], spread, alpha, k, means[lin_at])
        wx = xdev * w
        p_prior[at] = wx @ xdev.swapaxes(-1, -2)
        p_z[at] = (ydev * w) @ ydev.swapaxes(-1, -2)
        p_ez[at] = wx @ ydev.swapaxes(-1, -2)
        for i in lin:  # the covariances through the Jacobians
            if isinstance(model, LinearSystem):
                a, c = model.A, model.C
            else:
                a, c = jacobian_dynamics(model, means[i]), jacobian_measurement(model, prior_mean[i])
            p_prior[i], p_z[i], p_ez[i] = linearized_covs(a, covs[i], c, q)
        # ukf adds Q to the prior; eukfa brings Q in through its sigma spread; eukfc adds Q and its C Q C^T, Q C^T terms.
        for i in add_q:
            p_prior[i] += q
        for i in eukfc:
            if isinstance(model, LinearSystem):  # fixed, so formed once per model
                cqct, qct = _linear_output_noise(model)
            else:
                cqct, qct = _output_noise(jacobian_measurement(model, prior_mean[i]), q)
            p_z[i] += cqct
            p_ez[i] += qct
    except ValueError as exc:  # from alpha, the model's f, g or a Jacobian; correct_stack names its own
        raise ValueError(f"{'+'.join(names)} step {k + 1}: {exc}") from exc
    p_z += model.R
    return correct_stack(names, k + 1, prior_mean, symmetric_part(p_prior), symmetric_part(p_z), p_ez, y, predicted_y)


def _step_one(name: str, model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """Filter `name` stepped from one estimate as a one-slice :func:`stack_step`: (estimate at step k+1, KfStep).

    Only a sigma-point filter factors P, so only its P must be SPD; a wrong-length state raises ValueError naming filter and step.
    """
    k, l_x = est.step, model.l_x
    if est.mean.shape != (l_x,):
        raise _stack_error((name,), k, l_x)
    factor = est.sigma_factor(f"{name} step {k}") if name in _SIGMA_SET else np.zeros((l_x, l_x))
    rec, factors = stack_step(model, (name,), k, est.mean[None], est.cov[None], factor[None], y, alpha)
    rec = KfStep(*(getattr(rec, f.name)[0] for f in fields(KfStep)))
    return StateEstimate.with_factor(rec.posterior_mean, rec.posterior_cov, k + 1, factors[0]), rec


def ukf_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """One UKF predict/update cycle, consuming the measurement at step k+1."""
    return _step_one("ukf", model, est, y, alpha)

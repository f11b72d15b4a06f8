"""Unscented Kalman filter built on 2*l_x + 1 symmetric sigma points.

Sigma points are the columns of [c, c + p_1 .. c + p_{l_x}, c - p_1 ..
c - p_{l_x}] where p_i is the i-th column of alpha * chol(l_x * P) and c
is the current posterior mean.  The combination weights are

    w[0] = (alpha^2 - 1) / alpha^2,    w[i] = 1 / (2 alpha^2 l_x),

which sum to one for any alpha > 0.  The UKF and both variants in `eukf`
are one recursion, :func:`stack_step`, which advances a stack of filters
held as arrays, one slice per filter; :func:`sigma_step` runs it on
estimates, and ``ukf_step``, ``eukfa_step`` and ``eukfc_step`` are one-slice
calls of that.  The stack also takes kf and ekf slices, whose prior is
:func:`kf.linearized_prior`, so that one call per time step advances every
covariance-form filter of a run, which carries the arrays from step to
step.  :func:`unscented_prior` is its one
spread/propagate/centre step: it builds the sigma points from each slice's
factor, pushes those of every slice through f and g in one call each, and
subtracts the weighted means.  The filters differ only in the sigma factor
and where Q enters the covariances, which are weighted outer products of the
propagated deviations, with R added to the output covariance.

alpha < 1 makes the center weight negative and the estimated covariances
can lose definiteness; that surfaces as NotPositiveDefinite with the step
index rather than being repaired.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .kf import KfStep, correct_stack, linearized_prior, unstack
from .numerics import FilterDiverged, all_finite, symmetrize
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
    """Weight vector [w0, w1 .. w_{2 l_x}] for a given alpha and state dimension.

    The vector is computed once per (alpha, l_x) and is read-only.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if l_x < 1:
        raise ValueError(f"state dimension must be at least 1, got {l_x}")
    return _weights(float(alpha), int(l_x))


@functools.lru_cache(maxsize=256)
def _weights(alpha: float, l_x: int) -> Array:
    w = np.full(2 * l_x + 1, 1.0 / (2.0 * alpha**2 * l_x))
    w[0] = (alpha**2 - 1.0) / alpha**2
    return _read_only(w)


def _spread(center: Array, factor: Array, alpha: float) -> Array:
    """Columns [c, c + p_i, c - p_i] with p_i the columns of alpha * factor, for each slice of a stack."""
    p_sigma = alpha * factor
    c = center[..., None]
    return np.concatenate((c, c + p_sigma, c - p_sigma), axis=-1)


def unscented_prior(
    model: SystemModel, means: Array, factors: Array, alpha: float, k: int = 0
) -> tuple[Array, Array, Array, Array, Array]:
    """Sigma points around each mean (s, l_x) spread by alpha times its factor (s, l_x, l_x), pushed through f and g.

    A factor S has S S^T = l_x times the sigma scale, as est.sigma_factor()
    for est.cov.  Returns the stacked (prior means, predicted outputs, state
    deviations, output deviations) and the weights.  Raises FilterDiverged
    naming step k + 1 when f or g returns a non-finite value.  f and g each
    take one call for the whole stack, on its sigma points side by side as
    (l, s m) columns.  A LinearSystem takes one stacked matmul by A and by C
    over the (s, l, m) points instead: a wide product can round a slice
    otherwise than a product over that slice alone, a stacked one does not.
    """
    w = ukf_weights(alpha, model.l_x)
    points = _spread(means, factors, alpha)
    s, l_x, m = points.shape
    linear = isinstance(model, LinearSystem)
    if linear:
        xprop = np.matmul(model.A, points)
    else:
        flat = step_dynamics_batch(model, points.swapaxes(0, 1).reshape(l_x, s * m))
        xprop = flat.reshape(l_x, s, m).swapaxes(0, 1)
    if not all_finite(xprop):
        raise FilterDiverged(f"sigma points became non-finite at step {k + 1}")
    yprop = np.matmul(model.C, xprop) if linear else measure_batch(model, flat).reshape(model.l_y, s, m).swapaxes(0, 1)
    if not all_finite(yprop):
        raise FilterDiverged(f"sigma outputs became non-finite at step {k + 1}")
    prior_mean, predicted_y = xprop @ w, yprop @ w
    return prior_mean, predicted_y, xprop - prior_mean[..., None], yprop - predicted_y[..., None], w


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
    if isinstance(model, LinearSystem):
        spread = _linear_inverse_spread(model)
    else:
        spread = _inverse_spread(model, jacobian_dynamics(model, mean))
    if spread is None:
        raise SingularDynamicsJacobian(f"dynamics Jacobian at step {k} is numerically singular")
    n = model.l_x
    # The raw QR is LAPACK's output transposed: R^T is the lower triangle of its first n columns.
    rt = np.linalg.qr(np.concatenate((factor, spread), axis=1).T, mode="raw")[0][:, :n]
    return rt * np.copysign(_lower_ones(n), rt.diagonal())  # the lower triangle, column j times sign(R_jj)


def _inverse_spread(model: SystemModel, a: Array) -> Array | None:
    """sqrt(l_x) A^{-1} L_Q, or None when A is singular or 1 / (||A||_1 ||A^{-1}||_1) < 1e-12.

    One LU solve of A X = [L_Q | I] gives A^{-1} as well, so this reciprocal
    condition number is exact.  LAPACK's ``dgecon`` estimates it, up to about
    1.7x too high, so the check is very slightly stricter than an estimate's.
    """
    n = model.l_x
    try:
        x = np.linalg.solve(a, _q_factor_and_eye(model))
    except np.linalg.LinAlgError:  # an exact zero pivot
        return None
    norms = np.abs(np.concatenate((a, x[:, n:]))).reshape(2, n, n).sum(axis=1).max(axis=1)  # ||A||_1, ||A^{-1}||_1
    return math.sqrt(n) * x[:, :n] if 1.0 / (norms[0] * norms[1]) >= _RCOND_MIN else None


@functools.lru_cache(maxsize=16)
def _linear_inverse_spread(model: LinearSystem) -> Array | None:
    return _read_only(_inverse_spread(model, model.A))


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


def stack_step(model: SystemModel, names, k: int, means: Array, covs: Array, factors: Array, y, alpha: float = 1.5) -> tuple[KfStep, Array]:
    """One predict/update cycle of a stack of filters at step k, as arrays, consuming the measurement at step k+1.

    Slice i runs filter names[i] (one of STACK_FILTERS, in any mix and order)
    from the posterior means[i] (l_x,), covs[i] and factors[i] = chol(l_x
    covs[i]), which sigma-point slices spread with.  kf and ekf slices take
    their prior from :func:`kf.linearized_prior`; eukfa's sigma factor and
    eukfc's C Q C^T and Q C^T terms see one slice at a time; f and g see the
    sigma points of every slice in one call (:func:`unscented_prior`); the
    rest runs as stacked numpy calls, with the bits of one-slice stacks when
    f and g keep a column's bits in any batch width (see :mod:`statespace`).
    Returns :func:`kf.correct_stack`'s stacked KfStep and posterior factors.
    An unknown name or a wrong shape raises ValueError naming filters and step.
    """
    n, l_x, l_y = len(names), model.l_x, model.l_y
    if not n or not _STACK_SET.issuperset(names) or means.shape != (n, l_x) or covs.shape != (n, l_x, l_x) or factors.shape != covs.shape:
        raise _stack_error(names, k, l_x)
    sigma = [i for i, name in enumerate(names) if name in _SIGMA_SET]
    # A contiguous run of sigma slices, as run_experiment stacks them, is read and written through a slice: an index list costs more.
    at = slice(sigma[0], sigma[-1] + 1) if sigma and sigma[-1] - sigma[0] == len(sigma) - 1 else sigma
    prior_mean, predicted_y = np.empty((n, l_x)), np.empty((n, l_y))
    p_prior, p_z, p_ez = np.empty((n, l_x, l_x)), np.empty((n, l_y, l_y)), np.empty((n, l_x, l_y))
    if sigma:
        spread = factors[at]
        if "eukfa" in names:
            spread = np.array([_inflated_factor(model, means[i], factors[i], k) if names[i] == "eukfa" else factors[i] for i in sigma])
        prior_mean[at], predicted_y[at], xdev, ydev, w = unscented_prior(model, means[at], spread, alpha, k)
        wx = xdev * w
        p_prior[at] = wx @ xdev.swapaxes(-1, -2)
        p_z[at] = (ydev * w) @ ydev.swapaxes(-1, -2)
        p_ez[at] = wx @ ydev.swapaxes(-1, -2)
    for i, name in enumerate(names):
        # kf and ekf linearize; ukf adds Q to the prior; eukfa brings Q in through its sigma spread; eukfc adds Q and
        # its C Q C^T, Q C^T terms.
        if name not in _SIGMA_SET:
            prior_mean[i], p_prior[i], p_z[i], p_ez[i], predicted_y[i] = linearized_prior(name, model, means[i], covs[i], k)
            continue
        if name != "eukfa":
            p_prior[i] += model.Q
        if name == "eukfc":
            c = jacobian_measurement(model, prior_mean[i])
            qct = model.Q @ c.T
            p_z[i] += c @ qct
            p_ez[i] += qct
    return correct_stack(names, k + 1, prior_mean, symmetrize(p_prior), symmetrize(p_z + model.R), p_ez, y, predicted_y)


def sigma_step(model: SystemModel, names, ests, y, alpha: float = 1.5) -> list[tuple[StateEstimate, KfStep]]:
    """:func:`stack_step` from one estimate per filter, all at one step, as one (next estimate, KfStep) pair per slice.

    A mixed step or a state of the wrong length raises ValueError as well.
    """
    k = ests[0].step if ests else -1
    l_x = model.l_x
    if len(names) != len(ests) or not _STACK_SET.issuperset(names) or {(est.step, est.mean.shape) for est in ests} != {(k, (l_x,))}:
        raise _stack_error(names, k, l_x)
    # Only the sigma-point slices read their factor; kf and ekf slices may start from a P that has none.
    factors = np.array([est.sigma_factor(f"{name} step {k}") if name in _SIGMA_SET else np.zeros((l_x, l_x)) for name, est in zip(names, ests)])
    means, covs = np.array([est.mean for est in ests]), np.array([est.cov for est in ests])
    return unstack(k + 1, *stack_step(model, names, k, means, covs, factors, y, alpha))


def ukf_step(model: SystemModel, est: StateEstimate, y, alpha: float = 1.5) -> tuple[StateEstimate, KfStep]:
    """One UKF predict/update cycle, consuming the measurement at step k+1."""
    return sigma_step(model, ("ukf",), (est,), y, alpha)[0]

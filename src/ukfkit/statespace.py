"""Discrete-time state-space models and the built-in benchmark systems.

A :class:`SystemModel` is the nonlinear form

    x_{k+1} = f(x_k, k) + w_k,      w_k ~ N(0, Q_k),
    y_k     = g(x_k, k) + v_k,      v_k ~ N(0, R_k),

with optional analytic Jacobians jac_f(x, k) and jac_g(x, k); central
differences stand in for a missing one.  :class:`LinearSystem` is the
special case f = A x, g = C x with exact Jacobians A and C.

Model callables take a single state of shape (l_x,) and a column-stacked
batch of shape (l_x, m); the batch helpers pass the whole batch in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .numerics import spd_sqrt_factor, symmetrize

Array = np.ndarray
MatrixLike = Union[Array, Callable[[int], Array]]


def _as_schedule(value, name: str):
    """Normalize a constant matrix or a function of the step index k."""
    if callable(value):
        return value
    mat = np.asarray(value, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {mat.shape}")
    return lambda k: mat


def noise_cov(value, dim: int) -> Array:
    """Expand a noise covariance: scalar q -> q*I, vector -> diag, matrix as is."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.size != dim:
            raise ValueError(f"diagonal of length {arr.size} for dimension {dim}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ValueError(f"covariance shape {arr.shape} does not match dimension {dim}")
    return arr


def noise_factor(m: Array, where: str = "") -> Array:
    """Factor S with S @ S.T = M for a noise covariance; all-zero M is allowed.

    M is symmetrized first, since it comes from the user's model.
    """
    m = symmetrize(m)
    if not m.any():
        return np.zeros_like(m)
    return spd_sqrt_factor(m, where)


class NoiseFactorCache:
    """:func:`noise_factor` of the last matrix passed in, reused while its bits stay the same.

    A constant Q or R schedule is factored once per run.  The cache keys on
    the matrix values, not on the object, so a schedule may also refill one
    buffer in place and return it at every step.  Key and factor are stored
    as one tuple, replaced in a single assignment, so threads sharing a
    cache never pair one matrix's key with another's factor.
    """

    def __init__(self):
        self._entry = (None, None)

    def __call__(self, m: Array, where: str = "") -> Array:
        m = np.asarray(m, dtype=float)
        key = (m.shape, m.tobytes())
        cached_key, factor = self._entry
        if key != cached_key:
            factor = noise_factor(m, where)
            self._entry = (key, factor)
        return factor


@dataclass
class SystemModel:
    """Nonlinear discrete-time model with noise covariances and Jacobians.

    Q and R may be given as constant matrices or as functions of the step
    index; after construction they are always callables ``Q(k)``, ``R(k)``.
    ``q_factor`` is a :class:`NoiseFactorCache` for the factor of Q that
    eukfa reads at every step; it takes no part in ``==`` or ``repr``.
    """

    l_x: int
    l_y: int
    f: Callable[[Array, int], Array]
    g: Callable[[Array, int], Array]
    Q: MatrixLike
    R: MatrixLike
    jac_f: Optional[Callable[[Array, int], Array]] = None
    jac_g: Optional[Callable[[Array, int], Array]] = None
    q_factor: NoiseFactorCache = field(default_factory=NoiseFactorCache, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.Q = _as_schedule(self.Q, "Q")
        self.R = _as_schedule(self.R, "R")


class LinearSystem(SystemModel):
    """Linear model x_{k+1} = A x + w, y = C x + v: a SystemModel with exact Jacobians A and C.

    A, C, Q, R accept constant matrices or functions of k; A and C stay
    readable as the schedules ``A(k)`` and ``C(k)``.
    """

    def __init__(self, A: MatrixLike, C: MatrixLike, Q: MatrixLike, R: MatrixLike):
        a, c = _as_schedule(A, "A"), _as_schedule(C, "C")
        a0, c0 = a(0), c(0)
        if a0.shape[0] != a0.shape[1]:
            raise ValueError(f"A must be square, got shape {a0.shape}")
        if c0.shape[1] != a0.shape[0]:
            raise ValueError(f"C shape {c0.shape} does not match state dimension {a0.shape[0]}")
        self.A, self.C = a, c
        super().__init__(
            l_x=a0.shape[0],
            l_y=c0.shape[0],
            f=lambda x, k: a(k) @ x,
            g=lambda x, k: c(k) @ x,
            Q=Q,
            R=R,
            jac_f=lambda x, k: a(k),
            jac_g=lambda x, k: c(k),
        )


@dataclass(frozen=True)
class StateEstimate:
    """Posterior mean and covariance at a step: (x_hat_{k|k}, P_{k|k}, k).

    Two estimates are equal when step, mean and cov are.  The factor
    chol(l_x * cov) is cached on the estimate the first time
    :meth:`sigma_factor` computes it; the cache takes no part in ``==`` or
    ``repr``.  Treat mean and cov as read-only once the factor is cached.
    """

    mean: Array
    cov: Array
    step: int = 0
    _sigma_factor: Optional[Array] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = symmetrize(self.cov)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.step == other.step
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.cov, other.cov)
        )

    def sigma_factor(self, where: str = "") -> Array:
        """Lower Cholesky factor of l_x * cov, the unscaled sigma-point spread.

        Computed once per estimate; raises NotPositiveDefinite, naming
        `where`, when cov is not SPD.
        """
        if self._sigma_factor is None:
            object.__setattr__(self, "_sigma_factor", spd_sqrt_factor(self.mean.size * self.cov, where))
        return self._sigma_factor


def _check_state(model: SystemModel, x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.l_x,):
        raise ValueError(f"state shape {x.shape}, expected ({model.l_x},)")
    return x


def step_dynamics(model: SystemModel, x: Array, k: int = 0) -> Array:
    """Noise-free dynamics f_k(x)."""
    x = _check_state(model, x)
    out = np.asarray(model.f(x, k), dtype=float)
    if out.shape != (model.l_x,):
        raise ValueError(f"f returned shape {out.shape}, expected ({model.l_x},)")
    return out


def measure(model: SystemModel, x: Array, k: int = 0) -> Array:
    """Noise-free measurement g_k(x)."""
    x = _check_state(model, x)
    out = np.asarray(model.g(x, k), dtype=float)
    if out.shape != (model.l_y,):
        raise ValueError(f"g returned shape {out.shape}, expected ({model.l_y},)")
    return out


def step_dynamics_batch(model: SystemModel, xs: Array, k: int = 0) -> Array:
    """f applied to column-stacked states in one call."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(model.f(xs, k), dtype=float)
    if out.shape != xs.shape:
        raise ValueError(f"batched f returned shape {out.shape}, expected {xs.shape}")
    return out


def measure_batch(model: SystemModel, xs: Array, k: int = 0) -> Array:
    """g applied to column-stacked states in one call."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(model.g(xs, k), dtype=float)
    if out.shape != (model.l_y, xs.shape[1]):
        raise ValueError(f"batched g returned shape {out.shape}, expected {(model.l_y, xs.shape[1])}")
    return out


def jacobian_fd(fn: Callable[[Array], Array], x: Array, h: Optional[float] = None) -> Array:
    """Central-difference Jacobian; column j is (fn(x+h e_j) - fn(x-h e_j)) / 2h."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        hi = np.asarray(fn(x + e), dtype=float)
        lo = np.asarray(fn(x - e), dtype=float)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise FloatingPointError(f"non-finite function value while differencing column {j}")
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def jacobian_dynamics(model: SystemModel, x: Array, k: int = 0) -> Array:
    """d f / d x at (x, k): analytic when attached, central differences otherwise."""
    x = _check_state(model, x)
    if model.jac_f is not None:
        jac = np.asarray(model.jac_f(x, k), dtype=float)
    else:
        jac = jacobian_fd(lambda z: model.f(z, k), x)
    if jac.shape != (model.l_x, model.l_x):
        raise ValueError(f"dynamics Jacobian shape {jac.shape}, expected ({model.l_x}, {model.l_x})")
    return jac


def jacobian_measurement(model: SystemModel, x: Array, k: int = 0) -> Array:
    """d g / d x at (x, k): analytic when attached, central differences otherwise."""
    x = _check_state(model, x)
    if model.jac_g is not None:
        jac = np.asarray(model.jac_g(x, k), dtype=float)
    else:
        jac = jacobian_fd(lambda z: model.g(z, k), x)
    if jac.shape != (model.l_y, model.l_x):
        raise ValueError(f"measurement Jacobian shape {jac.shape}, expected ({model.l_y}, {model.l_x})")
    return jac


def make_vdp(ts: float = 0.01, mu: float = 1.0, q=0.01, r=1e-4) -> SystemModel:
    """Euler-discretized Van der Pol oscillator observed in its first coordinate.

    f(x) = [x1 + ts*x2, x2 + ts*(mu*(1 - x1^2)*x2 - x1)], C = [1 0],
    with Q = 0.01*I and R = 1e-4 by default.
    """
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    c = np.array([[1.0, 0.0]])

    def f(x, k):
        x1, x2 = x
        return np.array([x1 + ts * x2, x2 + ts * (mu * (1.0 - x1**2) * x2 - x1)])

    def jac(x, k):
        x1, x2 = x
        return np.array(
            [
                [1.0, ts],
                [ts * (-2.0 * mu * x1 * x2 - 1.0), 1.0 + ts * mu * (1.0 - x1**2)],
            ]
        )

    return SystemModel(
        l_x=2,
        l_y=1,
        f=f,
        g=lambda x, k: c @ x,
        Q=noise_cov(q, 2),
        R=noise_cov(r, 1),
        jac_f=jac,
        jac_g=lambda x, k: c,
    )


def make_lorenz(
    ts: float = 0.01,
    sigma: float = 10.0,
    rho: float = 28.0,
    beta: float = 8.0 / 3.0,
    q=0.01,
    r=1e-4,
) -> SystemModel:
    """Forward-Euler Lorenz-63 model observed in its second coordinate.

    f(x) = x + ts * [sigma*(x2-x1), x1*(rho-x3)-x2, x1*x2 - beta*x3],
    C = [0 1 0], Q = 0.01*I, R = 1e-4 by default.  The default parameters
    put the system in its chaotic regime.
    """
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    c = np.array([[0.0, 1.0, 0.0]])

    def f(x, k):
        x1, x2, x3 = x
        return np.array(
            [
                x1 + ts * sigma * (x2 - x1),
                x2 + ts * (x1 * (rho - x3) - x2),
                x3 + ts * (x1 * x2 - beta * x3),
            ]
        )

    def jac(x, k):
        x1, x2, x3 = x
        return np.eye(3) + ts * np.array(
            [
                [-sigma, sigma, 0.0],
                [rho - x3, -1.0, -x1],
                [x2, x1, -beta],
            ]
        )

    return SystemModel(
        l_x=3,
        l_y=1,
        f=f,
        g=lambda x, k: c @ x,
        Q=noise_cov(q, 3),
        R=noise_cov(r, 1),
        jac_f=jac,
        jac_g=lambda x, k: c,
    )


def make_linear_ex1(q=1.0, r=1.0) -> LinearSystem:
    """First benchmark linear system: unstable A, scalar output."""
    return LinearSystem(
        A=np.array([[2.4, 2.1], [0.0, -0.7]]),
        C=np.array([[-0.4, -0.9]]),
        Q=noise_cov(q, 2),
        R=noise_cov(r, 1),
    )


def make_linear_ex2(q=0.1, r=0.1) -> LinearSystem:
    """Second benchmark linear system: eigenvalues on the unit circle, detectable."""
    return LinearSystem(
        A=np.array([[1.6, -1.0], [1.0, 0.0]]),
        C=np.array([[1.0, -0.3]]),
        Q=noise_cov(q, 2),
        R=noise_cov(r, 1),
    )

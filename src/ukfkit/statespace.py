"""Discrete-time state-space models and the built-in benchmark systems.

A :class:`SystemModel` is the time-invariant nonlinear form

    x_{k+1} = f(x_k) + w_k,      w_k ~ N(0, Q),
    y_k     = g(x_k) + v_k,      v_k ~ N(0, R),

with optional analytic Jacobians jac_f(x) and jac_g(x); central
differences stand in for a missing one.  :class:`LinearSystem` is the
special case f = A x, g = C x with exact Jacobians A and C.

Model callables take a single state of shape (l_x,) and a column-stacked
batch of shape (l_x, m); the batch helpers pass the whole batch in one call.
Column j of a batch result must depend on column j alone: the sigma-point
filters of one step share a batch, side by side, and the EnKF passes all its
members.  A column then has the same bits in a batch of any width when its
arithmetic is elementwise, or exact, as in the built-in nonlinear models (f
elementwise, Lorenz's formed in place in one fresh array; g the observed row
of its input, as a view).  A g that returns a view of its input is allowed:
its callers read its result before anything writes that input.  The view has
the bits of the 0/1 product C @ x, the models' ``jac_g``, on finite states,
except that it keeps a -0.0 which the product turns into +0.0; a non-finite
entry in an unobserved row stays out of it, where the product would carry a
NaN.  A general matrix product such as C @ x may round a column differently
in a wider batch, so filters stacked on such a model agree with each filter
run alone only to rounding.  A single state is not a batch of width 1 for
vdp: its f and jac square a scalar x1 by libm pow (np.float64 ** 2, not
correctly rounded), while x1**2 on a batch row is np.square, one ulp apart in
about 1 of 1200 normal draws, so vdp's truth and its filters may round x1**2
differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import all_finite, spd_sqrt_factor, symmetrize

Array = np.ndarray


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


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Time-invariant nonlinear model with noise covariances and Jacobians.

    Q (l_x x l_x) and R (l_y x l_y) are kept as read-only float copies, and
    their noise factors ``q_factor`` and ``r_factor`` are computed once, here.
    A Q or R of another shape or with a non-finite entry raises ValueError
    naming it; one that cannot be factored raises NotPositiveDefinite.  The
    model is frozen, so Q, R and their factors stay in step; models compare
    by identity.
    """

    l_x: int
    l_y: int
    f: Callable[[Array], Array]
    g: Callable[[Array], Array]
    Q: Array
    R: Array
    jac_f: Optional[Callable[[Array], Array]] = None
    jac_g: Optional[Callable[[Array], Array]] = None
    q_factor: Array = field(init=False, repr=False)
    r_factor: Array = field(init=False, repr=False)

    def __post_init__(self):
        for name, dim in (("Q", self.l_x), ("R", self.l_y)):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (dim, dim):
                raise ValueError(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
            if not all_finite(m):
                raise ValueError(f"{name} must be finite, got {m.tolist()}")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            object.__setattr__(self, f"{name.lower()}_factor", noise_factor(m, name))


@dataclass(frozen=True, eq=False, init=False)
class LinearSystem(SystemModel):
    """Linear model x_{k+1} = A x + w, y = C x + v: a SystemModel with exact Jacobians A and C.

    A and C are read-only float copies, used by f, g and the Jacobians;
    like the other fields they cannot be reassigned.
    """

    A: Array = field(init=False)
    C: Array = field(init=False)

    def __init__(self, A: Array, C: Array, Q: Array, R: Array):
        a, c = np.array(A, dtype=float), np.array(C, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if c.ndim != 2 or c.shape[1] != a.shape[0]:
            raise ValueError(f"C shape {c.shape} does not match state dimension {a.shape[0]}")
        for name, m in (("A", a), ("C", c)):
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        super().__init__(
            l_x=a.shape[0],
            l_y=c.shape[0],
            f=lambda x: a @ x,
            g=lambda x: c @ x,
            Q=Q,
            R=R,
            jac_f=lambda x: a,
            jac_g=lambda x: c,
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

    @classmethod
    def with_factor(cls, mean: Array, cov: Array, step: int, factor: Array) -> StateEstimate:
        """An unchecked estimate from a mean, a symmetric covariance and its factor chol(l_x cov), which it caches."""
        est = object.__new__(cls)
        for name, value in (("mean", mean), ("cov", cov), ("step", step), ("_sigma_factor", factor)):
            object.__setattr__(est, name, value)
        return est

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


def step_dynamics(model: SystemModel, x: Array) -> Array:
    """Noise-free dynamics f(x)."""
    return _output(model.f, _check_state(model, x), (model.l_x,), "f")


def measure(model: SystemModel, x: Array) -> Array:
    """Noise-free measurement g(x)."""
    return _output(model.g, _check_state(model, x), (model.l_y,), "g")


def _output(fn: Callable[[Array], Array], x: Array, shape: tuple[int, ...], name: str) -> Array:
    out = np.asarray(fn(x), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape}, expected {shape}")
    return out


def step_dynamics_batch(model: SystemModel, xs: Array) -> Array:
    """f applied to column-stacked states in one call."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(model.f(xs), dtype=float)
    if out.shape != xs.shape:
        raise ValueError(f"batched f returned shape {out.shape}, expected {xs.shape}")
    return out


def measure_batch(model: SystemModel, xs: Array) -> Array:
    """g applied to column-stacked states in one call."""
    xs = np.asarray(xs, dtype=float)
    out = np.asarray(model.g(xs), dtype=float)
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
        if not all_finite(hi, lo):
            raise FloatingPointError(f"non-finite function value while differencing column {j}")
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def jacobian_dynamics(model: SystemModel, x: Array) -> Array:
    """d f / d x at x: analytic when attached, central differences otherwise."""
    return _jacobian(model, _check_state(model, x), model.jac_f, model.f, model.l_x, "dynamics")


def jacobian_measurement(model: SystemModel, x: Array) -> Array:
    """d g / d x at x: analytic when attached, central differences otherwise."""
    return _jacobian(model, _check_state(model, x), model.jac_g, model.g, model.l_y, "measurement")


def _jacobian(model: SystemModel, x: Array, jac_fn, fn, rows: int, kind: str) -> Array:
    jac = np.asarray(jac_fn(x), dtype=float) if jac_fn is not None else jacobian_fd(fn, x)
    if jac.shape != (rows, model.l_x):
        raise ValueError(f"{kind} Jacobian shape {jac.shape}, expected ({rows}, {model.l_x})")
    return jac


def make_vdp(ts: float = 0.01, mu: float = 1.0, q=0.01, r=1e-4) -> SystemModel:
    """Euler-discretized Van der Pol oscillator observed in its first coordinate.

    f(x) = [x1 + ts*x2, x2 + ts*(mu*(1 - x1^2)*x2 - x1)] and g(x) = C x
    with C = [1 0], returned as a view of row x1; Q = 0.01*I and R = 1e-4
    by default.
    """
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    c = np.array([[1.0, 0.0]])

    def f(x):
        x1, x2 = x
        return np.array([x1 + ts * x2, x2 + ts * (mu * (1.0 - x1**2) * x2 - x1)])

    def jac(x):
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
        g=lambda x: x[:1],  # the row C x selects, as a view
        Q=noise_cov(q, 2),
        R=noise_cov(r, 1),
        jac_f=jac,
        jac_g=lambda x: c,
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
    g(x) = C x with C = [0 1 0], returned as a view of row x2; Q = 0.01*I,
    R = 1e-4 by default.  The default parameters put the system in its
    chaotic regime.
    """
    if ts <= 0:
        raise ValueError(f"step size must be positive, got {ts}")
    c = np.array([[0.0, 1.0, 0.0]])

    def f(x):
        x1, x2, x3 = x
        if not isinstance(x, np.ndarray) or x.ndim < 2:  # for one state, numpy-scalar arithmetic beats out= calls
            return np.array(
                [
                    x1 + ts * sigma * (x2 - x1),
                    x2 + ts * (x1 * (rho - x3) - x2),
                    x3 + ts * (x1 * x2 - beta * x3),
                ]
            )
        out = np.empty(x.shape)  # a batch: the same operations, in place; row 1 holds beta*x3 until row 3 is done
        o1, o2, o3 = out
        np.multiply(beta, x3, out=o1)
        np.add(x3, np.multiply(ts, np.subtract(np.multiply(x1, x2, out=o3), o1, out=o3), out=o3), out=o3)
        np.add(x2, np.multiply(ts, np.subtract(np.multiply(x1, np.subtract(rho, x3, out=o2), out=o2), x2, out=o2), out=o2), out=o2)
        np.add(x1, np.multiply(ts * sigma, np.subtract(x2, x1, out=o1), out=o1), out=o1)
        return out

    # I + ts * M entry by entry in Python floats, with the bits of the array expression; the constant entries once.
    j00, j01, j02, j11, j22 = 1.0 + ts * -sigma, 0.0 + ts * sigma, 0.0 + ts * 0.0, 1.0 + ts * -1.0, 1.0 + ts * -beta

    def jac(x):
        x1, x2, x3 = np.asarray(x).tolist()  # Python floats build the array faster than numpy scalars
        return np.array([[j00, j01, j02], [0.0 + ts * (rho - x3), j11, 0.0 + ts * -x1], [0.0 + ts * x2, 0.0 + ts * x1, j22]])

    return SystemModel(
        l_x=3,
        l_y=1,
        f=f,
        g=lambda x: x[1:2],  # the row C x selects, as a view
        Q=noise_cov(q, 3),
        R=noise_cov(r, 1),
        jac_f=jac,
        jac_g=lambda x: c,
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

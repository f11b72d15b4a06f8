"""Small dense SPD-matrix helpers shared by all filters.

Covariances are kept honest in two ways: every stored covariance passes
through :func:`symmetrize` where it is formed, and positive definiteness
is checked by attempting a Cholesky factorization.  A factorization that
fails gets one retry with a trace-scaled diagonal jitter; anything worse
raises :class:`NotPositiveDefinite` instead of being silently repaired,
because a covariance that far gone usually means the filter has diverged.

The factorizations and solves (:func:`cholesky`, :func:`solve`,
:func:`qr_raw`) call numpy.linalg's LAPACK gufuncs without its Python
wrappers, with its bits and errors, so numpy is the only runtime dependency.
At order one (P_z with one output) a factor is ``np.sqrt`` and a solve
divides for one right-hand side and multiplies by the reciprocal for more,
as OpenBLAS's ``potrf`` and ``dgesv`` do, so the bits are LAPACK's when
numpy links OpenBLAS, as its Linux and Windows wheels do; the tests pin
them, so a BLAS that rounds otherwise (Accelerate, MKL) fails them instead
of moving output bits.  :func:`spd_sqrt_factor` and :func:`solve_spd` read
only the lower triangle of M, as LAPACK does, so M must be exactly
symmetric; they do not symmetrize it again.  Callers that hold a
user-supplied matrix symmetrize it first.  :func:`solve_spd` keeps the
finiteness check; :func:`cholesky_solve` skips it: the filters' one caller,
:func:`kf.kf_gain`, raises FilterDiverged on a non-finite P_z or P_ez
before it factors P_z and solves for the gain.

The helpers take a leading stack axis, one matrix per filter of a stacked
step, and run each operation as one numpy call over the stack.  A slice of a
stack gets the same bits as that matrix alone, provided the matrices are
laid out in memory as they would be alone: the BLAS kernel that a product
uses depends on the layout, and so do the last bits of its result.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg  # private to numpy; tests/test_imports.py names the four gufuncs used here


class NotPositiveDefinite(Exception):
    """A covariance matrix could not be factored, even after jitter."""


class FilterDiverged(Exception):
    """A filter produced non-finite states or outputs."""


# As numpy.linalg: LinAlgError iff a gufunc failed (NaN-filled, FP invalid set), other flags ignored; a decorator is the cheapest errstate.
@np.errstate(all="ignore", invalid="raise")
def _lapack(gufunc, error: str, *operands: np.ndarray) -> np.ndarray:
    try:
        return gufunc(*operands, signature="dd->d" if len(operands) == 2 else "d->d")
    except FloatingPointError:
        raise np.linalg.LinAlgError(error) from None


def cholesky(m: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(m) for a float stack (..., n, n): its lower factors, or LinAlgError if one is not SPD."""
    return _lapack(_umath_linalg.cholesky_lo, "Matrix is not positive definite", m)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) by LU for stacks (..., n, n) and (..., n, k) or vectors (..., n); LinAlgError at a zero pivot."""
    return _lapack(_umath_linalg.solve1 if b.ndim == a.ndim - 1 else _umath_linalg.solve, "Singular matrix", a, b)


def qr_raw(a: np.ndarray) -> np.ndarray:
    """np.linalg.qr(a, mode="raw")'s tau for a float stack (..., m, n), its R written over a; dgeqrf never fails, so no errstate."""
    return _umath_linalg.qr_r_raw(a, signature="d->d")


def all_finite(*arrays: np.ndarray) -> bool:
    """np.isfinite(a).all() for every array a; counting is cheaper than the reduction on small arrays."""
    for a in arrays:
        if np.count_nonzero(np.isfinite(a)) != a.size:
            return False
    return True


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2, for each matrix of a stack (..., n, n)."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return symmetric_part(m)


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """:func:`symmetrize` without the checks, for a float stack of square matrices that the caller formed itself."""
    s = m + m.swapaxes(-1, -2)
    s *= 0.5
    return s


def spd_sqrt_factor(m: np.ndarray, where: str = "") -> np.ndarray:
    """Lower-triangular factor S of a symmetric positive definite M, with S @ S.T == M.

    Only the lower triangle of M is read, so M must be symmetric.  One
    retry with eps*I added, eps = 1e-12 * trace(M) / n, covers matrices
    that are indefinite only through round-off.  `where` names the caller
    (typically a filter and step index) in the error message.  A stack
    (..., n, n) is factored in one call; if any of its matrices fails, each
    is factored on its own, so only a matrix that needs the jitter gets it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] == 1 and np.count_nonzero(m > 0.0) == m.size:
        return np.sqrt(m)  # a 1x1 potrf is one correctly rounded square root; 0, < 0 and NaN take LAPACK's path
    try:
        return cholesky(m)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            return np.array([spd_sqrt_factor(s, where) for s in m])
    n = m.shape[0]
    try:
        return cholesky(m + 1e-12 * np.trace(m) / n * np.eye(n))
    except np.linalg.LinAlgError:
        suffix = f" ({where})" if where else ""
        raise NotPositiveDefinite(f"matrix of dimension {n} is not positive definite{suffix}") from None


def solve_spd(m: np.ndarray, b: np.ndarray, where: str = "") -> np.ndarray:
    """Solve M @ X = B for symmetric positive definite M via its Cholesky factor, never an inverse.

    Only the lower triangle of M is read, so M must be symmetric.  Stacks
    are solved as :func:`cholesky_solve` solves them.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    if not all_finite(m, b):
        raise ValueError(f"SPD solve input must not contain infs or NaNs ({where})")
    return cholesky_solve(spd_sqrt_factor(m, where), b, where)


def cholesky_solve(factor: np.ndarray, b: np.ndarray, where: str = "") -> np.ndarray:
    """X with L L^T X = B for a lower Cholesky factor L, by two solves, without finiteness checks.

    A stack L (s, n, n) is solved with B (s, n, k), or with vectors B (s, n),
    in one :func:`solve` call per factor.  The solve with L^T, an upper
    triangle, pivots nowhere and gives the bits of a triangular solve; the
    solve with L pivots by rows, which for n >= 2 can move the last bits
    against a triangular solve, never for n = 1.
    """
    vector = b.ndim == factor.ndim - 1
    rhs = b[..., None] if vector else b
    if rhs.shape[:-1] != factor.shape[:-1]:
        raise ValueError(f"shapes of m {factor.shape} and b {b.shape} are incompatible ({where})")
    if factor.shape[-1] > 1:
        return solve(factor.swapaxes(-1, -2), solve(factor, b))
    # OpenBLAS's 1x1 dgesv: divide by L for one right-hand side (trsv), multiply by 1 / L for more (trsm)
    op, pivot = (np.divide, factor) if rhs.shape[-1] == 1 else (np.multiply, 1.0 / factor)
    x = op(rhs, pivot)
    op(x, pivot, out=x)
    return x[..., 0] if vector else x


def rcond_check(m: np.ndarray, threshold: float = 1e-12) -> bool:
    """True iff the reciprocal 2-norm condition number of M is >= threshold."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return False
    return bool(s[-1] / s[0] >= threshold)

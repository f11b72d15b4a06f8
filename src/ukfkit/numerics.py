"""Small dense SPD-matrix helpers shared by all filters.

Covariances are kept honest in two ways: every stored covariance passes
through :func:`symmetrize` where it is formed, and positive definiteness
is checked by attempting a Cholesky factorization.  A factorization that
fails gets one retry with a trace-scaled diagonal jitter; anything worse
raises :class:`NotPositiveDefinite` instead of being silently repaired,
because a covariance that far gone usually means the filter has diverged.

:func:`spd_sqrt_factor` and :func:`solve_spd` read only the lower triangle
of M, as LAPACK does, so M must be exactly symmetric; they do not
symmetrize it again.  Callers that hold a user-supplied matrix symmetrize
it first.

The factorization stays on ``np.linalg.cholesky`` rather than scipy's
``dpotrf``: the numpy and scipy wheels bundle different OpenBLAS builds
(0.3.31 in numpy 2.4, 0.3.30 in scipy 1.17), whose factors differ in the
last bit on about 2% of random SPD matrices, so switching would change CSV
bytes.  The triangular solves call LAPACK ``dtrtrs`` directly, with the
arguments ``scipy.linalg.solve_triangular`` passes, so the results are the
same bits without that wrapper's per-call validation, which costs many
times the small solve itself.  :func:`solve_spd` keeps the finiteness check;
:func:`cholesky_solve` skips it for callers that have checked already.

The helpers take a leading stack axis, one matrix per filter of a stacked
step: the symmetrization and the Cholesky factorization run as one numpy
call over the stack, the triangular solves matrix by matrix.  A slice of a
stack gets the same bits as that matrix alone, provided the matrices are
laid out in memory as they would be alone: the BLAS kernel that a product
uses depends on the layout, and so do the last bits of its result.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs


class NotPositiveDefinite(Exception):
    """A covariance matrix could not be factored, even after jitter."""


class FilterDiverged(Exception):
    """A filter produced non-finite states or outputs."""


def all_finite(*arrays: np.ndarray) -> bool:
    """np.isfinite(a).all() for every array a; counting is cheaper than the reduction on small arrays."""
    for a in arrays:
        if np.count_nonzero(np.isfinite(a)) != a.size:
            return False
    return True


def stack(arrays) -> np.ndarray:
    """np.array(arrays); a single array gains its stack axis as a view instead of a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2, for each matrix of a stack (..., n, n)."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
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
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    if m.ndim > 2:
        return np.array([spd_sqrt_factor(s, where) for s in m])
    n = m.shape[0]
    jitter = 1e-12 * np.trace(m) / n
    try:
        return np.linalg.cholesky(m + jitter * np.eye(n))
    except np.linalg.LinAlgError:
        suffix = f" ({where})" if where else ""
        raise NotPositiveDefinite(
            f"matrix of dimension {n} is not positive definite{suffix}"
        ) from None


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
    """X with L L^T X = B for a lower Cholesky factor L, by two triangular solves, without finiteness checks.

    Stacks L (s, n, n) and B (s, n, k) are solved matrix by matrix, into a stack of X laid out like B.
    """
    if factor.ndim > 2:
        if len(factor) == len(b) == 1:
            return cholesky_solve(factor[0], b[0], where)[None]
        x = np.empty_like(b)
        for i, (f, rhs) in enumerate(zip(factor, b, strict=True)):
            x[i] = cholesky_solve(f, rhs, where)
        return x
    if b.ndim not in (1, 2) or b.shape[0] != factor.shape[0]:
        raise ValueError(f"shapes of m {factor.shape} and b {b.shape} are incompatible")
    upper = factor.T  # F-ordered, as dtrtrs expects
    # L y = b; a 1x1 factor is F-ordered itself, which scipy solves untransposed.
    if factor.flags.f_contiguous:
        y, info = dtrtrs(factor, b, lower=1, trans=0)
    else:
        y, info = dtrtrs(upper, b, lower=0, trans=1)
    if info == 0:
        x, info = dtrtrs(upper, y, lower=0, trans=0)  # L^T x = y
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed with dtrtrs info {info} ({where})")
    return x


def rcond_check(m: np.ndarray, threshold: float = 1e-12) -> bool:
    """True iff the reciprocal 2-norm condition number of M is >= threshold."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return False
    return bool(s[-1] / s[0] >= threshold)

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
times the small solve itself.  :func:`solve_spd` keeps the finiteness check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs


class NotPositiveDefinite(Exception):
    """A covariance matrix could not be factored, even after jitter."""


class FilterDiverged(Exception):
    """A filter produced non-finite states or outputs."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    s = m + m.T
    s *= 0.5
    return s


def spd_sqrt_factor(m: np.ndarray, where: str = "") -> np.ndarray:
    """Lower-triangular factor S of a symmetric positive definite M, with S @ S.T == M.

    Only the lower triangle of M is read, so M must be symmetric.  One
    retry with eps*I added, eps = 1e-12 * trace(M) / n, covers matrices
    that are indefinite only through round-off.  `where` names the caller
    (typically a filter and step index) in the error message.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
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

    Only the lower triangle of M is read, so M must be symmetric.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(m).all() and np.isfinite(b).all()):
        raise ValueError(f"SPD solve input must not contain infs or NaNs ({where})")
    factor = spd_sqrt_factor(m, where)
    if b.ndim not in (1, 2) or b.shape[0] != factor.shape[0]:
        raise ValueError(f"shapes of m {m.shape} and b {b.shape} are incompatible")
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

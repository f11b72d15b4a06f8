import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import lu, solve_triangular

from ukfkit.eukf import SingularDynamicsJacobian, eukfa_sigma_scale
from ukfkit.numerics import (
    NotPositiveDefinite,
    cholesky,
    cholesky_solve,
    qr_raw,
    rcond_check,
    solve,
    solve_spd,
    spd_sqrt_factor,
    symmetrize,
)
from ukfkit.statespace import StateEstimate, SystemModel


def _random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.1 * np.eye(n)


def test_symmetrize_identity_is_fixed_point():
    assert_allclose(symmetrize(np.eye(3)), np.eye(3), rtol=0)


def test_symmetrize_averages_off_diagonal():
    assert_allclose(symmetrize([[1.0, 2.0], [0.0, 1.0]]), [[1.0, 1.0], [1.0, 1.0]], rtol=0)


def test_symmetrize_result_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        s = symmetrize(m)
        assert np.max(np.abs(s - s.T)) == 0.0


def test_symmetrize_is_idempotent():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 5))
    once = symmetrize(m)
    assert_allclose(symmetrize(once), once, rtol=0)


def test_symmetrize_rejects_non_square():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetrize(np.zeros(4))


def test_sqrt_factor_identity_and_diagonal():
    assert_allclose(spd_sqrt_factor(np.eye(2)), np.eye(2), rtol=0)
    assert_allclose(spd_sqrt_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), rtol=1e-15)


def test_sqrt_factor_round_trip_random_spd():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = _random_spd(rng, int(rng.integers(2, 7)))
        s = spd_sqrt_factor(m)
        err = np.linalg.norm(s @ s.T - m) / np.linalg.norm(m)
        assert err < 1e-10
        assert_allclose(s, np.tril(s), rtol=0)  # lower triangular


def test_factor_and_solve_read_only_the_lower_triangle():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        m = _random_spd(rng, n)
        b = rng.standard_normal((n, 2))
        garbage = m + np.triu(rng.standard_normal((n, n)), 1)
        assert_array_equal(spd_sqrt_factor(garbage), spd_sqrt_factor(m))
        assert_array_equal(solve_spd(garbage, b), solve_spd(m, b))
        # An exactly symmetric M gives the same bits as its symmetrized copy.
        assert_array_equal(spd_sqrt_factor(m), spd_sqrt_factor(symmetrize(m)))


def test_sqrt_factor_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        spd_sqrt_factor(np.eye(3)[:2])


def test_sqrt_factor_jitter_rescues_semidefinite():
    # Rank-deficient: the plain factorization fails, one jitter fixes it.
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    s = spd_sqrt_factor(m)
    assert np.linalg.norm(s @ s.T - m) / np.linalg.norm(m) < 1e-10


def test_sqrt_factor_rejects_indefinite_with_context():
    with pytest.raises(NotPositiveDefinite, match="ukf step 3"):
        spd_sqrt_factor(np.diag([1.0, -1.0]), where="ukf step 3")


def test_solve_spd_identity_and_diagonal():
    b = np.array([1.0, -2.0, 3.0])
    assert_allclose(solve_spd(np.eye(3), b), b, rtol=0)
    assert_allclose(solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0], rtol=1e-15)


def test_solve_spd_residual_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = _random_spd(rng, n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        x = solve_spd(m, b)
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-10


def test_solve_spd_inverse_identity():
    rng = np.random.default_rng(4)
    m = _random_spd(rng, 5)
    assert_allclose(solve_spd(m, m), np.eye(5), atol=1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("bad", ["m", "b"])
def test_solve_spd_rejects_non_finite_input(bad, value):
    m, b = 2.0 * np.eye(2), np.ones((2, 1))
    if bad == "m":
        m[0, 0] = value
    else:
        b[1, 0] = value
    with pytest.raises(ValueError):
        solve_spd(m, b)


def _two_triangular_solves(factor, b):
    """The reference: scipy's triangular solves with L, then with L^T."""
    y = solve_triangular(factor, b, lower=True)
    return solve_triangular(factor.T, y, lower=False)


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
# Rounding-error theorems assume that nothing underflows: entries of magnitude 1e-50 or more, or zero.
_NORMAL_ENTRIES = st.just(0.0) | st.floats(1e-50, 10.0) | st.floats(-10.0, -1e-50)


@st.composite
def _spd_system(draw, n=st.integers(1, 5), entries=_ENTRIES):
    n = draw(n)
    g = draw(hnp.arrays(float, (n, n), elements=entries))
    b_shape = draw(st.sampled_from([(n,), (n, 1), (n, 2), (n, 3)]))
    b = draw(hnp.arrays(float, b_shape, elements=entries))
    return g @ g.T + 0.1 * np.eye(n), b


@settings(max_examples=300, deadline=None)
@given(_spd_system(n=st.just(1)))
def test_cholesky_solve_of_order_one_is_bitwise_the_two_triangular_solves(system):
    # Every paper model has one output, so its P_z is 1x1: there the solves must keep the reference's bits.
    m, b = system
    factor = spd_sqrt_factor(m)
    x = cholesky_solve(factor, b)
    assert x.shape == b.shape
    assert_array_equal(x, _two_triangular_solves(factor, b))
    assert_array_equal(solve_spd(m, b), x)


# At order one the factor is a square root and each solve one division (one right-hand side) or one
# product by the reciprocal (more), with no LAPACK call; these pin that it keeps numpy.linalg's bits.
@pytest.mark.parametrize("k", [None, 1, 2, 3, 4], ids=lambda k: "vector" if k is None else f"k={k}")
def test_cholesky_solve_of_order_one_is_bitwise_numpy_solve_at_every_magnitude(k):
    rng = np.random.default_rng(1900 + (k or 0))
    exp_m = rng.uniform(-300, 300, 5000)
    factor = spd_sqrt_factor(10.0 ** exp_m[:, None, None])
    # Exponents of b within 300 of those of m, so that every solution is a finite double.
    exp_b = np.clip(exp_m[:, None] + rng.uniform(-300, 300, (exp_m.size, k or 1)), -300, 300)
    b = rng.choice([-1.0, 1.0], exp_b.shape) * 10.0**exp_b
    rhs = b[:, :, None] if k is None else b[:, None, :]
    expected = np.linalg.solve(factor.swapaxes(-1, -2), np.linalg.solve(factor, rhs))
    x = cholesky_solve(factor, b if k is None else rhs)
    assert_array_equal(x, expected[..., 0] if k is None else expected)
    assert_array_equal(cholesky_solve(factor[0], (b if k is None else rhs)[0]), x[0])


def test_sqrt_factor_of_order_one_is_bitwise_numpy_cholesky():
    rng = np.random.default_rng(1901)
    extremes = [5e-324, np.finfo(float).tiny, 1.0, np.finfo(float).max, np.inf]
    m = np.concatenate([10.0 ** rng.uniform(-323, 308, 100_000), extremes])[:, None, None]
    assert_array_equal(spd_sqrt_factor(m), np.linalg.cholesky(m))
    for one in m[-len(extremes) :]:
        assert_array_equal(spd_sqrt_factor(one), np.linalg.cholesky(one))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
def test_sqrt_factor_of_order_one_rejects_a_zero_or_negative_entry_with_context(bad):
    m = np.array([[[2.0]], [[bad]], [[3.0]]])
    with pytest.raises(NotPositiveDefinite, match=r"^matrix of dimension 1 is not positive definite \(kf\+ukf step 4\)$"):
        spd_sqrt_factor(m, where="kf+ukf step 4")
    with pytest.raises(NotPositiveDefinite, match=r"\(ekf step 2\)$"):
        spd_sqrt_factor(m[1], where="ekf step 2")


def test_sqrt_factor_of_order_one_gives_a_nan_entry_what_lapack_gives():
    m = np.array([[[2.0]], [[np.nan]], [[3.0]]])
    assert_array_equal(spd_sqrt_factor(m, where="ukf step 1"), np.linalg.cholesky(m))


@settings(max_examples=100, deadline=None)
@given(st.lists(_spd_system(n=st.just(3)), min_size=2, max_size=4), st.booleans())
def test_cholesky_solve_gives_each_slice_of_a_stack_the_bits_of_its_matrix_alone(systems, vectors):
    factors = np.array([spd_sqrt_factor(m) for m, _ in systems])
    rhs = np.array([b.reshape(3, -1)[:, :1] for _, b in systems])
    if vectors:
        rhs = rhs[..., 0]
    x = cholesky_solve(factors, rhs)
    assert x.shape == rhs.shape
    for i in range(len(systems)):
        assert_array_equal(x[i], cholesky_solve(factors[i], rhs[i]))


def _gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff of doubles (Higham, Accuracy and Stability, 2nd ed., 3.4)."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


def _exact(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def _ge_growth(t):
    """|P^T L~| |U~| for the partial-pivoting LU factors of T: Theorem 9.4 bounds a solve by gamma_3n times it."""
    p, lower, upper = lu(t)
    return np.abs(_exact(p @ lower)) @ np.abs(_exact(upper))


@settings(max_examples=200, deadline=None)
@given(_spd_system(n=st.integers(2, 5), entries=_NORMAL_ENTRIES))
def test_cholesky_solve_meets_the_backward_error_bound_of_its_two_solves(system):
    # For n >= 2 the solve with L pivots, so the last bits may differ from the reference's; the residual
    # stays within what the two solves can produce.  Each is Gaussian elimination with partial pivoting:
    # (L + E1) y = b and (L^T + E2) x = y, with |E1| <= gamma_3n G(L) and |E2| <= gamma_3n G(L^T) for
    # G(T) = |P^T L~| |U~| (Higham, Theorem 9.4).  So b - L L^T x = (L E2 + E1 L^T + E1 E2) x exactly,
    # and |b - L L^T x| <= (|L| D2 + D1 |L^T| + D1 D2) |x| with D = gamma_3n G, evaluated in exact arithmetic.
    m, b = system
    factor = spd_sqrt_factor(m)
    x = cholesky_solve(factor, b)
    n = len(factor)
    low = _exact(factor)
    xs = _exact(x.reshape(n, -1))
    residual = _exact(b.reshape(n, -1)) - low @ (low.T @ xs)
    d1, d2 = _gamma(3 * n) * _ge_growth(factor), _gamma(3 * n) * _ge_growth(factor.T)
    bound = (np.abs(low) @ d2 + d1 @ np.abs(low.T) + d1 @ d2) @ np.abs(xs)
    assert (np.abs(residual) <= bound).all()


# Random stacks of each order 1..5, and the stacked step's shapes on the benchmark's workloads: the
# posterior factors of four 3-state and of four 4-state slices, and one 2x2 P_z.
_LAYER_SHAPES = [(s, n, n) for n in range(1, 6) for s in (1, 3)] + [(4, 3, 3), (4, 4, 4), (1, 2, 2)]


@pytest.mark.parametrize("shape", _LAYER_SHAPES, ids=str)
def test_lapack_layer_gives_the_bits_of_numpy_linalg(shape):
    rng = np.random.default_rng(shape)
    s, n, _ = shape
    m = np.array([_random_spd(rng, n) for _ in range(s)])
    b, vectors = rng.standard_normal((s, n, 3)), rng.standard_normal((s, n))
    factor = cholesky(m)
    assert_array_equal(factor, np.linalg.cholesky(m))
    assert_array_equal(solve(m, b), np.linalg.solve(m, b))
    assert_array_equal(solve(m, vectors), np.linalg.solve(m, vectors[..., None])[..., 0])
    lt = factor.swapaxes(-1, -2)
    assert_array_equal(solve(lt, solve(factor, b)), np.linalg.solve(lt, np.linalg.solve(factor, b)))
    assert_array_equal(cholesky_solve(factor, vectors), np.linalg.solve(lt, np.linalg.solve(factor, vectors[..., None]))[..., 0])


# eukfa's (2n, n) QR on Lorenz (n = 3) and on linear-4x2 (n = 4), and other stacks.
@pytest.mark.parametrize("shape", [(1, 6, 3), (1, 8, 4), (3, 2, 1), (2, 10, 5), (1, 3, 3)], ids=str)
def test_lapack_layer_qr_is_numpy_raw_qr_in_place(shape):
    a = np.random.default_rng(shape).standard_normal(shape)
    q, tau = np.linalg.qr(a, mode="raw")
    raw = a.copy()
    assert_array_equal(qr_raw(raw), tau)
    assert_array_equal(raw, q.swapaxes(-1, -2))
    # A transposed view, as eukfa factors [chol(l_x P) | spread]^T, is overwritten through the view.
    wide = a.swapaxes(-1, -2).copy()
    assert_array_equal(qr_raw(wide.swapaxes(-1, -2)), tau)
    assert_array_equal(wide, q)


def test_lapack_layer_raises_numpy_linalg_errors_and_passes_non_finite_input_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
            cholesky(np.array([np.eye(2), np.diag([1.0, -1.0])]))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            cholesky_solve(np.diag([1.0, 0.0]), np.ones(2))
        nan = np.array([[1.0, 0.0], [np.nan, 1.0]])
        assert_array_equal(solve(nan, np.ones((2, 1))), np.linalg.solve(nan, np.ones((2, 1))))
        assert_array_equal(cholesky(np.array([[np.inf]])), np.linalg.cholesky(np.array([[np.inf]])))
        with np.errstate(invalid="ignore"):  # the harness's setting
            with pytest.raises(np.linalg.LinAlgError):
                cholesky(np.diag([1.0, -1.0]))


def test_failed_factor_and_singular_jacobian_raise_their_errors_without_a_warning():
    # Outside any errstate, numpy's default warns on the invalid flag a failed gufunc sets; none may escape.
    indefinite = np.array([np.eye(3), np.diag([1.0, 1.0, -1.0]), 2 * np.eye(3)])
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    model = SystemModel(l_x=2, l_y=1, f=lambda x: a @ x, g=lambda x: x[:1], Q=np.eye(2), R=np.eye(1), jac_f=lambda x: a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite, match=r"^matrix of dimension 3 is not positive definite \(ukf\+eukfa step 2\)$"):
            spd_sqrt_factor(indefinite, where="ukf+eukfa step 2")
        with pytest.raises(SingularDynamicsJacobian, match=r"^dynamics Jacobian at step 4 is numerically singular$"):
            eukfa_sigma_scale(model, StateEstimate(np.zeros(2), np.eye(2), 4))
        # The jitter retry still rescues a semidefinite slice of a stack, and leaves the others their own bits.
        semi = np.array([np.eye(2), np.ones((2, 2)), 4 * np.eye(2)])
        factors = spd_sqrt_factor(semi)
        assert_array_equal(factors[[0, 2]], np.linalg.cholesky(semi[[0, 2]]))


def test_rcond_check():
    assert rcond_check(np.eye(4)) is True
    assert rcond_check(np.zeros((3, 3))) is False
    assert rcond_check(np.diag([1.0, 1e-15])) is False
    assert rcond_check(np.diag([1.0, 1e-3]), threshold=1e-2) is False
    assert rcond_check(np.diag([1.0, 1e-3]), threshold=1e-4) is True
    with pytest.raises(ValueError):
        rcond_check(np.zeros((2, 3)))

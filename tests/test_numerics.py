import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

from ukfkit.numerics import NotPositiveDefinite, rcond_check, solve_spd, spd_sqrt_factor, symmetrize


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


def _solve_spd_reference(m, b):
    """Two scipy triangular solves on the same Cholesky factor."""
    factor = spd_sqrt_factor(m)
    y = solve_triangular(factor, b, lower=True)
    return solve_triangular(factor.T, y, lower=False)


@st.composite
def _spd_system(draw):
    n = draw(st.integers(1, 5))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    g = draw(hnp.arrays(float, (n, n), elements=entries))
    b_shape = draw(st.sampled_from([(n,), (n, 1), (n, 2), (n, 3)]))
    b = draw(hnp.arrays(float, b_shape, elements=entries))
    return g @ g.T + 0.1 * np.eye(n), b


@settings(max_examples=300, deadline=None)
@given(_spd_system())
def test_solve_spd_is_bitwise_the_two_solve_triangular_reference(system):
    m, b = system
    x = solve_spd(m, b)
    assert x.shape == b.shape
    assert_array_equal(x, _solve_spd_reference(m, b))


def test_rcond_check():
    assert rcond_check(np.eye(4)) is True
    assert rcond_check(np.zeros((3, 3))) is False
    assert rcond_check(np.diag([1.0, 1e-15])) is False
    assert rcond_check(np.diag([1.0, 1e-3]), threshold=1e-2) is False
    assert rcond_check(np.diag([1.0, 1e-3]), threshold=1e-4) is True
    with pytest.raises(ValueError):
        rcond_check(np.zeros((2, 3)))

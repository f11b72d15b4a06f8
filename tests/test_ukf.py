import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ukfkit.eukf import eukfc_step
from ukfkit.harness import random_detectable_system, random_spd, simulate_truth
from ukfkit.kf import evaluate_gain_cov, kf_step
from ukfkit.numerics import FilterDiverged, spd_sqrt_factor, symmetrize
from ukfkit.statespace import LinearSystem, StateEstimate, make_linear_ex1, make_lorenz
from ukfkit.ukf import (
    deviations,
    propagate_sigma,
    sigma_points,
    ukf_step,
    ukf_weights,
    unscented_prior,
)


def test_weights_alpha_one():
    w = ukf_weights(1.0, 2)
    assert_allclose(w, [0.0, 0.25, 0.25, 0.25, 0.25], rtol=0)


def test_weights_alpha_three_halves():
    w = ukf_weights(1.5, 3)
    assert_allclose(w, [5.0 / 9.0] + [1.0 / 13.5] * 6, rtol=1e-15)


def test_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        alpha = float(rng.uniform(0.2, 5.0))
        l_x = int(rng.integers(1, 8))
        assert np.sum(ukf_weights(alpha, l_x)) == pytest.approx(1.0, abs=1e-12)


def test_weights_are_computed_once_and_read_only():
    w = ukf_weights(1.5, 3)
    assert ukf_weights(1.5, 3) is w and ukf_weights(np.float64(1.5), np.int64(3)) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_weights_reject_bad_arguments():
    with pytest.raises(ValueError):
        ukf_weights(0.0, 2)
    with pytest.raises(ValueError):
        ukf_weights(-1.5, 2)
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            ukf_weights(alpha, 2)
    with pytest.raises(ValueError):
        ukf_weights(1.0, 0)


def test_sigma_points_identity_scale():
    pts = sigma_points(np.zeros(2), np.eye(2), 1.0)
    s = np.sqrt(2.0)
    expected = np.array([[0, s, 0, -s, 0], [0, 0, s, 0, -s]], dtype=float)
    assert_allclose(pts, expected, rtol=1e-15, atol=1e-15)


def test_sigma_points_symmetrize_the_scale():
    skewed = np.array([[2.0, 0.3], [0.1, 1.0]])
    assert_array_equal(sigma_points(np.ones(2), skewed, 1.5), sigma_points(np.ones(2), symmetrize(skewed), 1.5))


def test_sigma_points_weighted_mean_is_center():
    rng = np.random.default_rng(1)
    for alpha in (0.8, 1.0, 1.5, 3.0):
        center = rng.standard_normal(3)
        pts = sigma_points(center, random_spd(rng, 3), alpha)
        w = ukf_weights(alpha, 3)
        assert_allclose(pts @ w, center, atol=1e-12)


def test_sigma_points_reconstruct_covariance():
    rng = np.random.default_rng(2)
    for alpha in (0.8, 1.0, 1.5, 3.0):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p = random_spd(rng, n)
            center = rng.standard_normal(n)
            pts = sigma_points(center, p, alpha)
            w = ukf_weights(alpha, n)
            dev = pts - center[:, None]
            recon = (dev * w) @ dev.T
            assert np.linalg.norm(recon - p) / np.linalg.norm(p) < 1e-10


def test_propagate_identity_dynamics():
    c = np.array([[1.0, -2.0]])
    model = LinearSystem(A=np.eye(2), C=c, Q=np.eye(2), R=np.eye(1))
    pts = sigma_points(np.array([0.5, -0.5]), np.eye(2), 1.5)
    xprop, yprop = propagate_sigma(model, pts)
    assert_allclose(xprop, pts, rtol=0)
    assert_allclose(yprop, c @ pts, rtol=0)


def test_propagate_lorenz_center_column():
    model = make_lorenz()
    pts = sigma_points(np.array([1.0, 1.0, 1.0]), np.eye(3), 1.5)
    xprop, _ = propagate_sigma(model, pts)
    assert_allclose(xprop[:, 0], [1.0, 1.26, 1.0 + 0.01 * (1.0 - 8.0 / 3.0)], rtol=1e-14)


@pytest.mark.filterwarnings("ignore:overflow")
def test_propagate_raises_on_non_finite():
    model = make_lorenz()
    pts = sigma_points(np.array([1.0, 1.0, 1.0]), np.eye(3), 1.5) * 1e200
    with pytest.raises(FilterDiverged):
        propagate_sigma(model, pts)  # x1 * x2 overflows


def test_deviations_center_and_annihilate():
    w = ukf_weights(1.5, 2)
    same = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    assert_allclose(deviations(same, w), np.zeros((2, 5)), rtol=0)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5))
    w3 = ukf_weights(0.9, 2)
    assert_allclose(deviations(m, w3) @ w3, np.zeros(3), atol=1e-14)


def test_unscented_prior_deviations_are_bitwise_those_of_deviations():
    model = make_lorenz()
    est = StateEstimate(np.array([1.0, -2.0, 20.0]), np.diag([0.5, 1.0, 2.0]), 3)
    # A stack of two estimates; each slice is compared with the unstacked helpers.
    other = StateEstimate(np.array([0.5, 2.0, 18.0]), np.diag([1.0, 0.3, 1.5]), 3)
    stacked = unscented_prior(
        model, np.array([est.mean, other.mean]), np.array([est.sigma_factor(), other.sigma_factor()]), 1.5, est.step
    )
    w = stacked[-1]
    for i, e in enumerate((est, other)):
        prior_mean, predicted_y, xdev, ydev = (a[i] for a in stacked[:4])
        xprop, yprop = propagate_sigma(model, sigma_points(e.mean, e.cov, 1.5), e.step)
        assert_array_equal(prior_mean, xprop @ w)
        assert_array_equal(predicted_y, yprop @ w)
        assert_array_equal(xdev, deviations(xprop, w))
        assert_array_equal(ydev, deviations(yprop, w))


def test_deviations_linear_closed_form():
    # On a linear map the deviations are exactly A [0, aS, -aS].
    rng = np.random.default_rng(5)
    model = random_detectable_system(rng, l_x=3, l_y=1)
    p = random_spd(rng, 3)
    alpha = 1.5
    pts = sigma_points(np.zeros(3), p, alpha)
    xprop, _ = propagate_sigma(model, pts)
    w = ukf_weights(alpha, 3)
    s = alpha * np.linalg.cholesky(3 * p)
    expected = model.A @ np.hstack([np.zeros((3, 1)), s, -s])
    assert_allclose(deviations(xprop, w), expected, atol=1e-12)


def test_ex1_unscented_output_covariances_hand_values():
    # Hand oracle: with P0 = I the unscented output stats equal
    # C (A A^T) C^T + R and (A A^T) C^T, i.e. they miss the Q terms.
    model = make_linear_ex1()
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, rec = ukf_step(model, est, np.zeros(1), 1.5)
    a, c = model.A, model.C
    aat = a @ a.T
    assert_allclose(rec.innovation_cov, c @ aat @ c.T + 1.0, rtol=1e-12)
    assert_allclose(rec.cross_cov, aat @ c.T, rtol=1e-12)
    assert rec.innovation_cov[0, 0] == pytest.approx(1.9657, abs=1e-10)
    assert_allclose(rec.cross_cov[:, 0], [-2.745, 0.147], atol=1e-10)


def test_missing_term_identities_on_random_systems():
    rng = np.random.default_rng(6)
    for _ in range(30):
        model = random_detectable_system(rng)
        est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
        y = np.zeros(model.l_y)
        for _ in range(5):
            est_next, kf_rec = kf_step(model, est, y)
            _, ukf_rec = ukf_step(model, est, y, 1.5)
            c, q = model.C, model.Q
            assert np.max(np.abs(ukf_rec.innovation_cov + c @ q @ c.T - kf_rec.innovation_cov)) < 1e-10
            assert np.max(np.abs(ukf_rec.cross_cov + q @ c.T - kf_rec.cross_cov)) < 1e-10
            assert_allclose(ukf_rec.prior_cov, kf_rec.prior_cov, atol=1e-10)
            est = est_next


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), alpha=st.floats(1.0, 5.0))
def test_missing_term_identities_property(seed, alpha):
    rng = np.random.default_rng(seed)
    model = random_detectable_system(rng)
    est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
    y = np.zeros(model.l_y)
    for _ in range(10):
        est_next, kf_rec = kf_step(model, est, y)
        _, ukf_rec = ukf_step(model, est, y, alpha)
        c, q = model.C, model.Q
        assert np.max(np.abs(ukf_rec.innovation_cov + c @ q @ c.T - kf_rec.innovation_cov)) <= 1e-10
        assert np.max(np.abs(ukf_rec.cross_cov + q @ c.T - kf_rec.cross_cov)) <= 1e-10
        est = est_next


def test_ex1_posterior_trace():
    model = make_linear_ex1()
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, rec = ukf_step(model, est, np.zeros(1), 1.5)
    assert np.trace(rec.posterior_cov) == pytest.approx(8.816, abs=1e-3)


def test_alpha_invariance_on_linear_system():
    model = make_linear_ex1()
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    y = np.array([0.4])
    ref_est, ref_rec = ukf_step(model, est, y, 1.0)
    for alpha in (1.5, 3.0):
        alt_est, alt_rec = ukf_step(model, est, y, alpha)
        assert_allclose(alt_rec.gain, ref_rec.gain, atol=1e-10)
        assert_allclose(alt_est.cov, ref_est.cov, atol=1e-10)
        assert_allclose(alt_est.mean, ref_est.mean, atol=1e-10)


def test_zero_process_noise_recovers_kf():
    rng = np.random.default_rng(7)
    base = random_detectable_system(rng, l_x=3, l_y=2)
    model = LinearSystem(A=base.A, C=base.C, Q=np.zeros((3, 3)), R=base.R)
    est = StateEstimate(np.zeros(3), random_spd(rng, 3), 0)
    y = rng.standard_normal(2)
    for _ in range(5):
        kf_next, kf_rec = kf_step(model, est, y)
        _, ukf_rec = ukf_step(model, est, y, 1.5)
        assert_allclose(ukf_rec.gain, kf_rec.gain, atol=1e-10)
        assert_allclose(ukf_rec.posterior_cov, kf_rec.posterior_cov, atol=1e-10)
        est = kf_next


def test_gain_cost_never_beats_kalman_gain():
    rng = np.random.default_rng(8)
    for _ in range(30):
        model = random_detectable_system(rng)
        est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
        y = np.zeros(model.l_y)
        for _ in range(5):
            est_next, kf_rec = kf_step(model, est, y)
            _, ukf_rec = ukf_step(model, est, y, 1.5)
            tr_kf = np.trace(evaluate_gain_cov(kf_rec.prior_cov, kf_rec.innovation_cov, kf_rec.cross_cov, kf_rec.gain))
            tr_ukf = np.trace(evaluate_gain_cov(kf_rec.prior_cov, kf_rec.innovation_cov, kf_rec.cross_cov, ukf_rec.gain))
            assert tr_kf <= tr_ukf + 1e-10
            est = est_next


@pytest.mark.parametrize("step", [ukf_step, eukfc_step], ids=["ukf", "eukfc"])
@pytest.mark.parametrize("system", ["lorenz", "linear-4x2"])
def test_cached_sigma_factor_steps_bitwise_like_a_fresh_estimate(step, system):
    if system == "lorenz":
        model = make_lorenz()
    else:
        model = random_detectable_system(np.random.default_rng(11), l_x=4, l_y=2)
    _, meas = simulate_truth(model, np.ones(model.l_x), 12, seed=3)
    est = StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0)
    for k in range(1, 13):
        fresh = StateEstimate(est.mean, est.cov, est.step)  # no cached factor
        cached_next, cached_rec = step(model, est, meas[k])
        fresh_next, fresh_rec = step(model, fresh, meas[k])
        assert_array_equal(cached_rec.gain, fresh_rec.gain)
        assert_array_equal(cached_next.mean, fresh_next.mean)
        assert_array_equal(cached_next.cov, fresh_next.cov)
        assert_array_equal(cached_next.sigma_factor(), spd_sqrt_factor(model.l_x * cached_next.cov))
        est = cached_next


def test_sigma_factor_cache_is_outside_equality_repr_and_init():
    est, _ = ukf_step(make_lorenz(), StateEstimate(np.ones(3), np.eye(3), 0), np.array([1.0]))
    assert est._sigma_factor is not None
    bare = copy.copy(est)
    object.__setattr__(bare, "_sigma_factor", None)
    assert est == bare
    assert repr(est) == repr(bare)
    with pytest.raises(TypeError):
        StateEstimate(est.mean, est.cov, est.step, est.sigma_factor())

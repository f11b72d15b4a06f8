import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from ukfkit.ekf import ekf_step
from ukfkit.harness import random_detectable_system, random_spd, simulate_truth
from ukfkit.kf import kf_step
from ukfkit.statespace import StateEstimate, SystemModel, make_lorenz


def test_ekf_equals_kf_on_linear_systems():
    rng = np.random.default_rng(0)
    for _ in range(10):
        model = random_detectable_system(rng)
        _, meas = simulate_truth(model, rng.standard_normal(model.l_x), 20, seed=int(rng.integers(1 << 16)))
        kf_est = ekf_est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
        for k in range(1, 21):
            kf_est, kf_rec = kf_step(model, kf_est, meas[k])
            ekf_est, ekf_rec = ekf_step(model, ekf_est, meas[k])
            assert_array_equal(ekf_est.mean, kf_est.mean)
            assert_array_equal(ekf_est.cov, kf_est.cov)
            assert_array_equal(ekf_rec.gain, kf_rec.gain)


def test_noise_free_limit_drives_output_error_to_zero():
    # Fully observed contraction with Q = 0 and tiny R: the update pins the
    # estimate to the measurement.
    model = SystemModel(
        l_x=1,
        l_y=1,
        f=lambda x, k: 0.5 * x,
        g=lambda x, k: x,
        Q=np.zeros((1, 1)),
        R=1e-12 * np.eye(1),
    )
    est = StateEstimate([4.0], np.eye(1), 0)
    x_true = np.array([-1.0])
    for k in range(1, 6):
        x_true = 0.5 * x_true
        est, _ = ekf_step(model, est, x_true)
        assert abs(est.mean[0] - x_true[0]) < 1e-6


def test_lorenz_one_step_prior_cov_is_jjt_plus_q():
    model = make_lorenz()
    est = StateEstimate([1.0, 1.0, 1.0], np.eye(3), 0)
    _, rec = ekf_step(model, est, np.array([1.2]))
    jac = np.array([[0.9, 0.1, 0.0], [0.27, 0.99, -0.01], [0.01, 0.01, 1.0 - 0.01 * 8.0 / 3.0]])
    assert_allclose(rec.prior_cov, jac @ jac.T + 0.01 * np.eye(3), rtol=1e-12)

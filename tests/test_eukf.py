import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ukfkit.eukf import SingularDynamicsJacobian, eukfa_sigma_scale, eukfa_step, eukfc_step
from ukfkit.harness import random_detectable_system, random_spd
from ukfkit.kf import kf_step
from ukfkit.statespace import LinearSystem, StateEstimate, SystemModel, make_linear_ex1, make_lorenz
from ukfkit.ukf import ukf_step


def _scale(model, est):
    """The inflated scale S S^T / l_x from eukfa's sigma factor S, which must be lower triangular."""
    s = eukfa_sigma_scale(model, est)
    assert_array_equal(s, np.tril(s))
    assert np.all(np.diag(s) > 0)
    return s @ s.T / model.l_x


def test_sigma_scale_identity_dynamics():
    sys = LinearSystem(A=np.eye(2), C=np.array([[1.0, 0.0]]), Q=0.3 * np.eye(2), R=np.eye(1))
    p = random_spd(np.random.default_rng(0), 2)
    est = StateEstimate(np.zeros(2), p, 0)
    assert_allclose(_scale(sys, est), p + 0.3 * np.eye(2), rtol=1e-14)


def test_sigma_scale_zero_q_is_plain_covariance():
    sys = make_linear_ex1(q=0.0)
    p = random_spd(np.random.default_rng(1), 2)
    est = StateEstimate(np.zeros(2), p, 0)
    assert_allclose(_scale(sys, est), p, atol=1e-15)


def test_sigma_scale_ex1_hand_inverse():
    # A is upper triangular, so its inverse is [[1/2.4, 2.1/(2.4*0.7)], [0, -1/0.7]].
    model = make_linear_ex1()
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    a_inv = np.array([[1.0 / 2.4, 2.1 / (2.4 * 0.7)], [0.0, -1.0 / 0.7]])
    assert_allclose(_scale(model, est), np.eye(2) + a_inv @ a_inv.T, rtol=1e-12)


def test_sigma_scale_rejects_singular_jacobian():
    sys = LinearSystem(A=np.zeros((2, 2)), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.eye(1))
    est = StateEstimate(np.zeros(2), np.eye(2), 4)
    with pytest.raises(SingularDynamicsJacobian, match="step 4"):
        eukfa_sigma_scale(sys, est)
    # Nonsingular in exact arithmetic, but with reciprocal condition number 1e-14 < 1e-12.
    near = LinearSystem(A=np.diag([1.0, 1e-14]), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.eye(1))
    with pytest.raises(SingularDynamicsJacobian, match="step 4"):
        eukfa_sigma_scale(near, est)


def test_singular_verdict_of_a_linear_model_names_each_step():
    sys = LinearSystem(A=np.zeros((2, 2)), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.eye(1))
    for k in (4, 9):
        with pytest.raises(SingularDynamicsJacobian, match=f"step {k} "):
            eukfa_sigma_scale(sys, StateEstimate(np.zeros(2), np.eye(2), k))


@pytest.mark.parametrize("a", [np.zeros((2, 2)), np.diag([1.0, 1e-14])], ids=["exactly-singular", "rcond-1e-14"])
def test_sigma_scale_rejects_singular_jacobian_of_a_nonlinear_model(a):
    # A SystemModel that is not a LinearSystem takes the per-step path: its Jacobian is inverted at every step.
    model = SystemModel(l_x=2, l_y=1, f=lambda x: a @ x, g=lambda x: x[:1], Q=np.eye(2), R=np.eye(1), jac_f=lambda x: a)
    est = StateEstimate(np.zeros(2), np.eye(2), 4)
    with pytest.raises(SingularDynamicsJacobian, match="step 4"):
        eukfa_sigma_scale(model, est)
    with pytest.raises(SingularDynamicsJacobian, match="step 4"):
        eukfa_step(model, est, np.zeros(1))


def test_linear_model_inverts_its_dynamics_once_with_the_bits_of_the_per_step_path(count_lapack):
    linear = random_detectable_system(np.random.default_rng(5), l_x=3, l_y=1)
    nonlinear = SystemModel(l_x=3, l_y=1, f=linear.f, g=linear.g, Q=linear.Q, R=linear.R, jac_f=linear.jac_f, jac_g=linear.jac_g)
    est = StateEstimate(np.ones(3), random_spd(np.random.default_rng(6), 3), 0)
    solves = count_lapack()["solve"]
    factors = [eukfa_sigma_scale(linear, est) for _ in range(3)]
    assert len(solves) == 1
    factors += [eukfa_sigma_scale(nonlinear, est) for _ in range(3)]
    assert len(solves) == 4
    for factor in factors:
        assert_array_equal(factor, factors[0])


@pytest.mark.parametrize("stepper", [eukfa_step, eukfc_step])
def test_single_step_equals_kf_on_ex1(stepper):
    model = make_linear_ex1()
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    y = np.array([-0.2])
    _, kf_rec = kf_step(model, est, y)
    _, rec = stepper(model, est, y, 1.5)
    assert_allclose(rec.gain, kf_rec.gain, atol=1e-12)
    assert_allclose(rec.posterior_cov, kf_rec.posterior_cov, atol=1e-12)
    # hand value for the posterior trace: 12.66 - (3.145^2 + 0.753^2)/2.9357
    assert np.trace(rec.posterior_cov) == pytest.approx(12.66 - (3.145**2 + 0.753**2) / 2.9357, rel=1e-12)


@pytest.mark.parametrize("stepper", [eukfa_step, eukfc_step])
def test_trajectories_track_kf_on_random_systems(stepper):
    rng = np.random.default_rng(2)
    for _ in range(20):
        model = random_detectable_system(rng)
        y = np.zeros(model.l_y)
        kf_est = var_est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
        for _ in range(20):
            kf_est, kf_rec = kf_step(model, kf_est, y)
            var_est, rec = stepper(model, var_est, y, 1.5)
            rel = np.linalg.norm(rec.posterior_cov - kf_rec.posterior_cov) / np.linalg.norm(kf_rec.posterior_cov)
            assert rel < 1e-9
            rel_gain = np.linalg.norm(rec.gain - kf_rec.gain) / max(np.linalg.norm(kf_rec.gain), 1e-12)
            assert rel_gain < 1e-9


def _rel(x, ref):
    return np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), alpha=st.floats(1.0, 5.0))
def test_eukfc_gain_and_covariance_equal_kf_property(seed, alpha):
    rng = np.random.default_rng(seed)
    model = random_detectable_system(rng)
    y = np.zeros(model.l_y)
    kf_est = c_est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
    for _ in range(10):
        kf_est, kf_rec = kf_step(model, kf_est, y)
        c_est, rec = eukfc_step(model, c_est, y, alpha)
        assert _rel(rec.gain, kf_rec.gain) <= 1e-9
        assert _rel(rec.posterior_cov, kf_rec.posterior_cov) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), alpha=st.floats(1.0, 5.0))
def test_eukfa_gain_and_covariance_equal_kf_property(seed, alpha):
    rng = np.random.default_rng(seed)
    model = random_detectable_system(rng)
    y = np.zeros(model.l_y)
    kf_est = a_est = StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)
    for _ in range(10):
        kf_est, kf_rec = kf_step(model, kf_est, y)
        a_est, rec = eukfa_step(model, a_est, y, alpha)
        assert _rel(rec.gain, kf_rec.gain) <= 1e-9
        assert _rel(rec.posterior_cov, kf_rec.posterior_cov) <= 1e-9


def test_eukfa_equivalence_holds_on_verify_seed_34013(seed_34013_report):
    # Forming P + A^{-1} Q A^{-T} before factoring it missed the 1e-9 gate on the
    # ill-conditioned system of this report, at 1.868e-9.
    report = seed_34013_report
    assert report.passed, report.summary()
    assert report.worst["eukfa"] <= 1e-9


@pytest.mark.parametrize("stepper", [eukfa_step, eukfc_step])
def test_zero_q_reduces_to_plain_ukf(stepper):
    rng = np.random.default_rng(3)
    base = random_detectable_system(rng, l_x=3, l_y=1)
    model = LinearSystem(A=base.A, C=base.C, Q=np.zeros((3, 3)), R=base.R)
    est = StateEstimate(rng.standard_normal(3), random_spd(rng, 3), 0)
    y = rng.standard_normal(1)
    ukf_est, ukf_rec = ukf_step(model, est, y, 1.5)
    var_est, rec = stepper(model, est, y, 1.5)
    assert_allclose(var_est.mean, ukf_est.mean, atol=1e-12)
    assert_allclose(var_est.cov, ukf_est.cov, atol=1e-12)
    assert_allclose(rec.gain, ukf_rec.gain, atol=1e-12)


def test_zero_q_eukfa_sigma_factor_is_the_cached_factor_bitwise():
    # With L_Q = 0 the QR has nothing to annihilate: R is chol(l_x P)^T itself.
    rng = np.random.default_rng(3)
    base = random_detectable_system(rng, l_x=3, l_y=1)
    model = LinearSystem(A=base.A, C=base.C, Q=np.zeros((3, 3)), R=base.R)
    est = StateEstimate(rng.standard_normal(3), random_spd(rng, 3), 0)
    y = rng.standard_normal(1)
    assert_array_equal(eukfa_sigma_scale(model, est), est.sigma_factor())
    ukf_est, ukf_rec = ukf_step(model, est, y, 1.5)
    a_est, a_rec = eukfa_step(model, est, y, 1.5)
    assert a_est == ukf_est
    assert_array_equal(a_rec.gain, ukf_rec.gain)


def test_both_variants_agree_on_linear_trajectories():
    rng = np.random.default_rng(4)
    model = random_detectable_system(rng, l_x=2, l_y=1)
    y = np.zeros(1)
    est_a = est_c = StateEstimate(np.zeros(2), random_spd(rng, 2), 0)
    for _ in range(30):
        est_a, _ = eukfa_step(model, est_a, y, 1.5)
        est_c, _ = eukfc_step(model, est_c, y, 1.5)
        assert np.linalg.norm(est_a.cov - est_c.cov) / np.linalg.norm(est_c.cov) < 1e-9


def test_covariance_estimates_match_closed_forms():
    # On a linear system each variant's internal covariances have exact
    # closed forms in terms of A P A^T; check all three variants per row.
    rng = np.random.default_rng(5)
    model = random_detectable_system(rng, l_x=3, l_y=2)
    p = random_spd(rng, 3)
    est = StateEstimate(np.zeros(3), p, 0)
    y = np.zeros(2)
    a, c, q, r = model.A, model.C, model.Q, model.R
    apat = a @ p @ a.T

    _, ukf_rec = ukf_step(model, est, y, 1.5)
    assert_allclose(ukf_rec.prior_cov, apat + q, atol=1e-10)
    assert_allclose(ukf_rec.innovation_cov, c @ apat @ c.T + r, atol=1e-10)
    assert_allclose(ukf_rec.cross_cov, apat @ c.T, atol=1e-10)

    _, a_rec = eukfa_step(model, est, y, 1.5)
    prior = apat + q
    assert_allclose(a_rec.prior_cov, prior, atol=1e-10)
    assert_allclose(a_rec.innovation_cov, c @ prior @ c.T + r, atol=1e-10)
    assert_allclose(a_rec.cross_cov, prior @ c.T, atol=1e-10)

    _, c_rec = eukfc_step(model, est, y, 1.5)
    assert_allclose(c_rec.prior_cov, prior, atol=1e-10)
    assert_allclose(c_rec.innovation_cov, c @ apat @ c.T + c @ q @ c.T + r, atol=1e-10)
    assert_allclose(c_rec.cross_cov, apat @ c.T + q @ c.T, atol=1e-10)


def test_eukfa_runs_on_lorenz():
    model = make_lorenz()
    est = StateEstimate([1.0, 1.0, 1.0], np.eye(3), 0)
    est2, rec = eukfa_step(model, est, np.array([1.3]), 1.5)
    assert est2.step == 1
    assert np.all(np.isfinite(est2.cov))
    assert np.all(np.linalg.eigvalsh(est2.cov) > 0)
    assert rec.prior_cov.shape == (3, 3)

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import ukfkit.statespace as statespace
import ukfkit.ukf as ukf
from ukfkit.harness import random_detectable_system, random_spd, simulate_truth
from ukfkit.ekf import ekf_step
from ukfkit.enkf import enkf_init, enkf_step
from ukfkit.eukf import eukfa_step, eukfc_step
from ukfkit.kf import correct_stack, evaluate_gain_cov, kf_gain, kf_step, kf_update, linearized_covs
from ukfkit.numerics import FilterDiverged, symmetrize
from ukfkit.statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_measurement,
    make_linear_ex1,
    make_lorenz,
    make_vdp,
    measure,
    step_dynamics,
)
from ukfkit.ukf import stack_step, ukf_step

# Hand-derived one-step quantities for the first benchmark system
# (A = [[2.4, 2.1], [0, -0.7]], C = [-0.4, -0.9], Q = I, R = 1, P0 = I):
#   P_prior = A A^T + I
#   P_z     = C P_prior C^T + 1
#   P_ez    = P_prior C^T
P_PRIOR_HAND = np.array([[11.17, -1.47], [-1.47, 1.49]])
P_Z_HAND = 2.9357
P_EZ_HAND = np.array([-3.145, -0.753])
TR_POST_HAND = 12.66 - (3.145**2 + 0.753**2) / 2.9357  # = 9.09763...


@pytest.fixture
def ex1():
    return make_linear_ex1()


def test_predict_identity_dynamics_is_noop():
    sys = LinearSystem(A=np.eye(2), C=np.array([[1.0, 0.0]]), Q=np.zeros((2, 2)), R=np.eye(1))
    est = StateEstimate([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]], 0)
    _, rec = kf_step(sys, est, np.zeros(1))
    assert_allclose(rec.prior_mean, est.mean, rtol=0)
    assert_allclose(rec.prior_cov, est.cov, rtol=0)


def test_predict_ex1_prior_cov(ex1):
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, rec = kf_step(ex1, est, np.zeros(1))
    assert_allclose(rec.prior_mean, [4.5, -0.7], rtol=1e-14)
    assert_allclose(rec.prior_cov, P_PRIOR_HAND, rtol=1e-13)


def test_predict_zero_dynamics_leaves_q():
    sys = LinearSystem(A=np.zeros((2, 2)), C=np.array([[1.0, 0.0]]), Q=np.eye(2), R=np.eye(1))
    est = StateEstimate([1.0, 1.0], 5.0 * np.eye(2), 0)
    _, rec = kf_step(sys, est, np.zeros(1))
    assert_allclose(rec.prior_cov, np.eye(2), rtol=0)


def test_innovation_zero_c_gives_r():
    sys = LinearSystem(A=np.eye(2), C=np.zeros((1, 2)), Q=np.eye(2), R=2.5 * np.eye(1))
    _, rec = kf_step(sys, StateEstimate(np.zeros(2), np.zeros((2, 2)), 0), np.zeros(1))
    assert_allclose(rec.innovation_cov, [[2.5]], rtol=0)
    assert_allclose(rec.cross_cov, np.zeros((2, 1)), rtol=0)


def test_innovation_ex1_hand_values(ex1):
    _, rec = kf_step(ex1, StateEstimate([1.0, 1.0], np.eye(2), 0), np.zeros(1))
    assert_allclose(rec.innovation_cov, [[P_Z_HAND]], rtol=1e-13)
    assert_allclose(rec.cross_cov[:, 0], P_EZ_HAND, rtol=1e-13)


def test_innovation_full_observation_no_noise(monkeypatch):
    # C = I with R = 0 leaves an exactly zero posterior, which the SPD check in
    # correct_stack rejects, so P_z and P+ are read where the stacked step hands them over.
    sys = LinearSystem(A=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.zeros((2, 2)))
    seen = {}

    class HandedOver(Exception):
        pass

    def record(name, k, prior_mean, prior_cov, p_z, p_ez, y, predicted_y):
        seen.update(prior_cov=prior_cov, p_z=p_z)
        raise HandedOver

    monkeypatch.setattr(ukf, "correct_stack", record)
    with pytest.raises(HandedOver):
        kf_step(sys, StateEstimate(np.zeros(2), random_spd(np.random.default_rng(0), 2), 0), np.zeros(2))
    assert_allclose(seen["p_z"], seen["prior_cov"], rtol=1e-15)


def test_gain_identity_pz():
    p_ez = np.array([[1.0], [2.0]])
    assert_allclose(kf_gain("kf", 1, np.eye(1), p_ez)[0], p_ez, rtol=0)
    assert_allclose(kf_gain("kf", 1, np.eye(1), np.zeros((2, 1)))[0], np.zeros((2, 1)), rtol=0)


def test_gain_ex1_hand_value():
    gain, factor = kf_gain("kf", 1, np.array([[P_Z_HAND]]), P_EZ_HAND[:, None])
    assert_allclose(gain[:, 0], P_EZ_HAND / P_Z_HAND, rtol=1e-13)
    assert_allclose(factor, [[np.sqrt(P_Z_HAND)]], rtol=1e-15)


def test_gain_of_a_non_finite_innovation_raises_filter_diverged():
    with pytest.raises(FilterDiverged, match="^kf produced a non-finite innovation or cross covariance at step 3$"):
        kf_gain("kf", 3, np.array([[np.nan]]), np.ones((2, 1)))


def test_gain_takes_nested_lists_as_arrays():
    with pytest.raises(FilterDiverged, match="^kf produced a non-finite innovation or cross covariance at step 3$"):
        kf_gain("kf", 3, [[np.nan]], [[1.0], [1.0]])
    p_z, p_ez = [[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.3, -1.0], [2.0, 0.5]]
    for got, want in zip(kf_gain("kf", 3, p_z, p_ez), kf_gain("kf", 3, np.array(p_z), np.array(p_ez))):
        assert type(got) is np.ndarray
        np.testing.assert_array_equal(got, want)


def test_update_zero_gain_keeps_prior():
    prior_mean = np.array([1.0, 2.0])
    mean, cov = kf_update(prior_mean, np.eye(2), np.zeros((2, 1)), np.ones((2, 1)), np.array([5.0]), np.array([0.0]))
    assert_allclose(mean, prior_mean, rtol=0)
    assert_allclose(cov, np.eye(2), rtol=0)


def test_update_matching_prediction_keeps_mean(ex1):
    _, rec = kf_step(ex1, StateEstimate([1.0, 1.0], np.eye(2), 0), np.zeros(1))
    y = ex1.C @ rec.prior_mean
    mean, _ = kf_update(rec.prior_mean, rec.prior_cov, rec.gain, rec.cross_cov, y, y)
    assert_allclose(mean, rec.prior_mean, rtol=0)


def test_ex1_posterior_trace_matches_hand_oracle(ex1):
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, rec = kf_step(ex1, est, np.array([0.3]))
    assert np.trace(rec.posterior_cov) == pytest.approx(TR_POST_HAND, rel=1e-12)


def test_posterior_cov_independent_of_measurement(ex1):
    est = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, rec_a = kf_step(ex1, est, np.array([12.0]))
    _, rec_b = kf_step(ex1, est, np.array([-40.0]))
    assert_allclose(rec_a.posterior_cov, rec_b.posterior_cov, rtol=0)


def test_evaluate_gain_cov_collapses_for_kalman_gain():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sys = random_detectable_system(rng)
        est = StateEstimate(np.zeros(sys.l_x), random_spd(rng, sys.l_x), 0)
        _, rec = kf_step(sys, est, np.zeros(sys.l_y))
        p_at_k = evaluate_gain_cov(rec.prior_cov, rec.innovation_cov, rec.cross_cov, rec.gain)
        assert_allclose(p_at_k, rec.posterior_cov, atol=1e-12)


def test_evaluate_gain_cov_zero_gain_returns_prior():
    prior = random_spd(np.random.default_rng(6), 3)
    p = evaluate_gain_cov(prior, np.eye(1), np.ones((3, 1)), np.zeros((3, 1)))
    assert_allclose(p, prior, rtol=0)


def test_kalman_gain_minimizes_trace():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sys = random_detectable_system(rng)
        est = StateEstimate(np.zeros(sys.l_x), random_spd(rng, sys.l_x), 0)
        _, rec = kf_step(sys, est, np.zeros(sys.l_y))
        best = np.trace(evaluate_gain_cov(rec.prior_cov, rec.innovation_cov, rec.cross_cov, rec.gain))
        for _ in range(20):
            k = rng.standard_normal(rec.gain.shape)
            tr = np.trace(evaluate_gain_cov(rec.prior_cov, rec.innovation_cov, rec.cross_cov, k))
            assert tr >= best - 1e-10


def test_joseph_form_consistency():
    # independent oracle: (I - K C) P (I - K C)^T + K R K^T for the optimal gain
    rng = np.random.default_rng(8)
    for _ in range(50):
        sys = random_detectable_system(rng)
        est = StateEstimate(np.zeros(sys.l_x), random_spd(rng, sys.l_x), 0)
        _, rec = kf_step(sys, est, np.zeros(sys.l_y))
        c, r = sys.C, sys.R
        ikc = np.eye(sys.l_x) - rec.gain @ c
        joseph = ikc @ rec.prior_cov @ ikc.T + rec.gain @ r @ rec.gain.T
        err = np.linalg.norm(rec.posterior_cov - joseph) / np.linalg.norm(joseph)
        assert err < 1e-9


LY2_SYSTEM = LinearSystem(
    A=np.array([[0.9, 0.2], [0.0, 0.7]]), C=np.eye(2), Q=0.1 * np.eye(2), R=0.2 * np.eye(2)
)
# The four stacked filters of a nonlinear run, as one stack_step call from one estimate in every slice.
STACK = ("ekf", "ukf", "eukfa", "eukfc")
STACK_LABEL = "+".join(STACK)


def _stack_step(model, est, y):
    arrays = [np.array([a] * len(STACK)) for a in (est.mean, est.cov, est.sigma_factor())]
    return stack_step(model, STACK, est.step, *arrays, y)


FILTER_STEPS = {
    "kf": lambda est, y: kf_step(LY2_SYSTEM, est, y),
    "ekf": lambda est, y: ekf_step(LY2_SYSTEM, est, y),
    "ukf": lambda est, y: ukf_step(LY2_SYSTEM, est, y),
    "eukfa": lambda est, y: eukfa_step(LY2_SYSTEM, est, y),
    "eukfc": lambda est, y: eukfc_step(LY2_SYSTEM, est, y),
    "enkf": lambda est, y: enkf_step(LY2_SYSTEM, enkf_init(est, 10, 0), y),
    STACK_LABEL: lambda est, y: _stack_step(LY2_SYSTEM, est, y),
}


@pytest.mark.parametrize("y", [np.array([0.5]), None, np.array([0.5, np.nan])], ids=["short", "none", "nan"])
@pytest.mark.parametrize("name", list(FILTER_STEPS))
def test_bad_measurement_raises_value_error_naming_filter_and_step(name, y):
    est = StateEstimate(np.array([1.0, -1.0]), np.eye(2), 4)
    message = f"{name} step 5: expected a finite measurement of shape (2,), got {np.asarray(y, dtype=float)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FILTER_STEPS[name](est, y)


@pytest.mark.parametrize("name", list(FILTER_STEPS))
def test_wrong_length_state_raises_value_error_naming_filter_and_step(name):
    est = StateEstimate(np.ones(3), np.eye(3), 4)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} step 5"):
        FILTER_STEPS[name](est, np.zeros(2))


@pytest.mark.parametrize("step", [kf_step, ekf_step], ids=lambda step: step.__name__)
def test_kf_and_ekf_steps_check_a_state_only_where_a_jacobian_takes_it(monkeypatch, step):
    # The one-slice step's shape check is the one entry check; the Jacobians of a LinearSystem are its A and C, and
    # a nonlinear model's Jacobians check the posterior mean and the prior mean they are taken at.
    calls = []
    check = statespace._check_state
    monkeypatch.setattr(statespace, "_check_state", lambda model, x: calls.append(x) or check(model, x))
    step(make_linear_ex1(), StateEstimate(np.ones(2), np.eye(2), 0), np.zeros(1))
    assert len(calls) == 0
    est = StateEstimate(np.ones(3), np.eye(3), 0)
    _, rec = step(make_lorenz(), est, np.zeros(1))
    assert len(calls) == 2
    assert_array_equal(calls[0], est.mean)
    assert_array_equal(calls[1], rec.prior_mean)


# What each step calls of a model besides f and g: kf and ekf both Jacobians, eukfa jac_f for its sigma
# factor, eukfc jac_g for its C Q C^T and Q C^T terms; and the columns of each one-call f and g batch.
MODEL_PARTS = {
    "kf": ("f", "g", "jac_f", "jac_g"),
    "ekf": ("f", "g", "jac_f", "jac_g"),
    "ukf": ("f", "g"),
    "eukfa": ("f", "g", "jac_f"),
    "eukfc": ("f", "g", "jac_g"),
    "enkf": ("f", "g"),
    STACK_LABEL: ("f", "g", "jac_f", "jac_g"),
}
BATCH_WIDTH = {"kf": 1, "ekf": 1, "ukf": 5, "eukfa": 5, "eukfc": 5, "enkf": 10, STACK_LABEL: 3 * 5 + 1}


@pytest.mark.parametrize("name, bad", [(name, bad) for name, parts in MODEL_PARTS.items() for bad in parts])
def test_every_step_names_itself_when_the_model_returns_the_wrong_shape(name, bad):
    parts = {"f": lambda x: x, "g": lambda x: x[:1], "jac_f": lambda x: np.eye(2), "jac_g": lambda x: np.eye(2)[:1]}
    parts[bad] = lambda x: np.zeros(5)
    model = SystemModel(l_x=2, l_y=1, Q=np.eye(2), R=np.eye(1), **parts)
    est = StateEstimate(np.ones(2), np.eye(2), 4)
    if name == "enkf":
        step, est = enkf_step, enkf_init(est, 10, 0)
    else:
        step = {"kf": kf_step, "ekf": ekf_step, "ukf": ukf_step, "eukfa": eukfa_step, "eukfc": eukfc_step, STACK_LABEL: _stack_step}[name]
    width = BATCH_WIDTH[name]
    reason = {
        "f": f"batched f returned shape (5,), expected (2, {width})",
        "g": f"batched g returned shape (5,), expected (1, {width})",
        "jac_f": "dynamics Jacobian shape (5,), expected (2, 2)",
        "jac_g": "measurement Jacobian shape (5,), expected (1, 2)",
    }[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} step 5: {reason}')}$"):
        step(model, est, np.zeros(1))


def test_non_finite_posterior_raises_filter_diverged():
    for names in ("kf",), STACK:
        n = len(names)
        prior_mean = np.zeros((n, 2))
        prior_mean[-1, 0] = np.inf
        args = np.repeat(np.eye(2)[None], n, 0), np.ones((n, 1, 1)), np.zeros((n, 2, 1)), np.zeros(1), np.zeros((n, 1))
        with pytest.raises(FilterDiverged, match=f"^{re.escape('+'.join(names))} produced a non-finite estimate at step 3$"):
            correct_stack(names, 3, prior_mean, *args)


def _textbook_step(model, est, y):
    """The Kalman step on a model's Jacobians (the EKF on a nonlinear one), from the public pieces alone."""
    prior_mean = step_dynamics(model, est.mean)
    a, c = jacobian_dynamics(model, est.mean), jacobian_measurement(model, prior_mean)
    prior_cov, p_z, p_ez = linearized_covs(a, est.cov, c, model.Q)
    p_z = symmetrize(p_z + model.R)
    gain, _ = kf_gain("kf", est.step + 1, p_z, p_ez)
    mean, cov = kf_update(prior_mean, prior_cov, gain, p_ez, y, measure(model, prior_mean))
    return StateEstimate(mean, symmetrize(cov), est.step + 1), (prior_mean, prior_cov, gain, p_z, p_ez)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_detectable_system(np.random.default_rng(21), l_y=1),
        lambda: random_detectable_system(np.random.default_rng(22), l_y=2),
        lambda: random_detectable_system(np.random.default_rng(23), l_x=4, l_y=2),
        make_lorenz,
        make_vdp,
    ],
    ids=["linear-ly1", "linear-ly2", "linear-4x2", "lorenz", "vdp"],
)
@pytest.mark.parametrize("step", [kf_step, ekf_step], ids=lambda step: step.__name__)
def test_kf_and_ekf_steps_are_bitwise_the_textbook_kalman_step(make, step):
    model = make()
    _, meas = simulate_truth(model, np.ones(model.l_x), 20, seed=9)
    est = ref = StateEstimate(np.ones(model.l_x), random_spd(np.random.default_rng(3), model.l_x), 0)
    for y in meas[1:]:
        est, rec = step(model, est, y)
        ref, ref_prior = _textbook_step(model, ref, y)
        for got, want in zip((rec.prior_mean, rec.prior_cov, rec.gain, rec.innovation_cov, rec.cross_cov), ref_prior):
            assert_array_equal(got, want)
        assert est.step == ref.step
        assert_array_equal(est.mean, ref.mean)
        assert_array_equal(est.cov, ref.cov)
        assert_array_equal(rec.posterior_mean, ref.mean)
        assert_array_equal(rec.posterior_cov, ref.cov)


# LAPACK calls in a step after the first, as (cholesky, solve) calls of numerics' LAPACK layer by the number of outputs.
# Cholesky: P_z once, in kf_gain, whose factor the EnKF's square-root update reuses; and l_x P once, in the
# posterior's SPD check, whose factor the next sigma-point step reuses.  Solve: two for the gain, and one
# for the EnKF's square-root gain.  A 1x1 P_z takes neither in kf_gain: its factor is a square root and its
# solves are scalar products.  eukfa also solves with a nonlinear model's Jacobian (a LinearSystem's is cached).
LAPACK_BUDGET = {
    1: {kf_step: (1, 0), ekf_step: (1, 0), ukf_step: (1, 0), eukfa_step: (1, 1), eukfc_step: (1, 0), enkf_step: (0, 1)},
    2: {kf_step: (2, 2), ekf_step: (2, 2), ukf_step: (2, 2), eukfa_step: (2, 2), eukfc_step: (2, 2), enkf_step: (1, 3)},
}


def _linear_4x2():
    return random_detectable_system(np.random.default_rng(12), l_x=4, l_y=2)


@pytest.mark.parametrize("make_model", [make_lorenz, _linear_4x2], ids=["lorenz-3x1", "linear-4x2"])
@pytest.mark.parametrize("step", list(LAPACK_BUDGET[1]), ids=lambda step: step.__name__)
def test_second_step_keeps_to_its_cholesky_budget(count_lapack, make_model, step):
    model = make_model()
    _, meas = simulate_truth(model, np.ones(model.l_x), 2, seed=4)
    state = StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0)
    if step is enkf_step:
        state = enkf_init(state, 50, seed=0)
    state, _ = step(model, state, meas[1])
    calls = count_lapack()
    step(model, state, meas[2])
    assert (len(calls["cholesky"]), len(calls["solve"])) == LAPACK_BUDGET[model.l_y][step], calls

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ukfkit.statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    jacobian_dynamics,
    jacobian_fd,
    jacobian_measurement,
    make_linear_ex1,
    make_linear_ex2,
    make_lorenz,
    make_vdp,
    measure,
    measure_batch,
    noise_cov,
    step_dynamics,
    step_dynamics_batch,
)

TS = 0.01


def test_linear_ex1_step():
    model = make_linear_ex1()
    # hand multiply: [2.4 + 2.1, -0.7]
    assert_allclose(step_dynamics(model, [1.0, 1.0]), [4.5, -0.7], rtol=1e-14)


def test_vdp_step_at_unit_state():
    model = make_vdp(ts=TS, mu=1.0)
    # x1 = 1 kills the (1 - x1^2) term
    assert_allclose(step_dynamics(model, [1.0, 1.0]), [1.0 + TS, 1.0 - TS], rtol=1e-14)


def test_vdp_origin_is_equilibrium():
    model = make_vdp()
    assert_allclose(step_dynamics(model, [0.0, 0.0]), [0.0, 0.0], rtol=0)


def test_lorenz_step_at_unit_state():
    model = make_lorenz(ts=TS)
    # direct evaluation with sigma=10, rho=28, beta=8/3
    expected = [1.0, 1.0 + TS * 26.0, 1.0 + TS * (1.0 - 8.0 / 3.0)]
    assert_allclose(step_dynamics(model, [1.0, 1.0, 1.0]), expected, rtol=1e-14)


def test_lorenz_origin_is_equilibrium():
    model = make_lorenz()
    assert_allclose(step_dynamics(model, [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0], rtol=0)


def test_measure_built_ins():
    vdp = make_vdp()
    lorenz = make_lorenz()
    assert_allclose(measure(vdp, [3.0, 7.0]), [3.0], rtol=0)
    assert_allclose(measure(lorenz, [1.0, 2.0, 3.0]), [2.0], rtol=0)
    assert_allclose(measure(lorenz, [0.0, 0.0, 0.0]), [0.0], rtol=0)


def test_noise_levels_of_built_ins():
    vdp = make_vdp()
    assert_allclose(vdp.Q(0), 0.01 * np.eye(2), rtol=0)
    assert_allclose(vdp.R(0), [[1e-4]], rtol=0)
    lorenz = make_lorenz()
    assert_allclose(lorenz.Q(0), 0.01 * np.eye(3), rtol=0)
    assert_allclose(lorenz.R(0), [[1e-4]], rtol=0)


def test_jacobian_linear_model_is_a_everywhere():
    model = make_linear_ex2()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert_allclose(jacobian_dynamics(model, x), model.A(0), rtol=0)
        assert_allclose(jacobian_measurement(model, x), model.C(0), rtol=0)


def test_vdp_jacobian_hand_value():
    model = make_vdp(ts=TS, mu=1.0)
    # at [1, 1]: 2*mu*x1*x2 + 1 = 3 and 1 - x1^2 = 0
    assert_allclose(jacobian_dynamics(model, [1.0, 1.0]), [[1.0, TS], [-3.0 * TS, 1.0]], rtol=1e-14)


def test_lorenz_jacobian_hand_value():
    model = make_lorenz(ts=TS)
    expected = [[0.9, 0.1, 0.0], [0.27, 0.99, -0.01], [0.01, 0.01, 1.0 - TS * 8.0 / 3.0]]
    assert_allclose(jacobian_dynamics(model, [1.0, 1.0, 1.0]), expected, rtol=1e-13)


def test_jacobian_fd_identity_and_affine():
    assert_allclose(jacobian_fd(lambda x: x, np.array([1.0, 2.0])), np.eye(2), rtol=1e-9)
    a = np.array([[1.0, 2.0], [3.0, -4.0]])
    jac = jacobian_fd(lambda x: a @ x + 1.0, np.array([0.3, -0.7]))
    assert_allclose(jac, a, atol=1e-9)


def test_jacobian_fd_matches_analytic_lorenz():
    model = make_lorenz()
    x = np.array([1.0, 1.0, 1.0])
    fd = jacobian_fd(lambda z: model.f(z, 0), x)
    assert np.max(np.abs(fd - jacobian_dynamics(model, x))) < 1e-6


def test_jacobian_fd_propagates_non_finite():
    with pytest.raises(FloatingPointError):
        jacobian_fd(lambda x: np.array([np.inf]), np.array([1.0]))


def test_jacobian_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        jacobian_fd(lambda x: x, np.array([1.0]), h=0.0)


def test_jacobian_requires_analytic_or_fd():
    base = make_vdp()
    # without analytic Jacobians, both come from central differences
    fall = SystemModel(l_x=2, l_y=1, f=base.f, g=base.g, Q=base.Q, R=base.R)
    assert_allclose(jacobian_dynamics(fall, [1.0, 1.0]), jacobian_dynamics(base, [1.0, 1.0]), atol=1e-8)
    assert_allclose(jacobian_measurement(fall, [1.0, 1.0]), [[1.0, 0.0]], atol=1e-10)


def _simulated_points(model, x0, n, burn=500, keep=100, seed=0):
    """Noise-free trajectory samples, so test points sit in the visited region."""
    x = np.asarray(x0, dtype=float)
    traj = []
    for k in range(burn + n):
        x = step_dynamics(model, x, k)
        if k >= burn:
            traj.append(x)
    idx = np.random.default_rng(seed).choice(len(traj), size=keep, replace=False)
    return [traj[i] for i in idx]


@pytest.mark.parametrize("maker,x0", [(make_vdp, [1.0, 1.0]), (make_lorenz, [1.0, 1.0, 1.0])])
def test_fd_vs_analytic_on_attractor(maker, x0):
    model = maker()
    for x in _simulated_points(model, x0, 2000):
        fd = jacobian_fd(lambda z: model.f(z, 0), x)
        assert np.max(np.abs(fd - jacobian_dynamics(model, x))) < 1e-5


def test_lorenz_trajectory_stays_bounded():
    model = make_lorenz()
    x = np.array([1.0, 1.0, 1.0])
    for k in range(5000):
        x = step_dynamics(model, x, k)
        assert np.max(np.abs(x)) < 100.0


def test_linear_system_round_trip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 3))
    model = LinearSystem(A=a, C=c, Q=np.eye(3), R=np.eye(2))
    assert isinstance(model, SystemModel)
    assert (model.l_x, model.l_y) == (3, 2)
    x = rng.standard_normal(3)
    assert_allclose(step_dynamics(model, x), a @ x, rtol=0)
    assert_allclose(measure(model, x), c @ x, rtol=0)
    assert_allclose(jacobian_dynamics(model, x), a, rtol=0)
    assert_allclose(jacobian_measurement(model, x), c, rtol=0)


def test_batch_evaluation_matches_loop():
    model = make_lorenz()
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((3, 11))
    batched = step_dynamics_batch(model, xs)
    looped = np.column_stack([step_dynamics(model, xs[:, i]) for i in range(11)])
    assert_allclose(batched, looped, rtol=0)
    assert_allclose(measure_batch(model, xs), np.column_stack([measure(model, xs[:, i]) for i in range(11)]), rtol=0)


def test_dimension_errors():
    model = make_vdp()
    with pytest.raises(ValueError):
        step_dynamics(model, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        measure(model, [1.0])


def test_linear_system_dimension_validation():
    with pytest.raises(ValueError):
        LinearSystem(A=np.eye(2), C=np.array([[1.0, 0.0, 0.0]]), Q=np.eye(2), R=np.eye(1))


def test_noise_cov_expansion():
    assert_allclose(noise_cov(0.5, 3), 0.5 * np.eye(3), rtol=0)
    assert_allclose(noise_cov([1.0, 2.0], 2), np.diag([1.0, 2.0]), rtol=0)
    assert_allclose(noise_cov(np.eye(2), 2), np.eye(2), rtol=0)
    with pytest.raises(ValueError):
        noise_cov([1.0, 2.0, 3.0], 2)


def test_state_estimate_validation():
    est = StateEstimate([1.0, 2.0], [[1.0, 0.1], [0.1, 1.0]], 3)
    assert est.step == 3
    with pytest.raises(ValueError):
        StateEstimate([1.0], np.eye(1), -1)
    with pytest.raises(ValueError):
        StateEstimate([1.0, 2.0], np.eye(3), 0)
    # covariance is symmetrized on construction
    skewed = StateEstimate([0.0, 0.0], [[1.0, 0.2], [0.0, 1.0]], 0)
    assert np.max(np.abs(skewed.cov - skewed.cov.T)) == 0.0


def test_state_estimate_equality_compares_values():
    a = StateEstimate(np.ones(2), np.eye(2), 0)
    assert a == StateEstimate(np.ones(2), np.eye(2), 0)
    assert a != StateEstimate(np.ones(2), np.eye(2), 1)
    assert a != StateEstimate(np.array([1.0, 2.0]), np.eye(2), 0)
    assert a != StateEstimate(np.ones(2), 2 * np.eye(2), 0)
    assert a != StateEstimate(np.ones(3), np.eye(3), 0)
    assert a != "not an estimate"


def test_noise_factor_cache_refactors_only_new_values(monkeypatch):
    from ukfkit import statespace

    calls = []
    monkeypatch.setattr(statespace, "noise_factor", lambda m, where="": calls.append(m) or np.linalg.cholesky(m))
    cache = statespace.NoiseFactorCache()
    q = 2.0 * np.eye(2)
    first = cache(q)
    assert cache(q) is first and cache(q.copy()) is first and len(calls) == 1
    q[1, 1] = 3.0  # refilled in place
    assert_allclose(cache(q), np.diag([np.sqrt(2.0), np.sqrt(3.0)]), rtol=0)
    assert len(calls) == 2


def test_noise_factor_symmetrizes_a_skewed_matrix():
    from ukfkit.statespace import noise_factor

    skewed = np.array([[2.0, 0.3], [0.1, 1.0]])
    assert np.array_equal(noise_factor(skewed), np.linalg.cholesky(np.array([[2.0, 0.2], [0.2, 1.0]])))


def test_noise_factor_cache_shared_by_two_threads_pairs_each_key_with_its_factor():
    import sys
    import threading

    from ukfkit.statespace import NoiseFactorCache

    cache = NoiseFactorCache()
    mats = [2.0 * np.eye(3), np.diag([3.0, 5.0, 7.0])]
    wrong = []

    def work(m):
        expected = np.sqrt(np.diag(m))
        for _ in range(3000):
            if not np.array_equal(np.diag(cache(m)), expected):
                wrong.append(m[0, 0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(m,)) for m in mats]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _truth_runs(model, q_of_k):
    """Truth runs with Q(k) = q_of_k(k) returned fresh, and refilled into one buffer."""
    from ukfkit.harness import simulate_truth

    model.Q = lambda k: q_of_k(k).copy()
    fresh = simulate_truth(model, np.ones(3), 20, seed=1)
    buf = np.empty((3, 3))
    model.Q = lambda k: np.copyto(buf, q_of_k(k)) or buf
    return fresh, simulate_truth(model, np.ones(3), 20, seed=1)


def test_truth_run_factors_constant_noise_once(monkeypatch):
    from ukfkit import statespace

    calls = []
    real = statespace.noise_factor
    monkeypatch.setattr(statespace, "noise_factor", lambda m, where="": calls.append(where) or real(m, where))
    model = make_lorenz()
    q = model.Q(0)
    fresh, refilled = _truth_runs(model, lambda k: q)
    assert len(calls) == 4  # Q and R once per run, whether or not Q is a new object each step
    for a, b in zip(fresh, refilled):
        assert np.array_equal(a, b)


def test_truth_run_refactors_noise_refilled_in_place():
    model = make_lorenz()
    fresh, refilled = _truth_runs(model, lambda k: (1.0 + 0.1 * k) * np.eye(3))
    for a, b in zip(fresh, refilled):
        assert np.array_equal(a, b)

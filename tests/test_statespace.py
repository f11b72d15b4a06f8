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


@pytest.mark.parametrize("width", [None, 1, 7, 22, 20000], ids=["single", "1", "7", "22", "20000"])
@pytest.mark.parametrize("make_model", [make_lorenz, make_vdp], ids=["lorenz", "vdp"])
def test_built_in_g_is_a_row_view_with_the_bits_of_c_times_x(make_model, width):
    # Finite, nonzero states over the whole exponent range: the 0/1 product C x is exact, and so is the row.
    model = make_model()
    rng = np.random.default_rng(0 if width is None else width)
    shape = (model.l_x,) if width is None else (model.l_x, width)
    xs = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape) * 2.0 ** rng.integers(-1070, 1023, shape)
    assert np.all(np.isfinite(xs)) and np.all(xs != 0.0)
    c = jacobian_measurement(model, np.ones(model.l_x))
    got = measure(model, xs) if width is None else measure_batch(model, xs)
    assert np.shares_memory(got, xs)
    assert got.shape == (c @ xs).shape and got.tobytes() == (c @ xs).tobytes()


@pytest.mark.parametrize("make_model", [make_lorenz, make_vdp], ids=["lorenz", "vdp"])
def test_built_in_g_keeps_a_negative_zero_that_c_times_x_makes_positive(make_model):
    # The one finite difference from the product: 0 * x_i + (-0.0) sums to +0.0, the row keeps -0.0.
    model = make_model()
    c = jacobian_measurement(model, np.ones(model.l_x))
    x = np.where(c[0] == 1.0, -0.0, 1.0)
    assert np.signbit(measure(model, x)[0]) and not np.signbit((c @ x)[0])


def test_noise_levels_of_built_ins():
    vdp = make_vdp()
    assert_allclose(vdp.Q, 0.01 * np.eye(2), rtol=0)
    assert_allclose(vdp.R, [[1e-4]], rtol=0)
    lorenz = make_lorenz()
    assert_allclose(lorenz.Q, 0.01 * np.eye(3), rtol=0)
    assert_allclose(lorenz.R, [[1e-4]], rtol=0)


def test_jacobian_linear_model_is_a_everywhere():
    model = make_linear_ex2()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert_allclose(jacobian_dynamics(model, x), model.A, rtol=0)
        assert_allclose(jacobian_measurement(model, x), model.C, rtol=0)


def test_vdp_jacobian_hand_value():
    model = make_vdp(ts=TS, mu=1.0)
    # at [1, 1]: 2*mu*x1*x2 + 1 = 3 and 1 - x1^2 = 0
    assert_allclose(jacobian_dynamics(model, [1.0, 1.0]), [[1.0, TS], [-3.0 * TS, 1.0]], rtol=1e-14)


def test_lorenz_jacobian_hand_value():
    model = make_lorenz(ts=TS)
    expected = [[0.9, 0.1, 0.0], [0.27, 0.99, -0.01], [0.01, 0.01, 1.0 - TS * 8.0 / 3.0]]
    assert_allclose(jacobian_dynamics(model, [1.0, 1.0, 1.0]), expected, rtol=1e-13)


@pytest.mark.parametrize("ts, sigma, rho, beta", [(TS, 10.0, 28.0, 8.0 / 3.0), (0.05, 7.5, 13.0, 0.3)], ids=["default", "other"])
def test_lorenz_jacobian_has_the_bits_of_i_plus_ts_m(ts, sigma, rho, beta):
    # The analytic Jacobian is formed entry by entry; it must keep the bits of the array expression I + ts * M.
    model = make_lorenz(ts=ts, sigma=sigma, rho=rho, beta=beta)
    rng = np.random.default_rng(5)
    states = rng.choice([-1.0, 1.0], (2000, 3)) * rng.uniform(1.0, 2.0, (2000, 3)) * 2.0 ** rng.integers(-1070, 1000, (2000, 3))
    for x in [*states, *(rng.standard_normal((200, 3)) * 20.0), np.zeros(3), -np.zeros(3)]:
        x1, x2, x3 = x
        want = np.eye(3) + ts * np.array([[-sigma, sigma, 0.0], [rho - x3, -1.0, -x1], [x2, x1, -beta]])
        assert jacobian_dynamics(model, x).tobytes() == want.tobytes()


def test_jacobian_fd_identity_and_affine():
    assert_allclose(jacobian_fd(lambda x: x, np.array([1.0, 2.0])), np.eye(2), rtol=1e-9)
    a = np.array([[1.0, 2.0], [3.0, -4.0]])
    jac = jacobian_fd(lambda x: a @ x + 1.0, np.array([0.3, -0.7]))
    assert_allclose(jac, a, atol=1e-9)


def test_jacobian_fd_matches_analytic_lorenz():
    model = make_lorenz()
    x = np.array([1.0, 1.0, 1.0])
    fd = jacobian_fd(model.f, x)
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
        x = step_dynamics(model, x)
        if k >= burn:
            traj.append(x)
    idx = np.random.default_rng(seed).choice(len(traj), size=keep, replace=False)
    return [traj[i] for i in idx]


@pytest.mark.parametrize("maker,x0", [(make_vdp, [1.0, 1.0]), (make_lorenz, [1.0, 1.0, 1.0])])
def test_fd_vs_analytic_on_attractor(maker, x0):
    model = maker()
    for x in _simulated_points(model, x0, 2000):
        fd = jacobian_fd(model.f, x)
        assert np.max(np.abs(fd - jacobian_dynamics(model, x))) < 1e-5


def test_lorenz_trajectory_stays_bounded():
    model = make_lorenz()
    x = np.array([1.0, 1.0, 1.0])
    for k in range(5000):
        x = step_dynamics(model, x)
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


def _lorenz_expression(x, ts=0.01, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    x1, x2, x3 = x
    return np.array([x1 + ts * sigma * (x2 - x1), x2 + ts * (x1 * (rho - x3) - x2), x3 + ts * (x1 * x2 - beta * x3)])


def _vdp_expression(x, ts=0.05, mu=1.5):
    x1, x2 = x
    return np.array([x1 + ts * x2, x2 + ts * (mu * (1.0 - x1**2) * x2 - x1)])


@pytest.mark.parametrize("width", [1, 2, 22, 2000, 20000])
@pytest.mark.parametrize(
    "model, expression, inf",
    [(make_lorenz(), _lorenz_expression, np.inf), (make_vdp(ts=0.05, mu=1.5), _vdp_expression, -np.inf)],
    ids=["lorenz", "vdp"],
)
def test_batch_evaluation_matches_loop(model, expression, inf, width):
    # Lorenz's f forms a batch in place; each column of either model must keep the bits of the whole-array expression.
    rng = np.random.default_rng(width)
    xs = rng.normal(0.0, 10.0, (model.l_x, width))
    xs[0, 0], xs[-1, -1] = np.nan, inf
    before = xs.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        batched = step_dynamics_batch(model, xs)
        expected = expression(xs)
        looped = np.column_stack([step_dynamics(model, xs[:, i]) for i in range(width)])
        measured = measure_batch(model, xs)
        measured_looped = np.column_stack([measure(model, xs[:, i]) for i in range(width)])
    assert batched.dtype == expected.dtype and batched.shape == expected.shape
    assert batched.tobytes() == expected.tobytes()
    assert xs.tobytes() == before.tobytes()
    # A fresh array, so enkf_step forms its members in it without a copy.
    assert batched.flags.owndata and batched.flags.c_contiguous and batched.flags.writeable
    assert not np.shares_memory(batched, xs)
    if expression is _lorenz_expression:  # vdp's single state squares by libm pow (see the statespace docstring)
        assert batched.tobytes() == looped.tobytes()
    assert measured.tobytes() == measured_looped.tobytes()


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


def test_noise_factor_symmetrizes_a_skewed_matrix():
    from ukfkit.statespace import noise_factor

    skewed = np.array([[2.0, 0.3], [0.1, 1.0]])
    assert np.array_equal(noise_factor(skewed), np.linalg.cholesky(np.array([[2.0, 0.2], [0.2, 1.0]])))


def test_truth_run_factors_constant_noise_once(monkeypatch):
    from ukfkit import enkf, harness, statespace

    calls = []
    real = statespace.noise_factor
    for module in (statespace, enkf, harness):
        monkeypatch.setattr(module, "noise_factor", lambda m, where="": calls.append(where) or real(m, where))
    cfg = harness.ExperimentConfig(model="lorenz", steps=20, seed=1, ensemble=50, filters=("enkf", "eukfa"))
    records = harness.run_experiment(cfg)
    assert not any(m.diverged for rec in records for m in rec.metrics.values())
    assert sorted(calls) == ["Q", "R", "enkf init"]  # the truth, enkf and eukfa share the model's factors


def test_noise_shapes_are_checked_where_they_enter():
    f = g = lambda x: x
    with pytest.raises(ValueError, match=r"Q must have shape \(3, 3\), got \(1, 1\)"):
        SystemModel(l_x=3, l_y=1, f=f, g=g, Q=0.01 * np.eye(1), R=np.eye(1))
    with pytest.raises(ValueError, match=r"R must have shape \(1, 1\), got \(2, 2\)"):
        SystemModel(l_x=3, l_y=1, f=f, g=g, Q=0.01 * np.eye(3), R=np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dim, i, j", [(1, 0, 0), (2, 0, 0), (2, 1, 0)], ids=["1x1", "2x2-diagonal", "2x2-off-diagonal"])
@pytest.mark.parametrize("name", ["Q", "R"])
def test_non_finite_noise_is_rejected_where_it_enters(name, dim, i, j, bad):
    # The factor alone would not catch it: LAPACK's Cholesky returns a NaN factor for a NaN pivot without an error.
    noise = {"Q": np.eye(dim), "R": np.eye(dim)}
    noise[name][i, j] = noise[name][j, i] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SystemModel(l_x=dim, l_y=dim, f=lambda x: x, g=lambda x: x, **noise)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        LinearSystem(A=np.eye(dim), C=np.eye(dim), **noise)


def test_model_noise_and_its_factors_are_fixed_at_construction():
    from dataclasses import FrozenInstanceError

    for model in (make_lorenz(), make_linear_ex1()):
        with pytest.raises(FrozenInstanceError):
            model.Q = 2.0 * model.Q
        with pytest.raises(ValueError, match="read-only"):
            model.R[0, 0] = 2.0
        assert np.array_equal(model.q_factor, np.linalg.cholesky(model.Q))


def test_linear_matrices_are_fixed_and_copied_at_construction():
    from dataclasses import FrozenInstanceError

    a = np.array([[2.4, 2.1], [0.0, -0.7]])
    model = LinearSystem(A=a, C=np.array([[-0.4, -0.9]]), Q=np.eye(2), R=np.eye(1))
    a[0, 0] = 0.0  # the model keeps its own copy
    for name in ("A", "C"):
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0, 0] = 1.0
    ex1 = make_linear_ex1()
    with pytest.raises(FrozenInstanceError):
        ex1.A = np.eye(2)
    for m in (model, ex1):
        assert_allclose(step_dynamics(m, [1.0, 1.0]), [4.5, -0.7], rtol=1e-14)
        assert_allclose(measure(m, [1.0, 1.0]), [-1.3], rtol=1e-14)
        assert jacobian_dynamics(m, np.zeros(2)) is m.A
        assert jacobian_measurement(m, np.zeros(2)) is m.C

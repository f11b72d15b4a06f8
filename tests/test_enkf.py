import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.linalg import solve_triangular

from ukfkit.enkf import KIND_INIT, KIND_PROCESS, Ensemble, PhiloxCells, enkf_init, enkf_step, philox_stream, sfc64_stream
from ukfkit.harness import random_detectable_system, simulate_truth
from ukfkit.kf import kf_gain, kf_step
from ukfkit.numerics import FilterDiverged, symmetrize
from ukfkit.statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    make_linear_ex2,
    make_lorenz,
    measure_batch,
    noise_factor,
    step_dynamics_batch,
)


def test_rewound_cells_draw_what_fresh_streams_draw():
    cells = PhiloxCells()
    cases = [(7, 3, 1, 4), (7, 3, 1, (2, 5)), (0, 0, 3, 1), (-5, 12, 4, 3), (2**64 + 9, 1, 2, 7)]
    # One PhiloxCells called again and again, alternating kinds as the truth simulator does, with seeds at and above 2**63.
    cases += [(seed, step, kind, 2) for seed in (2**63, 2**64 - 1, 2**63 + 12345) for step in (0, 9) for kind in (4, 3, 1)]
    for seed, step, kind, shape in cases + cases[::-1]:
        fresh = philox_stream(seed, step, kind)
        rewound = cells(seed, step, kind)
        assert_array_equal(rewound.standard_normal(shape), fresh.standard_normal(shape))
        assert_array_equal(rewound.standard_normal(3), fresh.standard_normal(3))  # the stream continues alike


def test_init_requires_at_least_two_members():
    est = StateEstimate([0.0], np.eye(1), 0)
    with pytest.raises(ValueError):
        enkf_init(est, 1, seed=0)


def test_init_collapses_for_vanishing_covariance():
    est = StateEstimate([2.0, -3.0], 1e-16 * np.eye(2), 0)
    ens = enkf_init(est, 1000, seed=0)
    assert np.max(np.abs(ens.members - est.mean[:, None])) < 1e-6


def test_init_sample_moments():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3))
    p0 = g @ g.T + 0.5 * np.eye(3)
    mean0 = np.array([1.0, -2.0, 0.5])
    n = 100_000
    ens = enkf_init(StateEstimate(mean0, p0, 0), n, seed=42)
    sample_mean = ens.members.mean(axis=1)
    assert np.linalg.norm(sample_mean - mean0) < 4.0 * np.sqrt(np.trace(p0) / n)
    dev = ens.members - sample_mean[:, None]
    sample_cov = dev @ dev.T / (n - 1)
    assert np.linalg.norm(sample_cov - p0) / np.linalg.norm(p0) < 0.05


def test_streams_are_reproducible_and_distinct():
    a = philox_stream(7, 3, 1).standard_normal(4)
    b = philox_stream(7, 3, 1).standard_normal(4)
    c = philox_stream(7, 3, 2).standard_normal(4)
    d = philox_stream(7, 4, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sfc64_cells_are_keyed_by_seed_step_and_kind():
    def draws(seed, step, kind):
        return sfc64_stream(seed, step, kind).standard_normal(6)

    assert_array_equal(draws(7, 3, KIND_PROCESS), draws(7, 3, KIND_PROCESS))
    for other in [(8, 3, KIND_PROCESS), (7, 4, KIND_PROCESS), (7, 3, KIND_INIT), (7, 3, 2)]:
        assert not np.array_equal(draws(*other), draws(7, 3, KIND_PROCESS))
    # Seeds are masked to 64 bits, as the Philox cells mask them, and seed a SeedSequence of the cell key.
    for seed in (2**63, 2**63 + 12345, 2**64 - 1, 2**64 + 9, -1, -5):
        masked = seed & (2**64 - 1)
        assert_array_equal(draws(seed, 5, KIND_PROCESS), draws(masked, 5, KIND_PROCESS))
        direct = np.random.Generator(np.random.SFC64(np.random.SeedSequence([masked, 8 * 5 + KIND_PROCESS])))
        assert_array_equal(draws(seed, 5, KIND_PROCESS), direct.standard_normal(6))
    assert not np.array_equal(draws(2**63, 5, KIND_PROCESS), draws(0, 5, KIND_PROCESS))


def test_ensembles_stepped_alternately_draw_what_each_draws_alone():
    model = make_lorenz()
    _, meas = simulate_truth(model, np.ones(3), 6, seed=2)
    est = StateEstimate(np.ones(3), np.eye(3), 0)

    def alone(seed):
        ens, outs = enkf_init(est, 200, seed), []
        for k in range(1, 7):
            ens, rec = enkf_step(model, ens, meas[k])
            outs.append([a.copy() for a in _outputs(ens, rec)])
        return outs

    expected = {seed: alone(seed) for seed in (3, 4)}
    ens = {seed: enkf_init(est, 200, seed) for seed in (3, 4)}
    for k in range(1, 7):
        for seed in (4, 3):
            ens[seed], rec = enkf_step(model, ens[seed], meas[k])
            for got, want in zip(_outputs(ens[seed], rec), expected[seed][k - 1]):
                assert_array_equal(got, want)
    assert not np.array_equal(expected[3][-1][0], expected[4][-1][0])


def test_fixed_seed_reruns_are_bit_identical():
    model = make_linear_ex2()
    est0 = StateEstimate([1.0, 1.0], np.eye(2), 0)
    _, meas = simulate_truth(model, np.array([1.0, 1.0]), 5, seed=3)

    def run():
        ens = enkf_init(est0, 500, seed=11)
        outs = []
        for k in range(1, 6):
            ens, rec = enkf_step(model, ens, meas[k])
            outs.append((ens.members.copy(), rec.posterior_mean.copy(), rec.posterior_cov.copy()))
        return outs

    for (m1, x1, p1), (m2, x2, p2) in zip(run(), run()):
        assert np.array_equal(m1, m2)
        assert np.array_equal(x1, x2)
        assert np.array_equal(p1, p2)


def test_posterior_trace_tracks_kf_on_linear_system():
    model = make_linear_ex2()
    x0 = np.array([1.0, 1.0])
    _, meas = simulate_truth(model, x0, 100, seed=5)
    kf_est = StateEstimate(x0, np.eye(2), 0)
    ens = enkf_init(kf_est, 50_000, seed=5)
    rel = []
    for k in range(1, 101):
        kf_est, _ = kf_step(model, kf_est, meas[k])
        ens, rec = enkf_step(model, ens, meas[k])
        if k >= 10:
            tr_kf = np.trace(kf_est.cov)
            rel.append(abs(np.trace(rec.posterior_cov) - tr_kf) / tr_kf)
    assert float(np.mean(rel)) < 0.05


def test_vanishing_gain_limit_keeps_prior_ensemble():
    # Q = 0 and huge R: the update is a no-op up to a tiny correction.
    model = LinearSystem(
        A=np.array([[0.9, 0.1], [0.0, 0.8]]),
        C=np.array([[1.0, 0.0]]),
        Q=np.zeros((2, 2)),
        R=1e12 * np.eye(1),
    )
    ens = enkf_init(StateEstimate([1.0, 1.0], np.eye(2), 0), 2000, seed=9)
    forecast = model.A @ ens.members
    ens2, _ = enkf_step(model, ens, np.array([0.3]))
    assert np.max(np.abs(ens2.members - forecast)) < 1e-3


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_raises():
    model = SystemModel(
        l_x=1,
        l_y=1,
        f=lambda x: x * 1e200,
        g=lambda x: x,
        Q=np.eye(1),
        R=np.eye(1),
    )
    ens = enkf_init(StateEstimate([1e200], np.eye(1), 0), 10, seed=0)
    with pytest.raises(FilterDiverged):
        enkf_step(model, ens, np.array([0.0]))


def _nan_column(x):
    out = np.array(x, dtype=float)
    out[:, 3] = np.nan
    return out


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize(
    "f, mean, y",
    [
        (_nan_column, 1.0, 0.0),  # the forecast: one member column turns NaN
        (lambda x: x, -1e307, 1.7e308),  # the update: y - ybar overflows, so the posterior mean is infinite
    ],
    ids=["forecast", "update"],
)
def test_non_finite_members_raise_with_the_step(f, mean, y):
    model = SystemModel(l_x=1, l_y=1, f=f, g=lambda x: x, Q=np.eye(1), R=np.eye(1))
    ens = enkf_init(StateEstimate([mean], np.eye(1), 4), 10, seed=0)
    with pytest.raises(FilterDiverged) as caught:
        enkf_step(model, ens, np.array([y]))
    assert str(caught.value) == "enkf members became non-finite at step 5"


def test_step_advances_bookkeeping():
    model = make_linear_ex2()
    ens = enkf_init(StateEstimate([1.0, 1.0], np.eye(2), 0), 100, seed=1)
    assert isinstance(ens, Ensemble)
    assert ens.size == 100 and ens.step == 0
    ens2, rec = enkf_step(model, ens, np.array([0.5]))
    assert ens2.step == 1
    assert rec.gain.shape == (2, 1)
    assert rec.innovation_cov.shape == (1, 1)


def _serial_step(model, members, seed, k, y):
    """One square-root EnKF step written out with inline draws, as one plain expression per quantity.

    Returns the new members, the step's record and, apart, the sample covariance of the updated deviations.
    """
    n = members.shape[1]
    w = noise_factor(model.Q) @ sfc64_stream(seed, k + 1, KIND_PROCESS).standard_normal((model.l_x, n))
    xf = step_dynamics_batch(model, members) + w
    yf = measure_batch(model, xf)
    xbar = xf.mean(axis=1)
    ybar = yf.mean(axis=1)
    ydev = yf - ybar[:, None]
    xdev = xf - xbar[:, None]
    denom = float(n - 1)
    prior_cov = symmetrize(np.einsum("ik,jk->ij", xdev, xdev) / denom)
    p_ez = np.einsum("ik,jk->ij", xdev, ydev) / denom
    p_z = symmetrize(np.einsum("ik,jk->ij", ydev, ydev) / denom + model.R)
    gain, _ = kf_gain("enkf", k + 1, p_z, p_ez)
    mean = xbar + gain @ (y - ybar)
    factor = np.linalg.cholesky(p_z)
    sqrt_gain = solve_triangular(factor + noise_factor(model.R), (gain @ factor).T, lower=True, trans="T").T
    adev = xdev - sqrt_gain @ ydev
    cov = symmetrize(prior_cov - gain @ p_ez.T)
    xa = adev + mean[:, None]
    return xa, (xbar, prior_cov, gain, p_z, p_ez, mean, cov), symmetrize(np.einsum("ik,jk->ij", adev, adev) / denom)


def _linear_4x2():
    return random_detectable_system(np.random.default_rng(12), l_x=4, l_y=2)


def _outputs(ens, rec):
    return [ens.members, rec.prior_mean, rec.prior_cov, rec.gain,
            rec.innovation_cov, rec.cross_cov, rec.posterior_mean, rec.posterior_cov]


@pytest.mark.parametrize("make_model", [make_lorenz, _linear_4x2], ids=["lorenz-3x1", "linear-4x2"])
def test_steps_equal_a_serial_reference(make_model):
    model = make_model()
    _, meas = simulate_truth(model, np.ones(model.l_x), 10, seed=4)
    ens = enkf_init(StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0), 500, seed=17)
    members = ens.members
    for k in range(10):
        members, expected, sample_cov = _serial_step(model, members, ens.seed, k, meas[k + 1])
        ens, rec = enkf_step(model, ens, meas[k + 1])
        assert np.array_equal(ens.members, members)
        for got, want in zip(_outputs(ens, rec)[1:], expected):
            assert np.array_equal(got, want)
        # The reported P+ - K P_ez^T is the updated deviations' own sample covariance, to rounding.
        assert np.linalg.norm(rec.posterior_cov - sample_cov) <= 1e-12 * np.linalg.norm(sample_cov)


def _noise_free_outputs():
    base = _linear_4x2()
    return LinearSystem(A=base.A, C=base.C, Q=base.Q, R=np.zeros((2, 2)))


@pytest.mark.parametrize(
    "make_model", [make_lorenz, _linear_4x2, _noise_free_outputs], ids=["lorenz-3x1", "linear-4x2", "zero-r"]
)
def test_members_carry_the_kalman_posterior_of_their_own_statistics(make_model):
    # The square-root update draws no observation noise, so the ensemble's
    # sample moments are the Kalman update of its prior sample moments.
    model = make_model()
    n = 2000
    _, meas = simulate_truth(model, np.ones(model.l_x), 20, seed=6)
    ens = enkf_init(StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0), n, seed=6)
    for k in range(1, 21):
        ens, rec = enkf_step(model, ens, meas[k])
        kalman = rec.prior_cov - rec.gain @ rec.cross_cov.T
        assert np.linalg.norm(rec.posterior_cov - kalman) <= 1e-12 * np.linalg.norm(kalman)
        sample_mean = ens.members.mean(axis=1)
        dev = ens.members - sample_mean[:, None]
        sample_cov = dev @ dev.T / (n - 1)
        assert np.max(np.abs(sample_mean - rec.posterior_mean)) <= 1e-12 * max(1.0, np.max(np.abs(rec.posterior_mean)))
        assert np.linalg.norm(sample_cov - rec.posterior_cov) <= 1e-12 * np.linalg.norm(rec.posterior_cov)


def _identity_model():
    return SystemModel(l_x=2, l_y=1, f=lambda x: x, g=lambda x: x[:1], Q=0.1 * np.eye(2), R=np.eye(1))


def _stepped(model, n, steps=3):
    """An ensemble that has been stepped, so it holds work arrays from its last step."""
    ens = enkf_init(StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0), n, seed=8)
    for k in range(1, steps + 1):
        ens, _ = enkf_step(model, ens, np.full(1, 0.1 * k))
    return ens


@pytest.mark.parametrize("make_model", [make_lorenz, _identity_model], ids=["lorenz", "identity"])
def test_stepping_one_ensemble_twice_repeats_and_leaves_it_alone(make_model):
    model = make_model()
    ens = _stepped(model, 300)
    before = ens.members.copy()
    y = np.array([0.7])
    first = _outputs(*enkf_step(model, ens, y))
    first_copy = [a.copy() for a in first]
    second = _outputs(*enkf_step(model, ens, y))
    assert np.array_equal(ens.members, before)
    assert not np.shares_memory(first[0], ens.members)
    for a, a_copy, b in zip(first, first_copy, second):
        assert np.array_equal(a, a_copy)  # the second step did not write into the first's results
        assert np.array_equal(a, b)


def test_two_threads_stepping_one_ensemble_agree():
    model = make_lorenz()
    ens = _stepped(model, 20_000)
    y = np.array([0.7])
    expected = _outputs(*enkf_step(model, ens, y))
    results = []
    start = threading.Barrier(2)

    def worker():
        start.wait()
        results.append([_outputs(*enkf_step(model, ens, y)) for _ in range(5)])

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 2
    for got in (out for run in results for out in run):
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

"""The stacked filter step: each slice is bitwise the filter stepped on its own."""

import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import ukfkit.harness as harness
from ukfkit.ekf import ekf_step
from ukfkit.eukf import eukfa_step, eukfc_step
from ukfkit.harness import ExperimentConfig, random_detectable_system, random_spd, run_experiment, simulate_truth
from ukfkit.kf import KfStep, kf_step
from ukfkit.statespace import StateEstimate, SystemModel, make_lorenz, make_vdp
from ukfkit.ukf import SIGMA_FILTERS, STACK_FILTERS, stack_step, ukf_step

# Each filter stepped alone; kf and ekf take no alpha.
ONE_AT_A_TIME = {
    "kf": lambda model, est, y, alpha: kf_step(model, est, y),
    "ekf": lambda model, est, y, alpha: ekf_step(model, est, y),
    "ukf": ukf_step,
    "eukfa": eukfa_step,
    "eukfc": eukfc_step,
}


def _stacked(est, n):
    """n copies of est as the (means, covs, factors) arrays a stack steps from."""
    return np.array([est.mean] * n), np.array([est.cov] * n), np.array([est.sigma_factor()] * n)


def _assert_stack_steps_bitwise_one_at_a_time(model, names, est0, meas, alpha):
    """len(meas) - 1 steps of the stack `names` against each filter stepped alone, from the same est0.

    alpha is a float, or a tuple of one value per sigma-point slice, each of which steps its filter alone.
    """
    carry = _stacked(est0, len(names))
    alone = [est0] * len(names)
    per_slice = iter(alpha) if isinstance(alpha, tuple) else itertools.repeat(alpha)
    alphas = [next(per_slice) if name in SIGMA_FILTERS else alpha for name in names]
    for k in range(1, len(meas)):
        rec, factors = stack_step(model, names, k - 1, *carry, meas[k], alpha)
        assert rec.posterior_mean.shape == (len(names), model.l_x)
        for i, name in enumerate(names):
            alone[i], alone_rec = ONE_AT_A_TIME[name](model, alone[i], meas[k], alphas[i])
            assert alone[i].step == k
            assert_array_equal(rec.posterior_mean[i], alone[i].mean)
            assert_array_equal(rec.posterior_cov[i], alone[i].cov)
            assert_array_equal(factors[i], alone[i].sigma_factor())
            for field in fields(KfStep):
                assert_array_equal(getattr(rec, field.name)[i], getattr(alone_rec, field.name), err_msg=f"{name} {field.name}")
        carry = rec.posterior_mean, rec.posterior_cov, factors


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    alpha=st.floats(1.0, 5.0),
    names=st.lists(st.sampled_from(STACK_FILTERS), min_size=1, max_size=5).map(tuple),
    slice_alphas=st.none() | st.lists(st.floats(1.0, 5.0), min_size=5, max_size=5),
)
@example(seed=1, alpha=1.5, names=("ekf", "kf", "ekf"), slice_alphas=None)  # a stack with no sigma-point slice
@example(seed=2, alpha=1.5, names=("ukf", "kf", "eukfa", "eukfc", "ukf"), slice_alphas=[1.0, 1.5, 3.0, 1.5, 5.0])
def test_stack_is_bitwise_one_filter_at_a_time_property(seed, alpha, names, slice_alphas):
    # With slice_alphas, alpha is one value per sigma-point slice, as `verify` steps its alphas.
    rng = np.random.default_rng(seed)
    model = random_detectable_system(rng)
    est0 = StateEstimate(rng.standard_normal(model.l_x), random_spd(rng, model.l_x), 0)
    meas = rng.standard_normal((11, model.l_y))
    if slice_alphas is not None:
        alpha = tuple(slice_alphas[: sum(name in SIGMA_FILTERS for name in names)])
    _assert_stack_steps_bitwise_one_at_a_time(model, names, est0, meas, alpha)


@pytest.mark.parametrize("names", [("ekf", *SIGMA_FILTERS), ("eukfc", "ukf", "ekf", "eukfc", "eukfa")], ids=["ordered", "mixed"])
@pytest.mark.parametrize("make", [make_lorenz, make_vdp], ids=["lorenz", "vdp"])
def test_stack_is_bitwise_one_filter_at_a_time_on_nonlinear_models(make, names):
    model = make()
    _, meas = simulate_truth(model, np.ones(model.l_x), 10, seed=3)
    _assert_stack_steps_bitwise_one_at_a_time(model, names, StateEstimate(np.ones(model.l_x), np.eye(model.l_x), 0), meas, 1.5)


@pytest.mark.parametrize(
    "make", [make_lorenz, lambda: random_detectable_system(np.random.default_rng(4), l_x=3, l_y=2)], ids=["lorenz", "linear"]
)
def test_the_array_core_carries_the_bits_of_each_filter_alone(make):
    # The sigma slices are not contiguous, so the core reads and writes them by index.
    model = make()
    est0 = StateEstimate(np.ones(3), random_spd(np.random.default_rng(5), 3), 0)
    _, meas = simulate_truth(model, np.ones(3), 10, seed=6)
    _assert_stack_steps_bitwise_one_at_a_time(model, ("kf", "ukf", "ekf", "eukfa", "eukfc"), est0, meas, 1.5)


def test_the_array_core_rejects_arrays_of_the_wrong_shape():
    model = make_lorenz()
    x, p = np.ones((2, 3)), np.array([np.eye(3)] * 2)
    for args in [(x[:1], p, p), (x, p[:1], p), (x, p, p[:, :2]), (np.ones((2, 2)), p, p)]:
        with pytest.raises(ValueError, match=r"^ukf\+eukfc step 5: expected one state of shape \(3,\)"):
            stack_step(model, ("ukf", "eukfc"), 4, *args, np.ones(1))
    with pytest.raises(ValueError, match="enkf"):
        stack_step(model, ("ukf", "enkf"), 4, x, p, p, np.ones(1))


def test_a_per_slice_alpha_needs_one_finite_positive_value_per_sigma_point_slice():
    model = make_lorenz()
    names = ("ekf", "ukf", "eukfc")  # two sigma-point slices
    carry = _stacked(StateEstimate(np.ones(3), np.eye(3), 4), 3)
    for alpha in [(), (1.5,), (1.5, 1.5, 1.5)]:
        with pytest.raises(ValueError, match=rf"^ekf\+ukf\+eukfc step 5: alpha has {len(alpha)} values for 2 sigma-point slices$"):
            stack_step(model, names, 4, *carry, np.ones(1), alpha)
    for alpha in [(1.5, np.nan), (np.inf, 1.5), (0.0, 1.5), (1.5, -1.0)]:
        with pytest.raises(ValueError, match=r"^ekf\+ukf\+eukfc step 5: alpha must be positive and finite, got "):
            stack_step(model, names, 4, *carry, np.ones(1), alpha)
    with pytest.raises(ValueError, match=r"^ekf\+ekf step 5: alpha has 1 values for 0 sigma-point slices$"):
        stack_step(model, ("ekf", "ekf"), 4, *(a[:2] for a in carry), np.ones(1), (1.5,))


def test_an_alpha_list_or_array_steps_as_its_float_or_tuple():
    model = make_lorenz()
    names = ("ekf", "ukf", "eukfc")
    carry = _stacked(StateEstimate(np.ones(3), np.eye(3), 4), 3)
    y = np.array([0.5])
    for alpha, same in [([1.5, 2.0], (1.5, 2.0)), (np.array(1.5), 1.5), (np.array([1.5, 2.0]), (1.5, 2.0)), ((np.array(1.5), 2.0), (1.5, 2.0))]:
        rec, factors = stack_step(model, names, 4, *carry, y, alpha)
        expected, expected_factors = stack_step(model, names, 4, *carry, y, same)
        assert_array_equal(rec.posterior_cov, expected.posterior_cov)
        assert_array_equal(factors, expected_factors)
    for alpha, message in [(np.full((2, 1), 1.5), "alpha must be a number or one per sigma-point slice, got shape \\(2, 1\\)"),
                           ([1.5], "alpha has 1 values for 2 sigma-point slices"), (np.array([1.5, -1.0]), "alpha must be positive and finite"),
                           ("wide", "could not convert string to float")]:
        with pytest.raises(ValueError, match=rf"^ekf\+ukf\+eukfc step 5: {message}"):
            stack_step(model, names, 4, *carry, y, alpha)


def _counted(fn, calls, label):
    def counted(x):
        calls.append(label)
        return fn(x)

    return counted


def test_a_stack_calls_f_and_g_once_and_a_linear_stack_calls_neither():
    calls = []
    lorenz = make_lorenz()
    counted = SystemModel(
        l_x=3,
        l_y=1,
        f=_counted(lorenz.f, calls, "f"),
        g=_counted(lorenz.g, calls, "g"),
        Q=lorenz.Q,
        R=lorenz.R,
        jac_f=lorenz.jac_f,
        jac_g=lorenz.jac_g,
    )
    carry = _stacked(StateEstimate(np.array([1.0, -2.0, 20.0]), np.diag([0.5, 1.0, 2.0]), 3), 4)
    stack_step(counted, ("ukf", "eukfa", "eukfc", "ukf"), 3, *carry, np.ones(1))
    assert calls == ["f", "g"]
    # The ekf slice's f(mean) and g(f(mean)) are columns of the same two calls; its Jacobians are analytic.
    calls.clear()
    stack_step(counted, ("ekf", "ukf", "eukfa", "eukfc"), 3, *carry, np.ones(1))
    assert calls == ["f", "g"]
    linear = random_detectable_system(np.random.default_rng(2), l_x=3, l_y=2)
    for label in ("f", "g"):  # the model is frozen; only the test swaps in counting callables
        object.__setattr__(linear, label, _counted(getattr(linear, label), calls, label))
    for names in [("ukf", "eukfa", "eukfc"), ("kf", "ekf", "ukf", "eukfa", "eukfc")]:
        stack_step(linear, names, 0, *_stacked(StateEstimate(np.ones(3), np.eye(3), 0), len(names)), np.ones(2))
    assert calls == ["f", "g"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("l_y", [1, 2])
def test_a_stack_of_a_matrix_product_model_agrees_with_each_filter_alone(l_y, seed):
    # f and g are matrix products over all sigma slices at once: the wide product may round otherwise than the
    # product over one slice's columns (a one-row C often does), so a slice agrees with its filter stepped alone
    # to rounding, not bitwise.
    rng = np.random.default_rng(seed)
    linear = random_detectable_system(rng, l_x=3, l_y=l_y)
    a, c = linear.A, linear.C
    model = SystemModel(l_x=3, l_y=l_y, f=lambda x: a @ x, g=lambda x: c @ x, Q=linear.Q, R=linear.R, jac_f=lambda x: a, jac_g=lambda x: c)
    names = ("ukf", "eukfa", "eukfc", "ekf", "ukf")
    est0 = StateEstimate(rng.standard_normal(3), random_spd(rng, 3), 0)
    carry = _stacked(est0, len(names))
    alone = [est0] * len(names)
    for k, y in enumerate(rng.standard_normal((10, l_y))):
        rec, factors = stack_step(model, names, k, *carry, y, 1.5)
        for i, name in enumerate(names):
            alone[i], alone_rec = ONE_AT_A_TIME[name](model, alone[i], y, 1.5)
            for got, want in [(rec.posterior_mean[i], alone[i].mean), (rec.posterior_cov[i], alone[i].cov)] + [
                (getattr(rec, f.name)[i], getattr(alone_rec, f.name)) for f in fields(KfStep)
            ]:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        carry = rec.posterior_mean, rec.posterior_cov, factors


def test_stack_rejects_unknown_filters_and_mixed_steps():
    model = make_lorenz()
    # An array stack has one step k for every slice, so a mixed step cannot be passed.
    est = StateEstimate(np.ones(3), np.eye(3), 0)
    for unknown in ("enkf", "pf"):
        with pytest.raises(ValueError, match=unknown):
            stack_step(model, ("ukf", unknown), 0, *_stacked(est, 2), np.ones(1))
    with pytest.raises(ValueError):
        stack_step(model, ("ukf", "eukfc"), 0, *_stacked(est, 1), np.ones(1))
    with pytest.raises(ValueError):
        stack_step(model, (), 0, *(a[:0] for a in _stacked(est, 1)), np.ones(1))


def test_run_advances_the_sigma_filters_in_one_stacked_call_per_step(monkeypatch):
    calls = []
    for name in ("stack_step", "ekf_step", "ukf_step", "eukfa_step", "eukfc_step"):
        step = getattr(harness, name)
        label = (lambda args: tuple(args[1])) if name == "stack_step" else (lambda args, name=name: name)
        monkeypatch.setattr(harness, name, lambda *args, step=step, label=label: calls.append(label(args)) or step(*args))
    run_experiment(ExperimentConfig(model="lorenz", steps=20, seed=7, filters=("ekf", "ukf", "eukfa", "eukfc")))
    # The first step runs each filter's own step; every later step is one stacked call.
    assert calls == ["ekf_step", "ukf_step", "eukfa_step", "eukfc_step"] + [("ekf", *SIGMA_FILTERS)] * 19


def test_run_steps_the_stacked_filters_over_the_whole_run_before_the_ensemble(monkeypatch):
    calls = []
    for name in ("stack_step", "ekf_step", "ukf_step", "eukfa_step", "eukfc_step", "enkf_step"):
        step = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, step=step, name=name: calls.append(name) or step(*args))
    run_experiment(ExperimentConfig(model="lorenz", steps=20, seed=7, ensemble=100, filters=("enkf", "ekf", *SIGMA_FILTERS)))
    assert calls == ["ekf_step", "ukf_step", "eukfa_step", "eukfc_step"] + ["stack_step"] * 19 + ["enkf_step"] * 20


def test_a_failed_stack_replays_one_slice_stacks_and_its_survivors_run_on_as_one_stack(monkeypatch):
    # alpha 0.2: the step-40 stack fails and so does ukf's one-slice replay; the step-41 stack of the other three
    # fails and so do both variants' replays; kf then runs on alone.  No public step runs after step 1.
    calls = []
    for name in ("stack_step", "kf_step", "ekf_step", "ukf_step", "eukfa_step", "eukfc_step"):
        step = getattr(harness, name)
        label = (lambda args: tuple(args[1])) if name == "stack_step" else (lambda args, name=name: name)
        monkeypatch.setattr(harness, name, lambda *args, step=step, label=label: calls.append(label(args)) or step(*args))
    names, survivors = ("kf", *SIGMA_FILTERS), ("kf", "eukfa", "eukfc")
    result = run_experiment(ExperimentConfig(model="linear-ex1", steps=60, seed=1, alpha=0.2, filters=names))
    assert result.failures.keys() == {"ukf", "eukfa", "eukfc"}
    assert calls == (
        ["kf_step", "ukf_step", "eukfa_step", "eukfc_step"]
        + [names] * 39
        + [(name,) for name in names]
        + [survivors]
        + [(name,) for name in survivors]
        + [("kf",)] * 19
    )


def test_a_failing_stack_is_replayed_so_each_filter_fails_alone():
    # alpha 0.2 makes the center weight negative: ukf loses definiteness at step 40, both variants at 41.
    # kf and ekf survive both replays and run on as one stack formed from their replayed rows.
    cfg = dict(model="linear-ex1", steps=60, seed=1, alpha=0.2)
    result = run_experiment(ExperimentConfig(filters=("kf", "ekf", *SIGMA_FILTERS), **cfg))
    assert result.failures == {
        "ukf": (40, "NotPositiveDefinite: matrix of dimension 2 is not positive definite (ukf step 40)"),
        "eukfa": (41, "NotPositiveDefinite: matrix of dimension 1 is not positive definite (eukfa step 41)"),
        "eukfc": (41, "NotPositiveDefinite: matrix of dimension 2 is not positive definite (eukfc step 41)"),
    }
    columns = ("trace", "relerr", "output_error", "error_norm", "diverged")
    for j, name in enumerate(result.names):
        alone = run_experiment(ExperimentConfig(filters=(name,), **cfg))
        # repr compares the values bit for bit, NaN as nan.
        assert repr([getattr(result, c)[:, j].tolist() for c in columns]) == repr([getattr(alone, c)[:, 0].tolist() for c in columns])
        assert result.failures.get(name) == alone.failures.get(name)

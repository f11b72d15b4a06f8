import csv
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ukfkit.harness as harness
from ukfkit.ekf import ekf_step
from ukfkit.enkf import enkf_step
from ukfkit.eukf import eukfa_step, eukfc_step
from ukfkit.harness import (
    CHECKS,
    ExperimentConfig,
    PropositionReport,
    RunResult,
    TruthDiverged,
    example1_traces,
    export_csv,
    reproduce_config,
    run_experiment,
    simulate_truth,
    verify_propositions,
)
from ukfkit.kf import kf_step
from ukfkit.numerics import FilterDiverged
from ukfkit.statespace import LinearSystem, SystemModel, make_linear_ex2, make_lorenz, measure
from ukfkit.ukf import SIGMA_FILTERS, ukf_step


def test_truth_noise_free_is_deterministic():
    model = make_linear_ex2(q=0.0, r=0.0)
    states, meas = simulate_truth(model, [1.0, 1.0], 20, seed=0)
    x = np.array([1.0, 1.0])
    for k in range(21):
        assert_allclose(states[k], x, rtol=0)
        assert_allclose(meas[k], model.C @ x, rtol=0)
        x = model.A @ x


def test_truth_seeded_reruns_match():
    model = make_lorenz()
    s1, m1 = simulate_truth(model, [1.0, 1.0, 1.0], 50, seed=123)
    s2, m2 = simulate_truth(model, [1.0, 1.0, 1.0], 50, seed=123)
    assert np.array_equal(s1, s2)
    assert np.array_equal(m1, m2)
    s3, _ = simulate_truth(model, [1.0, 1.0, 1.0], 50, seed=124)
    assert not np.array_equal(s1, s3)


def test_truth_draws_are_those_of_fresh_philox_streams():
    from ukfkit.enkf import philox_stream
    from ukfkit.statespace import noise_factor

    model = make_lorenz()
    states, meas = simulate_truth(model, [1.0, 1.0, 1.0], 30, seed=11)
    x = np.array([1.0, 1.0, 1.0])
    for k in range(31):
        assert np.array_equal(states[k], x)
        v = philox_stream(11, k, harness.KIND_TRUTH_OBS).standard_normal(1)
        assert np.array_equal(meas[k], model.g(x) + noise_factor(model.R) @ v)
        w = philox_stream(11, k, harness.KIND_TRUTH_PROCESS).standard_normal(3)
        x = model.f(x) + noise_factor(model.Q) @ w


def test_truth_of_a_general_linear_system_is_bitwise_the_per_step_recursion():
    # Full noise factors and a general C: the stacked products of the simulator keep the bits of one step at a time.
    from ukfkit.enkf import philox_stream

    model = harness.random_detectable_system(np.random.default_rng(8), l_x=4, l_y=2)
    states, meas = simulate_truth(model, np.ones(4), 40, seed=5)
    x = np.ones(4)
    for k in range(41):
        assert np.array_equal(states[k], x)
        assert np.array_equal(meas[k], model.C @ x + model.r_factor @ philox_stream(5, k, harness.KIND_TRUTH_OBS).standard_normal(2))
        x = model.A @ x + model.q_factor @ philox_stream(5, k, harness.KIND_TRUTH_PROCESS).standard_normal(4)


def test_truth_lorenz_stays_bounded():
    model = make_lorenz()
    states, _ = simulate_truth(model, [1.0, 1.0, 1.0], 5000, seed=0)
    assert np.max(np.abs(states)) < 100.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_truth_divergence_raises_with_step():
    sys = LinearSystem(A=np.array([[3.0]]), C=np.eye(1), Q=np.zeros((1, 1)), R=np.zeros((1, 1)))
    with pytest.raises(TruthDiverged, match="step"):
        simulate_truth(sys, [1.0], 2000, seed=0)


def test_truth_rejects_bad_horizon():
    with pytest.raises(ValueError):
        simulate_truth(make_lorenz(), [1.0, 1.0, 1.0], 0, seed=0)


def test_truth_rejects_an_initial_state_of_the_wrong_shape():
    # Either would broadcast into every entry of the first state; both name the expected and the given shape.
    for x0, shape in ((np.array([1.0]), "(1,)"), (5.0, "()")):
        with pytest.raises(ValueError, match=re.escape(f"simulate_truth: x0 must have shape (3,), got {shape}")):
            simulate_truth(make_lorenz(), x0, 3, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="nope", steps=10)
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz", steps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz", steps=10, alpha=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz", steps=10, filters=())
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz", steps=10, filters=("kf",))  # kf needs a linear model
    with pytest.raises(ValueError):
        ExperimentConfig(model="lorenz", steps=10, filters=("enkf",), ensemble=1)
    with pytest.raises(ValueError):
        ExperimentConfig(model="custom", steps=10, filters=("ukf",))  # missing matrices
    with pytest.raises(ValueError, match="2-d matrix a"):
        ExperimentConfig(model="custom", steps=10, a=np.array(0.5), c=np.array([[1.0]]))
    with pytest.raises(ValueError, match="x0 must have length 3"):
        run_experiment(ExperimentConfig(model="lorenz", steps=2, filters=("ekf",), x0=np.ones(2)))
    custom = dict(model="custom", steps=2, a=np.eye(2), c=np.array([[1.0, 0.0]]), filters=("kf", "ekf"))
    with pytest.raises(ValueError, match="p0"):
        run_experiment(ExperimentConfig(**custom, p0=np.array([[1.0, 2.0], [2.0, 1.0]])))  # indefinite
    with pytest.raises(ValueError, match="p0"):
        run_experiment(ExperimentConfig(**custom, p0=np.ones(3)))  # diagonal of the wrong length
    assert run_experiment(ExperimentConfig(**custom, p0=0.0)).trace[-1, 0] > 0.0  # all-zero p0 is allowed; kf is column 0
    for model, key, value in [
        ("linear-ex1", "ts", 5.0),
        ("linear-ex2", "mu", 3.0),
        ("lorenz", "mu", 3.0),
        ("lorenz", "a", np.eye(3)),
        ("vdp", "c", np.eye(2)),
    ]:
        with pytest.raises(ValueError, match=f"model {model!r} takes no {key}"):
            ExperimentConfig(model=model, steps=2, filters=("ukf",), **{key: value})
    cfg = ExperimentConfig(model="linear-ex2", steps=10, filters=("ukf", "KF", "ukf"))
    assert cfg.filters == ("kf", "ukf")


def test_ex2_traces_differ_beyond_first_step():
    cfg = ExperimentConfig(model="linear-ex2", steps=100, seed=1, filters=("kf", "ukf"))
    result = run_experiment(cfg)
    assert result.trace.shape == (100, 2)
    tr_kf, tr_ukf = result.trace.T.tolist()
    for kf, ukf in zip(tr_kf[1:], tr_ukf[1:]):
        assert ukf != pytest.approx(kf, abs=1e-9)


def test_experiment_records_are_reproducible():
    cfg = ExperimentConfig(model="linear-ex2", steps=30, seed=2, filters=("kf", "ukf"))
    rec1 = run_experiment(cfg)
    rec2 = run_experiment(cfg)
    for field in ("trace", "output_error", "error_norm"):
        assert getattr(rec1, field).tolist() == getattr(rec2, field).tolist()


def test_corrected_variants_share_trace_columns_on_linear_model():
    cfg = ExperimentConfig(model="linear-ex2", steps=50, seed=3, filters=("eukfa", "eukfc"))
    for a, c in run_experiment(cfg).trace.tolist():
        assert abs(a - c) / c < 1e-9


def test_relerr_definition_with_and_without_enkf():
    cfg = ExperimentConfig(model="linear-ex2", steps=10, seed=4, ensemble=2000, filters=("enkf", "kf"))
    result = run_experiment(cfg)
    for (tr_enkf, tr_kf), (rel_enkf, rel_kf) in zip(result.trace.tolist(), result.relerr.tolist()):
        assert rel_enkf == 0.0
        assert rel_kf == pytest.approx(abs(tr_kf - tr_enkf) / tr_enkf, rel=0)
    cfg2 = ExperimentConfig(model="linear-ex2", steps=5, seed=4, filters=("kf",))
    for (rel_kf,) in run_experiment(cfg2).relerr.tolist():
        assert math.isnan(rel_kf)


def test_filter_divergence_is_flagged_and_isolated(monkeypatch):
    # Step 1 calls ukf_step, steps 2-4 the kf+ukf stack.  From the fifth call on, every call that steps ukf fails:
    # the step-5 stack and ukf's one-slice replay, while kf's one-slice replay runs and kf runs on.
    calls = {"n": 0}

    def flaky(original, steps_ukf=lambda args: True):
        def step(*args):
            calls["n"] += 1
            if calls["n"] >= 5 and steps_ukf(args):
                raise FilterDiverged("synthetic failure")
            return original(*args)

        return step

    monkeypatch.setattr(harness, "ukf_step", flaky(harness.ukf_step))
    monkeypatch.setattr(harness, "stack_step", flaky(harness.stack_step, lambda args: "ukf" in args[1]))
    cfg = ExperimentConfig(model="linear-ex2", steps=10, seed=5, filters=("kf", "ukf"))
    result = run_experiment(cfg)
    (kf_diverged, ukf_diverged), (tr_kf, tr_ukf) = result.diverged.T, result.trace.T
    assert not ukf_diverged[:4].any()
    assert result.failures == {"ukf": (5, "FilterDiverged: synthetic failure")}
    assert ukf_diverged[4:].all()
    assert np.isnan(tr_ukf[4:]).all()
    assert not kf_diverged[4:].any()
    assert np.isfinite(tr_kf[4:]).all()


def test_an_ensemble_that_fails_mid_run_stops_while_the_stacked_filters_go_on(monkeypatch):
    # enkf fails on its fourth call, at step 4; ekf, ukf, eukfa and eukfc run on in their stacked call, and from
    # then on their relerr, which divides by the ensemble's trace, is NaN.
    stepped = []

    def failing(model, ens, y):
        stepped.append(ens.step + 1)
        if len(stepped) == 4:
            raise FilterDiverged("synthetic ensemble failure")
        return enkf_step(model, ens, y)

    monkeypatch.setattr(harness, "enkf_step", failing)
    stacked = ("ekf", "ukf", "eukfa", "eukfc")
    result = run_experiment(ExperimentConfig(model="lorenz", steps=8, seed=5, ensemble=200, filters=("enkf", *stacked)))
    assert stepped == [1, 2, 3, 4]  # never stepped again once it has failed
    assert result.names == ("enkf", *stacked)
    failed = np.arange(1, 9) >= 4  # per step
    assert (result.diverged[:, 0] == failed).all()
    assert (np.isnan(result.trace[:, 0]) == failed).all()
    assert result.failures == {"enkf": (4, "FilterDiverged: synthetic ensemble failure")}
    assert not result.diverged[:, 1:].any()
    assert np.isfinite(result.trace[:, 1:]).all() and np.isfinite(result.error_norm[:, 1:]).all()
    assert (np.isnan(result.relerr[:, 1:]) == failed[:, None]).all()


_FIELDS = ("trace", "relerr", "output_error", "error_norm", "diverged")


def _values(result: RunResult, name=None) -> str:
    """repr of every filter's per-step values and the failures in order, or of filter `name`'s: equal reprs are equal bits, NaN as nan."""
    at = slice(None) if name is None else result.names.index(name)
    failures = list(result.failures.items()) if name is None else result.failures.get(name)
    return repr(([getattr(result, field)[:, at].tolist() for field in _FIELDS], failures))


def _overflowing_output_model():
    return SystemModel(
        l_x=1,
        l_y=1,
        f=lambda x: x,
        g=lambda x: 1e160 * x**3,
        Q=np.zeros((1, 1)),
        R=np.eye(1),
        jac_f=lambda x: np.eye(1),
        jac_g=lambda x: 3e160 * x[None, :] ** 2,
    )


def test_the_ensembles_draws_never_reach_the_rest_of_a_run(monkeypatch):
    truths = []

    def recording(*args):
        truths.append(simulate_truth(*args))
        return truths[-1]

    monkeypatch.setattr(harness, "simulate_truth", recording)
    sigma = ("ekf", "ukf", "eukfa", "eukfc")
    runs = [
        run_experiment(ExperimentConfig(model="lorenz", steps=60, seed=20240, ensemble=500, filters=filters))
        for filters in (("enkf", *sigma), sigma)
    ]
    assert np.isfinite(runs[0].trace[:, 0]).all()  # enkf
    (states, meas), (states_alone, meas_alone) = truths
    assert states.tobytes() == states_alone.tobytes() and meas.tobytes() == meas_alone.tobytes()
    for name in sigma:
        for field in ("trace", "output_error", "error_norm"):
            with_enkf, alone = (getattr(run, field)[:, run.names.index(name)] for run in runs)
            assert with_enkf.tobytes() == alone.tobytes(), (name, field)


def test_the_rest_of_a_run_never_reaches_the_ensemble():
    sigma = ("ekf", "ukf", "eukfa", "eukfc")
    with_sigma, alone = (
        run_experiment(ExperimentConfig(model="lorenz", steps=60, seed=20240, ensemble=500, filters=filters))
        for filters in (("enkf", *sigma), ("enkf",))
    )
    assert np.isfinite(alone.trace).all()
    assert _values(with_sigma, "enkf") == _values(alone, "enkf")


def _run_with_overflowing_output(monkeypatch, failing):
    monkeypatch.setattr(harness, "build_model", lambda cfg: (_overflowing_output_model(), np.zeros(1), np.eye(1)))
    result = run_experiment(ExperimentConfig(model="lorenz", steps=3, seed=0, ensemble=100, filters=("ekf", failing)))
    assert result.failures == {
        failing: (1, f"FilterDiverged: {failing} produced a non-finite innovation or cross covariance at step 1")
    }
    ekf, other = result.names.index("ekf"), result.names.index(failing)
    assert result.diverged[:, other].all()
    assert not result.diverged[:, ekf].any()
    assert np.isfinite(result.trace[:, ekf]).all()


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_innovation_covariance_marks_only_that_filter_diverged(monkeypatch):
    # g(x) = 1e160 x^3: the UKF's sigma outputs near +-3.4e160 are finite, but their
    # squares overflow P_z to inf.  The EKF linearizes g at 0, where dg/dx = 0, and runs on.
    _run_with_overflowing_output(monkeypatch, "ukf")


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_ensemble_innovation_marks_only_enkf_diverged(monkeypatch):
    # The members' outputs are finite too; the sum of their squared deviations is not.
    _run_with_overflowing_output(monkeypatch, "enkf")


def test_a_filter_that_fails_at_step_1_on_a_real_model_leaves_the_others_bits_alone(monkeypatch):
    # g is NaN beyond |x| = 2.  From x0 = 1 and p0 = 1 the UKF's sigma points sit at 1 +- 1.5, so its outputs
    # turn NaN at step 1; the truth (Q = 1e-4) and the EKF's mean stay near 1.  No step function is patched.
    model = SystemModel(
        l_x=1,
        l_y=1,
        f=lambda x: x,
        g=lambda x: np.where(np.abs(x) <= 2, x, np.nan),
        Q=1e-4 * np.eye(1),
        R=1e-2 * np.eye(1),
        jac_f=lambda x: np.eye(1),
        jac_g=lambda x: np.eye(1),
    )
    monkeypatch.setattr(harness, "build_model", lambda cfg: (model, np.ones(1), np.eye(1)))
    result, alone = (
        run_experiment(ExperimentConfig(model="lorenz", steps=20, seed=3, filters=filters)) for filters in (("ekf", "ukf"), ("ekf",))
    )
    assert result.failures == {"ukf": (1, "FilterDiverged: sigma outputs became non-finite at step 1")}
    assert not result.diverged[:, 0].any()  # ekf
    assert _values(result, "ekf") == _values(alone, "ekf")


def test_divergence_keeps_first_failing_step_and_reason():
    # alpha = 0.2 makes the center weight strongly negative; the UKF covariance
    # on the first benchmark system loses definiteness at step 40.
    cfg = ExperimentConfig(model="linear-ex1", steps=60, seed=1, alpha=0.2, filters=("kf", "ukf"))
    result = run_experiment(cfg)
    assert result.failures == {"ukf": (40, "NotPositiveDefinite: matrix of dimension 2 is not positive definite (ukf step 40)")}
    kf_diverged, ukf_diverged = result.diverged.T
    assert not ukf_diverged[38]
    assert ukf_diverged[39:].all()
    assert not kf_diverged.any()


def test_output_and_error_norms_are_bitwise_np_linalg_norm():
    a = np.array([[0.9, 0.2, 0, 0], [-0.2, 0.9, 0.1, 0], [0, 0, 0.7, 0.3], [0, 0, -0.3, 0.7]])
    c = np.array([[1, 0, 0.5, 0], [0, 0.4, 0, 1.0]])
    cfg = ExperimentConfig(model="custom", steps=40, seed=3, a=a, c=c, q=0.1, r=0.1, filters=("kf",))
    result = run_experiment(cfg)
    model, x0, p0 = harness.build_model(cfg)
    states, meas = simulate_truth(model, x0, cfg.steps, cfg.seed)
    est = harness.StateEstimate(x0, p0, 0)
    for k, ((output_error,), (error_norm,)) in enumerate(zip(result.output_error.tolist(), result.error_norm.tolist()), 1):
        est, _ = kf_step(model, est, meas[k])
        assert output_error == float(np.linalg.norm(meas[k] - c @ est.mean))
        assert error_norm == float(np.linalg.norm(states[k] - est.mean))


_PUBLIC_STEPS = {"enkf": enkf_step, "kf": kf_step, "ekf": ekf_step, "ukf": ukf_step, "eukfa": eukfa_step, "eukfc": eukfc_step}


def _replayed_result(cfg) -> RunResult:
    """run_experiment's result worked out step by step: each filter stepped alone through its public step, each metric a Python float."""
    model, x0, p0 = harness.build_model(cfg)
    states, meas = simulate_truth(model, x0, cfg.steps, cfg.seed)
    est0 = harness.StateEstimate(x0, p0, 0)
    state = {name: harness.enkf_init(est0, cfg.ensemble, cfg.seed) if name == "enkf" else est0 for name in cfg.filters}
    nan = float("nan")
    rows, failures = [], {}  # per step, each filter's (trace, relerr, output_error, error_norm, diverged)
    for k in range(1, cfg.steps + 1):
        y = meas[k]
        recs = {}
        for name in [name for name in cfg.filters if state[name] is not None]:
            try:
                alpha = (cfg.alpha,) if name in SIGMA_FILTERS else ()
                state[name], recs[name] = _PUBLIC_STEPS[name](model, state[name], y, *alpha)
            except harness._STEP_ERRORS as exc:
                state[name] = None
                failures[name] = k, f"{type(exc).__name__}: {exc}"
        tr_enkf = float(recs["enkf"].posterior_cov.trace()) if "enkf" in recs else None
        row = []
        for name in cfg.filters:
            rec = recs.get(name)
            if rec is None:
                row.append((nan, nan, nan, nan, True))
                continue
            tr = float(rec.posterior_cov.trace())
            z = y - measure(model, rec.posterior_mean)
            e = states[k] - rec.posterior_mean
            zval = float(z[0]) if model.l_y == 1 else math.sqrt(z.dot(z))
            relerr = abs(tr - tr_enkf) / tr_enkf if tr_enkf is not None else nan
            row.append((tr, relerr, zval, math.sqrt(e.dot(e)), False))
        rows.append(row)
    *values, diverged = (np.array([[column[i] for column in row] for row in rows]) for i in range(5))
    return RunResult(cfg.filters, *values, diverged, failures)


@pytest.mark.parametrize(
    "cfg",
    [
        dict(model="lorenz", steps=40, seed=7, ensemble=200, filters=("enkf", "ekf", "ukf", "eukfa", "eukfc")),
        dict(model="linear-ex1", steps=60, seed=1, alpha=0.2, filters=("kf", "ukf", "eukfa", "eukfc")),  # ukf fails at 40
        dict(model="custom", steps=30, seed=3, ensemble=200, a=np.array([[0.9, 0.2], [-0.2, 0.9]]), c=np.eye(2), q=0.1,
             filters=("enkf", "kf", "ukf", "eukfc")),
        # bench/linear-4x2.cfg: a general C, so g(mean) is a real matrix product.
        dict(model="custom", steps=40, seed=9, ensemble=200, q=0.1, r=0.1,
             a=np.array([[0.9, 0.2, 0, 0], [-0.2, 0.9, 0.1, 0], [0, 0, 0.7, 0.3], [0, 0, -0.3, 0.7]]),
             c=np.array([[1, 0, 0.5, 0], [0, 0.4, 0, 1.0]]), filters=("enkf", "ekf", "kf", "ukf", "eukfa", "eukfc")),
    ],
    ids=["lorenz", "failing", "two-outputs", "linear-4x2"],
)
def test_run_metrics_are_bitwise_a_per_step_replay(cfg):
    cfg = ExperimentConfig(**cfg)
    assert _values(run_experiment(cfg)) == _values(_replayed_result(cfg))


def test_export_csv_schema_and_round_trip(tmp_path):
    cfg = ExperimentConfig(model="linear-ex2", steps=12, seed=6, filters=("kf", "ukf", "eukfc"))
    result = run_experiment(cfg)
    out = tmp_path / "results.csv"
    export_csv(result, out)

    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings only

    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[0] == "k"
    assert len(header) == 1 + 4 * 3
    assert header[1:5] == ["trP_kf", "relerr_kf", "z_kf", "enorm_kf"]
    assert header[5:9] == ["trP_ukf", "relerr_ukf", "z_ukf", "enorm_ukf"]
    assert len(data) == 12
    kf = zip(result.trace[:, 0].tolist(), result.output_error[:, 0].tolist(), result.error_norm[:, 0].tolist())
    for k, (row, (trace, output_error, error_norm)) in enumerate(zip(data, kf), 1):
        assert int(row[0]) == k
        assert float(row[1]) == trace  # 17 significant digits round-trip exactly
        assert math.isnan(float(row[2]))
        assert float(row[3]) == output_error
        assert float(row[4]) == error_norm


# One filter's trace, relerr, output_error and error_norm at one step: any double, NaN and +-inf included.
_METRICS = st.tuples(st.floats(), st.floats(), st.floats(), st.floats())


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_METRICS, _METRICS), min_size=1, max_size=4))
def test_export_csv_round_trips_every_value_bitwise(rows):
    values = np.array(rows)  # (steps, filters, 4)
    result = RunResult(("kf", "eukfc"), *np.moveaxis(values, -1, 0), np.zeros(values.shape[:2], dtype=bool), {})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        export_csv(result, path)
        with open(path, newline="", encoding="utf-8") as fh:
            data = list(csv.reader(fh))[1:]
    assert len(data) == len(rows)
    for row, metrics in zip(data, rows):
        written = [v for m in metrics for v in m]
        for text, value in zip(row[1:], written, strict=True):
            back = float(text)
            if math.isnan(value):
                assert math.isnan(back), text
            else:
                assert struct.pack("<d", back) == struct.pack("<d", value), (text, value)


def test_export_csv_rejects_empty_inputs(tmp_path):
    no_steps, no_filters = np.empty((0, 1)), np.empty((1, 0))
    with pytest.raises(ValueError):
        export_csv(RunResult(("kf",), *[no_steps] * 4, no_steps.astype(bool), {}), tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export_csv(RunResult((), *[no_filters] * 4, no_filters.astype(bool), {}), tmp_path / "y.csv")
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "y.csv").exists()


def test_export_csv_surfaces_io_errors(tmp_path):
    cfg = ExperimentConfig(model="linear-ex2", steps=2, seed=0, filters=("kf",))
    result = run_experiment(cfg)
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        export_csv(result, missing)


def test_example1_traces_values():
    traces = example1_traces()
    assert traces["tr_ukf"] == pytest.approx(8.816, abs=1e-3)
    assert traces["tr_at_ukf_gain"] == pytest.approx(9.730, abs=1e-3)
    assert traces["tr_kf"] == pytest.approx(12.66 - (3.145**2 + 0.753**2) / 2.9357, rel=1e-10)


def test_verify_propositions_small_run_passes():
    report = verify_propositions(seed=10, trials=10)
    assert report.passed
    assert report.worst["identity"] < 1e-10
    assert report.worst["inequality"] > -1e-10
    assert report.worst["distinctness"] > 1e-6
    assert max(report.worst["eukfa"], report.worst["eukfc"]) < 1e-9
    assert "PASS" in report.summary()


def test_verify_propositions_worst_values_are_pinned():
    # Every worst value to the last bit, and the text `ukfkit verify` prints from them: a change of how the
    # checks are stepped or reduced must keep both.
    report = verify_propositions(seed=0, trials=10)
    assert report.worst == {
        "identity": 3.552713678800501e-15,
        "inequality": 0.011885536065821989,
        "distinctness": 0.26538660430875094,
        "eukfa": 1.4263381963014506e-13,
        "eukfc": 2.773108940770972e-15,
    }
    assert report.summary().splitlines() == [
        "missing-term identities : 11/11 pass (worst abs deviation 3.553e-15)",
        "gain-cost inequality    : 11/11 pass (worst margin 1.189e-02)",
        "ukf differs from kf     : 11/11 pass (smallest trace gap 2.654e-01)",
        "eukf-a matches kf       : 11/11 pass (worst rel deviation 1.426e-13)",
        "eukf-c matches kf       : 11/11 pass (worst rel deviation 2.773e-15)",
        "overall                 : PASS",
    ]


def test_verify_propositions_exempts_zero_q_from_separation(monkeypatch):
    # With Q = 0 the plain UKF coincides with the KF, so the trajectories
    # never separate; such systems must not count as separation failures.
    def zero_q_system(rng, l_x=None, l_y=None):
        return LinearSystem(
            A=np.array([[0.9, 0.2], [0.0, 0.7]]),
            C=np.array([[1.0, -0.5]]),
            Q=np.zeros((2, 2)),
            R=np.eye(1),
        )

    monkeypatch.setattr(harness, "random_detectable_system", zero_q_system)
    report = verify_propositions(seed=0, trials=3)
    assert report.failures["distinctness"] == 0
    assert report.failures["identity"] == 0  # identities hold trivially at Q = 0
    assert report.passed
    # Only linear-ex1 has a Q for the separation check; the three exempt systems are not counted as passes.
    assert "ukf differs from kf     : 1/1 pass" in report.summary()


def test_verify_reports_each_variants_own_worst_deviation(seed_34013_report):
    # On this seed eukfa's worst deviation (about 1.4e-12) is far above eukfc's
    # round-off; each line of the report must show its own.
    report = seed_34013_report
    for variant in ("eukfa", "eukfc"):
        assert (report.failures[variant] > 0) == (report.worst[variant] > 1e-9)
    lines = report.summary().splitlines()
    assert f"{report.worst['eukfa']:.3e}" in next(line for line in lines if line.startswith("eukf-a"))
    assert f"{report.worst['eukfc']:.3e}" in next(line for line in lines if line.startswith("eukf-c"))


def test_verify_counts_each_check_over_the_systems_it_ran():
    # linear-ex1 runs on top of the three random systems, so every check covers four.
    lines = verify_propositions(seed=11, trials=3).summary().splitlines()
    assert len(lines) == 6
    for line in lines[:5]:
        assert ": 4/4 pass (" in line, line


@pytest.mark.parametrize(
    "check, last_pass, first_fail",
    [
        ("identity", 1e-10, math.nextafter(1e-10, math.inf)),
        ("inequality", -1e-10, math.nextafter(-1e-10, -math.inf)),
        ("distinctness", math.nextafter(1e-6, math.inf), 1e-6),  # the gap must exceed 1e-6
        ("eukfa", 1e-9, math.nextafter(1e-9, math.inf)),
        ("eukfc", 1e-9, math.nextafter(1e-9, math.inf)),
    ],
)
def test_check_table_bounds(check, last_pass, first_fail):
    report = PropositionReport()
    report.record(check, last_pass)
    assert report.failures[check] == 0 and report.passed
    report.record(check, first_fail)
    assert report.failures[check] == 1 and not report.passed
    report.record(check, math.nan)
    assert report.failures[check] == 2
    assert sum(report.failures.values()) == 2
    label = CHECKS[check][0]
    assert next(line for line in report.summary().splitlines() if line.startswith(label)).endswith(
        f": 1/3 pass ({CHECKS[check][1]} {report.worst[check]:.3e})"
    )
    assert report.summary().endswith("overall                 : FAIL")


def test_check_table_folds_each_worst_value_from_its_start():
    report = PropositionReport()
    assert report.worst == {"identity": 0.0, "inequality": math.inf, "distinctness": math.inf, "eukfa": 0.0, "eukfc": 0.0}
    for check in CHECKS:
        for value in (-1.0, 0.5, 0.25):
            report.record(check, value)
    assert report.worst == {"identity": 0.5, "inequality": -1.0, "distinctness": -1.0, "eukfa": 0.5, "eukfc": 0.5}


def test_verify_steps_one_kalman_trajectory_per_system(monkeypatch):
    # 4 systems (linear-ex1 plus 3 random ones); each system steps one 50-step stack whose slice 0 is the Kalman
    # trajectory, with no kf_step call: kf, ukf twice and eukfa and eukfc at each alpha, one stack_step call a step.
    calls, stacks = dict.fromkeys(("kf_step", "stack_step"), 0), set()
    for name in calls:
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls[_name] += 1
            if _name == "stack_step":
                stacks.add((args[1], args[-1]))  # the names and the alpha of the stack
            return _real(*args)

        monkeypatch.setattr(harness, name, counted)
    assert verify_propositions(seed=11, trials=3).passed
    assert (calls["kf_step"], calls["stack_step"]) == (0, 4 * 50)
    # Each sigma-point slice takes its own alpha: the UKF at 1.5 twice, each corrected variant at 1, 1.5 and 3.
    (names, alpha), = stacks
    assert names[0] == "kf" and sorted(zip(names[1:], alpha)) == [
        ("eukfa", 1.0), ("eukfa", 1.5), ("eukfa", 3.0), ("eukfc", 1.0), ("eukfc", 1.5), ("eukfc", 3.0), ("ukf", 1.5), ("ukf", 1.5)
    ]


def test_reproduce_config_defaults():
    assert reproduce_config(1).model == "linear-ex1"
    assert reproduce_config(2).steps == 100
    cfg3 = reproduce_config(3, seed=9, ensemble=1000, steps=50)
    assert (cfg3.model, cfg3.ensemble, cfg3.steps, cfg3.seed) == ("vdp", 1000, 50, 9)
    assert reproduce_config(4).filters == ("enkf", "ekf", "ukf", "eukfa", "eukfc")
    with pytest.raises(ValueError):
        reproduce_config(5)


def test_custom_linear_model_runs():
    cfg = ExperimentConfig(
        model="custom",
        steps=10,
        seed=7,
        filters=("kf", "eukfc"),
        a=np.array([[0.5, 0.1], [0.0, 0.4]]),
        c=np.array([[1.0, 0.0]]),
        q=0.2,
        r=0.5,
    )
    result = run_experiment(cfg)
    assert result.trace.shape == (10, 2)
    for tr_kf, tr_eukfc in result.trace.tolist():
        assert abs(tr_eukfc - tr_kf) / tr_kf < 1e-9

"""Acceptance gates for the whole package.

Each test covers one release criterion, prints a PASS/FAIL line, and
enforces its runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines even on success.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ukfkit.harness import (
    ExperimentConfig,
    example1_traces,
    random_spd,
    run_experiment,
    verify_propositions,
)
from ukfkit.numerics import spd_sqrt_factor
from ukfkit.statespace import LinearSystem, StateEstimate, jacobian_dynamics, jacobian_fd, make_lorenz, make_vdp
from ukfkit.ukf import unscented_prior

SEED = 20240
NONLINEAR_ENSEMBLE = 20_000
NONLINEAR_STEPS = 5000


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_example1_regression():
    start = time.perf_counter()
    traces = example1_traces(alpha=1.5)
    elapsed = time.perf_counter() - start
    hand_kf = 12.66 - (3.145**2 + 0.753**2) / 2.9357  # independent hand derivation
    ok = (
        abs(traces["tr_ukf"] - 8.816) <= 1e-3
        and abs(traces["tr_at_ukf_gain"] - 9.730) <= 1e-3
        and abs(traces["tr_kf"] - hand_kf) <= 1e-3
        and elapsed < 1.0
    )
    _criterion(
        "example-1 one-step traces",
        ok,
        f"ukf {traces['tr_ukf']:.4f}, gain cost {traces['tr_at_ukf_gain']:.4f}, "
        f"kf {traces['tr_kf']:.4f} vs hand {hand_kf:.4f}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def verify_report():
    """The full `verify` report at SEED over 100 random systems, and the seconds it took: both suites read it."""
    start = time.perf_counter()
    report = verify_propositions(seed=SEED, trials=100)
    return report, time.perf_counter() - start


def test_ukf_suboptimality_property_suite(verify_report):
    report, elapsed = verify_report
    ok = (
        report.failures["identity"] == 0
        and report.failures["inequality"] == 0
        and report.failures["distinctness"] == 0
        and elapsed < 10.0
    )
    _criterion(
        "ukf-vs-kf property suite (100 random systems)",
        ok,
        f"worst identity dev {report.worst['identity']:.2e}, "
        f"worst margin {report.worst['inequality']:.2e}, "
        f"smallest gap {report.worst['distinctness']:.2e}, {elapsed:.1f}s",
    )


def test_corrected_variants_equivalence_suite(verify_report):
    report, elapsed = verify_report
    ok = report.failures["eukfa"] == 0 and report.failures["eukfc"] == 0 and elapsed < 30.0
    _criterion(
        "eukf-a/eukf-c match kf over 50 steps and alpha in {1, 1.5, 3}",
        ok,
        f"worst rel deviation {max(report.worst['eukfa'], report.worst['eukfc']):.2e}, {elapsed:.1f}s",
    )


def test_example2_divergence_curve():
    cfg = ExperimentConfig(model="linear-ex2", steps=100, seed=SEED, filters=("kf", "ukf"))
    tr_kf, tr_ukf = run_experiment(cfg).trace.T
    gaps = np.abs(tr_kf - tr_ukf)[1:]  # steps 2..100
    settled_kf = np.max(np.abs(np.diff(tr_kf[-6:]))) / tr_kf[-1]
    settled_ukf = np.max(np.abs(np.diff(tr_ukf[-6:]))) / tr_ukf[-1]
    ok = bool(np.all(gaps > 1e-6) and settled_kf < 1e-9 and settled_ukf < 1e-9)
    _criterion(
        "example-2 traces differ for 1 < k <= 100 and both settle",
        ok,
        f"min gap {gaps.min():.3e}, settle kf {settled_kf:.1e}, ukf {settled_ukf:.1e}",
    )


def _covariance_accuracy(model_id: str):
    cfg = ExperimentConfig(
        model=model_id,
        steps=NONLINEAR_STEPS,
        seed=SEED,
        alpha=1.5,
        ensemble=NONLINEAR_ENSEMBLE,
        filters=("enkf", "ekf", "ukf", "eukfa", "eukfc"),
    )
    result = run_experiment(cfg)
    relerr, trace = (dict(zip(result.names, a[-1000:].T)) for a in (result.relerr, result.trace))
    rel = {n: float(np.mean(relerr[n])) for n in ("ekf", "ukf", "eukfa", "eukfc")}
    tr_ekf = trace["ekf"]
    ekf_gap = {}
    for n in ("eukfa", "eukfc"):
        tr = trace[n]
        ekf_gap[n] = float(np.mean(np.abs(tr - tr_ekf) / tr_ekf))
    return rel, ekf_gap


def test_lorenz_covariance_accuracy():
    start = time.perf_counter()
    rel, ekf_gap = _covariance_accuracy("lorenz")
    elapsed = time.perf_counter() - start
    ok = (
        rel["eukfa"] < 0.05
        and rel["eukfc"] < 0.05
        and rel["ukf"] >= 2.0 * rel["eukfa"]
        and rel["ukf"] >= 2.0 * rel["eukfc"]
        and ekf_gap["eukfa"] < 0.02
        and ekf_gap["eukfc"] < 0.02
        and elapsed < 300.0
    )
    _criterion(
        "lorenz covariance accuracy vs 20k-member ensemble",
        ok,
        f"rel err ukf {rel['ukf']:.3f}, eukfa {rel['eukfa']:.4f}, eukfc {rel['eukfc']:.4f}, "
        f"ekf gaps {ekf_gap['eukfa']:.2e}/{ekf_gap['eukfc']:.2e}, {elapsed:.0f}s",
    )


def test_vdp_covariance_ordering():
    start = time.perf_counter()
    rel, ekf_gap = _covariance_accuracy("vdp")
    elapsed = time.perf_counter() - start
    ok = (
        rel["eukfa"] < rel["ukf"]
        and rel["eukfc"] < rel["ukf"]
        and ekf_gap["eukfa"] < 0.02
        and ekf_gap["eukfc"] < 0.02
        and elapsed < 300.0
    )
    _criterion(
        "vdp covariance ordering vs 20k-member ensemble",
        ok,
        f"rel err ukf {rel['ukf']:.3f}, eukfa {rel['eukfa']:.4f}, eukfc {rel['eukfc']:.4f}, "
        f"ekf gaps {ekf_gap['eukfa']:.2e}/{ekf_gap['eukfc']:.2e}, {elapsed:.0f}s",
    )


def test_numerics_suite():
    rng = np.random.default_rng(SEED)
    worst_chol = 0.0
    for _ in range(100):
        m = random_spd(rng, int(rng.integers(2, 7)))
        s = spd_sqrt_factor(m)
        worst_chol = max(worst_chol, float(np.linalg.norm(s @ s.T - m) / np.linalg.norm(m)))

    worst_recon = 0.0
    for alpha in (0.8, 1.0, 1.5, 3.0):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = random_spd(rng, n)
            center = rng.standard_normal(n)
            # Under identity dynamics the propagated deviations are the spread every sigma-point step runs.
            identity = LinearSystem(A=np.eye(n), C=np.ones((1, n)), Q=np.eye(n), R=np.eye(1))
            means = center[None]
            _, _, xdev, _, w, _, _ = unscented_prior(identity, means, StateEstimate(center, p).sigma_factor()[None], alpha, 0, means[:0])
            recon = (xdev[0] * w) @ xdev[0].T
            worst_recon = max(worst_recon, float(np.linalg.norm(recon - p) / np.linalg.norm(p)))

    worst_jac = 0.0
    for model, x0 in ((make_vdp(), [1.0, 1.0]), (make_lorenz(), [1.0, 1.0, 1.0])):
        x = np.asarray(x0)
        for k in range(200):
            x = model.f(x)
            fd = jacobian_fd(model.f, x)
            worst_jac = max(worst_jac, float(np.max(np.abs(fd - jacobian_dynamics(model, x)))))

    ok = worst_chol < 1e-10 and worst_recon < 1e-10 and worst_jac < 1e-5
    _criterion(
        "numerics: factor round-trip, sigma reconstruction, fd-vs-analytic jacobians",
        ok,
        f"chol {worst_chol:.2e}, recon {worst_recon:.2e}, jac {worst_jac:.2e}",
    )


def _cli_bytes(args, out, threads: int) -> bytes:
    """Run `python -m ukfkit *args` with every BLAS pool at `threads` threads and return the file it writes at `out`."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run([sys.executable, "-m", "ukfkit", *args], check=True, env=env, capture_output=True)
    with open(out, "rb") as fh:
        return fh.read()


def test_reproduce_is_byte_deterministic(tmp_path):
    def run(out_dir, threads):
        args = ["reproduce", "--example", "4", "--out", str(out_dir), "--seed", str(SEED), "--ensemble", "2000", "--steps", "1000"]
        return _cli_bytes(args, out_dir / "example4.csv", threads)

    first = run(tmp_path / "a", threads=1)
    second = run(tmp_path / "b", threads=4)
    ok = first == second and len(first) > 0
    _criterion("reproduce --example 4 is byte-identical across runs and thread counts", ok,
               f"{len(first)} bytes")


def test_linear_stack_run_is_byte_deterministic(tmp_path):
    # Every filter but enkf advances as one stack from step 2, so this covers the kf and ekf slices on a linear model.
    def run(threads):
        out = tmp_path / f"threads{threads}.csv"
        args = ["run", "--model", "linear-ex2", "--filters", "kf,ekf,ukf,eukfa,eukfc", "--alpha", "3",
                "--steps", "500", "--seed", "3", "--out", str(out)]
        return _cli_bytes(args, out, threads)

    first, second = run(1), run(4)
    ok = first == second and first.count(b"\n") == 501
    _criterion("run --model linear-ex2 with every stacked filter is byte-identical across thread counts", ok,
               f"{len(first)} bytes")

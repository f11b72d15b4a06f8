"""Experiment harness: truth simulation, multi-filter runs, metrics, CSV export.

One experiment draws a single noisy truth trajectory and feeds the same
measurement sequence to every selected filter.  Per step and per filter it
records the posterior covariance trace, the posterior output error
z_{k|k} = y_k - g(x_hat_{k|k}), the posterior error norm against the
simulated truth, and the trace error relative to the ensemble filter when
one is running.  A filter that fails mid-run is flagged as diverged and
reported as NaN from that step on, and the run keeps its failing step with
the exception type and message; the other filters continue.  The
covariance-form filters take their public steps at step 1, then one
:func:`ukf.stack_step` call per step on carried arrays; a stack that fails is
replayed as one-slice stacks, and the survivors run on as one stack.  enkf
then runs its own loop, so neither evicts the other's working set from the
cache.  Every g(mean) is one call after the loops, every trace one sum of the
stored diagonals, all returned as whole-run arrays in one :class:`RunResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .ekf import ekf_step
from .enkf import PhiloxCells, enkf_init, enkf_step
from .eukf import eukfa_step, eukfc_step
from .kf import KfStep, evaluate_gain_cov, kf_step
from .numerics import FilterDiverged, NotPositiveDefinite, all_finite, rcond_check
from .statespace import (
    LinearSystem,
    StateEstimate,
    SystemModel,
    make_linear_ex1,
    make_linear_ex2,
    make_lorenz,
    make_vdp,
    measure_batch,
    noise_cov,
    noise_factor,
    step_dynamics,
)
from .ukf import SIGMA_FILTERS, SingularDynamicsJacobian, _rows, stack_step, ukf_step

Array = np.ndarray


def _make_custom(a, c, q=1.0, r=1.0) -> LinearSystem:
    c = np.atleast_2d(c)
    return LinearSystem(A=a, C=c, Q=noise_cov(q, len(a)), R=noise_cov(r, len(c)))


# Each model's factory and the config keys it takes; a key left unset keeps the factory's default.
_FACTORIES = {
    "linear-ex1": (make_linear_ex1, ("q", "r")),
    "linear-ex2": (make_linear_ex2, ("q", "r")),
    "custom": (_make_custom, ("a", "c", "q", "r")),
    "vdp": (make_vdp, ("ts", "mu", "q", "r")),
    "lorenz": (make_lorenz, ("ts", "q", "r")),
}
MODELS = tuple(_FACTORIES)
LINEAR_MODELS = ("linear-ex1", "linear-ex2", "custom")
FILTER_ORDER = ("enkf", "ekf", "kf", "ukf", "eukfa", "eukfc")

# Truth-simulation draw kinds, on Philox cells; disjoint from the EnKF's (init 0 on Philox, process 1 on SFC64).
KIND_TRUTH_PROCESS = 3
KIND_TRUTH_OBS = 4


class TruthDiverged(Exception):
    """The simulated truth trajectory or its measurements became non-finite."""


# Overflow and invalid values in the truth and filter arithmetic are left to the finiteness checks, which raise
# with the step and the cause; a numpy warning would only repeat them, without either.
_FP_CHECKED = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass
class ExperimentConfig:
    """Everything needed to run one experiment.

    `q`, `r` override the model noise levels (scalars mean q*I); `ts`, `mu`
    apply to the nonlinear models; `a`, `c` define the `custom` linear
    model; `x0`, `p0` override the initial condition (`p0` may be a scalar,
    meaning p0*I).  A `ts`, `mu`, `a` or `c` that the model does not take is
    rejected.
    """

    model: str
    steps: int
    seed: int = 0
    alpha: float = 1.5
    ensemble: int = 100_000
    filters: tuple[str, ...] = ("kf",)
    ts: Optional[float] = None
    mu: Optional[float] = None
    q: Optional[float] = None
    r: Optional[float] = None
    x0: Optional[Array] = None
    p0: Union[float, Array, None] = None
    a: Optional[Array] = None
    c: Optional[Array] = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        for key in ("alpha", "ts", "mu", "q", "r", "x0", "p0", "a", "c"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ValueError(f"{key} must be finite, got {value}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        names = tuple(dict.fromkeys(f.strip().lower() for f in self.filters if f.strip()))
        unknown = [f for f in names if f not in FILTER_ORDER]
        if unknown or not names:
            raise ValueError(f"filters must be a nonempty subset of {FILTER_ORDER}, got {self.filters}")
        self.filters = tuple(f for f in FILTER_ORDER if f in names)
        if "enkf" in self.filters and self.ensemble < 2:
            raise ValueError(f"ensemble size must be at least 2, got {self.ensemble}")
        if "kf" in self.filters and self.model not in LINEAR_MODELS:
            raise ValueError(f"the kf filter needs a linear model, not {self.model!r}")
        taken = _FACTORIES[self.model][1]
        for key in ("ts", "mu", "a", "c"):
            if getattr(self, key) is not None and key not in taken:
                raise ValueError(f"model {self.model!r} takes no {key}")
        if self.model == "custom" and (np.ndim(self.a) != 2 or self.c is None):
            raise ValueError(f"the custom model needs a 2-d matrix a and a matrix c, got a={self.a!r}, c={self.c!r}")


@dataclass(frozen=True)
class RunResult:
    """One run's outputs as whole-run (steps, filters) arrays: row k - 1 holds step k, column j filter names[j].

    `trace`, `relerr`, `output_error` and `error_norm` are the four CSV
    values, NaN once the filter has failed, and `diverged` is True from its
    failing step on.  `failures` maps each failed filter to its failing step
    and "ExceptionType: message", ordered by step, then by FILTER_ORDER.
    """

    names: tuple[str, ...]
    trace: Array
    relerr: Array
    output_error: Array
    error_norm: Array
    diverged: Array
    failures: dict[str, tuple[int, str]]


def simulate_truth(model: SystemModel, x0: Array, horizon: int, seed: int) -> tuple[Array, Array]:
    """Sample one noisy trajectory and its measurements for steps 0..horizon; g and the noise factors act outside the recursion.

    TruthDiverged names the first step whose state, or else whose measurement, is not finite; an x0 not of shape (l_x,) raises ValueError.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if np.shape(x0) != (model.l_x,):
        raise ValueError(f"simulate_truth: x0 must have shape {(model.l_x,)}, got {np.shape(x0)}")
    stream = PhiloxCells()
    v = np.array([stream(seed, k, KIND_TRUTH_OBS).standard_normal(model.l_y) for k in range(horizon + 1)])
    w = np.array([stream(seed, k, KIND_TRUTH_PROCESS).standard_normal(model.l_x) for k in range(horizon)])
    process_noise = np.matmul(model.q_factor, w[..., None])[..., 0]  # per row, the bits of q_factor @ w[k]
    states = np.empty((horizon + 1, model.l_x))
    states[0] = np.asarray(x0, dtype=float)
    with np.errstate(**_FP_CHECKED):
        for k in range(horizon + 1):
            x = states[k]
            if not all_finite(x):
                raise TruthDiverged(f"truth state became non-finite at step {k}")
            if k < horizon:
                states[k + 1] = step_dynamics(model, x) + process_noise[k]
        meas = _outputs(model, states) + np.matmul(model.r_factor, v[..., None])[..., 0]
    if not all_finite(meas):
        k = int(np.flatnonzero(~np.isfinite(meas).all(axis=1))[0])
        raise TruthDiverged(f"truth measurement became non-finite at step {k}")
    return states, meas


def _outputs(model: SystemModel, xs: Array) -> Array:
    """g of each row of xs (m, l_x) in one call: a stacked matmul keeps the bits of C @ x, a batch those of an exact g."""
    if isinstance(model, LinearSystem):
        return np.matmul(model.C, xs[..., None])[..., 0]
    return measure_batch(model, xs.T).T


def build_model(cfg: ExperimentConfig) -> tuple[SystemModel, Array, Array]:
    """Instantiate the configured model plus initial mean (ones; zeros for `custom`) and covariance (I).

    An `x0` not of length l_x, or a `p0` that is not a factorable covariance
    (all-zero is allowed) or, with ukf, eukfa or eukfc, not positive
    definite, raises ValueError naming the key (and those filters).
    """
    factory, keys = _FACTORIES[cfg.model]
    model = factory(**{key: getattr(cfg, key) for key in keys if getattr(cfg, key) is not None})
    if cfg.x0 is None:
        x0 = np.zeros(model.l_x) if cfg.model == "custom" else np.ones(model.l_x)
    else:
        x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (model.l_x,):
        raise ValueError(f"x0 must have length {model.l_x} for model {cfg.model!r}, got shape {x0.shape}")
    if cfg.p0 is None:
        return model, x0, np.eye(model.l_x)
    try:
        p0 = noise_cov(cfg.p0, model.l_x)
        noise_factor(p0)
    except (ValueError, NotPositiveDefinite) as exc:
        raise ValueError(f"p0 is not a covariance of dimension {model.l_x}: {exc}") from None
    sigma = [name for name in cfg.filters if name in SIGMA_FILTERS]
    if sigma:
        try:
            StateEstimate(x0, p0).sigma_factor()
        except NotPositiveDefinite as exc:
            raise ValueError(f"p0 must be positive definite for {', '.join(sigma)}: {exc}") from None
    return model, x0, p0


def _advance(name: str, model: SystemModel, est: StateEstimate, y: Array, alpha: float) -> tuple[StateEstimate, KfStep]:
    """One step of the named covariance-form filter by its public step: its next estimate and the step's record."""
    # Looked up per call, so a patched module-level step function is used.
    if name in SIGMA_FILTERS:
        return {"ukf": ukf_step, "eukfa": eukfa_step, "eukfc": eukfc_step}[name](model, est, y, alpha)
    return {"kf": kf_step, "ekf": ekf_step}[name](model, est, y)


_STEP_ERRORS = (
    NotPositiveDefinite,
    FilterDiverged,
    SingularDynamicsJacobian,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run every selected filter over one shared truth and measurement sequence."""
    model, x0, p0 = build_model(cfg)
    states, meas = simulate_truth(model, x0, cfg.steps, cfg.seed)
    est0 = StateEstimate(x0, p0, 0)
    names = cfg.filters
    ensemble = enkf_init(est0, cfg.ensemble, cfg.seed) if "enkf" in names else None
    # Row k - 1 holds step k; a filter's entries stay NaN where it has failed.
    shape = (cfg.steps, len(names))
    means, diagonals = np.full((*shape, model.l_x), np.nan), np.full((*shape, model.l_x), np.nan)
    failures: dict[str, tuple[int, str]] = {}
    stack = tuple(name for name in names if name != "enkf")
    with np.errstate(**_FP_CHECKED):  # a filter that overflows fails its finiteness check, with its error line
        for k in range(1, cfg.steps + 1 if stack else 1):
            replay = k == 1
            if not replay:
                try:
                    rec, factors = stack_step(model, stack, k - 1, *carry, meas[k], cfg.alpha)
                except (*_STEP_ERRORS, ValueError):  # each filter is replayed alone below and names its own failure
                    replay = True
                else:
                    carry = rec.posterior_mean, rec.posterior_cov, factors  # the posterior means, covs and factors chol(l_x P)
            if replay:
                # Step 1 runs each filter's own public step: bench/spans.py hooks those by name, and
                # bench/test_bench.py::test_every_traced_layer_that_exists_records_spans needs their spans.  A failed
                # stack replays each filter as a one-slice stack on its own rows of the carry, which keeps its bits.
                outs = {}
                for i, name in enumerate(stack):
                    try:
                        if k == 1:
                            est = _advance(name, model, est0, meas[k], cfg.alpha)[0]
                            outs[name] = est.mean[None], est.cov[None], est.sigma_factor()[None]
                        else:
                            rec, factors = stack_step(model, (name,), k - 1, *(a[i : i + 1] for a in carry), meas[k], cfg.alpha)
                            outs[name] = rec.posterior_mean, rec.posterior_cov, factors
                    except _STEP_ERRORS as exc:
                        failures[name] = k, f"{type(exc).__name__}: {exc}"
                if not outs:
                    break
                stack, carry = tuple(outs), tuple(map(np.concatenate, zip(*outs.values())))  # the survivors run on as one stack
                at = _rows(list(map(names.index, stack)))  # their columns, a slice unless a failure left a gap
            means[k - 1, at], diagonals[k - 1, at] = carry[0], carry[1].diagonal(0, 1, 2)
        for k in range(1, cfg.steps + 1 if "enkf" in names else 1):  # enkf's own loop, so neither evicts the other's working set
            try:
                ensemble, rec = enkf_step(model, ensemble, meas[k])
            except _STEP_ERRORS as exc:
                failures["enkf"] = k, f"{type(exc).__name__}: {exc}"
                break
            means[k - 1, 0], diagonals[k - 1, 0] = rec.posterior_mean, rec.posterior_cov.diagonal()  # enkf is first in FILTER_ORDER
        alive = np.isfinite(diagonals[..., 0])  # every posterior recorded has passed its finiteness check
        traces = diagonals.sum(axis=-1)  # the bits of np.trace: one reduction per diagonal, as trace makes it
        # Whole-run metrics, g(mean) included; each element has the bits of the per-step Python float arithmetic on the same values.
        outputs = np.full((*shape, model.l_y), np.nan)
        outputs[alive] = _outputs(model, means[alive])
        errors = states[1:, None] - means
        enorms = np.sqrt(np.vecdot(errors, errors))  # sqrt(v.v) is how np.linalg.norm computes a vector's 2-norm
        z = meas[1:, None] - outputs
        zvals = z[..., 0] if model.l_y == 1 else np.sqrt(np.vecdot(z, z))
        relerrs = np.full(shape, np.nan)
        if "enkf" in names:  # relative to the ensemble trace; NaN where it is missing or zero
            tr_enkf = traces[:, names.index("enkf"), None]
            np.divide(np.abs(traces - tr_enkf), tr_enkf, out=relerrs, where=tr_enkf != 0)
    # The covariance-form group records its failures before enkf's; the stderr order is by step, then by FILTER_ORDER.
    failures = dict(sorted(failures.items(), key=lambda item: (item[1][0], names.index(item[0]))))
    return RunResult(names, traces, relerrs, zvals, enorms, ~alive, failures)


def export_csv(result: RunResult, path) -> None:
    """Write a run as CSV: k, then trP/relerr/z/enorm per filter in result.names order, 17 significant digits."""
    steps = len(result.trace)
    if not steps or not result.names:
        raise ValueError(f"nothing to export: {steps} steps of {len(result.names)} filters")
    header = ["k"] + [f"{column}_{name}" for name in result.names for column in ("trP", "relerr", "z", "enorm")]
    table = np.empty((steps, 1 + 4 * len(result.names)))
    table[:, 0] = np.arange(1, steps + 1)
    table[:, 1:] = np.stack((result.trace, result.relerr, result.output_error, result.error_norm), axis=-1).reshape(steps, -1)
    # One format for every row; "%.17g" formats as format(value, ".17g"), "%d" a whole float as its int; nothing needs quoting.
    row = "%d" + ",%.17g,%.17g,%.17g,%.17g" * len(result.names) + "\n"
    text = ",".join(header) + "\n" + (row * steps) % tuple(table.ravel().tolist())
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write results to {path}: {exc}") from exc


def example1_traces(alpha: float = 1.5) -> dict[str, float]:
    """One-step traces on the first benchmark system, plus the cost of the UKF gain.

    The returned dict has tr_kf, tr_ukf (each filter's own posterior trace)
    and tr_at_ukf_gain, the trace actually achieved by the UKF gain under
    the true innovation statistics.
    """
    rec = _trajectory(make_linear_ex1(), ("kf", "ukf"), StateEstimate(np.array([1.0, 1.0]), np.eye(2), 0), alpha, 1)
    p_at_ukf = evaluate_gain_cov(rec.prior_cov[0, 0], rec.innovation_cov[0, 0], rec.cross_cov[0, 0], rec.gain[0, 1])
    tr_kf, tr_ukf = np.trace(rec.posterior_cov[0], axis1=-2, axis2=-1).tolist()
    return {"tr_kf": tr_kf, "tr_ukf": tr_ukf, "tr_at_ukf_gain": float(np.trace(p_at_ukf))}


def _trajectory(model: SystemModel, names, est0: StateEstimate, alpha: float | tuple, steps: int, take=slice(None)) -> KfStep:
    """`steps` steps of the stack `names` from est0, slice i from slice take[i]'s posterior: a KfStep of (steps, slices, ...) arrays.

    The measurements are zero: gains and covariances do not depend on them.
    """
    carry = [np.array([a] * len(names)) for a in (est0.mean, est0.cov, est0.sigma_factor())]
    y, recs = np.zeros(model.l_y), []
    for k in range(steps):
        rec, factors = stack_step(model, names, k, *(a[take] for a in carry), y, alpha)
        recs.append(rec)
        carry = rec.posterior_mean, rec.posterior_cov, factors
    return KfStep(*(np.array([getattr(rec, f.name) for rec in recs]) for f in fields(KfStep)))


def random_detectable_system(rng: np.random.Generator, l_x: Optional[int] = None, l_y: Optional[int] = None) -> LinearSystem:
    """Random linear system with full-rank Q, nonsingular A, spectral radius in [0.3, 1.1]."""
    l_x = int(rng.integers(2, 5)) if l_x is None else l_x
    l_y = int(rng.integers(1, 3)) if l_y is None else l_y
    while True:
        a = rng.standard_normal((l_x, l_x))
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        if radius == 0.0:
            continue
        a *= rng.uniform(0.3, 1.1) / radius
        if rcond_check(a, 1e-6):
            break
    while True:
        c = rng.standard_normal((l_y, l_x))
        if np.linalg.norm(c) > 1e-3:
            break
    return LinearSystem(A=a, C=c, Q=random_spd(rng, l_x), R=random_spd(rng, l_y))


def random_spd(rng: np.random.Generator, n: int) -> Array:
    g = rng.standard_normal((n, n))
    return g @ g.T / n + 0.1 * np.eye(n)


# The five checks of `verify`, in summary order: its label, the name of its worst value, how one system's value
# folds into that worst value, and the condition a passing system's value meets (a NaN meets none).
CHECKS = {
    "identity": ("missing-term identities", "worst abs deviation", max, lambda v: v <= 1e-10),
    "inequality": ("gain-cost inequality", "worst margin", min, lambda v: v >= -1e-10),  # tr P(K_ukf) - tr P(K_kf)
    "distinctness": ("ukf differs from kf", "smallest trace gap", min, lambda v: v > 1e-6),
    "eukfa": ("eukf-a matches kf", "worst rel deviation", max, lambda v: v <= 1e-9),
    "eukfc": ("eukf-c matches kf", "worst rel deviation", max, lambda v: v <= 1e-9),
}
# verify's stack, one per system (see _check_system), its alphas, one per sigma-point slice, and its steps.
VERIFY_NAMES = ("kf", "ukf", "ukf", "eukfa", "eukfa", "eukfa", "eukfc", "eukfc", "eukfc")
VERIFY_ALPHAS = (1.5, 1.5, 1.0, 1.5, 3.0, 1.0, 1.5, 3.0)
SUBOPTIMALITY_STEPS, VERIFY_STEPS = 10, 50


@dataclass
class PropositionReport:
    """Batch verification results over random linear systems: per check, the systems recorded, the failures and the worst value."""

    recorded: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CHECKS, 0))
    failures: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CHECKS, 0))
    worst: dict[str, float] = field(default_factory=lambda: {name: 0.0 if row[2] is max else math.inf for name, row in CHECKS.items()})

    def record(self, check: str, value: float) -> None:
        """Fold one system's value for `check` into the worst value, and count the system, as a failure if it fails."""
        _, _, fold, passes = CHECKS[check]
        self.worst[check] = fold(self.worst[check], value)
        self.recorded[check] += 1
        self.failures[check] += not passes(value)

    @property
    def passed(self) -> bool:
        return all(self.failures[name] == 0 for name in CHECKS)

    def summary(self) -> str:
        lines = [
            f"{label:<24}: {self.recorded[name] - self.failures[name]}/{self.recorded[name]} pass ({worst_name} {self.worst[name]:.3e})"
            for name, (label, worst_name, _, _) in CHECKS.items()
        ]
        return "\n".join([*lines, f"{'overall':<24}: {'PASS' if self.passed else 'FAIL'}"])


def verify_propositions(seed: int = 0, trials: int = 100) -> PropositionReport:
    """Check the linear-system properties of every filter over random systems, one stack per system.

    The suboptimality checks: the UKF output covariances differ from the
    Kalman filter's by exactly C Q C^T and Q C^T when both start from the
    same posterior; the trace cost of the UKF gain is never below the
    Kalman gain's; and the two filters' own covariance trajectories
    separate.  The equivalence checks: both corrected variants reproduce
    the Kalman gain and posterior covariance at every step for every alpha.
    Each system steps one stack, which :func:`_check_system` reads.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = PropositionReport()
    # The first benchmark system always runs as a fixed case, on top of the
    # random trials; its one-step inequality margin is 9.730 - 9.098.
    cases = [(make_linear_ex1(), StateEstimate(np.array([1.0, 1.0]), np.eye(2), 0))]
    for _ in range(trials):
        model = random_detectable_system(rng)
        cases.append((model, StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)))
    for model, est0 in cases:
        _check_system(model, _trajectory(model, VERIFY_NAMES, est0, VERIFY_ALPHAS, VERIFY_STEPS, take=[0, 0, *range(2, 9)]), report)
    return report


def _check_system(model: LinearSystem, rec: KfStep, report: PropositionReport) -> None:
    """Fold one system's VERIFY_NAMES trajectory into the five checks: slice 0 is the Kalman filter, slice 1 the UKF
    stepped from its posterior and slice 2 the UKF's own trajectory, read for SUBOPTIMALITY_STEPS steps; slices 3-8,
    eukfa and eukfc at alpha 1, 1.5 and 3, are checked against slice 0 at every step."""
    c, q, n = model.C, model.Q, SUBOPTIMALITY_STEPS
    p_z, p_ez = rec.innovation_cov[:n], rec.cross_cov[:n]
    dev_z = np.abs(p_z[:, 1] + c @ q @ c.T - p_z[:, 0])
    dev_ez = np.abs(p_ez[:, 1] + q @ c.T - p_ez[:, 0])
    # The cost of the Kalman and of the matched UKF gain under the true innovation statistics, slice 0's.
    costs = np.trace(evaluate_gain_cov(rec.prior_cov[:n, :1], p_z[:, :1], p_ez[:, :1], rec.gain[:n, :2]), axis1=-2, axis2=-1)
    traces = np.trace(rec.posterior_cov[:n, :3], axis1=-2, axis2=-1)
    # np.max and np.min, unlike the builtins, carry a NaN through to the check.
    report.record("identity", float(np.maximum(np.max(dev_z), np.max(dev_ez))))
    report.record("inequality", float(np.min(costs[:, 1] - costs[:, 0])))
    # The separation claim only holds when Q is nonzero and visible through C; other systems are exempt.
    if q.any() and float(np.linalg.norm(c @ q)) > 0.0:
        report.record("distinctness", float(np.max(np.abs(traces[:, 0] - traces[:, 2]))))
    devs = []
    for x in (rec.gain, rec.posterior_cov):  # slices 3-8's relative Frobenius deviation from slice 0
        # np.linalg.norm's bits: sqrt(v.v) of the matrix raveled in memory order, which is column order for a
        # gain (a transposed solve) and either order for a covariance, which is exactly symmetric.
        cols = np.concatenate((x[:, :1], x[:, 3:] - x[:, :1]), axis=1).swapaxes(-1, -2).reshape(len(x), 7, -1)
        norms = np.sqrt(np.vecdot(cols, cols))
        devs.append(norms[:, 1:] / np.maximum(norms[:, :1], 1e-12))
    for variant, worst in zip(("eukfa", "eukfc"), np.max(np.reshape(devs, (-1, 2, 3)), axis=(0, 2)).tolist()):
        report.record(variant, worst)


def reproduce_config(example: int, seed: int = 0, ensemble: Optional[int] = None, steps: Optional[int] = None) -> ExperimentConfig:
    """Canned configuration for the four benchmark experiments; `steps` and `ensemble` default only when None."""
    if example == 1:
        return ExperimentConfig(
            model="linear-ex1", steps=1 if steps is None else steps, seed=seed, filters=("kf", "ukf", "eukfa", "eukfc")
        )
    if example == 2:
        return ExperimentConfig(model="linear-ex2", steps=100 if steps is None else steps, seed=seed, filters=("kf", "ukf"))
    if example in (3, 4):
        return ExperimentConfig(
            model="vdp" if example == 3 else "lorenz",
            steps=5000 if steps is None else steps,
            seed=seed,
            ensemble=100_000 if ensemble is None else ensemble,
            filters=("enkf", "ekf", "ukf", "eukfa", "eukfc"),
        )
    raise ValueError(f"example must be 1..4, got {example}")

"""Experiment harness: truth simulation, multi-filter runs, metrics, CSV export.

One experiment draws a single noisy truth trajectory and feeds the same
measurement sequence to every selected filter.  Per step and per filter it
records the posterior covariance trace, the posterior output error
z_{k|k} = y_k - g(x_hat_{k|k}), the posterior error norm against the
simulated truth, and the trace error relative to the ensemble filter when
one is running.  A filter that fails mid-run is flagged as diverged and
reported as NaN from that step on, and its record at the failing step keeps
the exception type and message; the other filters continue.  Two groups run
one after the other over the whole run, so neither evicts the other's working
set from the cache at each step: first the covariance-form filters, by their
public steps (one-slice stacks) at step 1 and one :func:`ukf.stack_step` call
per step on carried arrays from step 2, then enkf; the first group to meet an
error that ends the run raises it.  Every g(mean), for z, is one call after
the loops, every trace one sum of the stored diagonals; the records hold one
:class:`FilterMetrics` per filter and step.  ``verify`` and the example-1
traces step :func:`ukf.stack_step` on carried arrays and check after the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Union

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
from .ukf import SIGMA_FILTERS, SingularDynamicsJacobian, stack_step, ukf_step

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


class FilterMetrics(NamedTuple):
    """Per-filter scalars for one step; NaN once the filter has diverged.

    `failure` is "ExceptionType: message" at the step where the filter
    failed, and empty at every other step.
    """

    trace: float
    relerr: float
    output_error: float
    error_norm: float
    diverged: bool
    failure: str = ""


@dataclass(frozen=True)
class FilterStepRecord:
    step: int
    metrics: dict[str, FilterMetrics]


def simulate_truth(model: SystemModel, x0: Array, horizon: int, seed: int) -> tuple[Array, Array]:
    """Sample one noisy trajectory and its measurements for steps 0..horizon; g and the noise factors act outside the recursion.

    TruthDiverged names the first step whose state, or else whose measurement, is not finite.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
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


def _advance(name: str, model: SystemModel, state, y: Array, alpha: float) -> tuple[object, KfStep]:
    """One step of the named filter: its next state and the step's record."""
    # Looked up per call, so a patched module-level step function is used.
    if name in SIGMA_FILTERS:
        return {"ukf": ukf_step, "eukfa": eukfa_step, "eukfc": eukfc_step}[name](model, state, y, alpha)
    return {"enkf": enkf_step, "kf": kf_step, "ekf": ekf_step}[name](model, state, y)


_STEP_ERRORS = (
    NotPositiveDefinite,
    FilterDiverged,
    SingularDynamicsJacobian,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def run_experiment(cfg: ExperimentConfig) -> list[FilterStepRecord]:
    """Run every selected filter over one shared truth and measurement sequence."""
    model, x0, p0 = build_model(cfg)
    states, meas = simulate_truth(model, x0, cfg.steps, cfg.seed)
    est0 = StateEstimate(x0, p0, 0)
    names = cfg.filters
    filter_state = [enkf_init(est0, cfg.ensemble, cfg.seed) if name == "enkf" else est0 for name in names]
    # Row k - 1 holds step k; a filter's entries stay NaN where it has failed.
    shape = (cfg.steps, len(names))
    means, diagonals = np.full((*shape, model.l_x), np.nan), np.full((*shape, model.l_x), np.nan)
    alive = np.zeros(shape, dtype=bool)
    failures: dict[tuple[int, str], str] = {}
    stacked = []  # per stack built: (its filters, the rows of its steps, their posterior (means, covs)), written after the loops
    with np.errstate(**_FP_CHECKED):  # a filter that overflows fails its finiteness check, with its error line
        for live in [j for j, name in enumerate(names) if name != "enkf"], [j for j, name in enumerate(names) if name == "enkf"]:
            carry = None  # the stacked filters' posterior (means, covs, factors chol(l_x P)) as arrays
            for k in range(1, cfg.steps + 1 if live else 1):
                y = meas[k]
                # Step 1 runs each filter's own public step: bench/spans.py hooks those by name, and bench/test_bench.py needs their spans.
                if k > 1 and carry is None and (stack := [j for j in live if names[j] != "enkf"]):  # enkf's group never stacks
                    ests = [filter_state[j] for j in stack]
                    carry = np.array([e.mean for e in ests]), np.array([e.cov for e in ests]), np.array([e.sigma_factor() for e in ests])
                    stack_names, rows, posts = [names[j] for j in stack], [], []
                    stacked.append((stack, rows, posts))
                solo = live
                if carry is not None:
                    try:
                        rec, factors = stack_step(model, stack_names, k - 1, *carry, y, cfg.alpha)
                    except (*_STEP_ERRORS, ValueError):  # each filter is replayed alone below and names its own failure
                        for j, mean, cov, factor in zip(stack, *carry):
                            filter_state[j] = StateEstimate.with_factor(mean, cov, k - 1, factor)
                        carry = None
                    else:
                        carry, solo = (rec.posterior_mean, rec.posterior_cov, factors), []
                        rows.append(k - 1)
                        posts.append(carry[:2])
                for j in list(solo):
                    try:
                        filter_state[j], rec = _advance(names[j], model, filter_state[j], y, cfg.alpha)
                    except _STEP_ERRORS as exc:
                        live.remove(j)
                        failures[k, names[j]] = f"{type(exc).__name__}: {exc}"
                        continue
                    alive[k - 1, j], means[k - 1, j], diagonals[k - 1, j] = True, rec.posterior_mean, rec.posterior_cov.diagonal()
        for stack, rows, posts in stacked:
            if rows:
                at, (post_means, post_covs) = np.ix_(rows, stack), map(np.array, zip(*posts))
                alive[at], means[at], diagonals[at] = True, post_means, post_covs.diagonal(0, 2, 3)
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
    rows = zip(traces.tolist(), relerrs.tolist(), zvals.tolist(), enorms.tolist(), (~alive).tolist())
    records = [FilterStepRecord(k, dict(zip(names, map(FilterMetrics, *row)))) for k, row in enumerate(rows, 1)]
    for (k, name), failure in failures.items():
        records[k - 1].metrics[name] = records[k - 1].metrics[name]._replace(failure=failure)
    return records


def export_csv(records: list[FilterStepRecord], path) -> None:
    """Write records as CSV: k, then trP/relerr/z/enorm per filter, 17 significant digits."""
    if not records:
        raise ValueError("no records to export")
    names = [f for f in FILTER_ORDER if f in records[0].metrics]
    if not names:
        raise ValueError("records carry no filters")
    header = ["k"]
    for name in names:
        header += [f"trP_{name}", f"relerr_{name}", f"z_{name}", f"enorm_{name}"]
    # "%.17g" formats as format(value, ".17g") does; no field needs CSV quoting.
    row = "%d" + ",%.17g,%.17g,%.17g,%.17g" * len(names) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for rec in records:
                values = [rec.step]
                for name in names:
                    m = rec.metrics[name]
                    values += (m.trace, m.relerr, m.output_error, m.error_norm)
                fh.write(row % tuple(values))
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


def _trajectory(model: SystemModel, names, est0: StateEstimate, alpha: float, steps: int, take=slice(None)) -> KfStep:
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
SUBOPTIMALITY_STEPS = 10  # matched UKF steps, and steps of the UKF's own trajectory
EQUIVALENCE_STEPS = 50
EQUIVALENCE_ALPHAS = (1.0, 1.5, 3.0)


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


def verify_propositions(
    seed: int = 0, trials: int = 100, checks: tuple[str, ...] = ("suboptimality", "equivalence")
) -> PropositionReport:
    """Check the linear-system properties of every filter over random systems.

    The "suboptimality" checks: the UKF output covariances differ from the
    Kalman filter's by exactly C Q C^T and Q C^T when both start from the
    same posterior; the trace cost of the UKF gain is never below the
    Kalman gain's; and the two filters' own covariance trajectories
    separate.  The "equivalence" checks: both corrected variants reproduce
    the Kalman gain and posterior covariance at every step for every alpha.
    Each check steps the Kalman filter as slice 0 of the stack it checks.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    unknown = set(checks) - {"suboptimality", "equivalence"}
    if unknown or not checks:
        raise ValueError(f"checks must name suboptimality and/or equivalence, got {checks}")
    rng = np.random.default_rng(seed)
    report = PropositionReport()
    # The first benchmark system always runs as a fixed case, on top of the
    # random trials; its one-step inequality margin is 9.730 - 9.098.
    cases = [(make_linear_ex1(), StateEstimate(np.array([1.0, 1.0]), np.eye(2), 0))]
    for _ in range(trials):
        model = random_detectable_system(rng)
        cases.append((model, StateEstimate(np.zeros(model.l_x), random_spd(rng, model.l_x), 0)))
    for model, est0 in cases:
        if "suboptimality" in checks:
            _check_suboptimality(model, est0, report)
        if "equivalence" in checks:
            _check_equivalence(model, est0, report)
    return report


def _check_suboptimality(model: LinearSystem, est0: StateEstimate, report: PropositionReport) -> None:
    """The UKF against the Kalman trajectory: one step from each Kalman posterior, and its own trajectory."""
    c, q = model.C, model.Q
    # Slice 1 is the UKF step from the Kalman posterior of slice 0; slice 2 continues the UKF's own trajectory.
    rec = _trajectory(model, ("kf", "ukf", "ukf"), est0, 1.5, SUBOPTIMALITY_STEPS, take=[0, 0, 2])
    p_z, p_ez = rec.innovation_cov, rec.cross_cov
    dev_z = np.abs(p_z[:, 1] + c @ q @ c.T - p_z[:, 0])
    dev_ez = np.abs(p_ez[:, 1] + q @ c.T - p_ez[:, 0])
    # The cost of the Kalman and of the matched UKF gain under the true innovation statistics, slice 0's.
    costs = np.trace(evaluate_gain_cov(rec.prior_cov[:, :1], p_z[:, :1], p_ez[:, :1], rec.gain[:, :2]), axis1=-2, axis2=-1)
    traces = np.trace(rec.posterior_cov, axis1=-2, axis2=-1)
    # np.max and np.min, unlike the builtins, carry a NaN through to the check.
    report.record("identity", float(np.maximum(np.max(dev_z), np.max(dev_ez))))
    report.record("inequality", float(np.min(costs[:, 1] - costs[:, 0])))
    # The separation claim only holds when Q is nonzero and visible through C; other systems are exempt.
    if q.any() and float(np.linalg.norm(c @ q)) > 0.0:
        report.record("distinctness", float(np.max(np.abs(traces[:, 0] - traces[:, 2]))))


def _check_equivalence(model: LinearSystem, est0: StateEstimate, report: PropositionReport) -> None:
    """Corrected variants against the Kalman trajectory, for every alpha: slices 1 and 2 against slice 0 of one stack."""
    devs = []
    for alpha in EQUIVALENCE_ALPHAS:
        rec = _trajectory(model, ("kf", "eukfa", "eukfc"), est0, alpha, EQUIVALENCE_STEPS)
        for x in (rec.gain, rec.posterior_cov):  # the relative Frobenius deviation from slice 0
            # np.linalg.norm's bits: sqrt(v.v) of the matrix raveled in memory order, which is column order for a
            # gain (a transposed solve) and either order for a covariance, which is exactly symmetric.
            cols = np.concatenate((x[:, :1], x[:, 1:] - x[:, :1]), axis=1).swapaxes(-1, -2).reshape(*x.shape[:2], -1)
            norms = np.sqrt(np.vecdot(cols, cols))
            devs.append(norms[:, 1:] / np.maximum(norms[:, :1], 1e-12))
    for variant, worst in zip(("eukfa", "eukfc"), np.max(devs, axis=(0, 1)).tolist()):
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

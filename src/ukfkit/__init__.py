"""State-estimation toolkit: KF, EKF, UKF, two KF-consistent UKF variants,
an ensemble reference filter, and a seeded experiment harness."""

from .ekf import ekf_step
from .enkf import Ensemble, enkf_init, enkf_step
from .eukf import SingularDynamicsJacobian, eukfa_sigma_scale, eukfa_step, eukfc_step
from .harness import (
    ExperimentConfig,
    FilterMetrics,
    FilterStepRecord,
    TruthDiverged,
    example1_traces,
    export_csv,
    random_detectable_system,
    reproduce_config,
    run_experiment,
    simulate_truth,
    verify_propositions,
)
from .kf import KfStep, evaluate_gain_cov, kf_gain, kf_step, kf_update
from .numerics import FilterDiverged, NotPositiveDefinite, rcond_check, solve_spd, spd_sqrt_factor, symmetrize
from .statespace import (
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
    step_dynamics,
)
from .ukf import deviations, propagate_sigma, sigma_points, sigma_step, ukf_step, ukf_weights

__version__ = "0.1.0"

__all__ = [
    "Ensemble",
    "ExperimentConfig",
    "FilterDiverged",
    "FilterMetrics",
    "FilterStepRecord",
    "KfStep",
    "LinearSystem",
    "NotPositiveDefinite",
    "SingularDynamicsJacobian",
    "StateEstimate",
    "SystemModel",
    "TruthDiverged",
    "deviations",
    "ekf_step",
    "enkf_init",
    "enkf_step",
    "eukfa_sigma_scale",
    "eukfa_step",
    "eukfc_step",
    "evaluate_gain_cov",
    "example1_traces",
    "export_csv",
    "jacobian_dynamics",
    "jacobian_fd",
    "jacobian_measurement",
    "kf_gain",
    "kf_step",
    "kf_update",
    "make_linear_ex1",
    "make_linear_ex2",
    "make_lorenz",
    "make_vdp",
    "measure",
    "propagate_sigma",
    "random_detectable_system",
    "rcond_check",
    "reproduce_config",
    "run_experiment",
    "sigma_points",
    "sigma_step",
    "simulate_truth",
    "solve_spd",
    "spd_sqrt_factor",
    "step_dynamics",
    "symmetrize",
    "ukf_step",
    "ukf_weights",
    "verify_propositions",
]

"""phasefuse: phase-only analog encoding for distributed estimation with a
multi-antenna fusion center.

Library layout:
  channel     path-loss channel / scenario sampling / signal synthesis
  estimator   Fisher-style matrix B, ML estimate, variance and lower bound
  sdp         unit-diagonal SDP relaxation (interior point) + rank-one rounding
  lapack      every LAPACK call, through scipy's compiled wrappers (no scipy.linalg)
  blas        single-threaded OpenBLAS scope around all of the linear algebra
  phase_opt   strategy dispatch: closed form N=2, SDP, all-ones, grid oracle
  asymptotics large-N bounds and the large-M variance law
  montecarlo  seeded sweep harness and statistical verification helpers
  cli         command-line front end (fig1 / fig2 / run / oracle / selftest)
"""

from .channel import (
    ChannelRealization,
    Scenario,
    ScenarioConfig,
    ScenarioParams,
    generate_channel,
    sample_scenario,
    synthesize_received_signal,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInstanceError,
    PhasefuseError,
)
from .estimator import (
    estimator_variance,
    fisher_factor,
    fisher_matrix,
    ml_estimate,
    noise_covariance,
    variance_lower_bound,
)
from .phase_opt import (
    ALL_ONES,
    CLOSED_FORM_N2,
    GRID_ORACLE,
    SDP_RELAXATION,
    OptimizationReport,
    PhaseStrategy,
    feedback_round,
    optimize_phases,
    optimize_phases_n2,
)
from .rng import RngStream
from .sdp import SdpProblem, SdpSolution, extract_rank_one, solve

__all__ = [
    "ALL_ONES",
    "CLOSED_FORM_N2",
    "ChannelRealization",
    "ConfigurationError",
    "ConvergenceError",
    "DegenerateInstanceError",
    "GRID_ORACLE",
    "OptimizationReport",
    "PhaseStrategy",
    "PhasefuseError",
    "RngStream",
    "SDP_RELAXATION",
    "Scenario",
    "ScenarioConfig",
    "ScenarioParams",
    "SdpProblem",
    "SdpSolution",
    "estimator_variance",
    "extract_rank_one",
    "feedback_round",
    "fisher_factor",
    "fisher_matrix",
    "generate_channel",
    "ml_estimate",
    "noise_covariance",
    "optimize_phases",
    "optimize_phases_n2",
    "sample_scenario",
    "solve",
    "synthesize_received_signal",
    "variance_lower_bound",
]

__version__ = "0.1.0"

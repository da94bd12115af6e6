"""The public API as a literal table: every parameter of each public callable
and every field of each config and report dataclass. A setting added or
removed anywhere shows up as a diff of this table."""

import dataclasses
import inspect

import phasefuse
from phasefuse import estimator, montecarlo, phase_opt

# Callables in phasefuse.__all__: parameters, or fields for a dataclass.
PUBLIC = {
    "ChannelRealization": ("matrix", "phases"),
    "ConfigurationError": ("*args",),
    "ConvergenceError": ("message", "best_solution"),
    "DegenerateInstanceError": ("*args",),
    "OptimizationReport": ("phases", "achieved_variance", "lower_bound", "relaxation_value"),
    "PhaseStrategy": ("kind",),
    "PhasefuseError": ("*args",),
    "RngStream": ("master_seed", "stream_index", "key"),
    "Scenario": ("n_sensors", "n_antennas", "path_loss_exp", "fc_noise_power", "distances",
                 "sensor_noise_powers", "theta"),
    "ScenarioConfig": ("path_loss_exp", "fc_noise_power", "distance_range",
                       "sensor_noise_range", "n_sensors", "n_antennas"),
    "ScenarioParams": ("path_loss_exp", "fc_noise_power", "distance_range",
                       "sensor_noise_range"),
    "SdpProblem": ("objective", "factor"),
    "SdpSolution": ("gram", "factor", "objective_value", "duality_gap", "diag_residual",
                    "min_eigenvalue", "iterations"),
    "estimator_variance": ("a", "b"),
    "extract_rank_one": ("solution", "problem", "rng"),
    "feedback_round": ("channel", "scenario", "strategy", "rng"),
    "fisher_factor": ("channel", "scenario"),
    "fisher_matrix": ("channel", "scenario"),
    "generate_channel": ("scenario", "rng"),
    "ml_estimate": ("y", "channel", "scenario", "a"),
    "noise_covariance": ("channel", "scenario"),
    "optimize_phases": ("b", "strategy", "rng", "factor"),
    "optimize_phases_n2": ("b",),
    "sample_scenario": ("config", "rng"),
    "solve": ("problem",),
    "synthesize_received_signal": ("scenario", "channel", "a", "rng"),
    "variance_lower_bound": ("b", "factor"),
}

# The sweep and verification entry points, the grid oracle, the unit-modulus
# check, the ML estimate's weights, and the config and report dataclasses
# outside __all__.
MODULES = {
    montecarlo: {
        "run_sweep": ("config",),
        "verify_unbiasedness": ("scenario", "channel", "a", "trials", "rng"),
        "verify_diagonal_concentration": ("config",),
        "ExperimentConfig": ("path_loss_exp", "fc_noise_power", "distance_range",
                             "sensor_noise_range", "sweep", "sweep_values", "fixed_count",
                             "trials", "master_seed", "strategies",
                             "resample_scenario_per_trial"),
        "ConcentrationConfig": ("path_loss_exp", "fc_noise_power", "distance_range",
                                "sensor_noise_range", "mode", "values", "fixed_count",
                                "n_draws", "master_seed"),
        "SweepResult": ("sweep_param", "points", "config"),
        "PointResult": ("sweep_value", "trials", "strategy_stats", "lower_bound_mean", "eq11",
                        "eq12", "eq17", "degraded"),
        "StrategyStats": ("mean_variance", "std_err", "failures", "relaxation_bound_mean"),
        "UnbiasednessReport": ("trials", "sample_mean", "sample_variance",
                               "predicted_variance", "mean_z_score"),
        "ConcentrationReport": ("mode", "points"),
        "ConcentrationPoint": ("value", "applicable", "rel_offdiag", "median"),
    },
    phase_opt: {
        "grid_search": ("b",),
    },
    estimator: {
        "check_unit_modulus": ("a",),
        "ml_weights": ("channel", "scenario", "a"),
    },
}


def parameters(obj) -> tuple[str, ...]:
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # an exception that keeps Exception's own constructor
        return ("*args",)


def test_public_callables_match_the_table():
    actual = {name: parameters(getattr(phasefuse, name))
              for name in phasefuse.__all__ if callable(getattr(phasefuse, name))}
    assert actual == PUBLIC


def test_entry_points_and_dataclasses_match_the_table():
    for module, table in MODULES.items():
        assert {name: parameters(getattr(module, name)) for name in table} == table

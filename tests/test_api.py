"""The public API as a literal table: every parameter of each public callable
and every field of each config and report dataclass. A setting added or
removed anywhere shows up as a diff of this table."""

import copy
import dataclasses
import inspect
import re

import numpy as np
import pytest

import phasefuse
from phasefuse import ConfigurationError, estimator, montecarlo, phase_opt

# Callables in phasefuse.__all__: parameters, or fields for a dataclass.
PUBLIC = {
    "ChannelRealization": ("matrix",),
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
    "SdpSolution": ("factor", "objective_value", "duality_gap", "diag_residual",
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

# The sweep and verification entry points, the grid oracle, the ML estimate's
# weights, and the config and report dataclasses outside __all__.
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
        "SweepResult": ("points", "config"),
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


# Wrong-shape input for every parameter that is an array or carries one (a
# channel its matrix, a solution its factor), and a valid value for every
# other parameter the tables name. The report dataclasses are results, which
# the library writes and never reads back.
RESULTS = {"OptimizationReport", "SdpSolution", "SweepResult", "PointResult", "StrategyStats",
           "UnbiasednessReport", "ConcentrationReport", "ConcentrationPoint"}
SCENARIO = phasefuse.Scenario(n_sensors=4, n_antennas=2, path_loss_exp=1.0,
                              fc_noise_power=0.1, distances=[2.0, 3.0, 4.0, 5.0],
                              sensor_noise_powers=[0.01] * 4)
CHANNEL = phasefuse.generate_channel(SCENARIO, phasefuse.RngStream(0))
B = phasefuse.fisher_matrix(CHANNEL, SCENARIO)
F = phasefuse.fisher_factor(CHANNEL, SCENARIO)
SOLUTION = phasefuse.solve(phasefuse.SdpProblem(B, F))
VALID = {
    "a": np.ones(4, dtype=complex), "b": B, "factor": F, "objective": B,
    "y": np.ones(2, dtype=complex), "matrix": CHANNEL.matrix,
    "distances": SCENARIO.distances, "sensor_noise_powers": SCENARIO.sensor_noise_powers,
    "distance_range": (2.0, 7.0), "sensor_noise_range": (0.001, 0.01),
    "channel": CHANNEL, "scenario": SCENARIO, "solution": SOLUTION,
    "problem": phasefuse.SdpProblem(B), "strategy": phasefuse.PhaseStrategy("all_ones"),
    "rng": phasefuse.RngStream(0), "n_sensors": 4, "n_antennas": 2, "path_loss_exp": 1.0,
    "fc_noise_power": 0.1, "sweep": "sensors", "sweep_values": (2,), "fixed_count": 2,
    "trials": 10,
}
WRONG = {
    "a": np.ones((4, 1)), "b": np.ones((4, 3)), "factor": F[:, :3], "objective": B[:, :3],
    "y": np.ones(3), "matrix": np.ones(4),
    "distances": np.ones(3), "sensor_noise_powers": np.full(3, 0.01),
    "distance_range": (2.0, 5.0, 7.0), "sensor_noise_range": 0.01,
    "channel": phasefuse.generate_channel(
        dataclasses.replace(SCENARIO, n_sensors=3, distances=[2.0, 3.0, 4.0],
                            sensor_noise_powers=[0.01] * 3), phasefuse.RngStream(0)),
    "solution": dataclasses.replace(SOLUTION, factor=SOLUTION.factor[:3]),
}
LABEL = {"channel": "channel.matrix", "solution": "solution.factor"}
CALLABLES = {name: (getattr(phasefuse, name), params) for name, params in PUBLIC.items()}
CALLABLES.update((name, (getattr(module, name), params))
                 for module, table in MODULES.items() for name, params in table.items())
CALLABLES["eigenvector_rounding"] = (phase_opt.eigenvector_rounding, ("b",))
NOISELESS = dataclasses.replace(SCENARIO, fc_noise_power=0.0, sensor_noise_powers=[0.0] * 4)
SHAPE_CASES = [(name, param, {}) for name, (_, params) in CALLABLES.items()
               if name not in RESULTS for param in params if param in WRONG]
SHAPE_CASES.append(("verify_unbiasedness", "a", {"scenario": NOISELESS}))


def test_every_parameter_is_an_array_argument_or_not():
    # A new parameter shows up here until it is given a wrong shape in WRONG
    # or named as not an array (a count, a seed, a name, or an object whose
    # arrays were checked when it was built).
    params = {p for name, (_, ps) in CALLABLES.items() if name not in RESULTS for p in ps}
    assert params - WRONG.keys() == {
        "*args", "best_solution", "config", "fc_noise_power", "fixed_count", "key", "kind",
        "master_seed", "message", "mode", "n_antennas", "n_draws", "n_sensors",
        "path_loss_exp", "problem", "resample_scenario_per_trial", "rng", "scenario",
        "strategies", "strategy", "stream_index", "sweep", "sweep_values", "theta", "trials",
        "values"}


@pytest.mark.parametrize("name,param,overrides", SHAPE_CASES,
                         ids=[f"{name}-{param}" + "-noiseless" * bool(o)
                              for name, param, o in SHAPE_CASES])
def test_wrong_shape_names_the_argument(name, param, overrides):
    call, params = CALLABLES[name]
    kwargs = {p: VALID[p] for p in params if p in VALID} | overrides | {param: WRONG[param]}
    label = re.escape(LABEL.get(param, param))
    with pytest.raises(ConfigurationError, match=rf"^{label} has shape \(.*\), expected \("):
        call(**kwargs)


def spoiled(param, entry):
    """``VALID[param]`` with its first entry replaced by ``entry``. A channel or
    a solution gets it in the array that LABEL names, set past its own check."""
    if param in LABEL:
        carrier, field = copy.copy(VALID[param]), LABEL[param].split(".")[1]
        object.__setattr__(carrier, field, spoiled_array(getattr(carrier, field), entry))
        return carrier
    return spoiled_array(VALID[param], entry)


def spoiled_array(value, entry):
    out = np.array(value, dtype=object if isinstance(entry, str) else None)
    out.flat[0] = entry
    return out


ENTRY_CASES = [(name, param) for name, param, overrides in SHAPE_CASES if not overrides]
ENTRY_IDS = [f"{name}-{param}" for name, param in ENTRY_CASES]


@pytest.mark.parametrize("name,param", ENTRY_CASES, ids=ENTRY_IDS)
def test_nan_entry_names_the_argument(name, param):
    call, params = CALLABLES[name]
    kwargs = {p: VALID[p] for p in params if p in VALID} | {param: spoiled(param, np.nan)}
    label = re.escape(LABEL.get(param, param))
    with pytest.raises(ConfigurationError, match=rf"^{label} must be finite$"):
        call(**kwargs)


@pytest.mark.parametrize("name,param", ENTRY_CASES, ids=ENTRY_IDS)
def test_string_entry_names_the_argument(name, param):
    call, params = CALLABLES[name]
    kwargs = {p: VALID[p] for p in params if p in VALID} | {param: spoiled(param, "1.0")}
    label = re.escape(LABEL.get(param, param))
    with pytest.raises(ConfigurationError,
                       match=rf"^{label} must hold integer, real or complex numbers, "
                             rf"got dtype object$"):
        call(**kwargs)


# B off Hermitian by 1 in one entry, far beyond estimator.HERMITIAN_TOL.
NON_HERMITIAN = B.copy()
NON_HERMITIAN[0, 1] += 1.0
B_CASES = [(name, param) for name, (_, params) in CALLABLES.items()
           for param in params if param in ("b", "objective")]


def test_every_b_taking_callable_is_covered():
    assert sorted(name for name, _ in B_CASES) == [
        "SdpProblem", "eigenvector_rounding", "estimator_variance", "grid_search",
        "optimize_phases", "optimize_phases_n2", "variance_lower_bound"]


@pytest.mark.parametrize("name,param", B_CASES, ids=[name for name, _ in B_CASES])
def test_non_hermitian_b_names_the_argument(name, param):
    call, params = CALLABLES[name]
    kwargs = {p: VALID[p] for p in params if p in VALID} | {param: NON_HERMITIAN}
    with pytest.raises(ConfigurationError, match=rf"^{param} must be Hermitian$"):
        call(**kwargs)

"""flexctl: discrete energy-based DC motor control under switched sampling periods."""

__version__ = "0.1.0"

from .controller import (ControlOutput, GainSet, LawTerms, SamplingTooSmallError, control_input,
                         law_terms)
from .discretizer import DiscreteModel, ModelStack, discretize, discretize_periods
from .matseries import SeriesConvergenceError, expm_via_phi, phi
from .plant import (DesiredState, MotorParams, PlantState, continuous_matrices, energy,
                    energy_rate, energy_weights)
from .scheduler import Scheduler, ScheduleSpec
from .simulator import DivergenceError, SimConfig, TraceRecord, compare_gain_modes, run
from .stability import LyapunovSample, StabilityGrid, check_conditions, lyapunov, stability_map, v_prime

__all__ = [
    "ControlOutput", "GainSet", "LawTerms", "SamplingTooSmallError", "control_input", "law_terms",
    "DiscreteModel", "ModelStack", "discretize", "discretize_periods",
    "SeriesConvergenceError", "expm_via_phi", "phi",
    "DesiredState", "MotorParams", "PlantState", "continuous_matrices",
    "energy", "energy_rate", "energy_weights",
    "Scheduler", "ScheduleSpec",
    "DivergenceError", "SimConfig", "TraceRecord", "compare_gain_modes", "run",
    "LyapunovSample", "StabilityGrid", "check_conditions", "lyapunov",
    "stability_map", "v_prime",
]

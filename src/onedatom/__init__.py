"""Toolkit for a one-dimensional atom: a single two-level emitter coupled to
a two-port cavity in the Purcell regime.

Linear scattering spectra, the giant saturation nonlinearity, leaky-system
corrections, time-domain Bloch dynamics, micropillar design optimization,
and the slow-light / bistability / reshaping / Kerr-comparison calculators.
"""

from .errors import (DephasingUnsupported, DomainError, InvalidInitial,
                     LeakyNotSupported, NoConvergence, NonFiniteInput,
                     NonPositiveRate, OffResonanceUnsupported,
                     OneDimAtomError, ScanFailed, StepCollapse,
                     UnsupportedRegime)
from .model import (BlochState, DriveField, ScatteringOutcome, SystemParams,
                    make_params, outcome_from_amplitudes, params_from_ratios)
from .linear import (LinearSpectrumPoint, Linewidths, ResonanceExtrema,
                     empty_cavity_t0, linewidths_ideal, resonance_extrema,
                     scattering_matrix_ideal, t0_prime, transmission_leaky)
from .nonlinear import (SaturationCurve, SaturationCurvePoint, SaturationPoint,
                        critical_power, output_amplitudes, phi_ideal,
                        phi_leaky, saturation_curve, saturation_point,
                        scatter_nonlinear, scatter_steady, steady_state,
                        susceptibility)
from .dynamics import SettleResult, Trajectory, integrate, settle
from .pillar import (DiameterSweep, FieldProfileModel, FiguresOfMerit,
                     OptimizeResult, PillarDesign, default_field_model,
                     figures_of_merit, mode_volume, optimize_diameter,
                     purcell_factor, q_total, sweep_diameter)
from .applications import (BistabilityResult, ReshapeResult, SlowLightResult,
                           bistability_scan, contrast_enhancement,
                           critical_power_watts, kerr_equivalent, slow_light,
                           switching_intensity)

__version__ = "0.1.0"

__all__ = [
    "BistabilityResult", "BlochState", "DephasingUnsupported", "DiameterSweep",
    "DomainError", "DriveField", "FieldProfileModel", "FiguresOfMerit",
    "InvalidInitial", "LeakyNotSupported", "LinearSpectrumPoint", "Linewidths",
    "NoConvergence", "NonFiniteInput", "NonPositiveRate", "OffResonanceUnsupported",
    "OneDimAtomError", "OptimizeResult", "PillarDesign", "ReshapeResult",
    "ResonanceExtrema", "SaturationCurve", "SaturationCurvePoint", "SaturationPoint",
    "ScanFailed", "ScatteringOutcome", "SettleResult", "SlowLightResult",
    "StepCollapse", "SystemParams", "Trajectory", "UnsupportedRegime",
    "bistability_scan", "contrast_enhancement", "critical_power",
    "critical_power_watts", "default_field_model", "empty_cavity_t0",
    "figures_of_merit", "integrate", "kerr_equivalent", "linewidths_ideal",
    "make_params", "mode_volume", "optimize_diameter", "outcome_from_amplitudes",
    "output_amplitudes", "params_from_ratios", "phi_ideal", "phi_leaky",
    "purcell_factor", "q_total", "resonance_extrema", "saturation_curve",
    "saturation_point", "scatter_nonlinear", "scatter_steady",
    "scattering_matrix_ideal", "settle", "slow_light", "steady_state",
    "susceptibility", "sweep_diameter", "switching_intensity", "t0_prime",
    "transmission_leaky",
]

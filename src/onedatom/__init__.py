"""Toolkit for a one-dimensional atom: a single two-level emitter coupled to
a two-port cavity in the Purcell regime.

Linear scattering spectra, the giant saturation nonlinearity, leaky-system
corrections, time-domain Bloch dynamics, micropillar design optimization,
and the slow-light / bistability / reshaping / Kerr-comparison calculators.

The error classes are imported with the package; every other public name,
and each submodule that defines one, is imported on first access, so
``import onedatom`` loads no numerical code.
"""

import importlib

from .errors import *  # noqa: F401,F403 -- the error classes stay eager

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_EXPORTS = {
    "errors": "DephasingUnsupported DomainError InvalidInitial "
              "LeakyNotSupported NoConvergence NonFiniteInput NonPositiveRate "
              "OneDimAtomError ScanFailed StepCollapse UnsupportedRegime",
    "model": "BlochState DriveField ScatteringOutcome SystemParams make_params "
             "outcome_from_amplitudes params_from_ratios",
    "linear": "LinearSpectrumPoint Linewidths ResonanceExtrema empty_cavity_t0 "
              "linewidths_ideal resonance_extrema scattering_matrix_ideal "
              "t0_prime transmission_leaky",
    "nonlinear": "SaturationCurve SaturationCurvePoint SaturationPoint "
                 "critical_power output_amplitudes phi_ideal phi_leaky "
                 "saturation_curve saturation_point scatter_nonlinear "
                 "steady_state susceptibility",
    "dynamics": "SettleResult Trajectory integrate settle",
    "pillar": "DiameterSweep FieldProfileModel FiguresOfMerit OptimizeResult "
              "PillarDesign default_field_model figures_of_merit mode_volume "
              "optimize_diameter purcell_factor q_total sweep_diameter",
    "applications": "BistabilityResult ReshapeResult SlowLightResult "
                    "bistability_scan contrast_enhancement "
                    "critical_power_watts kerr_equivalent slow_light "
                    "switching_intensity",
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

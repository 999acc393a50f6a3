"""Application-level calculators built on the linear and nonlinear modules.

Slow-light group delay, bistability exclusion, pulse-contrast reshaping,
and the equivalent-Kerr-medium comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DephasingUnsupported, NonPositiveRate,
                     UnsupportedRegime)
from .model import DriveField, SystemParams
from .linear import transmission_leaky
from .nonlinear import scatter_nonlinear

PLANCK_J_S = 6.62607015e-34
C_LIGHT_M_S = 2.99792458e8


@dataclass(frozen=True)
class SlowLightResult:
    """Group delay and throughput of a chain of one-dimensional atoms."""

    f: float
    beta: float
    delay_analytic: float
    delay_numeric: float
    t_per_stage: float
    n_half: float
    total_delay_at_n_half: float
    n_stages: int
    delay_after_stages: float
    t_after_stages: float


def slow_light(params: SystemParams, n_stages=1) -> SlowLightResult:
    """Slow-light figures for the evanescently coupled geometry.

    Requires a cavity perfectly connected to the ports (Q = Q0) and zero
    dephasing.  The analytic per-stage delay is (2/gamma) beta with
    beta = f/(1+f); the per-stage transmission is beta^2; N_1/2 is the
    number of stages that halves the power.  The numeric delay
    differentiates the unwrapped phase of the full transmission (central
    difference, step gamma/1000), independently of the analytic formula.
    """
    if params.q_ratio != 1.0:
        raise UnsupportedRegime("slow_light assumes Q = Q0 (gamma_cav = 0)")
    if params.gamma_star != 0.0:
        raise DephasingUnsupported("slow_light is derived for gamma_star = 0")
    if n_stages < 1:
        raise NonPositiveRate(f"n_stages must be >= 1, got {n_stages}")
    beta = params.beta
    f = params.f_ratio
    delay = 2.0 * beta / params.gamma

    h = params.gamma / 1e3
    t_minus = transmission_leaky(-h, params, evanescent=True).t
    t_plus = transmission_leaky(+h, params, evanescent=True).t
    ph = np.unwrap([np.angle(t_minus), np.angle(t_plus)])
    # Group delay d(arg t)/d omega with delta_omega = omega_0 - omega.
    delay_numeric = -(ph[1] - ph[0]) / (2.0 * h)

    t_stage = beta * beta
    if params.f_is_infinite:
        n_half = math.inf
        total = math.inf
    else:
        n_half = 0.5 * math.log(2.0) / math.log1p(1.0 / f)
        total = n_half * delay
    return SlowLightResult(
        f=f, beta=beta, delay_analytic=delay, delay_numeric=delay_numeric,
        t_per_stage=t_stage, n_half=n_half, total_delay_at_n_half=total,
        n_stages=int(n_stages), delay_after_stages=n_stages * delay,
        t_after_stages=t_stage ** n_stages)


@dataclass(frozen=True)
class BistabilityResult:
    """Feedback-loop scan of the resonant transmitted power."""

    fraction_a: float
    x: np.ndarray
    p_e: np.ndarray
    p_t: np.ndarray
    slope_analytic: np.ndarray
    slope_numeric: np.ndarray
    max_slope: float
    unique_solution: bool


def _transmitted_fraction(x):
    return x ** 3 / (1.0 + x) ** 2


def bistability_scan(params: SystemParams, fraction_a, x_grid) -> BistabilityResult:
    """Scan dP_t/dP_e over the drive range and test the feedback loop.

    The loop P_e = P_0 + A P_t(P_e) can only be bistable if the slope
    dP_t/dP_e exceeds 1 somewhere.  The scan evaluates the closed-form
    slope x^2 (3+x)/(1+x)^3 and a central-difference slope on the grid, and
    declares a unique solution when P_0(P_e) = P_e - A P_t(P_e) is strictly
    increasing over the grid.
    """
    if not params.is_ideal:
        raise UnsupportedRegime("bistability_scan uses the ideal resonant closed form")
    if not 0.0 <= fraction_a < 1.0:
        raise NonPositiveRate(f"fraction_a must be in [0, 1), got {fraction_a}")
    x = np.asarray(x_grid, dtype=float)
    if x.size < 2 or np.any(x <= 0.0) or np.any(np.diff(x) <= 0.0):
        raise NonPositiveRate("x_grid must be positive, sorted, len >= 2")
    quarter_gamma = 0.25 * params.gamma
    p_e = quarter_gamma * x
    p_t = quarter_gamma * _transmitted_fraction(x)
    slope_analytic = x ** 2 * (3.0 + x) / (1.0 + x) ** 3
    h = 1e-5 * (1.0 + x)
    slope_numeric = (_transmitted_fraction(x + h)
                     - _transmitted_fraction(x - h)) / (2.0 * h)
    p_0 = p_e - fraction_a * p_t
    unique = bool(np.all(np.diff(p_0) > 0.0))
    return BistabilityResult(
        fraction_a=float(fraction_a), x=x, p_e=p_e, p_t=p_t,
        slope_analytic=slope_analytic, slope_numeric=slope_numeric,
        max_slope=float(max(slope_analytic.max(), slope_numeric.max())),
        unique_solution=unique)


@dataclass(frozen=True)
class ReshapeResult:
    """Contrast ratios at one high-pulse saturation ``x``, or arrays of them."""

    x: float
    extinction_in: float
    c_ideal: float
    c_leaky: float


def _resonant_transmission(x, params):
    drive = DriveField.from_power(0.0, 0.25 * x * params.gamma)
    return scatter_nonlinear(drive, params).cap_t


def contrast_enhancement(x, extinction_in, params: SystemParams) -> ReshapeResult:
    """Contrast enhancement of a two-level pulse pair sent through the device.

    The high pulse saturates at parameter ``x``, the low one at
    ``x/extinction_in``.  The perfect-device ratio is

        c_ideal = d ((1+x)/(1+x/d))^2,   d = extinction_in,

    maximal sensitivity to the input contrast as x -> 0 where it tends to
    d.  The leaky ratio uses the resonant transmission of the actual
    system, c_leaky = (1/d) T(x) / T(x/d); at x = 0 it is evaluated in the
    limit (d for the ideal system, 1/d otherwise).  ``x`` may be an array
    of saturations, evaluated in one call; a scalar gives Python floats.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise NonPositiveRate(f"x must be >= 0, got {xs.min()}")
    if not extinction_in > 1.0:
        raise NonPositiveRate(
            f"extinction_in must be > 1, got {extinction_in}")
    d = float(extinction_in)
    flat = xs.reshape(-1)
    c_ideal = d * ((1.0 + flat) / (1.0 + flat / d)) ** 2
    # T(0) = 0 for the ideal system: 0/0 at x = 0, replaced by the limit.
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = (_resonant_transmission(flat, params)
                 / _resonant_transmission(flat / d, params)) / d
    c_leaky = np.where(flat == 0.0, d if params.is_ideal else 1.0 / d, ratio)
    if xs.ndim == 0:
        return ReshapeResult(x=xs.item(), extinction_in=d,
                             c_ideal=c_ideal.item(), c_leaky=c_leaky.item())
    return ReshapeResult(x=xs, extinction_in=d, c_ideal=c_ideal.reshape(xs.shape),
                         c_leaky=c_leaky.reshape(xs.shape))


def _in_float_range(name, value):
    """``value``, the result ``name`` of a Kerr-comparison formula of
    positive inputs, unless it overflowed to inf (a product in a
    denominator that underflowed to 0 counts as inf), underflowed to 0 or
    is NaN."""
    if not 0.0 < value < math.inf:
        raise UnsupportedRegime(f"{name} = {value} is outside the float range")
    return value


def kerr_equivalent(lambda_um, n2_cm2_per_w, intensity_w_per_cm2) -> float:
    """Length (meters) of a Kerr medium giving a pi nonlinear phase shift.

    Solves (2 pi / lambda) L n2 I = pi, so L = lambda / (2 n2 I).
    """
    if lambda_um <= 0.0 or n2_cm2_per_w <= 0.0 or intensity_w_per_cm2 <= 0.0:
        raise NonPositiveRate("kerr_equivalent inputs must be > 0")
    lambda_cm = lambda_um * 1e-4
    denominator = 2.0 * n2_cm2_per_w * intensity_w_per_cm2
    return _in_float_range("length_m", lambda_cm / denominator * 1e-2
                           if denominator else math.inf)


def critical_power_watts(gamma_per_s, lambda_um) -> float:
    """Resonant critical power gamma/4 photons/s converted to watts."""
    if gamma_per_s <= 0.0 or lambda_um <= 0.0:
        raise NonPositiveRate("gamma and lambda must be > 0")
    lambda_m = lambda_um * 1e-6
    photon_energy = PLANCK_J_S * C_LIGHT_M_S / lambda_m if lambda_m else math.inf
    return _in_float_range("p_c_watts", 0.25 * gamma_per_s * photon_energy)


def switching_intensity(p_c_watts, sigma_cm2, jump_factor=10.0) -> float:
    """Equivalent switching intensity I_pi = jump_factor * P_c / sigma (W/cm^2).

    The jump factor is where the transmission has visibly switched, about
    ten critical powers.
    """
    if p_c_watts <= 0.0 or sigma_cm2 <= 0.0 or jump_factor <= 0.0:
        raise NonPositiveRate("switching_intensity inputs must be > 0")
    return _in_float_range("i_pi_w_per_cm2", jump_factor * p_c_watts / sigma_cm2)

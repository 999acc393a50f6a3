"""Application-level calculators built on the steady-state kernel.

Slow-light group delay, bistability exclusion, pulse-contrast reshaping,
and the equivalent-Kerr-medium comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DephasingUnsupported, NonPositiveRate, UnsupportedRegime,
                     _require)
from .linear import _fixed_point, transmission_leaky
from .model import SystemParams, _block_slices, _blockwise, _drive_power

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

    Raises `UnsupportedRegime` where f underflows to 0, the analytic delay
    or (for a finite f) N_1/2 is not a positive float, or the numeric delay
    is not finite.  The delay over N_1/2 stages may overflow to inf.
    """
    if params.q_ratio != 1.0:
        raise UnsupportedRegime("slow_light assumes Q = Q0 (gamma_cav = 0)")
    if params.gamma_star != 0.0:
        raise DephasingUnsupported("slow_light is derived for gamma_star = 0")
    _require("n_stages", n_stages, "[1, inf)", int)
    beta = params.beta
    f = params.f_ratio
    if not params.f_is_infinite:
        _in_float_range("f", f)
    delay = _in_float_range("delay_analytic", 2.0 * beta / params.gamma)
    h = params.gamma / 1e3
    t = transmission_leaky(np.array([-h, h]), params, evanescent=True).t
    ph = np.unwrap(np.angle(t))
    # Group delay d(arg t)/d omega with delta_omega = omega_0 - omega; a
    # step h that underflows or a slope that overflows is refused below.
    with np.errstate(all="ignore"):
        delay_numeric = -(ph[1] - ph[0]) / (2.0 * h)
    if not math.isfinite(delay_numeric):
        raise UnsupportedRegime(
            f"delay_numeric = {delay_numeric} is outside the float range")

    t_stage = beta * beta
    n_half = (math.inf if params.f_is_infinite else _in_float_range(
        "n_half", 0.5 * math.log(2.0) / math.log1p(1.0 / f)))
    return SlowLightResult(
        f=f, beta=beta, delay_analytic=delay, delay_numeric=delay_numeric,
        t_per_stage=t_stage, n_half=n_half, total_delay_at_n_half=n_half * delay,
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


def bistability_scan(params: SystemParams, fraction_a, x_grid) -> BistabilityResult:
    """Scan dP_t/dP_e over the drive range and test the feedback loop.

    The loop P_e = P_0 + A P_t(P_e) can only be bistable if the slope
    dP_t/dP_e exceeds 1 somewhere.  P_e = (gamma/4) x drives the resonance;
    `_fixed_point` gives P_t = P_e |t|^2, x_eff = P_e/P_c, t_inf = t(x = inf)
    = -(Q/Q0) t0'(0) and, through dt/dx_eff = (t_inf - t)/(1 + x_eff),
    dP_t/dP_e = |t|^2 + 2 x_eff Re(conj(t) (t_inf - t))/(1 + x_eff); the
    drives x +- h give a central difference, h = 1e-5 (1+x) where that is
    at most x/2, else 1e-5 x (at least the least float), taken on P_t
    scaled by 2^(2-e), gamma = m 2^e, so a subnormal P_t keeps its bits.
    A block of `model.BLOCK_ROWS` points is one kernel call on its three
    drives, refused by `model._drive_power`; ``max_slope`` and the
    verdicts come from the assembled columns.  A fraction A gives a unique
    solution if P_0 = P_e - A P_t increases strictly over the grid,
    checked one fraction and one block (with the point before it) at a
    time; an array ``fraction_a`` gives arrays of fractions and verdicts.
    """
    a = _require("fraction_a", np.asarray(fraction_a, dtype=float), "[0, 1)")
    x = _require("x_grid", np.asarray(x_grid, float).ravel(), "(0, inf)")
    if x.size < 2 or np.any(np.diff(x) <= 0.0):
        raise NonPositiveRate("x_grid must be positive, sorted, len >= 2")
    mantissa, exponent = math.frexp(params.gamma)

    def block(sl, xb):
        h = 1e-5 * (1.0 + xb)
        h = np.where(h <= 0.5 * xb, h, np.maximum(1e-5 * xb, math.ulp(0.0)))
        power = _drive_power(np.stack((xb, xb + h, xb - h)), params.gamma,
                             sl.start)
        _, x_eff, _, _, t, _, t_inf = _fixed_point(0.0, np.sqrt(power),
                                                   params)
        cap_t = np.abs(t) ** 2
        # Exact scalings where P_t is normal: (p_hi - p_lo)/(gamma h/2) there.
        u_hi, u_lo = np.ldexp(power[1:], 2 - exponent) * cap_t[1:]
        slope_numeric = (u_hi - u_lo) / (2.0 * (mantissa * h))
        x_eff, t = np.minimum(x_eff[0], 2.0 ** 53), t[0]  # x/(1+x) is 1 there
        slope_analytic = cap_t[0] + 2.0 * x_eff * (
            t.conjugate() * (t_inf[0] - t)).real / (1.0 + x_eff)
        return power[0], power[0] * cap_t[0], slope_analytic, slope_numeric

    p_e, p_t, slope_analytic, slope_numeric = _blockwise(
        (x,), (float,) * 4, block)

    def increasing(fraction):
        return all(np.all(np.diff(p_e[s] - fraction * p_t[s]) > 0.0)
                   for s in (slice(max(sl.start - 1, 0), sl.stop)
                             for sl in _block_slices(x.size)))

    fractions, unique = _blockwise((a,), (float, bool), lambda _, ab: (
        ab, [increasing(v) for v in ab.tolist()]))
    return BistabilityResult(
        fraction_a=fractions, x=x, p_e=p_e, p_t=p_t,
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


def contrast_enhancement(x, extinction_in, params: SystemParams) -> ReshapeResult:
    """Contrast enhancement of a two-level pulse pair sent through the device.

    The high pulse saturates at parameter ``x``, the low one at
    ``x/extinction_in``.  The perfect-device ratio is

        c_ideal = d ((1+x)/(1+x/d))^2,   d = extinction_in,

    maximal sensitivity to the input contrast as x -> 0 where it tends to
    d.  The leaky ratio c_leaky = (1/d) T(x)/T(x/d) is taken as
    (|t(x)/t(x/d)|/sqrt(d))^2 from the kernel's resonant amplitudes; at
    x = 0 it is the limit, d if t(0) = 0 (no emitter loss), else 1/d.
    ``x`` may be an array of saturations, evaluated a block of
    `model.BLOCK_ROWS` at a time (`model._blockwise`); a scalar gives Python
    floats.  `model._drive_power` refuses an x != 0 (a negative one too)
    whose drive power (gamma/4) x is not finite or whose low-pulse power
    (gamma/4) x/d is subnormal.  A ratio beyond the float range is inf.
    """
    xs = np.asarray(x, dtype=float)
    d = float(_require("extinction_in", extinction_in, "(1, inf)"))
    at_zero = d if params.loss_rate == 0.0 else 1.0 / d

    def block(sl, xb):
        # A row per pulse for a scalar too: numpy's scalar ** can be 1 ulp off.
        power = _drive_power(xb if xs.ndim else xb[0], params.gamma, sl.start,
                             np.array([[1.0], [d]]))
        _, _, _, _, t, _, _ = _fixed_point(0.0, np.sqrt(power), params)
        # t(0) = 0 without emitter losses: 0/0 at x = 0, replaced by the limit.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ratio = (np.abs(t[0] / t[1]) / math.sqrt(d)) ** 2
            c_ideal = d * ((1.0 + xb) / (1.0 + xb / d)) ** 2
        return xb, c_ideal, np.where(xb == 0.0, at_zero, ratio)

    x, c_ideal, c_leaky = _blockwise((xs,), (float,) * 3, block)
    return ReshapeResult(x, d, c_ideal, c_leaky)


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
    _require("lambda_um", lambda_um, "(0, inf)")
    _require("n2_cm2_per_w", n2_cm2_per_w, "(0, inf)")
    _require("intensity_w_per_cm2", intensity_w_per_cm2, "(0, inf)")
    lambda_cm = lambda_um * 1e-4
    denominator = 2.0 * n2_cm2_per_w * intensity_w_per_cm2
    return _in_float_range("length_m", lambda_cm / denominator * 1e-2
                           if denominator else math.inf)


def critical_power_watts(gamma_per_s, lambda_um) -> float:
    """Resonant critical power gamma/4 photons/s converted to watts."""
    _require("gamma_per_s", gamma_per_s, "(0, inf)")
    _require("lambda_um", lambda_um, "(0, inf)")
    lambda_m = lambda_um * 1e-6
    photon_energy = PLANCK_J_S * C_LIGHT_M_S / lambda_m if lambda_m else math.inf
    return _in_float_range("p_c_watts", 0.25 * gamma_per_s * photon_energy)


def switching_intensity(p_c_watts, sigma_cm2, jump_factor=10.0) -> float:
    """Equivalent switching intensity I_pi = jump_factor * P_c / sigma (W/cm^2).

    The jump factor is where the transmission has visibly switched, about
    ten critical powers.
    """
    _require("p_c_watts", p_c_watts, "(0, inf)")
    _require("sigma_cm2", sigma_cm2, "(0, inf)")
    _require("jump_factor", jump_factor, "(0, inf)")
    return _in_float_range("i_pi_w_per_cm2", jump_factor * p_c_watts / sigma_cm2)

"""Linear (unsaturated) response: spectra, scattering matrix, linewidths.

`_fixed_point` is the one steady-state kernel of the package: the spectra
are its zero-drive limit, the nonlinear module evaluates it at finite
drive, and the pillar module takes T_min and T_max from it.  The scattering
matrix, linewidths and resonant extrema are the paper's closed forms for
the unsaturated system (s_z = -1/2); the extrema serve as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import LeakyNotSupported, ScanFailed, UnsupportedRegime
from .model import SystemParams, _blockwise, _outcome_block


def empty_cavity_t0(delta_omega, params: SystemParams) -> complex:
    """Cavity response factor t0 = 1/(1 + i (dw + delta)/kappa).

    The physical transmission amplitude of the empty ideal cavity is
    ``-t0``; on double resonance |t0| = 1 and the field is entirely
    transmitted.
    """
    return 1.0 / (1.0 + 1j * (delta_omega + params.delta) / params.kappa)


def t0_prime(delta_omega, params: SystemParams) -> complex:
    """Leaky-cavity response factor 1/(1 + i (Q/Q0)(dw + delta)/kappa)."""
    return 1.0 / (1.0 + 1j * params.q_ratio * (delta_omega + params.delta)
                  / params.kappa)


def scattering_matrix_ideal(delta_omega, params: SystemParams) -> np.ndarray:
    """2x2 scattering matrix of the ideal system, (b_r, b_t) = S (b_in, b_in').

    S = [[i z, -1], [-1, i z]] / (1 + i z) with
    z = (dw + delta)/kappa - gamma/(2 dw).  The pole at dw = 0 is replaced
    by its analytic limit, the identity matrix (total reflection).

    Raises
    ------
    LeakyNotSupported
        If params carry any leak or dephasing.
    """
    if not params.is_ideal:
        raise LeakyNotSupported(
            "scattering_matrix_ideal requires gamma_at = gamma_cav = gamma_star = 0")
    if delta_omega == 0.0:
        return np.eye(2, dtype=complex)
    zeta = ((delta_omega + params.delta) / params.kappa
            - params.gamma / (2.0 * delta_omega))
    izeta = 1j * zeta
    return np.array([[izeta, -1.0], [-1.0, izeta]], dtype=complex) / (1.0 + izeta)


@dataclass(frozen=True)
class LinearSpectrumPoint:
    """One point of a linear spectrum with its energy bookkeeping.

    Every field is an array, one entry per detuning, when the spectrum was
    evaluated on an array of detunings.
    """

    delta_omega: float
    t: complex
    r: complex
    cap_t: float
    cap_r: float
    leaks: float


def _fixed_point(delta_omega, b_in, params: SystemParams):
    """Closed-form fixed point of the cavity-eliminated Bloch equations.

    With q = Q/Q0, e = 2i dw + gamma_at + 2 gamma_star,
    d = (gamma q t0' + e)/2, relax = gamma q Re t0' + gamma_at and
    c = sqrt(gamma/2) q t0' b_in, the equations ds/dt = -d s - 2i c s_z,
    ds_z/dt = -relax (s_z + 1/2) + 2 Re(i s* c) are affine; their fixed
    point s = -2i c s_z/d leaves

        P_c = relax |d|^2 / (2 gamma q^2 |t0'|^2 Re d),   x = P_in/P_c,
        s_z = -1/(2(1+x)),   s = i c/(d(1+x)),
        t = -q t0' (e + 2dx)/(2d(1+x)),   r = 1 + t
          = q t0' (gamma + u (e + 2dx))/(2d(1+x)),

    with u = (gamma_cav/2 + i(dw + delta))/kappa.  P_c is taken as a product
    of rate ratios, and every rate is scaled by the power of four 4^-k
    nearest 1/kappa (b_in by 2^-k, both exact), so no rate is squared or
    leaves the float range.  Rates may be arrays (kappa stays a scalar).
    Returns (p_c, x, s_z, s, t, r, t_sat) as arrays of the broadcast shape
    of the inputs and rates, at least 1-d: t_sat = -q t0' is the x -> inf
    limit of t (the empty cavity), x = 0 at zero drive, and a limit beyond
    the float range gives NaN.
    """
    rates = [getattr(params, f.name) for f in fields(params)]
    k = math.frexp(params.kappa)[1] // 2
    with np.errstate(all="ignore"):
        dw = np.ldexp(np.atleast_1d(np.asarray(delta_omega, float)), -2 * k)
        b_in = np.atleast_1d(np.asarray(b_in, complex)) * math.ldexp(1.0, -k)
        params = SystemParams(*(np.ldexp(rate, -2 * k) for rate in rates))
        gamma = params.gamma
        qt0 = params.q_ratio * t0_prime(dw, params)
        e = 2j * dw + params.loss_rate
        d = 0.5 * (gamma * qt0 + e)
        relax = gamma * qt0.real + params.gamma_at
        m = np.abs(d) / np.abs(qt0)
        p_c = relax / (2.0 * d.real) * m * (m / gamma)
        u = (0.5 * params.gamma_cav + 1j * (dw + params.delta)) / params.kappa
        p_in = np.abs(b_in) ** 2
        x = np.where(p_in > 0.0, p_in / p_c, 0.0)
        one_x = 1.0 + x
        s_z = -0.5 / one_x
        s = 1j * (math.sqrt(0.5 * gamma) * qt0 * b_in) / (d * one_x)
        num = e + 2.0 * d * x
        den = 2.0 * d * one_x
        t = -qt0 * num / den
        # Not `qt0 * (...)`: over 16384 values numpy's temporary elision
        # swaps its operands, and the complex product is not commutative
        # bit for bit, so r would depend on the array size.
        r = np.multiply(qt0, gamma + u * num) / den
        p_c = np.ldexp(np.broadcast_to(p_c, x.shape), 2 * k)
    return p_c, x, s_z, s, t, r, np.broadcast_to(-qt0, x.shape)


def transmission_leaky(delta_omega, params: SystemParams, *,
                       empty_cavity=False, evanescent=False) -> LinearSpectrumPoint:
    """Linear transmission/reflection of the (possibly leaky) system.

    The zero-drive t = -(Q/Q0) t0' e/(2d) of `_fixed_point` is the paper's
    t = (Q/Q0) t0' [-1 + t0'/(t0' + 1/f + (2i dw/gamma)(Q0/Q))], and r = 1 + t.
    ``empty_cavity=True`` gives its saturated limit t = -(Q/Q0) t0' instead.
    ``evanescent=True`` swaps t and r, describing the geometry where the
    uncoupled cavity transmits instead of reflecting.

    ``delta_omega`` may be a scalar or an array, evaluated in blocks of
    `model.BLOCK_ROWS` detunings (`model._blockwise`).  A scalar runs as a
    one-element array through the same numpy operations, so it gives
    bit for bit the entry the array call gives, returned as Python numbers.
    """
    def block(sl, dw):
        _, _, _, _, t, r, t_sat = _fixed_point(dw, 0.0, params)
        if empty_cavity:
            t, r = t_sat, 1.0 + t_sat
        t, r = (r, t) if evanescent else (t, r)
        t, r, cap_t, cap_r, _, _, leaks = _outcome_block(sl, t, r, 1.0)
        return dw, t, r, cap_t, cap_r, leaks

    return LinearSpectrumPoint(*_blockwise(
        (np.asarray(delta_omega, dtype=float),),
        (float, complex, complex, float, float, float), block))


@dataclass(frozen=True)
class Linewidths:
    """Analytic and numerically scanned FWHM of the transmission curve."""

    broad_analytic: float
    dip_analytic: float
    broad_numeric: float
    dip_numeric: float


def linewidths_ideal(params: SystemParams) -> Linewidths:
    """FWHM of the broad transmission peak and of the narrow dip (delta = 0).

    Returns the analytic pair (kappa, gamma) together with values found
    numerically on the T(dw) of `transmission_leaky`: each crossing of
    T = 1/2 by 65-point array scans, each of which narrows its bracket to
    the two points around the first crossing, until the bracket is at most
    1e-12 of its upper end wide.  T = 1/(1 + z^2) with
    z = dw/kappa - gamma/(2 dw) increasing on dw > 0, so T rises from 0
    to 1 at dw_peak = sqrt(gamma kappa/2) and is below 1/2 by
    dw_peak + kappa: the brackets [0, dw_peak] and
    [dw_peak, dw_peak + 2 kappa] hold one crossing each.  The analytic
    widths are not used.

    Raises
    ------
    UnsupportedRegime
        If delta != 0 or params are not ideal (the quoted widths are derived
        for the resonant lossless system).
    ScanFailed
        If a scan finds no crossing (T is not a number there).
    """
    if params.delta != 0.0:
        raise UnsupportedRegime("linewidths_ideal is derived for delta = 0")
    if not params.is_ideal:
        raise UnsupportedRegime("linewidths_ideal requires an ideal system")
    gamma, kappa = params.gamma, params.kappa

    def crossing(a, b):
        while b - a > 1e-12 * b:
            grid = np.linspace(a, b, 65)
            above = transmission_leaky(grid, params).cap_t > 0.5
            flips = np.flatnonzero(above != above[0])
            if not flips.size:
                raise ScanFailed(f"no half-maximum crossing on [{a}, {b}]")
            a, b = grid[flips[0] - 1:flips[0] + 1].tolist()
        return 0.5 * (a + b)

    dw_peak = math.sqrt(0.5 * gamma) * math.sqrt(kappa)
    inner = crossing(0.0, dw_peak)
    outer = crossing(dw_peak, dw_peak + 2.0 * kappa)
    return Linewidths(broad_analytic=kappa, dip_analytic=gamma,
                      broad_numeric=outer - inner, dip_numeric=2.0 * inner)


@dataclass(frozen=True)
class ResonanceExtrema:
    """Resonant energy coefficients of the leaky system (delta = 0).

    ``t_max``/``r_min`` belong to the saturated (or empty-cavity) limit,
    ``t_min``/``r_max`` to the unsaturated system with one resonant emitter.
    ``leaks_resonant`` is the exact normalized resonant leak
    L = 1 - R - T = 2 sqrt(R) sqrt(T); ``leaks_approx`` is its f >> 1
    approximation 2 (Q/Q0)/f.
    """

    t_max: float
    t_min: float
    r_max: float
    r_min: float
    leaks_resonant: float
    leaks_approx: float


def resonance_extrema(params: SystemParams) -> ResonanceExtrema:
    """Closed-form resonant extrema T_max, T_min, R_max, R_min and leaks."""
    if params.delta != 0.0:
        raise UnsupportedRegime("resonance_extrema is derived for delta = 0")
    q = params.q_ratio
    inv_f = params.inv_f
    one_over_1pf = inv_f / (1.0 + inv_f)     # 1/(1+f), exact 0 for f = inf
    u = q * one_over_1pf                     # sqrt(T_min)
    return ResonanceExtrema(
        t_max=q * q,
        t_min=u * u,
        r_max=(1.0 - u) ** 2,
        r_min=(1.0 - q) ** 2,
        leaks_resonant=2.0 * u * (1.0 - u),
        leaks_approx=2.0 * q * inv_f,
    )

"""Semiclassical steady state at arbitrary drive power.

Critical power, Bloch steady state, scattering and saturation curves all
come from `linear._fixed_point`, the closed-form fixed point of the
cavity-eliminated Bloch equations at any detuning, leak and dephasing.
They take array-valued drives (see `DriveField`), so a sweep is one call.
`phi_ideal`, `phi_leaky` and `susceptibility` are the paper's special-case
formulas, kept as documentation and test oracles; nothing here calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DephasingUnsupported, LeakyNotSupported,
                     UnsupportedRegime)
from .linear import _fixed_point, empty_cavity_t0, t0_prime
from .model import (_OUTCOME_DTYPES, BlochState, ColumnRecord, DriveField,
                    ScatteringOutcome, SystemParams, _blockwise, _drive_power,
                    _outcome_block)

#: Saturation range where the semiclassical factorization is qualitative
#: only (the incoherent noise power is comparable to the coherent signal).
CAUTION_RANGE = (0.1, 10.0)


def phi_ideal(delta_omega, params: SystemParams) -> float:
    """Inverse adimensional absorption cross-section of the ideal system.

    phi = (2 dw/gamma)^2 + ((2 dw/gamma)(dw + delta)/kappa - 1)^2, equal to
    1 at resonance.
    """
    a = 2.0 * delta_omega / params.gamma
    b = (delta_omega + params.delta) / params.kappa
    return a * a + (a * b - 1.0) ** 2


def phi_leaky(delta_omega, params: SystemParams) -> float:
    """Leaky-system generalization of :func:`phi_ideal` (zero dephasing).

    Reduces exactly to phi_ideal when f = inf and Q = Q0.
    """
    if params.gamma_star != 0.0:
        raise DephasingUnsupported(
            "phi_leaky is derived for gamma_star = 0")
    q = params.q_ratio
    inv_f = params.inv_f
    a = 2.0 * delta_omega / params.gamma
    b = (delta_omega + params.delta) / params.kappa
    return ((1.0 + inv_f) ** 2 + (q * inv_f * b) ** 2 + (a / q) ** 2
            + (a * b) ** 2 - 2.0 * a * b)


def critical_power(delta_omega, params: SystemParams) -> float:
    """Drive power (photons/s) at which the population reaches s_z = -1/4.

    P_c of `_fixed_point`: (gamma/4) phi(dw) for the ideal system (gamma/4
    on resonance, a quarter photon per lifetime), (gamma/4) phi'(dw) for a
    leaky one without dephasing ((gamma/4)(1 + 1/f)^2 on full resonance).
    """
    return _blockwise((delta_omega,), (float,),
                      lambda _, dw: _fixed_point(dw, 0.0, params)[:1])[0]


@dataclass(frozen=True)
class SaturationPoint:
    """Saturation bookkeeping for one drive.

    ``x`` is the resonant-ideal normalization 4 P_in / gamma (the figure
    axis); ``x_eff`` is the regime-appropriate parameter P_in / P_c and
    equals ``x`` only for the ideal resonant system.
    """

    x: float
    x_eff: float
    p_c: float


def saturation_point(drive: DriveField, params: SystemParams) -> SaturationPoint:
    def block(_, dw, b_in):
        p_c = _fixed_point(dw, 0.0, params)[0]
        p_in = np.abs(b_in) ** 2
        return 4.0 * p_in / params.gamma, p_in / p_c, p_c

    return SaturationPoint(*_blockwise((drive.delta_omega, drive.b_in),
                                       (float,) * 3, block))


def steady_state(drive: DriveField, params: SystemParams) -> BlochState:
    """Semiclassical steady state s_z = -(1/2)/(1+x), s = i c/(d (1+x)) of
    `_fixed_point`, x = P_in/P_c(dw); for the ideal system
    s = sqrt(2/gamma) alpha b_in with alpha the `susceptibility`.
    """
    s_z, s = _blockwise((drive.delta_omega, drive.b_in), (float, complex),
                        lambda _, dw, b_in: _fixed_point(dw, b_in, params)[2:4])
    return BlochState(s, s_z)


def susceptibility(delta_omega, x, params: SystemParams) -> complex:
    """Adimensional dipole susceptibility alpha, with s = sqrt(2/gamma) alpha b_in.

    alpha = (1/(1+x)) i / (1 + 2i dw/(gamma t0(dw))); purely imaginary at
    resonance, where the drive is entirely absorbed.
    """
    if not params.is_ideal:
        raise LeakyNotSupported("susceptibility is defined for the ideal system")
    t0 = empty_cavity_t0(delta_omega, params)
    return (1.0 / (1.0 + x)) * 1j / (1.0 + 2j * delta_omega / (params.gamma * t0))


def output_amplitudes(s, drive: DriveField, params: SystemParams):
    """Port amplitudes (b_t, b_r) radiated by a dipole state s under drive.

    b_t = -(Q/Q0) t0' (b_in + i sqrt(gamma/2) s),  b_r = b_in + b_t.
    """
    q = params.q_ratio
    t0p = t0_prime(drive.delta_omega, params)
    b_t = -q * t0p * (drive.b_in + 1j * math.sqrt(params.gamma / 2.0) * s)
    return b_t, drive.b_in + b_t


def scatter_nonlinear(drive: DriveField, params: SystemParams) -> ScatteringOutcome:
    """Scattering at any power, detuning, leak and dephasing: the t and
    r = 1 + t of `_fixed_point`, the linear spectrum at zero power.

    On resonance the ideal system gives t = -x/(1+x), r = 1/(1+x) with
    x = 4 P_in/gamma, so the incoherent noise carries 2x/(1+x)^2 P_in
    (maximal at x = 1); a leaky one without dephasing gives
    t = (Q/Q0)(beta/(1 + beta^2 x) - 1).
    """
    def block(sl, dw, b_in):
        _, _, _, _, t, r, _ = _fixed_point(dw, b_in, params)
        return _outcome_block(sl, t, r, np.abs(b_in) ** 2)

    return ScatteringOutcome(*_blockwise((drive.delta_omega, drive.b_in),
                                         _OUTCOME_DTYPES, block))


@dataclass(frozen=True)
class SaturationCurvePoint(ColumnRecord):
    """One row of a resonant saturation sweep, or the sweep as columns,
    one array per quantity.

    Indexing and iteration give a sweep's rows as this class of Python
    scalars (`model.ColumnRecord`); `SaturationCurve` names it too.
    """

    x: float
    x_eff: float
    cap_t: float
    cap_r: float
    noise_frac: float
    p_t_over_p_c: float
    p_r_over_p_c: float
    caution: bool


#: The sweep and its rows are one record.
SaturationCurve = SaturationCurvePoint


def saturation_curve(params: SystemParams, x_grid) -> SaturationCurve:
    """Evaluate the resonant scattering on a grid of saturation parameters.

    ``x_grid`` must be sorted; each x is the resonant-ideal normalization
    4 P_in/gamma, refused by `model._drive_power` (the CLI's check too).
    Points with 0.1 < x_eff < 10 are flagged as semiclassical-caution (the
    factorization is qualitative across the nonlinear jump).  Each block of
    `model.BLOCK_ROWS` points is one call of the kernel `_fixed_point`
    (`model._blockwise`), and the flags come from the assembled x_eff column.
    """
    xs = np.asarray(x_grid, dtype=float).reshape(-1)
    if np.any(xs[1:] < xs[:-1]):
        raise UnsupportedRegime("x_grid must be sorted ascending")

    def block(sl, xb):
        b_in = np.sqrt(_drive_power(xb, params.gamma, sl.start))
        p_c, x_eff, _, _, t, r, _ = _fixed_point(0.0, b_in, params)
        p_in = b_in ** 2
        *_, cap_t, cap_r, p_t, p_r, p_noise = _outcome_block(sl, t, r, p_in)
        with np.errstate(invalid="ignore"):     # 0/0: NaN, refused by the CLI
            noise = np.where(p_in > 0.0, p_noise / p_in, 0.0)
            return x_eff, cap_t, cap_r, noise, p_t / p_c, p_r / p_c

    x_eff, *columns = _blockwise((xs,), (float,) * 6, block)
    return SaturationCurve(
        xs, x_eff, *columns,
        caution=(CAUTION_RANGE[0] < x_eff) & (x_eff < CAUTION_RANGE[1]))

"""Shared parameter and state types for the emitter-cavity-port system.

Unit convention: every rate (gamma, kappa, detunings, leak rates) is an
angular frequency expressed in one common unit chosen by the caller.  The
physics is scale free; the CLI defaults normalize ``kappa = 1``.  Input
amplitudes are in sqrt(photons/s), powers in photons/s.

Every closed form and grid sweep runs through `_blockwise`, which fills
its output columns one block of `BLOCK_ROWS` points at a time; a
scalar is a one-element block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InvalidInitial, NonFiniteInput, UnsupportedRegime,
                     _require, _show)

#: Points per block of `_blockwise`.
BLOCK_ROWS = 4096

#: gamma/kappa threshold under which the adiabatic elimination of the cavity
#: is considered safe (bad-cavity regime).
BAD_CAVITY_RATIO = 0.1


@dataclass(frozen=True)
class SystemParams:
    """Rates and detunings of the coupled emitter-cavity-port system.

    Attributes
    ----------
    gamma : float
        Purcell-enhanced emission rate of the dipole into the cavity mode.
    kappa : float
        Cavity-port coupling rate (per port pair, as used by the coupled-mode
        equations).
    delta : float
        Cavity-emitter detuning; the cavity sits at ``omega_0 + delta``.
    gamma_at : float
        Emitter leak rate into non-cavity modes.
    gamma_cav : float
        Cavity leak rate.
    gamma_star : float
        Pure dephasing rate of the emitter.
    """

    gamma: float
    kappa: float
    delta: float = 0.0
    gamma_at: float = 0.0
    gamma_cav: float = 0.0
    gamma_star: float = 0.0

    @property
    def q_ratio(self) -> float:
        """Q/Q0, the fraction of cavity decay that goes into the ports."""
        return 1.0 / (1.0 + self.gamma_cav / (2.0 * self.kappa))

    @property
    def loss_rate(self) -> float:
        """Total emitter coherence leak rate, ``gamma_at + 2 gamma_star``."""
        return self.gamma_at + 2.0 * self.gamma_star

    @property
    def inv_f(self) -> float:
        """1/f, exactly zero for the leak-free emitter."""
        return self.loss_rate / (self.q_ratio * self.gamma)

    @property
    def f_ratio(self) -> float:
        """f = (Q/Q0) gamma / (gamma_at + 2 gamma_star); inf when leak free."""
        inv = self.inv_f
        return math.inf if inv == 0.0 else 1.0 / inv

    @property
    def f_is_infinite(self) -> bool:
        return self.inv_f == 0.0

    @property
    def beta(self) -> float:
        """f/(1+f), the fraction of emission funneled into the cavity mode."""
        return 1.0 / (1.0 + self.inv_f)

    @property
    def is_bad_cavity(self) -> bool:
        return self.gamma / self.kappa <= BAD_CAVITY_RATIO

    @property
    def is_ideal(self) -> bool:
        """True when there are no leaks and no dephasing."""
        return self.gamma_at == 0.0 and self.gamma_cav == 0.0 and self.gamma_star == 0.0


def make_params(gamma, kappa, delta=0.0, gamma_at=0.0, gamma_cav=0.0,
                gamma_star=0.0) -> SystemParams:
    """Validate rates and build a :class:`SystemParams`.

    Raises
    ------
    NonFiniteInput, NonPositiveRate
        Unless gamma and kappa are finite and > 0, delta is finite and
        each leak rate is finite and >= 0, checked in signature order.
    UnsupportedRegime
        If Q/Q0 is subnormal or (Q/Q0) gamma is 0 (1/f would be 0/0).
    """
    params = SystemParams(
        float(_require("gamma", gamma, "(0, inf)")),
        float(_require("kappa", kappa, "(0, inf)")),
        float(_require("delta", delta, "(-inf, inf)")),
        float(_require("gamma_at", gamma_at, "[0, inf)")),
        float(_require("gamma_cav", gamma_cav, "[0, inf)")),
        float(_require("gamma_star", gamma_star, "[0, inf)")))
    q = params.q_ratio
    if not (q >= sys.float_info.min and q * params.gamma > 0.0):
        raise UnsupportedRegime(
            f"gamma_cav = {gamma_cav!r} and kappa = {kappa!r} give Q/Q0 = "
            f"{q!r}, subnormal or with (Q/Q0) gamma = 0")
    return params


def params_from_ratios(gamma, kappa, q_ratio=1.0, f=math.inf, delta=0.0) -> SystemParams:
    """Build params from the (Q/Q0, f) parametrization, with zero dephasing.

    ``gamma_cav`` is solved from Q0/Q = 1 + gamma_cav/(2 kappa) and
    ``gamma_at`` from f = (Q/Q0) gamma / gamma_at.  ``f=inf`` gives a
    leak-free emitter.
    """
    _require("q_ratio", q_ratio, "(0, 1]")
    _require("f", f, "(0, inf]")
    gamma_cav = 2.0 * kappa * (1.0 / q_ratio - 1.0)
    gamma_at = q_ratio * gamma / f
    return make_params(gamma, kappa, delta=delta, gamma_at=gamma_at,
                       gamma_cav=gamma_cav, gamma_star=0.0)


@dataclass(frozen=True)
class DriveField:
    """Monochromatic drive in port 1.

    ``delta_omega = omega_0 - omega`` is the emitter-drive detuning.  The
    second-port input is zero everywhere in this package; the linear
    scattering matrix is the one place where both ports enter, and it does so
    explicitly as a matrix.

    Either field may be a numpy array, making the drive a sweep (of
    detunings, of amplitudes, or of both, broadcast together) that the
    steady-state and scattering closed forms evaluate in one call.  The
    time-domain propagator takes scalar drives only.
    """

    delta_omega: float
    b_in: complex = 0.0 + 0.0j

    def __post_init__(self):
        _require("delta_omega", np.asarray(self.delta_omega), "(-inf, inf)")
        bad = ~np.isfinite(self.b_in)
        if bad.any():
            raise NonFiniteInput(
                f"b_in must be finite, got {_show(self.b_in, bad)[1]}")

    @property
    def p_in(self) -> float:
        """Incoming power |b_in|^2 in photons/s."""
        return _blockwise((self.b_in,), (float,),
                          lambda _, b_in: (np.abs(b_in) ** 2,))[0]

    @classmethod
    def from_power(cls, delta_omega, p_in) -> "DriveField":
        """The drive of power ``p_in`` >= 0 at ``delta_omega``; arrays give
        both fields their broadcast shape."""
        p_in = _require("p_in", np.asarray(p_in, dtype=float), "[0, inf)")
        return cls(*_blockwise((delta_omega, p_in), (float, complex),
                               lambda _, dw, p: (dw, np.sqrt(p))))


def _drive_power(x, gamma, start=0, extinction=1.0):
    """(gamma/4) x/extinction for each saturation parameter in ``x``, a
    number, a grid or a 2-d stack of drives per point whose first row is
    the grid (``extinction`` may add a leading axis of pulses); gamma's
    exponent is applied last, so no intermediate overflows.  Raises
    `UnsupportedRegime` naming the first x != 0 (index plus ``start``)
    whose drive power is not finite or is subnormal."""
    x = np.asarray(x, dtype=float)
    mantissa, exponent = math.frexp(gamma)
    with np.errstate(over="ignore"):
        power = np.ldexp(mantissa * (x / extinction), exponent - 2)
    bad = (x != 0.0) & ~((power < math.inf) & (power >= sys.float_info.min))
    if bad.any():
        grid = x[0] if x.ndim == 2 else x
        bad = bad.reshape((-1,) + grid.shape).any(0)
        raise UnsupportedRegime(
            "x must be 0 or give finite drive powers 0.25*x*gamma/extinction"
            f" >= {sys.float_info.min}, got x = {_show(grid, bad, start)[1]}")
    return power


def _block_slices(n):
    """The slices [lo, lo + BLOCK_ROWS) that cover range(n), in order."""
    return (slice(lo, min(lo + BLOCK_ROWS, n))
            for lo in range(0, n, BLOCK_ROWS))


def _blockwise(values, dtypes, fill):
    """Columns over the broadcast points of ``values``, one per dtype,
    filled a block at a time.

    ``fill(sl, *blocks)`` gets the flat indices ``sl`` of a block of at
    most `BLOCK_ROWS` points (see `_block_slices`) and each value's
    entries there as a 1-d array (a value with one entry as a one-element
    array, which broadcasts), and returns one value per column; each is
    written into its column, allocated up front.  So a sweep holds its
    output columns plus the intermediates of one block, whatever its size.
    Scalars are one one-element block, so they run the array arithmetic
    of every other point; their columns are given back as Python numbers,
    and otherwise each column has the broadcast shape of ``values``.
    This is the one place where a scalar result is unwrapped.
    """
    values = [np.asarray(v) for v in values]
    shape = np.broadcast(*values).shape
    n = math.prod(shape)
    flat = [v.reshape(-1) if v.size in (1, n)
            else np.broadcast_to(v, shape).reshape(-1) for v in values]
    columns = [np.empty(n, dtype) for dtype in dtypes]
    for sl in _block_slices(n):
        blocks = [v if v.size == 1 else v[sl] for v in flat]
        for column, value in zip(columns, fill(sl, *blocks)):
            column[sl] = value
    if not shape:
        return [column.item() for column in columns]
    return [column.reshape(shape) for column in columns]


class ColumnRecord:
    """Base of a frozen dataclass whose fields hold Python numbers for one
    point, or equal-length 1-d arrays for a sweep of points.

    A sweep's indexing and iteration give its rows as the same class built
    from Python scalars, a slice the sweep of its rows.  A row is true and
    has no length; a sweep is true when it holds a row.
    """

    def __bool__(self):
        return np.size(getattr(self, fields(self)[0].name)) > 0

    def __len__(self):
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, i):
        columns = (getattr(self, f.name)[i] for f in fields(self))
        return type(self)(*(columns if isinstance(i, slice)
                            else (column.item() for column in columns)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class BlochState:
    """Semiclassical dipole state: s = <S_-> (complex), s_z = <S_z> (real)."""

    s: complex
    s_z: float

    def is_physical(self, tol=1e-9) -> bool:
        """Whether |s|^2 + s_z^2 <= 1/4 + ``tol``: the Bloch ball, where
        the density matrix has no negative eigenvalue."""
        if not (math.isfinite(self.s.real) and math.isfinite(self.s.imag)
                and math.isfinite(self.s_z)):
            return False
        try:
            return abs(self.s) ** 2 + self.s_z ** 2 <= 0.25 + tol
        except OverflowError:      # |s|^2 or s_z^2 beyond the float range
            return False

    def require_physical(self, tol=1e-9):
        if not self.is_physical(tol):
            raise InvalidInitial("state lies outside the Bloch ball "
                                 f"|s|^2 + s_z^2 <= 1/4: {self!r}")

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0 + 0.0j, -0.5)


@dataclass(frozen=True)
class ScatteringOutcome:
    """Amplitudes, energy coefficients and the power budget of one scattering.

    ``p_noise`` is the incoherent remainder ``p_in - p_t - p_r``; for the
    leaky system it is a single unresolved number (not split between ports
    and true loss).
    """

    t: complex
    r: complex
    cap_t: float
    cap_r: float
    p_t: float
    p_r: float
    p_noise: float

    @property
    def p_in(self) -> float:
        return self.p_t + self.p_r + self.p_noise


#: Column dtypes of a :class:`ScatteringOutcome`, in field order.
_OUTCOME_DTYPES = (complex, complex) + (float,) * 5


def _outcome_block(_, t, r, p_in):
    """The :class:`ScatteringOutcome` columns of one block of amplitudes
    ``t``, ``r`` at drive power ``p_in``: a `_blockwise` fill."""
    # An amplitude that left the float range gives NaN here, silently:
    # the CLI refuses a NaN column with its own message.
    with np.errstate(invalid="ignore"):
        cap_t = np.abs(t) ** 2
        cap_r = np.abs(r) ** 2
        p_t = cap_t * p_in
        p_r = cap_r * p_in
    return t, r, cap_t, cap_r, p_t, p_r, p_in - p_t - p_r


def outcome_from_amplitudes(t, r, p_in) -> ScatteringOutcome:
    """Build a :class:`ScatteringOutcome` from amplitude coefficients.

    Scalars give Python numbers, arrays give arrays of their broadcast
    shape.
    """
    return ScatteringOutcome(*_blockwise((t, r, p_in), _OUTCOME_DTYPES,
                                         _outcome_block))

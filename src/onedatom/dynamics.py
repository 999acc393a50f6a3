"""Exact time-domain propagation of the driven emitter.

This module is the independent oracle for every closed-form steady state in
the package.  Both descriptions it offers are linear with constant
coefficients, so the deviation z of the state from its fixed point obeys
z(t + h) = exp(M h) z(t) exactly: `integrate` takes one exp(M h) per
distinct sample spacing h (Pade-13 scaling and squaring, in numpy) and
about log2(rows) array products per 4096-row block of equally spaced
samples, by doubling; only the number of squarings in exp(M h) grows, as
the logarithm of the fastest rate times h.  `settle` fills its 5/gamma
windows by the same doubling and stops once the filled ones hold its answer.

The default description is the cavity-eliminated dipole equations (valid
in the bad-cavity regime, gamma << kappa); their damping terms carry the
exact atomic operator algebra, so their steady states are the package's
closed forms at any drive power.  Their fixed point is solved for here, not
taken from the steady-state kernel.  With ``full_system=True`` the emitter
and the cavity follow the Jaynes-Cummings master equation on the fewest
Fock states (at least 3) whose top state holds less than `FOCK_TAIL` of the
population at every sample; comparing the two measures the error of the
adiabatic elimination, which scales like gamma/(2 kappa) in the dipole
decay rate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import (DomainError, NoConvergence, StepCollapse,
                     UnsupportedRegime, _require)
from .linear import t0_prime
from .model import BlochState, DriveField, SystemParams, _blockwise
from .nonlinear import output_amplitudes

TRAJECTORY_COLUMNS = ("t", "re_s", "im_s", "s_z",
                      "re_bt", "im_bt", "re_br", "im_br")

#: Most Fock states the full system may use before it refuses the drive.
FOCK_MAX = 8
#: Largest population the top Fock state may hold at any sample.
FOCK_TAIL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one propagation, with per-sample port amplitudes."""

    times: np.ndarray
    s: np.ndarray
    s_z: np.ndarray
    b_t: np.ndarray
    b_r: np.ndarray
    a: np.ndarray | None = None
    #: Matrix squarings of the exponentials the propagation computed.
    squarings: int = 0
    #: Fock states of the full system's cavity; None when eliminated.
    fock_levels: int | None = None

    def state_at(self, i) -> BlochState:
        return BlochState(complex(self.s[i]), float(self.s_z[i]))

    @property
    def final_state(self) -> BlochState:
        return self.state_at(-1)

    @property
    def columns(self) -> tuple:
        """The CSV columns, one per entry of TRAJECTORY_COLUMNS."""
        return (self.times, self.s.real, self.s.imag, self.s_z,
                self.b_t.real, self.b_t.imag, self.b_r.real, self.b_r.imag)

    def write_csv(self, fh) -> int:
        return write_csv(fh, TRAJECTORY_COLUMNS, self.columns)


#: Coefficients of the [13/13] Pade approximant of exp, and the largest
#: 1-norm at which it is exact to double precision (Higham, SIAM J. Matrix
#: Anal. Appl. 26, 1179 (2005)).
_PADE13 = [math.factorial(26 - k) // (math.factorial(k)
                                      * math.factorial(13 - k))
           for k in range(14)]
_THETA13 = 5.371920351148152


def _expm(m, h, sink=0.0):
    """exp(m h) - sink by Pade-13 scaling and squaring, and its squarings.

    ``sink`` is 0 or the projector onto the stationary state of m.  Its
    eigenvalue 1 survives every squaring, and so would the rounding along
    it; exp(m h) - sink squares to exp(2 m h) - sink and decays instead.
    """
    squarings = max(0, math.ceil(math.log2(np.abs(m).sum(axis=0).max())
                                 + math.log2(h) - math.log2(_THETA13)))
    a = m * math.ldexp(h, -squarings)
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    e = np.linalg.solve(v - u, v + u) - sink
    for _ in range(squarings):
        e = e @ e
    return e, squarings


#: dy/dt = m (y - fixed) from y0.  The rows of ``read`` map y to <sigma>,
#: <S_z>, <a> and the top Fock population; ``sink`` is as for `_expm`.
_System = namedtuple("_System", "m fixed y0 sink read fock_levels")
#: Largest rounding error accepted from a propagator, on states of size 1/2.
#: Scaling and squaring loses about eps |M|_1 / r on a mode that decays at
#: rate r, so a drive or detuning far faster than the decay is refused.
_ROUNDING_MAX = 1e-8


def _bloch(drive: DriveField, params: SystemParams):
    """Cavity-eliminated equations in y = (Re s, Im s, s_z): (A, y*, r).

    The complex form ds/dt = -(i dw + c_damp) s - 2 i c_drive s_z,
    ds_z/dt = -relax_z (s_z + 1/2) + 2 Re(i s* c_drive) is affine:
    dy/dt = A y + b with b = (0, 0, -relax_z/2) and, for d = i dw + c_damp,
    A = [[-Re d, Im d, 2 Im c_drive], [-Im d, -Re d, -2 Re c_drive],
         [-2 Im c_drive, 2 Re c_drive, -relax_z]].
    A is -diag(Re d, Re d, relax_z) plus a skew-symmetric matrix, so every
    mode decays at least at the rate r = min(Re d, relax_z).
    """
    t0p = t0_prime(drive.delta_omega, params)
    q = params.q_ratio
    c_damp = (0.5 * params.gamma * q * t0p
              + 0.5 * params.gamma_at + params.gamma_star)
    c_drive = math.sqrt(0.5 * params.gamma) * q * drive.b_in * t0p
    relax_z = params.gamma * q * t0p.real + params.gamma_at
    d_r, d_i = c_damp.real, c_damp.imag + drive.delta_omega
    c_r, c_i = 2.0 * c_drive.real, 2.0 * c_drive.imag
    a = np.array([[-d_r, d_i, c_i], [-d_i, -d_r, -c_r],
                  [-c_i, c_r, -relax_z]])
    slowest = min(d_r, relax_z)
    _check_rounding(a, slowest)
    return a, np.linalg.solve(a, [0.0, 0.0, 0.5 * relax_z]), slowest


def _check_rounding(m, slowest):
    """Refuse M whose exponential rounding would exceed _ROUNDING_MAX, or
    whose slowest decay rate is not a normal float."""
    with np.errstate(over="ignore"):    # an infinite norm is refused
        norm = np.abs(m).sum(axis=0).max()
    if not (np.finfo(float).eps * norm <= _ROUNDING_MAX * slowest
            and slowest >= np.finfo(float).tiny):
        raise UnsupportedRegime(
            f"the equations of motion have a rate of {norm:.3g} against a "
            f"slowest decay rate of {slowest:.3g}: rounding would cost "
            f"exp(M t) more than {_ROUNDING_MAX:g}, or the decay rate is "
            "not a normal float")


def _master(drive: DriveField, params: SystemParams, initial: BlochState,
            coherent, slowest) -> _System:
    """Jaynes-Cummings master equation on n = len(coherent) Fock states.

    H = dw sigma+ sigma + (dw + delta) a+ a + i g (a sigma+ - a+ sigma)
        - sqrt(kappa) (b_in a+ + b_in* a),  g^2 = gamma kappa / 2,
    with the collapse operators sqrt(2 kappa + gamma_cav) a,
    sqrt(gamma_at) sigma and sqrt(2 gamma*) sigma+ sigma.  rho is the
    row-major vector over (g, e) x Fock states, so vec(X rho Y) =
    kron(X, Y^T) vec(rho).  The emitter starts in ``initial`` and the
    cavity in the state with the Fock amplitudes ``coherent``.  The
    slowest decay rate is the eliminated equations' ``slowest`` or the
    cavity's, kappa + gamma_cav/2.
    """
    n = len(coherent)
    sm = np.kron([[0.0, 1.0], [0.0, 0.0]], np.eye(n))      # |g><e|
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, n)), 1))
    ee = sm.T @ sm
    b_in = complex(drive.b_in)
    eye = np.eye(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        jumps = (math.sqrt(2.0 * params.kappa + params.gamma_cav) * a,
                 math.sqrt(params.gamma_at) * sm,
                 math.sqrt(2.0 * params.gamma_star) * ee)
        h_eff = (drive.delta_omega * ee
                 + (drive.delta_omega + params.delta) * a.T @ a
                 + 1j * math.sqrt(0.5 * params.gamma)
                 * math.sqrt(params.kappa) * (a @ sm.T - a.T @ sm)
                 - math.sqrt(params.kappa)
                 * (b_in * a.T + b_in.conjugate() * a)
                 - 0.5j * sum(c.T @ c for c in jumps))
        lv = (-1j * np.kron(h_eff, eye) + 1j * np.kron(eye, h_eff.conj())
              + sum(np.kron(c, c) for c in jumps))
        _check_rounding(lv, min(slowest,
                                params.kappa + 0.5 * params.gamma_cav))
    # The stationary state: L rho = 0 with one row traded for Tr rho = 1.
    constrained = lv.copy()
    constrained[0] = eye.ravel()
    fixed = np.linalg.solve(constrained, np.eye(len(lv), 1)[:, 0])
    s, s_z = initial.s, initial.s_z
    coherent = coherent / np.linalg.norm(coherent)
    rho0 = np.kron([[0.5 - s_z, s.conjugate()], [s, 0.5 + s_z]],
                   np.outer(coherent, coherent.conj()))
    top = np.kron(np.eye(2), np.diag(np.arange(n) == n - 1))
    # Tr(rho O) = vec(rho) . vec(O^T)
    read = np.array([sm.T.ravel(), (ee - 0.5 * eye).ravel(), a.T.ravel(),
                     top.ravel()])
    return _System(lv, fixed, rho0.ravel(), np.outer(fixed, eye.ravel()),
                   read, n)


def _ladder(drive: DriveField, params: SystemParams, initial: BlochState,
            full_system: bool):
    """The systems to propagate in turn, until one's top Fock state stays
    below FOCK_TAIL: the eliminated equations, or the master equation on
    3, 4, ... FOCK_MAX Fock states.  Past the last cutoff it raises."""
    if np.ndim(drive.delta_omega) or np.ndim(drive.b_in):
        raise UnsupportedRegime("the Bloch equations take a scalar drive, "
                                "not an array sweep")
    matrix, fixed, slowest = _bloch(drive, params)
    if not full_system:
        y0 = np.array([initial.s.real, initial.s.imag, initial.s_z])
        read = np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0], [0.0] * 3,
                         [0.0] * 3])
        yield _System(matrix, fixed, y0, 0.0, read, None)
    else:
        # The cavity starts in the coherent state at its adiabatic value;
        # the cutoffs whose top state it already fills are skipped.
        alpha = (params.q_ratio * t0_prime(drive.delta_omega, params)
                 * (1j * math.sqrt(params.kappa) * drive.b_in
                    - math.sqrt(0.5 * params.gamma) * math.sqrt(params.kappa)
                    * initial.s) / params.kappa)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            coherent = np.cumprod(
                [1.0] + [alpha / math.sqrt(k) for k in range(1, FOCK_MAX)])
            weights = np.abs(coherent) ** 2
        for n in range(3, FOCK_MAX + 1):
            if weights[n - 1] < FOCK_TAIL * weights[:n].sum():
                yield _master(drive, params, initial, coherent[:n], slowest)
    raise UnsupportedRegime(
        f"the full system needs more than {FOCK_MAX} Fock states to keep "
        f"the top one below {FOCK_TAIL:g} of the population")


def _fill(y, k, stop, z, power):
    """Rows [k, stop) of y, equal steps h from z, by doubling: row k is
    exp(M h) z, and rows [k + m, k + 2m) are rows [k, k + m) times
    exp(M h)^m = power[log2 m], squared up from the last as needed.
    Yields the end of the rows filled after each product."""
    y[k] = power[0] @ z
    m, i = 1, 0
    while k + m < stop:
        if i == len(power):
            power.append(power[-1] @ power[-1])
        rows = min(m, stop - k - m)
        y[k + m:k + m + rows] = y[k:k + rows] @ power[i].T
        m, i = 2 * m, i + 1
        yield min(k + m, stop)


def integrate(drive: DriveField, params: SystemParams, initial: BlochState,
              duration, *, samples=1001, full_system=False) -> Trajectory:
    """Propagate the driven equations of motion for ``duration``.

    Parameters
    ----------
    initial : BlochState
        Must lie in the Bloch ball, |s|^2 + s_z^2 <= 1/4.
    samples : int or array of floats
        Number of equally spaced output samples (an integer >= 2, so that
        t = 0 and t = duration are sampled), or explicit sample times:
        finite, strictly increasing and inside [0, duration].
    full_system : bool
        Propagate the emitter-cavity master equation instead of the
        eliminated equations.  The cavity starts in the coherent state at
        its adiabatic value for the initial dipole state.

    Raises
    ------
    InvalidInitial, NonPositiveRate, NonFiniteInput
    DomainError
        If explicit sample times are not as described above.
    StepCollapse
        If a sample of the state is not finite.
    UnsupportedRegime
        If the drive is an array sweep, if rounding would spoil the
        propagator, or if the full system needs more than FOCK_MAX Fock
        states.
    """
    initial.require_physical()
    _require("duration", duration, "(0, inf)")
    if np.isscalar(samples):
        _require("samples", samples, "[2, inf)", int)
        times = np.linspace(0.0, duration, int(samples))
        steps = np.full(times.size, duration / (times.size - 1))
        steps[0] = 0.0
    else:
        times = np.array(samples, dtype=float)
        if not (times.ndim == 1 and times.size and np.isfinite(times).all()
                and (np.diff(times) > 0.0).all()
                and 0.0 <= times[0] and times[-1] <= duration):
            raise DomainError("samples must be finite, strictly increasing "
                              f"times in [0, {duration:g}]")
        steps = np.diff(times, prepend=0.0)
    # On the first system of the ladder whose top state stays below
    # FOCK_TAIL at every sample; powers[h] lists exp(M h)^(2^i) for `_fill`.
    for system in _ladder(drive, params, initial, full_system):
        powers, squarings, z = {}, 0, system.y0 - system.fixed

        # Read off in blocks: the master equation's state has up to 256
        # entries per sample, and a run up to 10^7 samples.
        def block(_, dt):               # dt: the block's steps
            nonlocal squarings, z
            y = np.empty((dt.size, z.size), z.dtype)
            cuts = (np.flatnonzero(dt[1:] != dt[:-1]) + 1).tolist()
            hs = dt.tolist()
            for k, stop in zip([0] + cuts, cuts + [dt.size]):
                h = hs[k]
                if not h:
                    y[k:stop] = z
                    continue
                if h not in powers:
                    e, n = _expm(system.m, h, system.sink)
                    powers[h] = [e]
                    squarings += n
                for _ in _fill(y, k, stop, z, powers[h]):
                    pass
                z = y[stop - 1]
            z = z.copy()                # frees the block
            s, s_z, a, top = ((y + system.fixed) @ system.read.T).T
            return s, s_z.real, a, top.real

        s, s_z, a, top = _blockwise((steps,), (complex, float, complex, float),
                                    block)
        if not np.max(top) >= FOCK_TAIL:    # a NaN is reported below
            break
    finite = np.isfinite(s) & np.isfinite(s_z)
    if not finite.all():
        raise StepCollapse("propagation produced a non-finite state at "
                           f"t={times[np.argmin(finite)]:g}")
    if full_system:
        b_t = 1j * math.sqrt(params.kappa) * a
        b_r = drive.b_in + b_t
    else:
        a = None
        b_t, b_r = output_amplitudes(s, drive, params)
    return Trajectory(times=times, s=s, s_z=s_z, b_t=np.asarray(b_t),
                      b_r=np.asarray(b_r), a=a, squarings=squarings,
                      fock_levels=system.fock_levels)


#: Window (in units of 1/gamma) over which settle compares successive states.
SETTLE_WINDOW = 5.0
#: Time budget (in units of 1/gamma) before settle gives up.
SETTLE_MAX_TIME = 1e3
#: Rows (windows 0-16) settle fills before its first check.
_FIRST_CHECK = 17


@dataclass(frozen=True)
class SettleResult:
    state: BlochState
    time: float
    windows: int
    #: Matrix squarings of the window's exponential.
    squarings: int = 0
    #: Fock states of the full system's cavity; None when eliminated.
    fock_levels: int | None = None


def settle(drive: DriveField, params: SystemParams, tol=1e-9, *,
           full_system=False) -> SettleResult:
    """Relax from the ground state until the state stops changing.

    One exp(M window) (window = 5/gamma) steps the state from one window
    boundary to the next, up to t = 1000/gamma.  Returns the state at the
    first boundary where the componentwise change of (Re s, Im s, s_z)
    over one window is below ``tol``.  The boundaries are filled by
    doubling and checked once windows 0-16 are filled, then after each
    doubling, so settle stops at the first check that holds its settled
    window.  The full system runs on the fewest Fock states whose top
    state stays below FOCK_TAIL at every window filled by then.

    Raises
    ------
    NonFiniteInput, NonPositiveRate
        Unless ``tol`` is finite and > 0.
    NoConvergence
        If the change is still above ``tol`` at t = 1000/gamma.
    StepCollapse
        If the state turns non-finite before it settles.
    UnsupportedRegime
        As for `integrate`.
    """
    _require("tol", tol, "(0, inf)")
    window = SETTLE_WINDOW / params.gamma
    stop = int(round(SETTLE_MAX_TIME / SETTLE_WINDOW)) + 1
    for system in _ladder(drive, params, BlochState.ground(), full_system):
        e, squarings = _expm(system.m, window, system.sink)
        z = system.y0 - system.fixed
        y = np.zeros((stop, z.size), z.dtype)
        y[0] = z
        for filled in _fill(y, 1, stop, z, [e]):
            if filled < _FIRST_CHECK:
                continue
            # Every row is read off, so that a filled row rounds as in a
            # product over all windows, whatever the rows filled so far.
            s, s_z, _, top = ((y + system.fixed) @ system.read.T)[:filled].T
            if np.max(top.real) >= FOCK_TAIL:   # the next cutoff; NaN passes
                break
            change = np.max(np.abs(np.diff([s.real, s.imag, s_z.real])), 0)
            # The first window whose change is below tol or not a number.
            k = 1 + int(np.argmax(~(change >= tol)))
            if change[k - 1] >= tol:
                continue
            if math.isnan(change[k - 1]):
                raise StepCollapse("propagation produced a non-finite "
                                   f"state by t={k * window:g}")
            state = BlochState(complex(s[k]), float(s_z[k].real))
            return SettleResult(state, k * window, k, squarings,
                                system.fock_levels)
        else:
            raise NoConvergence(
                f"state still changing by more than tol={tol} after "
                f"{SETTLE_MAX_TIME:g}/gamma")

"""Time-domain integration of the semiclassical Bloch equations.

This module is the independent oracle for every closed-form steady state in
the package: it integrates the mean-value equations of motion with LSODA
(ODEPACK's variable-order solver, which switches between Adams steps while
the problem is non-stiff and BDF steps once it turns stiff) and
reconstructs the port amplitudes from the algebraic output relations at
every sample.  ODEPACK takes every step in compiled code and calls back
into Python only for the right-hand side, which is plain float arithmetic.
scipy.integrate is imported on the first integration, not with the
package.

Two levels of description are available.  The default integrates the
cavity-eliminated dipole equations (valid in the bad-cavity regime, where
gamma << kappa); their damping terms carry the exact atomic operator
algebra, so their steady states are the package's closed forms at any
drive power.  With ``full_system=True`` the cavity amplitude is kept as a
dynamical variable under the mean-field closure <S_z a> -> s_z a, which is
quantitatively meaningful in the weak-drive regime; comparing the two
there measures the elimination error, which empirically scales like
gamma/(2 kappa) in the dipole decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import (DomainError, NoConvergence, NonFiniteInput,
                     NonPositiveRate, StepCollapse, UnsupportedRegime)
from .linear import t0_prime
from .model import BlochState, DriveField, SystemParams
from .nonlinear import output_amplitudes

TRAJECTORY_COLUMNS = ("t", "re_s", "im_s", "s_z",
                      "re_bt", "im_bt", "re_br", "im_br")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one integration, with per-sample port amplitudes."""

    times: np.ndarray
    s: np.ndarray
    s_z: np.ndarray
    b_t: np.ndarray
    b_r: np.ndarray
    a: np.ndarray | None = None
    #: Right-hand-side evaluations the solver made, finite-difference
    #: Jacobian columns included.
    nfev: int = 0

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


def _eliminated_rhs(drive: DriveField, params: SystemParams):
    """Cavity-eliminated equations in y = (Re s, Im s, s_z), in plain floats.

    The complex form ds/dt = -(i dw + c_damp) s - 2 i c_drive s_z,
    ds_z/dt = -relax_z (s_z + 1/2) + 2 Re(i s* c_drive) is affine:
    dy/dt = A y + b with b = (0, 0, -relax_z/2) and, for d = i dw + c_damp,
    A = [[-Re d, Im d, 2 Im c_drive], [-Im d, -Re d, -2 Re c_drive],
         [-2 Im c_drive, 2 Re c_drive, -relax_z]].
    """
    t0p = t0_prime(drive.delta_omega, params)
    q = params.q_ratio
    c_damp = (0.5 * params.gamma * q * t0p
              + 0.5 * params.gamma_at + params.gamma_star)
    c_drive = math.sqrt(0.5 * params.gamma) * q * drive.b_in * t0p
    relax_z = params.gamma * q * t0p.real + params.gamma_at
    d_r, d_i = c_damp.real, c_damp.imag + drive.delta_omega
    c_r, c_i = 2.0 * c_drive.real, 2.0 * c_drive.imag

    def rhs(t, y):
        s_r, s_i, s_z = y.tolist()
        return (d_i * s_i - d_r * s_r + c_i * s_z,
                -d_i * s_r - d_r * s_i - c_r * s_z,
                c_r * s_i - c_i * s_r - relax_z * (s_z + 0.5))

    return rhs


def _full_rhs(drive: DriveField, params: SystemParams):
    """Dipole and cavity equations in y = (Re s, Im s, s_z, Re a, Im a)."""
    omega_c = math.sqrt(0.5 * params.gamma * params.kappa)
    two_omega_c = 2.0 * omega_c
    decay_s = 0.5 * params.gamma_at + params.gamma_star
    decay_a = params.kappa + 0.5 * params.gamma_cav
    dw, dwc = drive.delta_omega, drive.delta_omega + params.delta
    pump = 1j * math.sqrt(params.kappa) * drive.b_in
    pump_r, pump_i = pump.real, pump.imag
    gamma_at = params.gamma_at

    def rhs(t, y):
        s_r, s_i, s_z, a_r, a_i = y.tolist()
        w = two_omega_c * s_z
        return (dw * s_i - decay_s * s_r - w * a_r,
                -decay_s * s_i - dw * s_r - w * a_i,
                two_omega_c * (s_r * a_r + s_i * a_i) - gamma_at * (s_z + 0.5),
                dwc * a_i - decay_a * a_r - omega_c * s_r + pump_r,
                -decay_a * a_i - dwc * a_r - omega_c * s_i + pump_i)

    return rhs


def _adiabatic_cavity(s, drive: DriveField, params: SystemParams) -> complex:
    omega_c = math.sqrt(0.5 * params.gamma * params.kappa)
    return (params.q_ratio * t0_prime(drive.delta_omega, params)
            * (-omega_c * s + 1j * math.sqrt(params.kappa) * drive.b_in)
            / params.kappa)


def _system(drive: DriveField, params: SystemParams, initial: BlochState,
            full_system: bool):
    """Right-hand side and initial vector for one of the two descriptions."""
    if np.ndim(drive.delta_omega) or np.ndim(drive.b_in):
        raise UnsupportedRegime("the Bloch equations take a scalar drive, "
                                "not an array sweep")
    if full_system:
        a0 = _adiabatic_cavity(initial.s, drive, params)
        y0 = (initial.s.real, initial.s.imag, initial.s_z, a0.real, a0.imag)
        return _full_rhs(drive, params), y0
    y0 = (initial.s.real, initial.s.imag, initial.s_z)
    return _eliminated_rhs(drive, params), y0


#: Smallest relative tolerance accepted: 100 machine epsilons, the floor
#: below which double precision cannot deliver the requested accuracy.
RTOL_MIN = 100 * np.finfo(float).eps


def check_tolerances(rtol, atol):
    """Reject tolerances that LSODA cannot honour or that stop it.

    Raises
    ------
    NonFiniteInput
        If rtol or atol is not finite.
    NonPositiveRate
        If rtol < RTOL_MIN or atol <= 0.
    """
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not math.isfinite(value):
            raise NonFiniteInput(f"{name} must be finite, got {value}")
    if not rtol >= RTOL_MIN:
        raise NonPositiveRate(f"rtol must be >= {RTOL_MIN:.3g}, got {rtol}")
    if not atol > 0.0:
        raise NonPositiveRate(f"atol must be > 0, got {atol}")


def _lsoda(rhs, y0, rtol, atol):
    """One LSODA run from ``y0`` at t = 0 whose steps run in compiled code.

    Returns ``advance(t)``, which integrates on to ``t`` and returns a copy
    of the state there, and ``nfev()``, the right-hand-side evaluations so
    far, finite-difference Jacobian columns included.
    """
    from scipy.integrate import ode

    check_tolerances(rtol, atol)
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return rhs(t, y)

    # scipy's default of 500 steps per call is far too few for a strongly
    # driven interval.
    solver = ode(counted).set_integrator("lsoda", rtol=rtol, atol=atol,
                                         nsteps=2**31 - 1)
    solver.set_initial_value(y0, 0.0)

    def advance(t):
        y = solver.integrate(t)
        if not solver.successful():
            raise StepCollapse(f"integrator failed at t={solver.t:g} (LSODA "
                               f"return code {solver.get_return_code()})")
        return y.copy()         # scipy reuses the returned array

    return advance, lambda: nfev


def integrate(drive: DriveField, params: SystemParams, initial: BlochState,
              duration, *, rtol=1e-10, atol=1e-12, samples=1001,
              full_system=False) -> Trajectory:
    """Integrate the driven Bloch equations for ``duration``.

    Parameters
    ----------
    initial : BlochState
        Must satisfy the state invariants (|s_z| <= 1/2, |s|^2 <= 1/4).
    samples : int or array of floats
        Number of equally spaced output samples (at least 2, so that both
        t = 0 and t = duration are sampled), or explicit sample times:
        finite, strictly increasing and inside [0, duration].
    full_system : bool
        Keep the cavity amplitude dynamical instead of eliminating it.  The
        cavity starts at its adiabatic value for the initial dipole state.

    Raises
    ------
    InvalidInitial, NonPositiveRate, NonFiniteInput
    DomainError
        If explicit sample times are not as described above.
    StepCollapse
        If the solver fails or a sample of the state is not finite.
    UnsupportedRegime
        If the drive is an array sweep.
    """
    initial.require_physical()
    if not duration > 0.0:
        raise NonPositiveRate(f"duration must be > 0, got {duration}")
    if np.isscalar(samples):
        if not samples >= 2:
            raise NonPositiveRate(f"samples must be >= 2, got {samples}")
        times = np.linspace(0.0, duration, int(samples))
    else:
        times = np.array(samples, dtype=float)
        if not (times.ndim == 1 and times.size and np.isfinite(times).all()
                and (np.diff(times) > 0.0).all()
                and 0.0 <= times[0] and times[-1] <= duration):
            raise DomainError("samples must be finite, strictly increasing "
                              f"times in [0, {duration:g}]")
    rhs, y0 = _system(drive, params, initial, full_system)
    advance, nfev = _lsoda(rhs, y0, rtol, atol)
    y = np.array([y0 if t == 0.0 else advance(t)
                  for t in times.tolist()]).T
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        # LSODA reports success on a right-hand side that turned NaN.
        raise StepCollapse("integrator produced a non-finite state at "
                           f"t={times[np.argmin(finite)]:g}")
    s = y[0] + 1j * y[1]
    s_z = y[2]
    if full_system:
        a = y[3] + 1j * y[4]
        b_r = drive.b_in + 1j * math.sqrt(params.kappa) * a
        b_t = 1j * math.sqrt(params.kappa) * a
    else:
        a = None
        b_t, b_r = output_amplitudes(s, drive, params)
    return Trajectory(times=times, s=s, s_z=s_z,
                      b_t=np.asarray(b_t), b_r=np.asarray(b_r), a=a,
                      nfev=nfev())


#: Window (in units of 1/gamma) over which settle compares successive states.
SETTLE_WINDOW = 5.0
#: Time budget (in units of 1/gamma) before settle gives up.
SETTLE_MAX_TIME = 1e3


@dataclass(frozen=True)
class SettleResult:
    state: BlochState
    time: float
    windows: int
    #: Right-hand-side evaluations of the one solver run.
    nfev: int = 0


def settle(drive: DriveField, params: SystemParams, tol=1e-9, *,
           rtol=1e-10, atol=1e-13, full_system=False) -> SettleResult:
    """Relax from the ground state until the state stops changing.

    One solver run goes from the ground state towards t = 1000/gamma and is
    asked for the state at every window boundary (window = 5/gamma); LSODA
    steps past the boundary and interpolates its step back to it.  Returns
    once the componentwise change of (Re s, Im s, s_z) over one window drops
    below ``tol``.

    Raises
    ------
    NoConvergence
        If the change is still above ``tol`` at t = 1000/gamma.
    StepCollapse
        If the solver fails or the state turns non-finite.
    """
    if not tol > 0.0:
        raise NonPositiveRate(f"tol must be > 0, got {tol}")
    window = SETTLE_WINDOW / params.gamma
    max_windows = int(round(SETTLE_MAX_TIME / SETTLE_WINDOW))
    rhs, y0 = _system(drive, params, BlochState.ground(), full_system)
    advance, nfev = _lsoda(rhs, y0, rtol, atol)
    prev = np.array(y0[:3])
    for k in range(1, max_windows + 1):
        new = advance(k * window)[:3]
        diff = float(np.max(np.abs(new - prev)))
        if diff < tol:
            state = BlochState(complex(new[0], new[1]), float(new[2]))
            return SettleResult(state=state, time=k * window, windows=k,
                                nfev=nfev())
        if not math.isfinite(diff):
            # prev is finite, so the new state is not: LSODA keeps
            # stepping a NaN state without failing.
            raise StepCollapse(
                f"integrator produced a non-finite state by t={k * window:g}")
        prev = new
    raise NoConvergence(
        f"state still changing by more than tol={tol} after "
        f"{SETTLE_MAX_TIME:g}/gamma")

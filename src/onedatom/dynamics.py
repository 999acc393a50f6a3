"""Time-domain integration of the semiclassical Bloch equations.

This module is the independent oracle for every closed-form steady state in
the package: it integrates the mean-value equations of motion with LSODA
(ODEPACK's variable-order solver, which switches between Adams steps while
the problem is non-stiff and BDF steps once it turns stiff) and
reconstructs the port amplitudes from the algebraic output relations at
every sample.  scipy.integrate is imported on the first integration, not
with the package.

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
from .errors import (NoConvergence, NonPositiveRate, StepCollapse,
                     UnsupportedRegime)
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

    def write_csv(self, fh) -> int:
        return write_csv(fh, TRAJECTORY_COLUMNS,
                         (self.times, self.s.real, self.s.imag, self.s_z,
                          self.b_t.real, self.b_t.imag,
                          self.b_r.real, self.b_r.imag))


def _eliminated_rhs(drive: DriveField, params: SystemParams):
    t0p = t0_prime(drive.delta_omega, params)
    q = params.q_ratio
    c_damp = (0.5 * params.gamma * q * t0p
              + 0.5 * params.gamma_at + params.gamma_star)
    c_drive = math.sqrt(0.5 * params.gamma) * q * drive.b_in * t0p
    relax_z = params.gamma * q * t0p.real + params.gamma_at
    i_dw = 1j * drive.delta_omega

    def rhs(t, y):
        s = complex(y[0], y[1])
        ds = -(i_dw + c_damp) * s - 2.0 * y[2] * (1j * c_drive)
        dsz = (-relax_z * (y[2] + 0.5)
               + 2.0 * (1j * s.conjugate() * c_drive).real)
        return (ds.real, ds.imag, dsz)

    return rhs


def _full_rhs(drive: DriveField, params: SystemParams):
    omega_c = math.sqrt(0.5 * params.gamma * params.kappa)
    decay_a = (1j * (drive.delta_omega + params.delta)
               + params.kappa + 0.5 * params.gamma_cav)
    pump_a = 1j * math.sqrt(params.kappa) * drive.b_in
    decay_s = 1j * drive.delta_omega + 0.5 * params.gamma_at + params.gamma_star
    gamma_at = params.gamma_at

    def rhs(t, y):
        s = complex(y[0], y[1])
        a = complex(y[3], y[4])
        ds = -decay_s * s - 2.0 * omega_c * y[2] * a
        dsz = (-gamma_at * (y[2] + 0.5)
               + 2.0 * omega_c * (s.conjugate() * a).real)
        da = -decay_a * a - omega_c * s + pump_a
        return (ds.real, ds.imag, dsz, da.real, da.imag)

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


def integrate(drive: DriveField, params: SystemParams, initial: BlochState,
              duration, *, rtol=1e-10, atol=1e-12, samples=None,
              full_system=False, max_step=np.inf) -> Trajectory:
    """Integrate the driven Bloch equations for ``duration``.

    Parameters
    ----------
    initial : BlochState
        Must satisfy the state invariants (|s_z| <= 1/2, |s|^2 <= 1/4).
    samples : int or array of floats, optional
        Number of equally spaced output samples (at least 2, so that both
        t = 0 and t = duration are sampled), or explicit sample times.
        Default: the solver's own accepted steps.
    full_system : bool
        Keep the cavity amplitude dynamical instead of eliminating it.  The
        cavity starts at its adiabatic value for the initial dipole state.

    Raises
    ------
    InvalidInitial, NonPositiveRate
    StepCollapse
        If the solver fails or a sample of the state is not finite.
    UnsupportedRegime
        If the drive is an array sweep.
    """
    from scipy.integrate import solve_ivp

    initial.require_physical()
    if not duration > 0.0:
        raise NonPositiveRate(f"duration must be > 0, got {duration}")
    if samples is None:
        t_eval = None
    elif np.isscalar(samples):
        if not samples >= 2:
            raise NonPositiveRate(f"samples must be >= 2, got {samples}")
        t_eval = np.linspace(0.0, duration, int(samples))
    else:
        t_eval = np.asarray(samples, dtype=float)
    rhs, y0 = _system(drive, params, initial, full_system)
    sol = solve_ivp(rhs, (0.0, float(duration)), y0, method="LSODA",
                    rtol=rtol, atol=atol, t_eval=t_eval, max_step=max_step)
    if not sol.success:
        raise StepCollapse(f"integrator failed: {sol.message}")
    finite = np.isfinite(sol.y).all(axis=0)
    if not finite.all():
        # LSODA reports success on a right-hand side that turned NaN.
        raise StepCollapse("integrator produced a non-finite state at "
                           f"t={sol.t[np.argmin(finite)]:g}")
    s = sol.y[0] + 1j * sol.y[1]
    s_z = sol.y[2]
    if full_system:
        a = sol.y[3] + 1j * sol.y[4]
        b_r = drive.b_in + 1j * math.sqrt(params.kappa) * a
        b_t = 1j * math.sqrt(params.kappa) * a
    else:
        a = None
        b_t, b_r = output_amplitudes(s, drive, params)
    return Trajectory(times=sol.t, s=s, s_z=s_z,
                      b_t=np.asarray(b_t), b_r=np.asarray(b_r), a=a,
                      nfev=int(sol.nfev))


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

    One solver run steps from the ground state towards t = 1000/gamma; at
    every window boundary (window = 5/gamma) the state is read from the
    dense output of the step that covers it.  Returns once the componentwise
    change of (Re s, Im s, s_z) over one window drops below ``tol``.

    Raises
    ------
    NoConvergence
        If the change is still above ``tol`` at t = 1000/gamma.
    StepCollapse
        If the solver fails or the state turns non-finite.
    """
    from scipy.integrate import LSODA

    if not tol > 0.0:
        raise NonPositiveRate(f"tol must be > 0, got {tol}")
    window = SETTLE_WINDOW / params.gamma
    max_windows = int(round(SETTLE_MAX_TIME / SETTLE_WINDOW))
    rhs, y0 = _system(drive, params, BlochState.ground(), full_system)
    solver = LSODA(rhs, 0.0, y0, max_windows * window, rtol=rtol, atol=atol)
    prev = solver.y[:3]
    k = 1
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise StepCollapse(f"integrator failed at t={solver.t:g}")
        dense = None
        while k <= max_windows and k * window <= solver.t:
            if dense is None:
                dense = solver.dense_output()
            new = dense(k * window)[:3]
            diff = float(np.max(np.abs(new - prev)))
            if diff < tol:
                state = BlochState(complex(new[0], new[1]), float(new[2]))
                return SettleResult(state=state, time=k * window, windows=k,
                                    nfev=solver.nfev)
            if not math.isfinite(diff):
                # prev is finite, so the new state is not: LSODA keeps
                # stepping a NaN state without failing.
                raise StepCollapse(
                    f"integrator produced a non-finite state by t={k * window:g}")
            prev = new
            k += 1
    raise NoConvergence(
        f"state still changing by more than tol={tol} after "
        f"{SETTLE_MAX_TIME:g}/gamma")

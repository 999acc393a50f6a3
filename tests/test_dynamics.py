import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ode, solve_ivp
from scipy.linalg import expm

from onedatom import (BlochState, DomainError, DriveField, InvalidInitial,
                      NoConvergence, NonFiniteInput, NonPositiveRate,
                      StepCollapse, UnsupportedRegime, critical_power,
                      make_params,
                      output_amplitudes, params_from_ratios, phi_ideal,
                      phi_leaky, scatter_nonlinear, steady_state,
                      susceptibility, transmission_leaky)
from onedatom import dynamics
from onedatom.linear import t0_prime
from onedatom.dynamics import (FOCK_MAX, FOCK_TAIL, SETTLE_WINDOW,
                               TRAJECTORY_COLUMNS, SettleResult, Trajectory,
                               integrate, settle)

IDEAL = make_params(gamma=1.0, kappa=500.0)
NO_DRIVE = DriveField(0.0, 0.0)


def test_free_decay_from_half_excited():
    # With no drive and s = 0, s_z relaxes as -1/2 + (1/2) exp(-gamma t).
    traj = integrate(NO_DRIVE, IDEAL, BlochState(0.0, 0.0), 8.0, samples=33)
    expected = -0.5 + 0.5 * np.exp(-traj.times)
    assert np.max(np.abs(traj.s_z - expected)) < 1e-6
    assert np.all(np.abs(traj.s) == 0.0)


def test_settle_matches_ideal_resonant_closed_form():
    drive = DriveField.from_power(0.0, 0.25)
    res = settle(drive, IDEAL, 1e-9)
    st = steady_state(drive, IDEAL)
    assert abs(res.state.s - st.s) < 1e-6
    assert abs(res.state.s_z - st.s_z) < 1e-6


def test_settle_strong_drive():
    drive = DriveField.from_power(0.0, 0.25 * 100.0)
    res = settle(drive, IDEAL, 1e-9)
    assert abs(res.state.s_z - (-0.5 / 101.0)) < 1e-6


def test_settle_off_resonant_validates_phi():
    drive = DriveField.from_power(5.0, 1.0)
    res = settle(drive, IDEAL, 1e-9)
    st = steady_state(drive, IDEAL)
    assert abs(res.state.s - st.s) < 1e-6
    assert abs(res.state.s_z - st.s_z) < 1e-6


def test_settle_leaky_resonant_transmission():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=10.0)
    drive = DriveField.from_power(0.0, critical_power(0.0, p))
    res = settle(drive, p, 1e-9)
    b_t, b_r = output_amplitudes(res.state.s, drive, p)
    closed = scatter_nonlinear(drive, p)
    assert abs(abs(b_t / drive.b_in) ** 2 - closed.cap_t) < 1e-6
    assert abs(abs(b_r / drive.b_in) ** 2 - closed.cap_r) < 1e-6


def test_settle_no_drive_returns_ground():
    res = settle(NO_DRIVE, IDEAL, 1e-9)
    assert res.state.s == 0.0
    assert res.state.s_z == -0.5
    assert res.windows == 1


def test_linear_regime_reproduces_linear_module():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.9, f=8.0)
    for dw in (0.0, 0.7, -2.3):
        drive = DriveField.from_power(dw, 1e-6 * critical_power(dw, p))
        res = settle(drive, p, 1e-10)
        b_t, b_r = output_amplitudes(res.state.s, drive, p)
        lin = transmission_leaky(dw, p)
        assert abs(b_t / drive.b_in - lin.t) < 1e-5
        assert abs(b_r / drive.b_in - lin.r) < 1e-5


def test_population_stays_physical_through_transient():
    drive = DriveField.from_power(0.0, 0.25 * 5.0)
    traj = integrate(drive, IDEAL, BlochState.ground(), 30.0, samples=301)
    assert np.all(traj.s_z <= 0.5 + 1e-9)
    assert np.all(traj.s_z >= -0.5 - 1e-9)


def test_output_relation_br_equals_bin_plus_bt():
    drive = DriveField.from_power(0.3, 0.1)
    traj = integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=50)
    assert np.max(np.abs(traj.b_r - (drive.b_in + traj.b_t))) < 1e-12


def test_csv_export_schema():
    traj = integrate(NO_DRIVE, IDEAL, BlochState(0.1j, -0.4), 1.0, samples=5)
    buf = io.StringIO()
    n = traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert n == 5 and len(lines) == 6


def test_invalid_initial_rejected():
    with pytest.raises(InvalidInitial):
        integrate(NO_DRIVE, IDEAL, BlochState(0.0, 0.7), 1.0)
    with pytest.raises(NonPositiveRate):
        integrate(NO_DRIVE, IDEAL, BlochState.ground(), 0.0)
    with pytest.raises(NonPositiveRate):
        settle(NO_DRIVE, IDEAL, 0.0)


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
def test_integrate_refuses_a_non_finite_duration(duration):
    # inf was a numpy warning and a bare OverflowError from the propagator.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteInput, match="duration"):
            integrate(NO_DRIVE, IDEAL, BlochState.ground(), duration)


def test_settle_no_convergence_for_glacial_system():
    # Q/Q0 = 0.01 slows every rate far below the time budget, so the state
    # still changes by more than an impossible tolerance at its end.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.01, f=math.inf)
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(NoConvergence):
        settle(drive, p, 1e-12)


@pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-13])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_settle_converges_at_tight_tolerances(x, tol):
    # The propagation is exact, so the change per window falls to the
    # rounding of the state itself: kappa/gamma = 500 settles in 8-10
    # windows even at tol = 1e-13, on the closed-form steady state.
    drive = DriveField.from_power(0.0, x * critical_power(0.0, IDEAL))
    res = settle(drive, IDEAL, tol)
    st = steady_state(drive, IDEAL)
    assert 8 <= res.windows <= 10
    assert abs(res.state.s - st.s) < 10.0 * tol
    assert abs(res.state.s_z - st.s_z) < 10.0 * tol


def test_full_system_linear_steady_state_matches_eliminated():
    # The adiabatic elimination is exact for the linear steady state, so the
    # two descriptions must settle to the same output amplitudes.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.9, f=20.0)
    drive = DriveField.from_power(0.4, 1e-6 * critical_power(0.4, p))
    res_el = settle(drive, p, 1e-10)
    res_fu = settle(drive, p, 1e-10, full_system=True)
    assert abs(res_el.state.s - res_fu.state.s) < 1e-8


def test_full_system_elimination_error_scaling():
    # Free-decay rate of the dipole: the eliminated system decays at
    # gamma/2 exactly, the master equation at gamma/2 (1 + gamma/(2 kappa)).
    # The measured relative error must track gamma/(2 kappa).
    s0 = 0.003
    init = BlochState(complex(s0), -math.sqrt(0.25 - s0 * s0))
    for ratio in (1 / 500, 1 / 100, 1 / 20):
        p = make_params(1.0, 1.0 / ratio)
        times = np.linspace(0.5, 4.0, 36)
        rates = {}
        for full in (False, True):
            traj = integrate(NO_DRIVE, p, init, 4.0, samples=times,
                             full_system=full)
            rates[full] = -np.polyfit(traj.times, np.log(np.abs(traj.s)), 1)[0]
        rel_err = (rates[True] - rates[False]) / rates[False]
        assert 0.8 < rel_err / (0.5 * ratio) < 1.2


def test_full_system_weak_drive_outputs_match_closed_form():
    # In the weak-drive regime the master equation and the eliminated
    # equations describe the same physics; their settled transmissions
    # must agree with the linear closed form.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=10.0)
    drive = DriveField.from_power(0.0, 1e-6 * critical_power(0.0, p))
    res = settle(drive, p, 1e-10, full_system=True)
    b_t, _ = output_amplitudes(res.state.s, drive, p)
    lin = transmission_leaky(0.0, p)
    assert abs(b_t / drive.b_in - lin.t) < 1e-5


def test_full_system_settles_beyond_weak_drive():
    # x = 1: the master equation settles within O(gamma/kappa) of the
    # closed form (the mean-field closure it replaces had no steady state).
    drive = DriveField.from_power(0.0, critical_power(0.0, IDEAL))
    res = settle(drive, IDEAL, full_system=True)
    ref = steady_state(drive, IDEAL)
    assert res.fock_levels == 4
    assert abs(res.state.s - ref.s) < 1e-3 * abs(ref.s)
    assert abs(res.state.s_z - ref.s_z) < 1e-3


# ---------------------------------------------------------------------------
# Oracles: the equations of motion as right-hand sides for scipy's LSODA,
# with scipy's RK45 as the reference for LSODA

def _eliminated_rhs(drive, params):
    """Cavity-eliminated equations in y = (Re s, Im s, s_z), in plain floats."""
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


def _split_rhs(lv):
    """d rho/dt = L rho on rho split into its real and imaginary halves."""
    def rhs(t, y):
        half = len(y) // 2
        d = lv @ (y[:half] + 1j * y[half:])
        return np.concatenate([d.real, d.imag])

    return rhs


def _split_jac(lv):
    jac = np.block([[lv.real, -lv.imag], [lv.imag, lv.real]])
    return lambda t, y: jac


def _split(rho):
    return np.concatenate([rho.real, rho.imag])


def _lsoda(rhs, y0, times, rtol=1e-13, atol=1e-15, jac=None):
    """LSODA from y0 at t = 0, one row per sample time."""
    solver = ode(rhs, jac).set_integrator("lsoda", rtol=rtol, atol=atol,
                                          nsteps=2**31 - 1)
    solver.set_initial_value(y0, 0.0)
    rows = []
    for t in times:
        rows.append(np.array(y0, dtype=float) if t == 0.0
                    else solver.integrate(t).copy())
        assert solver.successful()
    return np.array(rows)


def _master_system(drive, params, n):
    """The master equation on n Fock states from the ground state, the
    cavity in the coherent state at its adiabatic value."""
    alpha = (1j * params.q_ratio * math.sqrt(params.kappa) * drive.b_in
             * t0_prime(drive.delta_omega, params) / params.kappa)
    coherent = np.array([alpha ** k / math.sqrt(math.factorial(k))
                         for k in range(n)])
    return dynamics._master(drive, params, BlochState.ground(), coherent,
                            dynamics._bloch(drive, params)[2])


def _observe(system, y):
    """(s, s_z, <a>, top Fock population) of states y of a system."""
    s, s_z, a, top = (y @ system.read.T).T
    return s, s_z.real, a, top.real


def _acceptance_06_cases():
    """(drive, params, tol) of acceptance criterion 06, in its order."""
    rng = np.random.default_rng(20260809)
    for _ in range(25):   # ideal branch, any detuning
        delta = rng.choice([0.0, -250.0, 150.0])
        p = make_params(1.0, 500.0, delta=delta)
        dw = rng.uniform(-5.0, 5.0)
        x = 10.0 ** rng.uniform(-2.0, 2.0)
        yield DriveField.from_power(dw, x * critical_power(dw, p)), p, 1e-9
    for _ in range(25):   # leaky branch, full resonance
        q = rng.uniform(0.3, 1.0)
        f = 10.0 ** rng.uniform(math.log10(0.5), 2.0)
        p = params_from_ratios(1.0, 500.0, q, f)
        x = 10.0 ** rng.uniform(-2.0, 2.0)
        yield DriveField.from_power(0.0, x * critical_power(0.0, p)), p, 1e-9
    for _ in range(10):   # linear regime
        q = rng.uniform(0.3, 1.0)
        f = 10.0 ** rng.uniform(0.0, 2.0)
        dw = rng.uniform(-2.0, 2.0)
        p = params_from_ratios(1.0, 500.0, q, f)
        yield (DriveField.from_power(dw, 1e-6 * critical_power(dw, p)), p,
               1e-10)


def test_propagator_matches_lsoda_on_the_acceptance_cases():
    # Every settle of acceptance 06 against LSODA at rtol 1e-13, at each
    # window boundary: the states agree, and so does the window count.
    cases = 0
    for drive, p, tol in _acceptance_06_cases():
        res = settle(drive, p, tol)
        times = SETTLE_WINDOW * np.arange(res.windows + 1.0)
        traj = integrate(drive, p, BlochState.ground(), res.time,
                         samples=times)
        ref = _lsoda(_eliminated_rhs(drive, p), [0.0, 0.0, -0.5], times)
        got = np.column_stack([traj.s.real, traj.s.imag, traj.s_z])
        assert np.max(np.abs(got - ref)) < 1e-10
        assert (res.state.s, res.state.s_z) == (traj.s[-1], traj.s_z[-1])
        change = np.max(np.abs(np.diff(ref, axis=0)), axis=1)
        assert int(np.argmax(change < tol)) + 1 == res.windows
        cases += 1
    assert cases == 60


@pytest.mark.parametrize("delta, dw, x, full_system", [
    (150.0, 2.7, 50.0, False),   # strongly driven, detuned: Rabi-limited
    (0.0, 0.5, 1e-3, True),      # weakly driven, stiff (kappa/gamma = 500)
])
def test_trajectory_matches_rk45_reference(delta, dw, x, full_system):
    # scipy's explicit RK45 on the same equations: an integrator that shares
    # nothing with the propagator under test.
    p = make_params(1.0, 500.0, delta=delta)
    drive = DriveField.from_power(dw, x * critical_power(dw, p))
    traj = integrate(drive, p, BlochState.ground(), 20.0, samples=1001,
                     full_system=full_system)
    times = np.linspace(0.0, 20.0, 1001)
    got = np.array([traj.s.real, traj.s.imag, traj.s_z])
    if full_system:
        system = _master_system(drive, p, traj.fock_levels)
        rhs, y0 = _split_rhs(system.m), _split(system.y0)
    else:
        rhs, y0 = _eliminated_rhs(drive, p), (0.0, 0.0, -0.5)
    ref = solve_ivp(rhs, (0.0, 20.0), y0, method="RK45", rtol=1e-10,
                    atol=1e-12, t_eval=times)
    assert ref.success
    if full_system:
        half = len(ref.y) // 2
        s, s_z, a, _ = _observe(system, (ref.y[:half] + 1j * ref.y[half:]).T)
        want = np.array([s.real, s.imag, s_z])
        assert np.max(np.abs(traj.a - a)) <= 1e-8
    else:
        want = ref.y
    assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize("x, dw, fock_levels", [
    (1e-3, 0.5, 3), (0.3, 0.5, 4), (3.0, 0.0, 5)])
def test_master_equation_matches_lsoda(x, dw, fock_levels):
    p = params_from_ratios(1.0, 500.0, q_ratio=0.95, f=20.0, delta=30.0)
    drive = DriveField.from_power(dw, x * critical_power(dw, p))
    times = np.linspace(0.0, 20.0, 41)
    traj = integrate(drive, p, BlochState.ground(), 20.0, samples=times,
                     full_system=True)
    assert traj.fock_levels == fock_levels
    system = _master_system(drive, p, fock_levels)
    ref = _lsoda(_split_rhs(system.m), _split(system.y0), times, rtol=1e-12,
                 atol=1e-14, jac=_split_jac(system.m))
    half = ref.shape[1] // 2
    s, s_z, a, _ = _observe(system, ref[:, :half] + 1j * ref[:, half:])
    assert np.max(np.abs(traj.s - s)) < 1e-9
    assert np.max(np.abs(traj.s_z - s_z)) < 1e-9
    assert np.max(np.abs(traj.a - a)) < 1e-9


@pytest.mark.parametrize("x", [1e-3, 0.3, 3.0])
def test_full_system_fock_cutoff_is_the_smallest_that_holds(x):
    # The top Fock state holds less than 1e-10 of the population at every
    # sample, and one state fewer would not; one state more changes the
    # emitter by far less than the elimination error.
    p = make_params(1.0, 500.0)
    drive = DriveField.from_power(0.5, x * critical_power(0.5, p))
    times = np.linspace(0.0, 20.0, 11)
    traj = integrate(drive, p, BlochState.ground(), 20.0, samples=times,
                     full_system=True)
    n = traj.fock_levels

    def run(levels):
        system = _master_system(drive, p, levels)
        rho = np.array([expm(system.m * t) @ system.y0 for t in times])
        return _observe(system, rho)

    s, s_z, _, top = run(n)
    assert np.max(top) < FOCK_TAIL
    assert np.max(np.abs(traj.s - s)) < 1e-9
    if n > 3:
        assert np.max(run(n - 1)[3]) >= FOCK_TAIL
    s_more, s_z_more, _, _ = run(n + 1)
    assert np.max(np.abs(s_more - s)) < 1e-7
    assert np.max(np.abs(s_z_more - s_z)) < 1e-7


def test_full_system_keeps_its_stationary_state_over_a_long_step():
    # One exp(L h) over 1e6/gamma takes about 28 squarings; the rounding
    # along the stationary state would grow 2^28-fold without the sink.
    drive = DriveField.from_power(0.3, 0.01 * critical_power(0.3, IDEAL))
    res = settle(drive, IDEAL, 1e-12, full_system=True)
    traj = integrate(drive, IDEAL, BlochState.ground(), 1e6, samples=2,
                     full_system=True)
    assert traj.squarings > 25
    assert abs(traj.final_state.s - res.state.s) < 1e-11
    assert abs(traj.final_state.s_z - res.state.s_z) < 1e-11


def test_full_system_refuses_a_drive_beyond_the_fock_cap():
    drive = DriveField.from_power(0.0, 1e3 * critical_power(0.0, IDEAL))
    with pytest.raises(UnsupportedRegime, match="Fock states"):
        integrate(drive, IDEAL, BlochState.ground(), 1.0, samples=3,
                  full_system=True)
    with pytest.raises(UnsupportedRegime, match="Fock states"):
        settle(drive, IDEAL, full_system=True)


def test_expm_matches_scipy():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 30.0, 1e4):
        skew = rng.normal(size=(5, 5))
        m = scale * (skew - skew.T - 2.0 * np.eye(5)
                     + 0.3 * rng.normal(size=(5, 5)))
        e, squarings = dynamics._expm(m, 0.7)
        want = expm(0.7 * m)
        assert np.max(np.abs(e - want)) <= 1e-12 * np.max(np.abs(want))
        norm = np.abs(m).sum(axis=0).max()
        assert squarings == max(0, math.ceil(math.log2(0.7 * norm / 5.371920351148152)))
    # With the stationary projector subtracted, and added back.
    drive = DriveField.from_power(0.3, 1e-4)
    system = _master_system(drive, IDEAL, 3)
    e, _ = dynamics._expm(system.m, 5.0, system.sink)
    assert np.max(np.abs(e + system.sink - expm(5.0 * system.m))) <= 1e-12


@pytest.mark.parametrize("x", [1e6, 1e12])
def test_strong_drive_matches_mpmath(x):
    # Rabi frequencies up to 1e6 gamma: scaling and squaring keeps its
    # rounding inside the 1e-8 bound that refuses stronger drives.
    mp = pytest.importorskip("mpmath")
    p = make_params(1.0, 500.0)
    drive = DriveField.from_power(0.7, x * critical_power(0.7, p))
    traj = integrate(drive, p, BlochState.ground(), 20.0, samples=11)
    rhs = _eliminated_rhs(drive, p)
    b = np.array(rhs(0.0, np.zeros(3)))
    a = np.column_stack([np.array(rhs(0.0, e)) - b for e in np.eye(3)])
    with mp.workdps(50):
        a_mp = mp.matrix(a.tolist())
        fixed = mp.lu_solve(a_mp, mp.matrix((-b).tolist()))
        dev = mp.matrix([0.0, 0.0, -0.5]) - fixed
        for k, t in enumerate(traj.times.tolist()):
            y = fixed + mp.expm(a_mp * t) * dev
            got = (traj.s[k].real, traj.s[k].imag, traj.s_z[k])
            assert max(abs(float(y[i]) - got[i]) for i in range(3)) < 1e-8


def test_drives_beyond_the_rounding_bound_are_refused():
    p = make_params(1.0, 500.0)
    for x in (1e18, 1e300):
        drive = DriveField.from_power(0.7, x * critical_power(0.7, p))
        with pytest.raises(UnsupportedRegime, match="rounding"):
            integrate(drive, p, BlochState.ground(), 20.0, samples=11)
        with pytest.raises(UnsupportedRegime, match="rounding"):
            settle(drive, p)
    # The master equation also decays at the cavity's rate: an emitter
    # leak of 1e300 kappa passes the eliminated bound but not this one.
    # A subnormal gamma would underflow the emitter-cavity coupling.
    drive = DriveField.from_power(0.0, 1e-3)
    for leaky in (dataclasses.replace(p, gamma_at=1e300 * p.kappa),
                  make_params(2e-311, 1e-308)):
        with pytest.raises(UnsupportedRegime, match="rounding"):
            integrate(drive, leaky, BlochState.ground(), 1.0, samples=3,
                      full_system=True)


def test_settle_reads_the_trajectory_at_its_window_boundary():
    # A slow system and a loose tol stop settle while the state still
    # moves, so propagating from the ground state over the reported time
    # must land on the same state only if settle read it at the window
    # boundary itself.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.1, f=math.inf)
    drive = DriveField.from_power(0.3, 2.0 * critical_power(0.3, p))
    res = settle(drive, p, 1e-4)
    assert res.windows > 2 and res.time == res.windows * 5.0
    traj = integrate(drive, p, BlochState.ground(), res.time, samples=2)
    assert abs(traj.final_state.s - res.state.s) < 1e-8
    assert abs(traj.final_state.s_z - res.state.s_z) < 1e-8


def test_solver_reports_squarings():
    # exp(A h) takes ceil(log2(|A h|_1 / theta_13)) squarings, one
    # exponential per distinct sample spacing.
    drive = DriveField.from_power(0.0, 0.25)
    rhs = _eliminated_rhs(drive, IDEAL)
    b = np.array(rhs(0.0, np.zeros(3)))
    norm = np.abs(np.column_stack([np.array(rhs(0.0, e)) - b
                                   for e in np.eye(3)])).sum(axis=0).max()

    def squarings(h):
        return max(0, math.ceil(math.log2(norm * h / 5.371920351148152)))

    traj = integrate(drive, IDEAL, BlochState.ground(), 40.0,
                     samples=[10.0, 20.0, 40.0])
    assert traj.squarings == squarings(10.0) + squarings(20.0) > 0
    assert traj.fock_levels is None
    res = settle(drive, IDEAL, 1e-9)
    assert res.squarings == squarings(SETTLE_WINDOW)
    assert SettleResult(BlochState.ground(), 0.0, 0).squarings == 0
    assert Trajectory(traj.times, traj.s, traj.s_z, traj.b_t,
                      traj.b_r).squarings == 0


@pytest.mark.parametrize("samples", [0, 1, -2, math.nan])
def test_integrate_rejects_fewer_than_two_samples(samples):
    # NaN is a NonFiniteInput, as for every other argument.
    error = NonFiniteInput if math.isnan(samples) else NonPositiveRate
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(error, match="samples must be an integer >= 2"):
        integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=samples)


@pytest.mark.parametrize("samples", [2.9, 1000.5, math.inf])
def test_integrate_refuses_a_fractional_sample_count(samples):
    # 2.9 gave 2 samples.
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(DomainError, match="samples"):
        integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=samples)


def test_integrate_and_settle_reject_an_array_drive():
    drive = DriveField.from_power(np.array([0.0, 1.0]), 0.25)
    with pytest.raises(UnsupportedRegime, match="scalar drive"):
        integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=5)
    with pytest.raises(UnsupportedRegime, match="scalar drive"):
        settle(drive, IDEAL)


def test_csv_export_columns_are_the_trajectory_arrays():
    drive = DriveField.from_power(0.3, 0.1)
    traj = integrate(drive, IDEAL, BlochState.ground(), 5.0, samples=7)
    buf = io.StringIO()
    traj.write_csv(buf)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in buf.getvalue().splitlines()[1:]])
    expected = np.column_stack([traj.times, traj.s.real, traj.s.imag,
                                traj.s_z, traj.b_t.real, traj.b_t.imag,
                                traj.b_r.real, traj.b_r.imag])
    assert np.array_equal(rows, expected)


def _nan_propagators(monkeypatch):
    monkeypatch.setattr(dynamics, "_expm",
                        lambda m, h, sink=0.0: (np.full(m.shape, math.nan), 0))


# The case ids keep the names these two cases have always been reported
# under: the eliminated equations, and the full system.
@pytest.mark.parametrize("full_system", [
    pytest.param(False, id="_eliminated_rhs-False"),
    pytest.param(True, id="_full_rhs-True")])
def test_integrate_raises_on_a_non_finite_state(monkeypatch, full_system):
    _nan_propagators(monkeypatch)
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(StepCollapse, match=r"non-finite state at t=1\b"):
        integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=11,
                  full_system=full_system)


def test_settle_raises_at_the_first_non_finite_window(monkeypatch):
    # The first window boundary is t = 5/gamma; without the check settle
    # would run to 1000/gamma and raise NoConvergence.
    _nan_propagators(monkeypatch)
    drive = DriveField.from_power(0.0, 0.25)
    for full_system in (False, True):
        with pytest.raises(StepCollapse, match=r"non-finite state by t=5\b"):
            settle(drive, IDEAL, 1e-9, full_system=full_system)


# ---------------------------------------------------------------------------
# The equations of motion against the paper's complex-form equations

def _eliminated_rhs_reference(drive, params):
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


def _ehrenfest_reference(drive, params):
    """d<sigma>/dt, d<S_z>/dt and d<a>/dt of a product state with
    <S_z a> = s_z a, from the Heisenberg equations of the master equation."""
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


@st.composite
def driven_systems(draw):
    """A leaky, dephased, detuned device (gamma = 1) and a scalar drive."""
    kappa = draw(st.floats(2.0, 1e4))
    q = draw(st.floats(0.05, 1.0))
    f = draw(st.one_of(st.just(math.inf), st.floats(0.05, 1e4)))
    delta = draw(st.floats(-1e3, 1e3))
    params = dataclasses.replace(
        params_from_ratios(1.0, kappa, q_ratio=q, f=f, delta=delta),
        gamma_star=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    drive = DriveField.from_power(draw(st.floats(-30.0, 30.0)),
                                  draw(st.floats(0.0, 1e3)))
    return drive, params


@settings(max_examples=300, deadline=None)
@given(system=driven_systems(), full_system=st.booleans(),
       dipole=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       cavity=st.tuples(*[st.floats(-0.1, 0.1)] * 2))
def test_float_rhs_matches_complex_form(system, full_system, dipole, cavity):
    # Eliminated: the oracle's float rows and the propagator's A and y*.
    # Full system: the master equation's Heisenberg equations on a product
    # of a dipole state and a coherent cavity state.
    drive, params = system
    if full_system:
        y = np.array(dipole + cavity)
        want = np.array(_ehrenfest_reference(drive, params)(0.0, y))
        alpha = complex(*cavity)
        coherent = np.array([alpha ** k / math.sqrt(math.factorial(k))
                             for k in range(FOCK_MAX)])
        # An infinite slowest rate passes the rounding check.
        system = dynamics._master(drive, params,
                                  BlochState(complex(*dipole[:2]), dipole[2]),
                                  coherent, math.inf)
        d_sigma, d_s_z, d_a, _ = system.read @ (system.m @ system.y0)
        got = np.array([d_sigma.real, d_sigma.imag, d_s_z.real,
                        d_a.real, d_a.imag])
        scale = max(np.max(np.abs(want)), np.abs(system.m).max())
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        return
    y = np.array(dipole)
    ref = _eliminated_rhs_reference(drive, params)
    got, want = (np.array(_eliminated_rhs(drive, params)(0.0, y)),
                 np.array(ref(0.0, y)))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    a, fixed, _ = dynamics._bloch(drive, params)
    b = np.array(ref(0.0, np.zeros(3)))
    for column, unit in zip(a.T, np.eye(3)):
        change = np.array(ref(0.0, unit)) - b
        assert np.max(np.abs(column - change)) <= 1e-14 * np.max(np.abs(a))
    norm = np.abs(a).sum(axis=0).max()
    assert np.max(np.abs(ref(0.0, fixed))) <= 1e-13 * norm


@settings(max_examples=100, deadline=None)
@given(system=driven_systems())
def test_eliminated_trajectories_stay_in_the_bloch_ball(system):
    drive, params = system
    traj = integrate(drive, params, BlochState.ground(), 20.0, samples=201)
    assert np.max(np.abs(traj.s) ** 2 + traj.s_z ** 2) <= 0.25 + 1e-9


# ---------------------------------------------------------------------------
# Sampling

def test_integrate_takes_thousands_of_steps_between_two_samples():
    # Strongly driven and detuned: one exp(20 A) and a thousand products of
    # exp(0.02 A) land on the same state.
    p = make_params(1.0, 500.0, delta=150.0)
    drive = DriveField.from_power(2.7, 50.0 * critical_power(2.7, p))
    two = integrate(drive, p, BlochState.ground(), 20.0, samples=2)
    dense = integrate(drive, p, BlochState.ground(), 20.0, samples=1001)
    assert two.times.tolist() == [0.0, 20.0]
    assert abs(two.final_state.s - dense.final_state.s) < 1e-8
    assert abs(two.final_state.s_z - dense.final_state.s_z) < 1e-8
    # 10001 samples are read off in blocks of 4096.
    finer = integrate(drive, p, BlochState.ground(), 20.0, samples=10001)
    assert np.max(np.abs(finer.s[::10] - dense.s)) < 1e-8
    assert np.max(np.abs(finer.s_z[::10] - dense.s_z)) < 1e-8


def test_explicit_sample_times():
    drive = DriveField.from_power(0.3, 0.1)
    init = BlochState(0.1j, -0.4)
    traj = integrate(drive, IDEAL, init, 4.0, samples=[0.0, 1.5, 4.0])
    assert traj.times.tolist() == [0.0, 1.5, 4.0]
    assert traj.state_at(0) == init
    later = integrate(drive, IDEAL, init, 4.0, samples=[1.5, 4.0])
    assert abs(later.final_state.s - traj.final_state.s) < 1e-10


@pytest.mark.parametrize("times", [
    [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 1.0], [0.0, 10.5],
    [0.0, math.nan], [0.0, math.inf], [], [[0.0, 1.0]]])
def test_integrate_rejects_bad_sample_times(times):
    with pytest.raises(DomainError, match="samples"):
        integrate(NO_DRIVE, IDEAL, BlochState.ground(), 10.0, samples=times)


# ---------------------------------------------------------------------------
# Doubling against the per-sample loop it replaced

def _loop_states(system, steps):
    """The per-sample loop: one exp(M h) per distinct step h and one
    matrix-vector product per sample; (s, s_z, <a>, top population)."""
    propagators, z, rows = {}, system.y0 - system.fixed, []
    for h in steps.tolist():
        if h:
            if h not in propagators:
                propagators[h] = dynamics._expm(system.m, h, system.sink)[0]
            z = propagators[h] @ z
        rows.append(z)
    return _observe(system, np.array(rows) + system.fixed)


def _eliminated_system(drive, params, initial):
    a, fixed, _ = dynamics._bloch(drive, params)
    read = np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0], [0.0] * 3, [0.0] * 3])
    y0 = np.array([initial.s.real, initial.s.imag, initial.s_z])
    return dynamics._System(a, fixed, y0, 0.0, read, None)


def _loop_settle(drive, params, tol=1e-9):
    """`settle` of the eliminated equations by the per-sample loop over all
    201 windows: (state, time, windows) at the first window whose change
    is below tol."""
    window = SETTLE_WINDOW / params.gamma
    steps = np.full(201, window)
    steps[0] = 0.0
    s, s_z, _, _ = _loop_states(
        _eliminated_system(drive, params, BlochState.ground()), steps)
    below = np.flatnonzero(
        np.max(np.abs(np.diff([s.real, s.imag, s_z])), axis=0) < tol)
    if not below.size:
        raise NoConvergence(f"still changing after {steps.sum():g}")
    k = int(below[0]) + 1
    return BlochState(complex(s[k]), float(s_z[k])), k * window, k


def _uniform_steps(duration, samples):
    steps = np.full(samples, duration / (samples - 1))
    steps[0] = 0.0
    return steps


# Explicit times: a run of 39 equal steps (multiples of 5/8 are exact),
# then steps that all differ.
_EXPLICIT = np.concatenate([
    0.625 * np.arange(40.0),
    np.sort(np.random.default_rng(7).uniform(24.4, 40.0, 200))])

# Strongly driven and detuned; a leaky, detuned cavity.
_STRONG = make_params(1.0, 500.0, delta=150.0)
_LEAKY = params_from_ratios(1.0, 500.0, q_ratio=0.95, f=20.0, delta=30.0)


@pytest.mark.parametrize("params, x, dw, duration, samples, fock_levels", [
    (_STRONG, 50.0, 2.7, 20.0, 1001, None),
    (_STRONG, 50.0, 2.7, 20.0, 10001, None),  # 4096-row blocks
    (_STRONG, 50.0, 2.7, 40.0, _EXPLICIT, None),
    (_LEAKY, 0.3, -1.0, 40.0, 1001, None),
    (_LEAKY, 1e-3, 0.5, 20.0, 1001, 3),
    (_LEAKY, 0.3, 0.5, 20.0, 1001, 4),
    (_LEAKY, 3.0, 0.0, 20.0, 1001, 5),
    (_LEAKY, 3.0, 0.0, 20.0, 10001, 5),
    (_LEAKY, 0.3, 0.5, 40.0, _EXPLICIT, 4),
], ids=["eliminated-1001", "eliminated-10001", "eliminated-explicit",
        "eliminated-leaky", "fock3-1001", "fock4-1001", "fock5-1001",
        "fock5-10001", "fock4-explicit"])
def test_doubling_matches_the_per_sample_loop(params, x, dw, duration,
                                              samples, fock_levels):
    drive = DriveField.from_power(dw, x * critical_power(dw, params))
    traj = integrate(drive, params, BlochState.ground(), duration,
                     samples=samples, full_system=fock_levels is not None)
    assert traj.fock_levels == fock_levels
    if fock_levels:
        system = _master_system(drive, params, fock_levels)
    else:
        system = _eliminated_system(drive, params, BlochState.ground())
    steps = (_uniform_steps(duration, samples) if np.isscalar(samples)
             else np.diff(samples, prepend=0.0))
    want_s, want_s_z, want_a, _ = _loop_states(system, steps)
    assert traj.s.shape == want_s.shape == (steps.size,)
    assert np.max(np.abs(traj.s - want_s)) <= 1e-13
    assert np.max(np.abs(traj.s_z - want_s_z)) <= 1e-13
    if fock_levels:
        assert np.max(np.abs(traj.a - want_a)) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(system=driven_systems())
def test_settle_matches_the_per_sample_loop(system):
    # The same windows, and the same state to rounding, or the same error.
    drive, params = system

    def outcome(solve):
        try:
            return solve(drive, params)
        except (NoConvergence, UnsupportedRegime) as err:
            return type(err)

    got, want = outcome(settle), outcome(_loop_settle)
    if isinstance(want, type):
        assert got is want
        return
    state, time, windows = want
    assert (got.windows, got.time) == (windows, time)
    assert abs(got.state.s - state.s) <= 1e-14
    assert abs(got.state.s_z - state.s_z) <= 1e-14


def _settle_on_every_window(drive, params, tol, *, full_system):
    """`settle` by its rule before it stopped early: the states at all 201
    window boundaries, on the Fock cutoff that holds at every one."""
    window = SETTLE_WINDOW / params.gamma
    traj = integrate(drive, params, BlochState.ground(), 200 * window,
                     samples=201, full_system=full_system)
    assert traj.times[1] == window
    change = np.max(np.abs(np.diff([traj.s.real, traj.s.imag, traj.s_z])),
                    axis=0)
    k = 1 + int(np.argmax(~(change >= tol)))
    if not change[k - 1] < tol:
        raise NoConvergence(f"still changing after {traj.times[-1]:g}")
    return SettleResult(traj.state_at(k), k * window, k, traj.squarings,
                        traj.fock_levels)


@settings(max_examples=200, deadline=None)
@given(system=driven_systems(), full_system=st.booleans(),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_settle_stops_early_with_the_result_of_every_window(
        system, full_system, tol):
    # Windows, time, squarings, Fock states and the state bit for bit, or
    # the same error.
    drive, params = system

    def outcome(solve):
        try:
            return solve(drive, params, tol, full_system=full_system)
        except (NoConvergence, StepCollapse, UnsupportedRegime) as err:
            return type(err)

    assert repr(outcome(settle)) == repr(outcome(_settle_on_every_window))


_SLOW = params_from_ratios(1.0, 500.0, q_ratio=0.1, f=math.inf)
_SLOWER = params_from_ratios(1.0, 500.0, q_ratio=0.05, f=math.inf)
_GLACIAL = params_from_ratios(1.0, 500.0, q_ratio=0.02, f=math.inf)


@pytest.mark.parametrize("params, tol, full_system, windows", [
    (IDEAL, 1e-9, False, 8), (IDEAL, 1e-9, True, 8), (_SLOW, 1e-4, False, 27),
    (_SLOW, 1e-9, False, 60), (_SLOWER, 1e-9, False, 118),
    (_SLOWER, 1e-12, False, 161), (_GLACIAL, 1e-9, False, None)],
    ids=["ideal", "ideal-full-system", "slow-loose", "slow", "slower",
         "slower-tight", "glacial"])
def test_settle_fills_no_doubling_past_its_settled_window(
        monkeypatch, params, tol, full_system, windows):
    # settle checks once rows 0-16 are filled, then after each doubling
    # (rows 0-32, 0-64, 0-128, 0-200); counted through the shared fill, no
    # cutoff fills a row past the first level that holds the answer.
    fill, ends = dynamics._fill, []

    def counting_fill(*args):
        for end in fill(*args):
            ends.append(end)
            yield end

    monkeypatch.setattr(dynamics, "_fill", counting_fill)
    drive = DriveField.from_power(0.3, 2.0 * critical_power(0.3, params))
    if windows is None:
        with pytest.raises(NoConvergence):
            settle(drive, params, tol)
        assert max(ends) == 201
        return
    res = settle(drive, params, tol, full_system=full_system)
    assert res.windows == windows
    assert max(ends) == min(end for end in (17, 33, 65, 129, 201)
                            if end > windows)


# ---------------------------------------------------------------------------
# The steady-state kernel against oracles it shares no code with

def test_steady_state_matches_settle_beyond_the_resonant_closed_forms():
    # Leaky, dephased and detuned devices: the regimes the paper's closed
    # forms do not cover.
    rng = np.random.default_rng(20261018)
    for _ in range(20):
        q = rng.uniform(0.3, 1.0)
        f = 10.0 ** rng.uniform(math.log10(0.5), 2.0)
        p = dataclasses.replace(
            params_from_ratios(1.0, 500.0, q, f,
                               delta=rng.choice([0.0, -250.0, 150.0])),
            gamma_star=rng.uniform(0.0, 1.0))
        dw = rng.uniform(-5.0, 5.0)
        x = 10.0 ** rng.uniform(-2.0, 2.0)
        drive = DriveField.from_power(dw, x * critical_power(dw, p))
        res = settle(drive, p, 1e-9)
        ref = steady_state(drive, p)
        assert abs(res.state.s.real - ref.s.real) < 1e-6
        assert abs(res.state.s.imag - ref.s.imag) < 1e-6
        assert abs(res.state.s_z - ref.s_z) < 1e-6


def _affine_fixed_point(drive, params):
    """-A^-1 b of the _eliminated_rhs docstring, by a 3x3 linear solve."""
    q = params.q_ratio
    t0p = 1.0 / (1.0 + 1j * q * (drive.delta_omega + params.delta)
                 / params.kappa)
    d = (1j * drive.delta_omega + 0.5 * params.gamma * q * t0p
         + 0.5 * params.gamma_at + params.gamma_star)
    c = math.sqrt(0.5 * params.gamma) * q * drive.b_in * t0p
    relax = params.gamma * q * t0p.real + params.gamma_at
    a = np.array([[-d.real, d.imag, 2.0 * c.imag],
                  [-d.imag, -d.real, -2.0 * c.real],
                  [-2.0 * c.imag, 2.0 * c.real, -relax]])
    return np.linalg.solve(a, [0.0, 0.0, 0.5 * relax])


@settings(max_examples=300, deadline=None)
@given(system=driven_systems())
def test_steady_state_is_the_affine_fixed_point(system):
    drive, params = system
    want = _affine_fixed_point(drive, params)
    st = steady_state(drive, params)
    got = np.array([st.s.real, st.s.imag, st.s_z])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=300, deadline=None)
@given(system=driven_systems())
def test_kernel_matches_the_paper_formulas(system):
    # phi' holds without dephasing, phi and the susceptibility for the
    # ideal device.
    drive, params = system
    dw = drive.delta_omega
    leaky = dataclasses.replace(params, gamma_star=0.0)
    assert critical_power(dw, leaky) == pytest.approx(
        0.25 * leaky.gamma * phi_leaky(dw, leaky), rel=1e-12)
    ideal = make_params(params.gamma, params.kappa, delta=params.delta)
    p_c = critical_power(dw, ideal)
    assert p_c == pytest.approx(0.25 * ideal.gamma * phi_ideal(dw, ideal),
                                rel=1e-12)
    s = (math.sqrt(2.0 / ideal.gamma) * drive.b_in
         * susceptibility(dw, drive.p_in / p_c, ideal))
    assert abs(steady_state(drive, ideal).s - s) <= 1e-12 * abs(s)


def _scaled(drive, params, k):
    """The same device and drive with every rate and the power times 10^k."""
    scale = 10.0 ** k
    rates = {name: getattr(params, name) * scale
             for name in ("gamma", "kappa", "delta", "gamma_at", "gamma_cav",
                          "gamma_star")}
    return (DriveField.from_power(drive.delta_omega * scale,
                                  drive.p_in * scale),
            dataclasses.replace(params, **rates))


@settings(max_examples=300, deadline=None)
@given(system=driven_systems(), k=st.integers(-290, 290))
def test_kernel_invariants(system, k):
    drive, params = system
    st_ = steady_state(drive, params)
    assert abs(st_.s) ** 2 + st_.s_z ** 2 <= 0.25 + 1e-15
    out = scatter_nonlinear(drive, params)
    assert out.cap_t >= 0.0 and out.cap_r >= 0.0
    assert out.cap_t + out.cap_r <= 1.0 + 1e-12
    # Only rate ratios enter: scaling every rate and the power by 10^k
    # leaves t, r and s_z and scales P_c.
    big_drive, big = _scaled(drive, params, k)
    big_out = scatter_nonlinear(big_drive, big)
    assert abs(big_out.t - out.t) <= 1e-12
    assert abs(big_out.r - out.r) <= 1e-12
    assert abs(steady_state(big_drive, big).s_z - st_.s_z) <= 1e-12
    assert critical_power(big_drive.delta_omega, big) == pytest.approx(
        10.0 ** k * critical_power(drive.delta_omega, params), rel=1e-12)

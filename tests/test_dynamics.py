import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from onedatom import (BlochState, DomainError, DriveField, InvalidInitial,
                      NoConvergence, NonFiniteInput, NonPositiveRate,
                      StepCollapse, UnsupportedRegime, critical_power,
                      make_params,
                      output_amplitudes, params_from_ratios, phi_ideal,
                      phi_leaky, scatter_nonlinear, steady_state,
                      susceptibility, transmission_leaky)
from onedatom import dynamics
from onedatom.linear import t0_prime
from onedatom.dynamics import (TRAJECTORY_COLUMNS, SettleResult, Trajectory,
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


def test_settle_no_convergence_for_glacial_system():
    # Q/Q0 = 0.01 slows every rate far below the time budget; the residual
    # integrator noise then never drops under an impossible tolerance.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.01, f=math.inf)
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(NoConvergence):
        settle(drive, p, 1e-12, rtol=1e-6, atol=1e-9)


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
    # gamma/2 exactly, the full system at gamma/2 (1 + gamma/(2 kappa)).
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
    # In the weak-drive regime the mean-field full system and the
    # eliminated equations describe the same physics; their settled
    # transmissions must agree with the linear closed form.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=10.0)
    drive = DriveField.from_power(0.0, 1e-6 * critical_power(0.0, p))
    res = settle(drive, p, 1e-10, full_system=True)
    b_t, _ = output_amplitudes(res.state.s, drive, p)
    lin = transmission_leaky(0.0, p)
    assert abs(b_t / drive.b_in - lin.t) < 1e-5


@pytest.mark.parametrize("delta, dw, x, full_system", [
    (150.0, 2.7, 50.0, False),   # strongly driven, detuned: Rabi-limited
    (0.0, 0.5, 1e-3, True),      # weakly driven, stiff (kappa/gamma = 500)
])
def test_trajectory_matches_rk45_reference(delta, dw, x, full_system):
    # scipy's explicit RK45 on the same equations and tolerances is an
    # integrator independent of the LSODA path under test.
    p = make_params(1.0, 500.0, delta=delta)
    drive = DriveField.from_power(dw, x * critical_power(dw, p))
    traj = integrate(drive, p, BlochState.ground(), 20.0, samples=1001,
                     full_system=full_system)
    rhs, y0 = dynamics._system(drive, p, BlochState.ground(), full_system)
    ref = solve_ivp(rhs, (0.0, 20.0), y0, method="RK45", rtol=1e-10,
                    atol=1e-12, t_eval=np.linspace(0.0, 20.0, 1001))
    assert ref.success
    got = [traj.s.real, traj.s.imag, traj.s_z]
    if full_system:
        got += [traj.a.real, traj.a.imag]
    assert np.max(np.abs(np.array(got) - ref.y)) <= 1e-8


def test_settle_reads_the_trajectory_at_its_window_boundary():
    # settle reads its state from one solver run.  A slow system and a loose
    # tol stop it while the state still moves, so integrating from the
    # ground state over the reported time must land on the same state only
    # if settle read it at the window boundary itself.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.1, f=math.inf)
    drive = DriveField.from_power(0.3, 2.0 * critical_power(0.3, p))
    res = settle(drive, p, 1e-4)
    assert res.windows > 2 and res.time == res.windows * 5.0
    traj = integrate(drive, p, BlochState.ground(), res.time, samples=2,
                     atol=1e-13)
    assert abs(traj.final_state.s - res.state.s) < 1e-8
    assert abs(traj.final_state.s_z - res.state.s_z) < 1e-8


def test_solver_reports_rhs_evaluations():
    drive = DriveField.from_power(0.0, 0.25)
    traj = integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=11)
    res = settle(drive, IDEAL, 1e-9)
    assert isinstance(traj.nfev, int) and traj.nfev > 0
    assert isinstance(res.nfev, int) and res.nfev > 0
    # Counts are deterministic for a fixed input.
    assert integrate(drive, IDEAL, BlochState.ground(), 10.0,
                     samples=11).nfev == traj.nfev
    assert settle(drive, IDEAL, 1e-9).nfev == res.nfev
    # Results built by hand carry no count.
    assert SettleResult(BlochState.ground(), 0.0, 0).nfev == 0
    assert Trajectory(traj.times, traj.s, traj.s_z, traj.b_t,
                      traj.b_r).nfev == 0


@pytest.mark.parametrize("samples", [0, 1, -2, math.nan])
def test_integrate_rejects_fewer_than_two_samples(samples):
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(NonPositiveRate, match="samples"):
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


def _nan_after(monkeypatch, factory_name, t_nan):
    """Make the named right-hand-side factory return NaN after t_nan."""
    factory = getattr(dynamics, factory_name)

    def nan_factory(*args):
        rhs = factory(*args)
        return lambda t, y: (math.nan,) * len(y) if t > t_nan else rhs(t, y)

    monkeypatch.setattr(dynamics, factory_name, nan_factory)


@pytest.mark.parametrize("factory_name, full_system",
                         [("_eliminated_rhs", False), ("_full_rhs", True)])
def test_integrate_raises_on_a_non_finite_state(monkeypatch, factory_name,
                                                full_system):
    _nan_after(monkeypatch, factory_name, 1.0)
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(StepCollapse, match="non-finite"):
        integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=11,
                  full_system=full_system)


def test_settle_raises_at_the_first_non_finite_window(monkeypatch):
    # The first window boundary after the NaN is t = 5/gamma; without the
    # check settle would run to 1000/gamma and raise NoConvergence.
    _nan_after(monkeypatch, "_eliminated_rhs", 1.0)
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(StepCollapse, match=r"non-finite state by t=5\b"):
        settle(drive, IDEAL, 1e-9)


# ---------------------------------------------------------------------------
# The float right-hand sides against the paper's complex-form equations

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


def _full_rhs_reference(drive, params):
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
       cavity=st.tuples(*[st.floats(-10.0, 10.0)] * 2))
def test_float_rhs_matches_complex_form(system, full_system, dipole, cavity):
    drive, params = system
    if full_system:
        y = np.array(dipole + cavity)
        rhs = dynamics._full_rhs(drive, params)
        ref = _full_rhs_reference(drive, params)
    else:
        y = np.array(dipole)
        rhs = dynamics._eliminated_rhs(drive, params)
        ref = _eliminated_rhs_reference(drive, params)
    got, want = np.array(rhs(0.0, y)), np.array(ref(0.0, y))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(system=driven_systems())
def test_eliminated_trajectories_stay_in_the_bloch_ball(system):
    drive, params = system
    traj = integrate(drive, params, BlochState.ground(), 20.0, samples=201)
    assert np.max(np.abs(traj.s) ** 2 + traj.s_z ** 2) <= 0.25 + 1e-9


# ---------------------------------------------------------------------------
# The LSODA driver

@pytest.mark.parametrize("factory_name, full_system",
                         [("_eliminated_rhs", False), ("_full_rhs", True)])
def test_nfev_counts_every_rhs_call(monkeypatch, factory_name, full_system):
    calls = []
    factory = getattr(dynamics, factory_name)

    def spy_factory(*args):
        rhs = factory(*args)

        def spy(t, y):
            calls.append(t)
            return rhs(t, y)

        return spy

    monkeypatch.setattr(dynamics, factory_name, spy_factory)
    drive = DriveField.from_power(0.3, 2.0)
    traj = integrate(drive, IDEAL, BlochState.ground(), 10.0, samples=11,
                     full_system=full_system)
    assert traj.nfev == len(calls) > 0
    calls.clear()
    res = settle(drive, IDEAL, 1e-9, full_system=full_system)
    assert res.nfev == len(calls) > 0


def test_integrate_takes_thousands_of_steps_between_two_samples():
    # Strongly driven and detuned, 20/gamma takes LSODA far more than the
    # 500 steps per call that scipy allows by default.
    p = make_params(1.0, 500.0, delta=150.0)
    drive = DriveField.from_power(2.7, 50.0 * critical_power(2.7, p))
    two = integrate(drive, p, BlochState.ground(), 20.0, samples=2)
    dense = integrate(drive, p, BlochState.ground(), 20.0, samples=1001)
    assert two.times.tolist() == [0.0, 20.0]
    assert abs(two.final_state.s - dense.final_state.s) < 1e-8
    assert abs(two.final_state.s_z - dense.final_state.s_z) < 1e-8


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


@pytest.mark.parametrize("kwargs, error", [
    (dict(rtol=math.nan), NonFiniteInput),
    (dict(rtol=math.inf), NonFiniteInput),
    (dict(atol=math.nan), NonFiniteInput),
    (dict(rtol=-1.0), NonPositiveRate),
    (dict(rtol=0.0), NonPositiveRate),
    (dict(rtol=1e-20), NonPositiveRate),
    (dict(atol=0.0), NonPositiveRate),
    (dict(atol=-1e-12), NonPositiveRate),
])
def test_integrate_and_settle_reject_bad_tolerances(kwargs, error):
    (name,) = kwargs
    drive = DriveField.from_power(0.0, 0.25)
    with pytest.raises(error, match=name):
        integrate(drive, IDEAL, BlochState.ground(), 1.0, samples=3, **kwargs)
    with pytest.raises(error, match=name):
        settle(drive, IDEAL, **kwargs)


def test_smallest_relative_tolerance_is_accepted():
    drive = DriveField.from_power(0.0, 0.25)
    traj = integrate(drive, IDEAL, BlochState.ground(), 1.0, samples=3,
                     rtol=dynamics.RTOL_MIN)
    assert np.isfinite(traj.s_z).all()


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

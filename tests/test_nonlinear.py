import ast
import math
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from onedatom import (DriveField, LeakyNotSupported, NonFiniteInput,
                      NonPositiveRate, SaturationCurve, SaturationCurvePoint,
                      UnsupportedRegime, critical_power, make_params,
                      output_amplitudes, params_from_ratios,
                      phi_ideal, phi_leaky, resonance_extrema,
                      saturation_curve, saturation_point, scatter_nonlinear,
                      settle, steady_state, susceptibility,
                      transmission_leaky)

IDEAL = make_params(gamma=1.0, kappa=500.0)


def test_critical_power_resonant_exact():
    assert critical_power(0.0, IDEAL) == 0.25 * IDEAL.gamma


def test_critical_power_leaky_resonant_exact():
    for f in (4.0, 10.0, 2.6):
        p = params_from_ratios(1.0, 500.0, q_ratio=1.0, f=f)
        assert critical_power(0.0, p) == 0.25 * (1.0 + 1.0 / f) ** 2


def test_phi_leaky_reduces_to_phi_ideal():
    # Exact-limit parameters: 1/f = 0 and Q = Q0.
    for delta in (0.0, -250.0, 100.0):
        p = make_params(1.0, 500.0, delta=delta)
        for dw in np.linspace(-5.0, 5.0, 100):
            assert abs(phi_leaky(dw, p) - phi_ideal(dw, p)) < 1e-9


def test_phi_leaky_approaches_ideal_monotonically():
    dw = 0.7
    errs = [abs(phi_leaky(dw, params_from_ratios(1.0, 500.0, 1.0, f))
                - phi_ideal(dw, IDEAL)) for f in (10.0, 100.0, 1000.0)]
    assert errs[0] > errs[1] > errs[2]


def test_phi_positive_everywhere():
    rng = np.random.default_rng(3)
    p = params_from_ratios(1.0, 500.0, 0.7, 3.0, delta=-100.0)
    for dw in rng.uniform(-2000, 2000, 200):
        assert phi_leaky(dw, p) > 0.0
        assert phi_ideal(dw, p) > 0.0


def test_critical_power_of_a_dephased_leaky_device():
    # On resonance P_c = (gamma + gamma_at)(gamma + gamma_at + 2 gamma_star)
    # / (4 gamma), and the ODE oracle driven there settles at s_z = -1/4.
    p = make_params(1.0, 500.0, gamma_at=0.1, gamma_star=0.05)
    p_c = critical_power(0.0, p)
    assert p_c == pytest.approx(1.1 * 1.2 / 4.0, rel=1e-14)
    res = settle(DriveField.from_power(0.0, p_c), p, 1e-10)
    assert res.state.s_z == pytest.approx(-0.25, abs=1e-6)


def test_steady_state_half_saturated():
    drive = DriveField.from_power(0.0, 0.25)   # x = 1
    st = steady_state(drive, IDEAL)
    assert st.s_z == pytest.approx(-0.25, rel=1e-14)


def test_steady_state_unexcited():
    st = steady_state(DriveField(0.0, 0.0), IDEAL)
    assert st.s == 0.0
    assert st.s_z == -0.5


def test_steady_state_leaky_resonant():
    p = params_from_ratios(1.0, 500.0, q_ratio=1.0, f=10.0)
    drive = DriveField.from_power(0.0, critical_power(0.0, p))
    st = steady_state(drive, p)
    assert st.s_z == pytest.approx(-0.25, rel=1e-12)


def test_steady_state_leaky_off_resonance_matches_settle():
    for drive, p in (
            (DriveField.from_power(1.0, 0.1),
             params_from_ratios(1.0, 500.0, q_ratio=0.9, f=10.0)),
            (DriveField.from_power(0.0, 0.1),
             make_params(1.0, 500.0, gamma_star=0.1))):
        st = steady_state(drive, p)
        ref = settle(drive, p, 1e-10).state
        assert abs(st.s - ref.s) < 1e-6
        assert abs(st.s_z - ref.s_z) < 1e-6


def test_saturation_point_bookkeeping():
    p = params_from_ratios(1.0, 500.0, q_ratio=1.0, f=10.0)
    drive = DriveField.from_power(0.0, 0.25)
    sp = saturation_point(drive, p)
    assert sp.x == pytest.approx(1.0)
    assert sp.x_eff == pytest.approx(drive.p_in / sp.p_c, rel=1e-15)
    assert sp.x_eff == pytest.approx(p.beta ** 2, rel=1e-12)


def test_susceptibility_resonant():
    assert susceptibility(0.0, 0.0, IDEAL) == 1j
    a = susceptibility(0.0, 1.0, IDEAL)
    assert a.real == 0.0
    assert a.imag == pytest.approx(0.5)


def test_susceptibility_symmetry_scan():
    for x in (0.0, 1.0, 10.0):
        for dw in (0.2, 1.0, 3.0):
            ap = susceptibility(+dw, x, IDEAL)
            am = susceptibility(-dw, x, IDEAL)
            assert abs(ap.real + am.real) < 1e-12
            assert abs(ap.imag - am.imag) < 1e-12


def test_susceptibility_resonant_rescaling():
    a0 = susceptibility(0.0, 0.0, IDEAL)
    for x in (0.3, 1.0, 10.0):
        assert susceptibility(0.0, x, IDEAL) == pytest.approx(a0 / (1.0 + x))


def test_susceptibility_rejects_leaky():
    with pytest.raises(LeakyNotSupported):
        susceptibility(0.0, 0.0, make_params(1.0, 500.0, gamma_cav=1.0))


def test_scatter_nonlinear_noise_maximal_at_unit_saturation():
    out = scatter_nonlinear(DriveField.from_power(0.0, 0.25), IDEAL)
    assert out.p_t == pytest.approx(0.25 * out.p_in, rel=1e-12)
    assert out.p_r == pytest.approx(0.25 * out.p_in, rel=1e-12)
    assert out.p_noise == pytest.approx(0.5 * out.p_in, rel=1e-12)


def test_scatter_nonlinear_energy_identity():
    for x in np.logspace(-4, 4, 60):
        out = scatter_nonlinear(DriveField.from_power(0.0, 0.25 * x), IDEAL)
        frac_t = x ** 2 / (1.0 + x) ** 2
        frac_r = 1.0 / (1.0 + x) ** 2
        assert abs(out.p_t / out.p_in - frac_t) < 1e-12
        assert abs(out.p_r / out.p_in - frac_r) < 1e-12
        assert abs(out.p_noise / out.p_in - 2.0 * x / (1.0 + x) ** 2) < 1e-12
        assert abs(out.p_t + out.p_r + out.p_noise - out.p_in) < 1e-12


def test_scatter_nonlinear_leaky_limits():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.8, f=5.0)
    ext = resonance_extrema(p)
    lo = scatter_nonlinear(DriveField.from_power(0.0, 0.0), p)
    assert lo.cap_t == pytest.approx(ext.t_min, rel=1e-12)
    assert lo.cap_r == pytest.approx(ext.r_max, rel=1e-12)
    hi = scatter_nonlinear(DriveField.from_power(0.0, 0.25 * 1e12), p)
    assert hi.cap_t == pytest.approx(ext.t_max, abs=1e-9)


def test_scatter_nonlinear_off_resonance_matches_susceptibility():
    # Ideal device: s = sqrt(2/gamma) alpha b_in at x = P_in/((gamma/4) phi).
    for dw, p in ((1.0, IDEAL), (0.0, make_params(1.0, 500.0, delta=5.0)),
                  (-0.7, make_params(1.0, 500.0, delta=-250.0))):
        drive = DriveField.from_power(dw, 0.1)
        x = drive.p_in / (0.25 * p.gamma * phi_ideal(dw, p))
        s = math.sqrt(2.0 / p.gamma) * susceptibility(dw, x, p) * drive.b_in
        b_t, b_r = output_amplitudes(s, drive, p)
        out = scatter_nonlinear(drive, p)
        assert abs(out.t - b_t / drive.b_in) <= 1e-12 * abs(out.t)
        assert abs(out.r - b_r / drive.b_in) <= 1e-12 * abs(out.r)


def test_scatter_nonlinear_resonant_amplitudes():
    out = scatter_nonlinear(DriveField.from_power(0.0, 0.25 * 3.0), IDEAL)
    assert abs(out.t - (-0.75)) < 1e-15
    assert abs(out.r - 0.25) < 1e-15


def test_zero_power_scatter_is_the_paper_linear_spectrum():
    # t = (Q/Q0) t0' [-1 + t0'/(t0' + 1/f + (2i dw/gamma)(Q0/Q))], r = 1 + t,
    # for a leaky, dephased, detuned device at any detuning.
    p = make_params(1.0, 500.0, delta=30.0, gamma_at=0.1, gamma_cav=40.0,
                    gamma_star=0.2)
    q = p.q_ratio
    for dw in (-3.0, 0.0, 0.4, 2.0):
        t0p = 1.0 / (1.0 + 1j * q * (dw + p.delta) / p.kappa)
        t = q * t0p * (-1.0 + t0p / (t0p + p.inv_f + 2j * dw / (q * p.gamma)))
        out = scatter_nonlinear(DriveField(dw, 0.0), p)
        assert abs(out.t - t) <= 1e-12 * abs(t)
        assert abs(out.r - (1.0 + t)) <= 1e-12 * abs(1.0 + t)


def test_saturation_curve_direct_value():
    rows = saturation_curve(IDEAL, [0.0, 1.0, 10.0])
    assert rows[2].cap_t == pytest.approx((10.0 / 11.0) ** 2, rel=1e-12)
    assert rows[0].cap_t == 0.0
    assert rows[1].caution and not rows[0].caution


def test_saturation_curve_monotone():
    xs = np.logspace(-3, 4, 200)
    for params in (IDEAL, params_from_ratios(1.0, 500.0, 0.8, 3.0)):
        rows = saturation_curve(params, xs)
        ts = [r.cap_t for r in rows]
        rs = [r.cap_r for r in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(b < a for a, b in zip(rs, rs[1:]))


def test_saturation_curve_perfect_beta_scaling():
    # With beta = 1 the leaky curve is the ideal curve times (Q/Q0)^2.
    xs = np.logspace(-3, 3, 50)
    leaky = saturation_curve(params_from_ratios(1.0, 500.0, 0.8, math.inf), xs)
    ideal = saturation_curve(IDEAL, xs)
    for li, ii in zip(leaky, ideal):
        assert li.cap_t == pytest.approx(0.64 * ii.cap_t, rel=1e-12, abs=1e-300)


def test_saturation_curve_midpoint_crossing():
    # Root-find the x where the ideal T crosses half of (T_max - T_min);
    # analytically this is x = 1 + sqrt(2), near 2.4.
    x_mid = brentq(lambda x: x ** 2 / (1.0 + x) ** 2 - 0.5, 1.0, 10.0,
                   xtol=1e-12)
    assert 2.3 < x_mid < 2.5
    assert x_mid == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-9)


def test_zero_power_scatter_matches_linear_module():
    for params in (IDEAL,
                   params_from_ratios(1.0, 500.0, 0.8, 3.0),
                   params_from_ratios(1.0, 500.0, 0.96, 26.0)):
        nl = scatter_nonlinear(DriveField.from_power(0.0, 0.0), params)
        lin = transmission_leaky(0.0, params)
        assert abs(nl.t - lin.t) < 1e-10
        assert abs(nl.r - lin.r) < 1e-10


def test_scatter_nonlinear_noise_never_negative():
    for dw in np.linspace(-4.0, 4.0, 17):
        for x in (0.01, 1.0, 50.0):
            drive = DriveField.from_power(dw, 0.25 * x)
            out = scatter_nonlinear(drive, IDEAL)
            assert out.p_noise >= -1e-12 * out.p_in
            assert out.p_t + out.p_r <= out.p_in * (1.0 + 1e-12)


def test_saturation_curve_grid_validation():
    with pytest.raises(UnsupportedRegime):
        saturation_curve(IDEAL, [1.0, 0.5])
    with pytest.raises(UnsupportedRegime):
        saturation_curve(IDEAL, [-1.0, 0.5])


def test_saturation_curve_columns_match_rows():
    xs = np.logspace(-3, 3, 31)
    for params in (IDEAL, params_from_ratios(1.0, 500.0, 0.8, 3.0)):
        curve = saturation_curve(params, xs)
        assert len(curve) == 31 and curve.caution.dtype == bool
        for i, row in enumerate(curve):
            assert row.cap_t == curve.cap_t[i]
            assert row.caution == curve.caution[i]
        assert curve[-1] == list(curve)[30]
        assert curve.x.tolist() == xs.tolist()
    # A sweep and its rows are one record: a row is true and has no
    # length, a sweep is true when it holds a row.
    assert SaturationCurve is SaturationCurvePoint
    assert type(curve[0]) is type(curve) is SaturationCurve
    assert curve and curve[0] and not saturation_curve(IDEAL, [])
    with pytest.raises(TypeError):
        len(curve[0])
    # A slice is the sweep of its rows (was a ValueError from `.item()`).
    part = saturation_curve(IDEAL, [0.0, 1.0, 10.0])[1:3]
    assert type(part) is SaturationCurve and part.x.tolist() == [1.0, 10.0]
    assert list(part) == list(saturation_curve(IDEAL, [1.0, 10.0]))


def test_saturation_curve_agrees_with_scalar_drives():
    xs = np.concatenate(([0.0], np.logspace(-4, 4, 41)))
    for params in (IDEAL, params_from_ratios(1.0, 500.0, 0.8, 3.0)):
        curve = saturation_curve(params, xs)
        for i, x in enumerate(xs):
            out = scatter_nonlinear(DriveField.from_power(0.0, 0.25 * x), params)
            assert curve.cap_t[i] == pytest.approx(out.cap_t, rel=1e-14, abs=1e-300)
            assert curve.cap_r[i] == pytest.approx(out.cap_r, rel=1e-14)


def test_array_drive_matches_scalar_drives():
    p = make_params(1.0, 500.0, delta=-250.0)
    dw = np.linspace(-4.0, 4.0, 33)
    swept = scatter_nonlinear(DriveField.from_power(dw, 0.6), p)
    state = steady_state(DriveField.from_power(dw, 0.6), p)
    assert swept.t.shape == state.s.shape == dw.shape
    for i, d in enumerate(dw):
        drive = DriveField.from_power(d, 0.6)
        one = scatter_nonlinear(drive, p)
        assert abs(swept.t[i] - one.t) <= 1e-15 * max(1.0, abs(one.t))
        assert abs(swept.r[i] - one.r) <= 1e-15 * max(1.0, abs(one.r))
        assert swept.p_noise[i] == pytest.approx(one.p_noise, rel=1e-12,
                                                 abs=1e-16)
        assert abs(state.s[i] - steady_state(drive, p).s) < 1e-15


@pytest.mark.parametrize("complex_amplitudes", [False, True])
def test_large_array_drive_matches_one_point_calls_bit_for_bit(complex_amplitudes):
    # Over 16384 values numpy may reuse a temporary in place and swap the
    # operands of a product; the kernel's entries must not depend on that.
    p = make_params(1.0, 500.0, delta=0.1, gamma_at=3e-4)
    n = 40_000
    dw = np.linspace(-3.0, 3.0, n)
    b_in = np.full(n, math.sqrt(0.125) + 0j)
    if complex_amplitudes:
        rng = np.random.default_rng(7)
        b_in = np.sqrt(rng.exponential(0.5, n)) * np.exp(2j * np.pi * rng.random(n))
    drive = DriveField(dw, b_in)
    swept, state = scatter_nonlinear(drive, p), steady_state(drive, p)
    for i in np.unique(np.linspace(0, n - 1, 413).astype(int)):
        one = DriveField(dw[i:i + 1], b_in[i:i + 1])
        out, st = scatter_nonlinear(one, p), steady_state(one, p)
        for a, b in ((swept.t, out.t), (swept.r, out.r), (swept.p_noise, out.p_noise),
                     (state.s, st.s), (state.s_z, st.s_z)):
            assert a[i].tobytes() == b[0].tobytes(), i


def test_array_drive_validation_names_the_field():
    with pytest.raises(NonFiniteInput, match="delta_omega.*index 2"):
        DriveField.from_power(np.array([0.0, 1.0, np.nan]), 0.1)
    with pytest.raises(NonPositiveRate, match="p_in.*index 1"):
        DriveField.from_power(0.0, np.array([0.1, -0.1]))
    # Mixed detunings and a zero power are values, entry by entry.
    swept = scatter_nonlinear(DriveField.from_power(np.array([0.0, 1.0]), 0.1),
                              IDEAL)
    assert swept.t.tolist() == [
        scatter_nonlinear(DriveField.from_power(dw, 0.1), IDEAL).t
        for dw in (0.0, 1.0)]
    powers = scatter_nonlinear(
        DriveField.from_power(1.0, np.array([0.1, 0.0])), IDEAL)
    assert powers.t[1] == transmission_leaky(1.0, IDEAL).t


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "onedatom"


def test_special_case_formulas_are_not_production_paths():
    # Every steady state, transmission, critical power and resonant extremum
    # comes from the one kernel; the paper's special-case formulas stay as
    # test oracles.
    oracles = {"phi_ideal", "phi_leaky", "resonance_extrema", "susceptibility"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                if name in oracles:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []

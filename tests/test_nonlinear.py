import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from onedatom import (DephasingUnsupported, DriveField, LeakyNotSupported,
                      NonFiniteInput, NonPositiveRate,
                      OffResonanceUnsupported, UnsupportedRegime,
                      critical_power, make_params, params_from_ratios,
                      phi_ideal, phi_leaky, resonance_extrema,
                      saturation_curve, saturation_point, scatter_nonlinear,
                      scatter_steady, steady_state, susceptibility,
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


def test_critical_power_rejects_dephasing_in_leaky_branch():
    p = make_params(1.0, 500.0, gamma_at=0.1, gamma_star=0.05)
    with pytest.raises(DephasingUnsupported):
        critical_power(0.0, p)


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


def test_steady_state_leaky_off_resonance_unsupported():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.9, f=10.0)
    with pytest.raises(UnsupportedRegime):
        steady_state(DriveField.from_power(1.0, 0.1), p)
    with pytest.raises(DephasingUnsupported):
        steady_state(DriveField.from_power(0.0, 0.1),
                     make_params(1.0, 500.0, gamma_star=0.1))


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


def test_scatter_nonlinear_rejects_off_resonance():
    with pytest.raises(OffResonanceUnsupported):
        scatter_nonlinear(DriveField.from_power(1.0, 0.1), IDEAL)
    with pytest.raises(OffResonanceUnsupported):
        scatter_nonlinear(DriveField.from_power(0.0, 0.1),
                          make_params(1.0, 500.0, delta=5.0))


def test_scatter_steady_matches_resonant_closed_form():
    drive = DriveField.from_power(0.0, 0.25 * 3.0)
    a = scatter_steady(drive, IDEAL)
    b = scatter_nonlinear(drive, IDEAL)
    assert abs(a.t - b.t) < 1e-12
    assert abs(a.r - b.r) < 1e-12


def test_scatter_steady_preconditions():
    with pytest.raises(LeakyNotSupported):
        scatter_steady(DriveField.from_power(1.0, 0.1),
                       make_params(1.0, 500.0, gamma_at=0.1))
    with pytest.raises(OffResonanceUnsupported):
        scatter_steady(DriveField(1.0, 0.0), IDEAL)


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


def test_scatter_steady_noise_never_negative():
    for dw in np.linspace(-4.0, 4.0, 17):
        for x in (0.01, 1.0, 50.0):
            drive = DriveField.from_power(dw, 0.25 * x)
            out = scatter_steady(drive, IDEAL)
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
    swept = scatter_steady(DriveField.from_power(dw, 0.6), p)
    state = steady_state(DriveField.from_power(dw, 0.6), p)
    assert swept.t.shape == state.s.shape == dw.shape
    for i, d in enumerate(dw):
        drive = DriveField.from_power(d, 0.6)
        one = scatter_steady(drive, p)
        assert abs(swept.t[i] - one.t) <= 1e-15 * max(1.0, abs(one.t))
        assert abs(swept.r[i] - one.r) <= 1e-15 * max(1.0, abs(one.r))
        assert swept.p_noise[i] == pytest.approx(one.p_noise, rel=1e-12,
                                                 abs=1e-16)
        assert abs(state.s[i] - steady_state(drive, p).s) < 1e-15


def test_array_drive_validation_names_the_field():
    with pytest.raises(NonFiniteInput, match="delta_omega.*index 2"):
        DriveField.from_power(np.array([0.0, 1.0, np.nan]), 0.1)
    with pytest.raises(NonPositiveRate, match="p_in.*index 1"):
        DriveField.from_power(0.0, np.array([0.1, -0.1]))
    with pytest.raises(OffResonanceUnsupported):
        scatter_nonlinear(DriveField.from_power(np.array([0.0, 1.0]), 0.1),
                          IDEAL)
    with pytest.raises(OffResonanceUnsupported):
        scatter_steady(DriveField.from_power(1.0, np.array([0.1, 0.0])), IDEAL)

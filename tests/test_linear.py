import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from onedatom import (LeakyNotSupported, SystemParams, UnsupportedRegime,
                      empty_cavity_t0, linewidths_ideal, make_params,
                      params_from_ratios, resonance_extrema,
                      scattering_matrix_ideal, transmission_leaky)
from onedatom.linear import _fixed_point

IDEAL = make_params(gamma=1.0, kappa=500.0)


def test_empty_cavity_resonant():
    t0 = empty_cavity_t0(0.0, IDEAL)
    assert t0 == 1.0
    assert abs(-t0) ** 2 == 1.0


def test_empty_cavity_half_width_point():
    p = make_params(1.0, 500.0, delta=100.0)
    t0 = empty_cavity_t0(400.0, p)   # dw + delta = kappa
    assert t0 == pytest.approx(1.0 / (1.0 + 1j), rel=1e-15)
    assert abs(t0) ** 2 == pytest.approx(0.5, rel=1e-14)


def test_empty_cavity_far_detuned():
    assert abs(empty_cavity_t0(1e9, IDEAL)) < 1e-5


def test_smatrix_resonant_limit_total_reflection():
    S = scattering_matrix_ideal(0.0, IDEAL)
    assert S[0, 0] == 1.0 and S[1, 1] == 1.0
    assert S[0, 1] == 0.0 and S[1, 0] == 0.0


def test_smatrix_empty_cavity_point():
    # At zeta = 0 the system transmits fully (t = -1, r = 0), same as the
    # atom-free resonant cavity whose amplitude is -t0(0) = -1.
    dw = math.sqrt(0.5 * IDEAL.gamma * IDEAL.kappa)
    S = scattering_matrix_ideal(dw, IDEAL)
    assert abs(S[1, 0] + 1.0) < 1e-12
    assert abs(S[0, 0]) < 1e-12
    assert -empty_cavity_t0(0.0, IDEAL) == -1.0


@settings(max_examples=300, deadline=None)
@given(gamma_exp=st.floats(-3.0, 3.0), kappa_exp=st.floats(-1.0, 4.0),
       dw_exp=st.floats(-4.0, 4.0), dw_sign=st.sampled_from((-1.0, 1.0)),
       delta_over_kappa=st.floats(-10.0, 10.0))
@example(0.0, math.log10(500.0), math.log10(50.0), 1.0, -0.5)
def test_smatrix_unitarity_at_arbitrary_point(gamma_exp, kappa_exp, dw_exp,
                                              dw_sign, delta_over_kappa):
    # Random ideal systems: gamma, kappa/gamma and |dw|/gamma log-uniform
    # over bounded ratios, and a cavity detuning of up to 10 kappa.
    gamma = 10.0 ** gamma_exp
    kappa = gamma * 10.0 ** kappa_exp
    p = make_params(gamma, kappa, delta=delta_over_kappa * kappa)
    S = scattering_matrix_ideal(dw_sign * gamma * 10.0 ** dw_exp, p)
    assert np.max(np.abs(S.conj().T @ S - np.eye(2))) < 1e-12
    assert abs(abs(np.linalg.det(S)) - 1.0) < 1e-12


def test_smatrix_reciprocity_exact():
    S = scattering_matrix_ideal(3.7, IDEAL)
    assert S[0, 1] == S[1, 0]


def test_smatrix_rejects_leaky():
    with pytest.raises(LeakyNotSupported):
        scattering_matrix_ideal(1.0, make_params(1.0, 500.0, gamma_at=0.1))


def test_leaky_resonance_with_atom():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=2.6)
    pt = transmission_leaky(0.0, p)
    q, f = 0.96, 2.6
    assert pt.cap_t == pytest.approx(q ** 2 / (1.0 + f) ** 2, rel=1e-12)
    assert pt.cap_r == pytest.approx((1.0 - q / (1.0 + f)) ** 2, rel=1e-12)


def test_leaky_resonance_empty_cavity():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=2.6)
    pt = transmission_leaky(0.0, p, empty_cavity=True)
    assert pt.cap_t == pytest.approx(0.96 ** 2, rel=1e-14)
    assert pt.cap_r == pytest.approx(0.04 ** 2, rel=1e-10)


def test_ideal_reduction_matches_smatrix():
    kappa, gamma = 500.0, 1.0
    detunings = [2 * kappa, -2 * kappa, kappa, -kappa, kappa / 10,
                 -kappa / 10, gamma, -gamma, gamma / 10, -gamma / 10]
    for dw in detunings:
        S = scattering_matrix_ideal(dw, IDEAL)
        pt = transmission_leaky(dw, IDEAL)
        assert abs(pt.t - S[1, 0]) < 1e-10
        assert abs(pt.r - S[0, 0]) < 1e-10


def test_ideal_energy_conservation():
    for dw in np.linspace(-1000.0, 1000.0, 201):
        pt = transmission_leaky(dw, IDEAL)
        assert abs(pt.cap_t + pt.cap_r - 1.0) < 1e-12
        assert pt.leaks > -1e-12


def test_leaky_resonance_identity():
    for q, f in [(0.96, 2.6), (0.5, 3.0), (0.8, 10.0), (1.0, 1.0)]:
        ext = resonance_extrema(params_from_ratios(1.0, 500.0, q, f))
        assert abs(math.sqrt(ext.r_max) + math.sqrt(ext.t_min) - 1.0) < 1e-12


def test_fano_asymmetry_and_resonant_symmetry():
    fano = make_params(1.0, 500.0, delta=-250.0)
    a = transmission_leaky(+1.0, fano).cap_t
    b = transmission_leaky(-1.0, fano).cap_t
    assert abs(a - b) > 0.01
    for dw in (0.3, 1.0, 40.0):
        sym_p = transmission_leaky(+dw, IDEAL).cap_t
        sym_m = transmission_leaky(-dw, IDEAL).cap_t
        assert abs(sym_p - sym_m) < 1e-12


def test_contrast_monotone_in_f():
    prev = -1.0
    for f in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        ext = resonance_extrema(params_from_ratios(1.0, 500.0, 0.9, f))
        contrast = ext.t_max - ext.t_min
        assert contrast > prev
        prev = contrast


def test_evanescent_geometry_swaps_ports():
    p = params_from_ratios(1.0, 500.0, 0.9, 5.0)
    fp = transmission_leaky(2.0, p)
    ev = transmission_leaky(2.0, p, evanescent=True)
    assert ev.t == fp.r and ev.r == fp.t


@pytest.mark.parametrize("ratio,tol", [(1 / 500, 0.02), (1 / 100, 0.02)])
def test_linewidths_near_analytic(ratio, tol):
    p = make_params(gamma=ratio * 500.0, kappa=500.0)
    lw = linewidths_ideal(p)
    assert abs(lw.broad_numeric - lw.broad_analytic) / lw.broad_analytic < tol
    assert abs(lw.dip_numeric - lw.dip_analytic) / lw.dip_analytic < tol


def test_linewidths_reject_detuned_or_leaky():
    with pytest.raises(UnsupportedRegime):
        linewidths_ideal(make_params(1.0, 500.0, delta=1.0))
    with pytest.raises(UnsupportedRegime):
        linewidths_ideal(make_params(1.0, 500.0, gamma_at=0.5))


def test_resonance_extrema_ideal():
    ext = resonance_extrema(IDEAL)
    assert (ext.t_max, ext.t_min) == (1.0, 0.0)
    assert (ext.r_max, ext.r_min) == (1.0, 0.0)
    assert ext.leaks_resonant == 0.0


def test_resonance_extrema_experimental_point():
    ext = resonance_extrema(params_from_ratios(1.0, 500.0, 0.96, 2.6))
    assert_allclose(ext.t_max, 0.9216, rtol=1e-12)
    assert_allclose(ext.t_min, 0.0711, atol=5e-5)
    assert_allclose(ext.t_max - ext.t_min, 0.8505, atol=5e-4)


def test_resonance_extrema_baseline_point():
    ext = resonance_extrema(params_from_ratios(1.0, 500.0, 0.5, 3.0))
    assert_allclose(ext.t_max, 0.25, rtol=1e-14)
    assert_allclose(ext.t_min, 0.25 / 16.0, rtol=1e-12)


def test_leaks_approximation_for_large_f():
    p = params_from_ratios(1.0, 500.0, 0.9, 200.0)
    ext = resonance_extrema(p)
    assert ext.leaks_approx == pytest.approx(ext.leaks_resonant, rel=0.02)
    # exact identity L = 1 - R - T at resonance
    pt = transmission_leaky(0.0, p)
    assert ext.leaks_resonant == pytest.approx(pt.leaks, abs=1e-12)


# ---------------------------------------------------------------------------
# array evaluation: one code path for scalars and grids

SPECTRUM_FIELDS = ("delta_omega", "t", "r", "cap_t", "cap_r", "leaks")


@st.composite
def leaky_systems(draw):
    q = draw(st.floats(0.05, 1.0))
    f = draw(st.one_of(st.just(math.inf), st.floats(0.05, 1e4)))
    delta = draw(st.floats(-3.0, 3.0))
    gamma = draw(st.floats(1e-4, 0.5))
    return params_from_ratios(gamma, 1.0, q_ratio=q, f=f, delta=delta)


detuning_arrays = arrays(np.float64, st.integers(1, 40),
                         elements=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))


@settings(max_examples=200, deadline=None)
@given(params=leaky_systems(), dw=detuning_arrays,
       empty=st.booleans(), evanescent=st.booleans())
def test_transmission_array_matches_scalar_calls_bit_for_bit(
        params, dw, empty, evanescent):
    grid = transmission_leaky(dw, params, empty_cavity=empty,
                              evanescent=evanescent)
    points = [transmission_leaky(float(d), params, empty_cavity=empty,
                                 evanescent=evanescent) for d in dw]
    for name in SPECTRUM_FIELDS:
        column = getattr(grid, name)
        scalars = np.array([getattr(p, name) for p in points],
                           dtype=column.dtype)
        assert column.shape == dw.shape
        assert column.tobytes() == scalars.tobytes(), name
    assert all(type(p.t) is complex and type(p.cap_t) is float for p in points)


@settings(max_examples=200, deadline=None)
@given(params=leaky_systems(), dw=detuning_arrays)
def test_transmission_energy_budget(params, dw):
    res = transmission_leaky(dw, params)
    assert np.all(np.abs(res.cap_t + res.cap_r + res.leaks - 1.0) <= 1e-12)
    # A passive device only loses power, and the lossless one loses none.
    assert np.all(res.leaks >= -1e-12)
    if params.is_ideal:
        assert np.all(np.abs(res.leaks) <= 1e-12)


def test_transmission_keeps_the_grid_shape():
    dw = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    res = transmission_leaky(dw, IDEAL)
    assert res.t.shape == res.leaks.shape == (3, 4)
    assert res.cap_t[1, 2] == transmission_leaky(dw[1, 2], IDEAL).cap_t


# ---------------------------------------------------------------------------
# the steady-state kernel across the float range


def _mp_fixed_point(dw, b_in, params):
    """(p_c, x, s_z, s, t, r, t_sat) at 50 digits: the fixed point of the
    affine cavity-eliminated Bloch equations by a 3x3 linear solve, t from
    the port amplitude b_t = -(Q/Q0) t0' (b_in + i sqrt(gamma/2) s), and
    its saturated limit t_sat = -(Q/Q0) t0' (s -> 0 as x -> inf)."""
    with mpmath.workdps(50):
        g, k = mpmath.mpf(params.gamma), mpmath.mpf(params.kappa)
        q = 1 / (1 + mpmath.mpf(params.gamma_cav) / (2 * k))
        t0p = 1 / (1 + 1j * q * (dw + mpmath.mpf(params.delta)) / k)
        d = (1j * dw + g * q * t0p / 2 + mpmath.mpf(params.gamma_at) / 2
             + mpmath.mpf(params.gamma_star))
        c = mpmath.sqrt(g / 2) * q * b_in * t0p
        relax = g * q * t0p.real + params.gamma_at
        a = mpmath.matrix([[-d.real, d.imag, 2 * c.imag],
                           [-d.imag, -d.real, -2 * c.real],
                           [-2 * c.imag, 2 * c.real, -relax]])
        s_r, s_i, s_z = mpmath.lu_solve(a, mpmath.matrix([0, 0, relax / 2]))
        s = mpmath.mpc(s_r, s_i)
        x = -1 / (2 * s_z) - 1
        t = -q * t0p * (b_in + 1j * mpmath.sqrt(g / 2) * s) / b_in
        return abs(b_in) ** 2 / x, x, s_z, s, t, 1 + t, -q * t0p


@pytest.mark.parametrize("kappa", [1e-300, 1.0, 1e300, 1e308])
@pytest.mark.parametrize("dw_k, x", [(0.0, 0.1), (0.004, 10.0), (-0.01, 1.0)])
def test_kernel_matches_a_50_digit_fixed_point(kappa, dw_k, x):
    # Rates in units of kappa; a leaky, dephased and detuned device.  At
    # kappa = 1e308 the raw rates once overflowed.
    params = make_params(0.002 * kappa, kappa, delta=0.3 * kappa,
                         gamma_at=1e-4 * kappa, gamma_cav=0.05 * kappa,
                         gamma_star=2e-4 * kappa)
    dw, b_in = dw_k * kappa, math.sqrt(0.25 * x * params.gamma)
    got = _fixed_point(dw, b_in, params)
    want = _mp_fixed_point(mpmath.mpf(dw), mpmath.mpf(b_in), params)
    for name, g, w in zip(("p_c", "x", "s_z", "s", "t", "r", "t_sat"),
                          got, want, strict=True):
        assert abs(g - complex(w)) <= 1e-13 * abs(complex(w)), name


@pytest.mark.parametrize("gamma, kappa", [
    (1.0, 500.0), (5.0, 500.0), (1e-6, 1.0), (1.0, 1.0),
    # Strong coupling, where the dip is much narrower than gamma, and the
    # ends of the float range.
    (50.0, 1.0), (1e3, 1.0), (3e-300, 1e-297), (2e300, 1e303)])
def test_linewidths_match_50_digit_half_maximum_crossings(gamma, kappa):
    params = make_params(gamma, kappa)
    lw = linewidths_ideal(params)
    with mpmath.workdps(50):
        # x = 1e-20 on resonance, less off it: T at zero drive to 20 digits.
        b_in = mpmath.sqrt(mpmath.mpf(gamma) / 4) * mpmath.mpf("1e-10")

        def half(u):            # u = dw/kappa
            return abs(_mp_fixed_point(u * kappa, b_in, params)[4]) ** 2 - 0.5

        peak = mpmath.sqrt(mpmath.mpf(gamma) / (2 * kappa))
        inner = mpmath.findroot(half, (0, peak), solver="illinois") * kappa
        outer = mpmath.findroot(half, (peak, peak + 2), solver="illinois") * kappa
    assert isinstance(lw.dip_numeric, float)
    assert isinstance(lw.broad_numeric, float)
    assert lw.dip_numeric == pytest.approx(float(2 * inner), rel=1e-9, abs=0)
    assert lw.broad_numeric == pytest.approx(float(outer - inner), rel=1e-9,
                                             abs=0)


def _moderate(lo, hi):
    """0 or a float of magnitude in [lo, hi] with a random sign."""
    return st.one_of(st.just(0.0), st.builds(
        math.copysign, st.floats(lo, hi), st.sampled_from([1.0, -1.0])))


@st.composite
def rescalable_systems(draw):
    """A device in units of kappa = 1 whose rates, detuning and drive stay
    normal floats when multiplied by 4^j, -400 <= j <= 511."""
    params = params_from_ratios(
        draw(st.floats(1e-4, 0.5)), 1.0, q_ratio=draw(st.floats(0.5, 1.0)),
        # f >= 0.13 keeps gamma_at = q gamma / f below 4, so below the
        # float range at j = 511.
        f=draw(st.one_of(st.just(math.inf), st.floats(0.13, 1e4))),
        delta=draw(_moderate(1e-3, 3.0)))
    params = dataclasses.replace(params, gamma_star=draw(_moderate(1e-4, 0.1)))
    return params, draw(_moderate(1e-3, 3.0)), draw(_moderate(1e-6, 1e3))


@settings(max_examples=200, deadline=None)
@given(system=rescalable_systems(), j=st.integers(-400, 511))
def test_kernel_is_exactly_scale_free(system, j):
    # Every rate times 4^j (an exact scaling) leaves x, s_z, s, t, r and
    # t_sat bit for bit and multiplies p_c by exactly 4^j (inf beyond the
    # float range), up to rates of 1e308.
    params, dw, x = system
    params = dataclasses.replace(params, gamma_star=abs(params.gamma_star))
    scaled = SystemParams(*(math.ldexp(getattr(params, f.name), 2 * j)
                            for f in dataclasses.fields(params)))
    b_in = math.sqrt(0.25 * x * params.gamma) if x > 0.0 else 0.0
    base = _fixed_point(dw, b_in, params)
    moved = _fixed_point(math.ldexp(dw, 2 * j), math.ldexp(b_in, j), scaled)
    with np.errstate(over="ignore"):
        assert moved[0] == np.ldexp(base[0], 2 * j)
    assert moved[1:] == base[1:]

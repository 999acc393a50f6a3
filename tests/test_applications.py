import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from onedatom import (DephasingUnsupported, NonPositiveRate,
                      UnsupportedRegime, bistability_scan,
                      contrast_enhancement, critical_power_watts,
                      empty_cavity_t0, kerr_equivalent, make_params,
                      params_from_ratios, slow_light, switching_intensity,
                      t0_prime)
from onedatom.csvio import BLOCK_ROWS

IDEAL = make_params(gamma=1.0, kappa=500.0)


def leaky(f):
    return params_from_ratios(1.0, 500.0, q_ratio=1.0, f=f)


def test_slow_light_f10_values():
    r = slow_light(leaky(10.0))
    assert r.delay_analytic == pytest.approx(2.0 * (10.0 / 11.0), rel=1e-14)
    assert r.t_per_stage == pytest.approx((10.0 / 11.0) ** 2, rel=1e-12)
    assert r.n_half == pytest.approx(0.5 * math.log(2.0) / math.log(1.1),
                                     abs=1e-12)
    assert r.total_delay_at_n_half == pytest.approx(r.n_half * r.delay_analytic,
                                                    rel=1e-14)


@pytest.mark.parametrize("f", [5.0, 10.0, 100.0])
def test_slow_light_numeric_group_delay(f):
    r = slow_light(leaky(f))
    assert abs(r.delay_numeric - r.delay_analytic) / r.delay_analytic < 0.02
    assert r.delay_numeric > 0.0


def test_slow_light_chain_bookkeeping():
    r = slow_light(leaky(10.0), n_stages=3)
    assert r.delay_after_stages == pytest.approx(3 * r.delay_analytic)
    assert r.t_after_stages == pytest.approx(r.t_per_stage ** 3)


def test_slow_light_perfect_emitter():
    r = slow_light(IDEAL)
    assert r.beta == 1.0
    assert r.delay_analytic == pytest.approx(2.0, rel=1e-14)
    assert math.isinf(r.n_half)


def test_slow_light_preconditions():
    with pytest.raises(UnsupportedRegime):
        slow_light(params_from_ratios(1.0, 500.0, q_ratio=0.9, f=10.0))
    with pytest.raises(DephasingUnsupported):
        slow_light(make_params(1.0, 500.0, gamma_star=0.1))
    with pytest.raises(NonPositiveRate):
        slow_light(leaky(10.0), n_stages=0)


def test_bistability_low_drive_slope_vanishes():
    scan = bistability_scan(IDEAL, 0.5, np.logspace(-3, 0, 50))
    assert scan.slope_analytic[0] < 1e-5


def test_bistability_always_single_valued():
    grid = np.logspace(-3, 4, 7001)
    for a in (0.1, 0.5, 0.9, 0.99):
        scan = bistability_scan(IDEAL, a, grid)
        assert scan.unique_solution
        assert scan.max_slope < 1.0


def test_bistability_slope_formula_vs_numeric():
    grid = np.logspace(-3, 4, 2001)
    scan = bistability_scan(IDEAL, 0.5, grid)
    assert np.max(np.abs(scan.slope_analytic - scan.slope_numeric)) < 1e-8
    # slope approaches 1 from below at large x
    assert scan.slope_analytic[-1] > 0.999
    assert np.all(scan.slope_analytic < 1.0)


def test_bistability_preconditions():
    with pytest.raises(NonPositiveRate):
        bistability_scan(IDEAL, 1.0, [1.0, 2.0])
    with pytest.raises(NonPositiveRate):
        bistability_scan(IDEAL, 0.5, [2.0, 1.0])


def ideal_p_t(params, x):
    """The ideal resonant (gamma/4) x^3/(1+x)^2, the paper's P_t(P_e)."""
    return 0.25 * params.gamma * x ** 3 / (1.0 + x) ** 2


def test_bistability_follows_the_detuned_cavity():
    # The detuned cavity keeps P_c = gamma/4 on resonance but transmits
    # only |t0(0)|^2 = 0.8 of the ideal P_t.
    p = make_params(0.002, 1.0, delta=0.5)
    grid = np.logspace(-3, 4, 301)
    scan = bistability_scan(p, 0.5, grid)
    t0_sq = abs(empty_cavity_t0(0.0, p)) ** 2
    assert t0_sq == pytest.approx(0.8, rel=1e-15)
    assert_allclose(scan.p_t, t0_sq * ideal_p_t(p, grid), rtol=1e-13, atol=0)
    assert_allclose(scan.slope_analytic,
                    t0_sq * grid ** 2 * (3.0 + grid) / (1.0 + grid) ** 3,
                    rtol=1e-13, atol=0)


def test_bistability_ideal_scan_is_the_closed_form():
    grid = np.logspace(-3, 4, 2001)
    scan = bistability_scan(IDEAL, 0.5, grid)
    assert_allclose(scan.p_e, 0.25 * IDEAL.gamma * grid, rtol=0, atol=0)
    assert_allclose(scan.p_t, ideal_p_t(IDEAL, grid), rtol=1e-14, atol=0)
    assert_allclose(scan.slope_analytic,
                    grid ** 2 * (3.0 + grid) / (1.0 + grid) ** 3,
                    rtol=1e-14, atol=0)


@st.composite
def lossy_detuned_devices(draw):
    p = params_from_ratios(
        draw(st.floats(1e-4, 0.1)), 1.0, q_ratio=draw(st.floats(0.3, 1.0)),
        f=draw(st.one_of(st.just(math.inf), st.floats(0.1, 1e4))),
        delta=draw(st.floats(-3.0, 3.0)))
    return make_params(p.gamma, p.kappa, delta=p.delta, gamma_at=p.gamma_at,
                       gamma_cav=p.gamma_cav,
                       gamma_star=draw(st.floats(0.0, 0.5)) * p.gamma)


@settings(max_examples=100, deadline=None)
@given(p=lossy_detuned_devices())
def test_bistability_slope_of_any_device_stays_below_t_max(p):
    # dP_t/dP_e rises towards the saturated transmission
    # T_max = q^2 |t0'(0)|^2 <= 1 and never reaches it: no leak, dephasing
    # or detuning makes the feedback loop bistable.  The margin
    # 1 - slope/T_max ~ 3/x^2 is resolved up to x = 1e5.
    grid = np.logspace(-3, 8, 1101)
    scan = bistability_scan(p, [0.5, 0.99], grid)
    t_max = p.q_ratio ** 2 * abs(t0_prime(0.0, p)) ** 2
    assert np.max(np.abs(scan.slope_analytic - scan.slope_numeric)) < 1e-8
    assert np.all(scan.slope_analytic >= 0.0)
    assert np.all(scan.slope_analytic[grid <= 1e5] < t_max)
    assert np.all(scan.slope_analytic <= t_max * (1.0 + 1e-12))
    assert scan.unique_solution.tolist() == [True, True]


def test_kernel_drive_derivative_symbolically():
    # t(x) = -q t0' (e + 2 d x)/(2 d (1+x)) of the kernel has
    # dt/dx = (t_inf - t)/(1+x) with t_inf = -q t0', and
    # d(x |t|^2)/dx = |t|^2 + 2 x Re(conj(t) (t_inf - t))/(1+x).
    x = sympy.Symbol("x", positive=True)
    qt0, e, d = sympy.symbols("qt0 e d")
    t = -qt0 * (e + 2 * d * x) / (2 * d * (1 + x))
    t_inf = -qt0
    assert sympy.simplify(sympy.diff(t, x) - (t_inf - t) / (1 + x)) == 0
    # The same for P = x |t|^2 with t = (t_0 + t_inf x)/(1+x) in real parts.
    a, b, c, g = sympy.symbols("a b c g", real=True)
    t0, ti = a + sympy.I * b, c + sympy.I * g
    t = (t0 + ti * x) / (1 + x)
    power = x * t * sympy.conjugate(t)
    slope = t * sympy.conjugate(t) + 2 * x * sympy.re(
        sympy.conjugate(t) * (ti - t)) / (1 + x)
    assert sympy.simplify(sympy.expand(sympy.diff(power, x) - slope)) == 0


def test_bistability_takes_an_array_of_fractions():
    grid = np.logspace(-3, 4, 401)
    p = make_params(0.002, 1.0, gamma_at=1e-4, delta=0.2)
    fractions = [0.1, 0.5, 0.9, 0.99]
    scan = bistability_scan(p, fractions, grid)
    assert scan.fraction_a.tolist() == fractions
    for i, a in enumerate(fractions):
        one = bistability_scan(p, a, grid)
        assert type(one.fraction_a) is float
        assert type(one.unique_solution) is bool
        assert one.unique_solution == scan.unique_solution[i]
        assert one.p_t.tobytes() == scan.p_t.tobytes()
        assert one.max_slope == scan.max_slope
    with pytest.raises(NonPositiveRate):
        bistability_scan(p, [0.5, 1.0], grid)


def test_reshape_low_power_limit_is_extinction_ratio():
    r0 = contrast_enhancement(0.0, 4.0, IDEAL)
    assert r0.c_ideal == 4.0
    assert r0.c_leaky == 4.0
    tiny = contrast_enhancement(1e-12, 4.0, IDEAL)
    assert abs(tiny.c_ideal - 4.0) < 1e-9


def test_reshape_ideal_closed_form_large_x():
    d = 4.0
    x = 1e9 * d
    r = contrast_enhancement(x, d, IDEAL)
    assert r.c_ideal == pytest.approx(d ** 3, rel=1e-6)


def test_reshape_ideal_exceeds_unity():
    for x in np.logspace(-3, 3, 20):
        assert contrast_enhancement(x, 10.0, IDEAL).c_ideal > 1.0


def test_reshape_leaky_bounded_by_ideal():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=100.0)
    for d in (4.0, 20.0, 100.0):
        base = contrast_enhancement(0.0, d, p)
        assert base.c_leaky == pytest.approx(1.0 / d)
        for x in np.logspace(-3, 2, 40):
            r = contrast_enhancement(x, d, p)
            assert r.c_leaky <= r.c_ideal


def test_reshape_six_db_enhancement_at_f100():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=100.0)
    best = max(contrast_enhancement(x, 100.0, p).c_leaky
               for x in np.logspace(-3, 2, 301))
    assert best >= 4.0


def test_reshape_small_f_gives_no_enhancement():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=2.6)
    best = max(contrast_enhancement(x, 100.0, p).c_leaky
               for x in np.logspace(-3, 2, 101))
    assert best < 1.0


def test_reshape_limit_follows_the_zero_drive_amplitude():
    # A lossy cavity (Q < Q0) with a lossless emitter still has t(0) = 0 on
    # resonance, so the x = 0 limit is d, next to its x -> 0 values.
    p = params_from_ratios(1.0, 500.0, q_ratio=0.9, delta=30.0)
    res = contrast_enhancement(np.array([0.0, 5e-7]), 10.0, p)
    assert res.c_leaky[0] == 10.0
    assert res.c_leaky[1] == pytest.approx(10.0, rel=1e-5)
    leaky = params_from_ratios(1.0, 500.0, q_ratio=1.0, f=50.0)
    assert contrast_enhancement(0.0, 10.0, leaky).c_leaky == 0.1


def test_reshape_preconditions():
    with pytest.raises(NonPositiveRate):
        contrast_enhancement(-1.0, 4.0, IDEAL)
    with pytest.raises(NonPositiveRate):
        contrast_enhancement(1.0, 1.0, IDEAL)


def test_reshape_refuses_drives_outside_the_normal_range():
    # With x/d subnormal, T(x/d) was 0 or subnormal: a device without
    # emitter loss gave c_leaky = inf at x = 1e-310 and NaN at x = 5e-324,
    # where the limit is d = 57.  An infinite drive power gave NaN.
    p = make_params(0.002, 1.0)
    assert contrast_enhancement(1e-300, 57.0, p).c_leaky == pytest.approx(
        57.0, rel=1e-14)
    for x, params in ((1e-310, p), (5e-324, p), (math.inf, p),
                      (math.nan, p), (1e308, make_params(10.0, 1.0))):
        with pytest.raises(UnsupportedRegime,
                           match=re.escape(f"got x = {x!r}") + "$"):
            contrast_enhancement(x, 57.0, params)
    grid = np.append(np.logspace(-3.0, 2.0, BLOCK_ROWS + 1), 1e-310)
    with pytest.raises(UnsupportedRegime,
                       match=f"x = 1e-310 at index {BLOCK_ROWS + 1}$"):
        contrast_enhancement(grid, 57.0, p)


def test_kerr_semiconductor_length():
    length = kerr_equivalent(1.0, 1e-13, 1.0)
    assert length == pytest.approx(5e6, rel=1e-12)          # 5e3 km


def test_kerr_vapor_and_eit_lengths():
    assert kerr_equivalent(1.0, 1e-7, 1.0) == pytest.approx(5.0, rel=1e-12)
    # The closed form gives lambda/(2 n2 I) regardless of medium.
    assert kerr_equivalent(1.0, 0.18, 1.0) == pytest.approx(1e-6 / 0.36,
                                                            rel=1e-12)


def test_switching_intensity_from_quoted_critical_power():
    assert switching_intensity(1e-9, 1e-8) == pytest.approx(1.0, rel=1e-14)


def test_switching_intensity_from_physics():
    # 100 ps lifetime at 1 um gives P_c = gamma/4 photons/s ~ 0.5 nW, an
    # order-of-magnitude consistency check of the quoted ~1 nW, ~1 W/cm^2.
    p_c = critical_power_watts(1e10, 1.0)
    assert_allclose(p_c, 4.966e-10, rtol=1e-3)
    i_pi = switching_intensity(p_c, 1e-8)
    assert 0.4 <= i_pi <= 2.5


def test_kerr_preconditions():
    with pytest.raises(NonPositiveRate):
        kerr_equivalent(0.0, 1e-13, 1.0)
    with pytest.raises(NonPositiveRate):
        switching_intensity(1e-9, 0.0)
    with pytest.raises(NonPositiveRate):
        critical_power_watts(-1.0, 1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: kerr_equivalent(1.0, 1e-320, 1.0), "length_m = inf"),
    (lambda: kerr_equivalent(1.0, 1e-13, 1e-320), "length_m = inf"),
    (lambda: kerr_equivalent(1.0, 1e300, 1e300), "length_m = 0.0"),
    (lambda: critical_power_watts(1e308, 1e-300), "p_c_watts = inf"),
    (lambda: critical_power_watts(1e10, 1e-320), "p_c_watts = inf"),
    (lambda: switching_intensity(1e308, 1e-300), "i_pi_w_per_cm2 = inf"),
    (lambda: switching_intensity(1e-9, 1e-8, 1e-320), "i_pi_w_per_cm2 = 0.0"),
])
def test_kerr_results_outside_the_float_range_are_refused(call, name):
    # Positive inputs whose result overflows (or whose denominator
    # underflows) or underflows to 0 were once returned as inf or 0.
    with pytest.raises(UnsupportedRegime, match=name):
        call()


def test_reshape_array_matches_scalar_calls_bit_for_bit():
    xs = np.concatenate(([0.0], np.logspace(-3, 2, 60)))
    for params in (IDEAL, params_from_ratios(1.0, 500.0, 0.96, 100.0)):
        grid = contrast_enhancement(xs, 100.0, params)
        for i, x in enumerate(xs):
            one = contrast_enhancement(float(x), 100.0, params)
            assert type(one.c_leaky) is float
            assert (one.x, one.c_ideal, one.c_leaky) == (
                grid.x[i], grid.c_ideal[i], grid.c_leaky[i])
    with pytest.raises(NonPositiveRate):
        contrast_enhancement(np.array([1.0, -1.0]), 4.0, IDEAL)

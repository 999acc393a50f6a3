import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from onedatom import (BlochState, DomainError, DriveField, NonFiniteInput,
                      NonPositiveRate, UnsupportedRegime, bistability_scan, cli,
                      contrast_enhancement, make_params,
                      outcome_from_amplitudes, params_from_ratios,
                      saturation_curve)
from onedatom.model import _drive_power


def test_ideal_bad_cavity_point():
    p = make_params(gamma=1.0, kappa=500.0)
    assert p.q_ratio == 1.0
    assert p.f_is_infinite
    assert math.isinf(p.f_ratio)
    assert p.beta == 1.0
    assert p.is_bad_cavity
    assert p.is_ideal


def test_unit_f_point():
    p = make_params(gamma=1.0, kappa=500.0, gamma_at=1.0)
    assert p.q_ratio == 1.0
    assert p.f_ratio == pytest.approx(1.0, rel=1e-15)
    assert p.beta == pytest.approx(0.5, rel=1e-15)
    assert not p.is_ideal


def test_q_ratio_direct_substitution():
    p = make_params(gamma=1.0, kappa=10.0, gamma_cav=20.0)
    assert p.q_ratio == pytest.approx(0.5, rel=1e-15)


def test_bad_cavity_flag_is_warning_not_error():
    # gamma/kappa above the threshold still constructs.
    p = make_params(gamma=1.0, kappa=2.0)
    assert not p.is_bad_cavity


@pytest.mark.parametrize("kwargs", [
    dict(gamma=0.0, kappa=1.0),
    dict(gamma=-1.0, kappa=1.0),
    dict(gamma=1.0, kappa=0.0),
    dict(gamma=1.0, kappa=1.0, gamma_at=-0.1),
    dict(gamma=1.0, kappa=1.0, gamma_cav=-0.1),
    dict(gamma=1.0, kappa=1.0, gamma_star=-0.1),
])
def test_rate_validation(kwargs):
    with pytest.raises(NonPositiveRate):
        make_params(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=math.nan, kappa=1.0),
    dict(gamma=1.0, kappa=math.inf),
    dict(gamma=1.0, kappa=1.0, delta=math.nan),
])
def test_nonfinite_validation(kwargs):
    with pytest.raises(NonFiniteInput):
        make_params(**kwargs)


def test_q_ratio_strictly_decreasing_in_gamma_cav():
    values = [make_params(1.0, 500.0, gamma_cav=g).q_ratio
              for g in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert values[0] == 1.0
    assert all(b < a for a, b in zip(values, values[1:]))


def test_f_identity_and_beta_monotone():
    rng = np.random.default_rng(7)
    prev_beta = 0.0
    for f in sorted(rng.uniform(0.1, 50.0, size=12)):
        p = params_from_ratios(2.0, 800.0, q_ratio=0.7, f=f)
        assert p.f_ratio * p.loss_rate == pytest.approx(
            p.q_ratio * p.gamma, rel=1e-12)
        assert p.beta > prev_beta
        prev_beta = p.beta
    assert params_from_ratios(1.0, 500.0, f=1.0).beta == pytest.approx(0.5)


def test_params_from_ratios_roundtrip():
    p = params_from_ratios(1.0, 500.0, q_ratio=0.96, f=2.6)
    assert p.q_ratio == pytest.approx(0.96, rel=1e-14)
    assert p.f_ratio == pytest.approx(2.6, rel=1e-14)
    assert p.gamma_star == 0.0


def test_types_are_frozen():
    p = make_params(1.0, 500.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gamma = 2.0
    d = DriveField(0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.b_in = 2.0


def test_drive_field_power():
    d = DriveField(0.5, 3.0 + 4.0j)
    assert d.p_in == pytest.approx(25.0)
    d2 = DriveField.from_power(0.0, 0.25)
    assert d2.b_in == pytest.approx(0.5)
    with pytest.raises(NonPositiveRate):
        DriveField.from_power(0.0, -1.0)
    with pytest.raises(NonFiniteInput):
        DriveField(0.0, complex(math.nan, 0.0))


def test_bloch_state_invariants():
    assert BlochState.ground().is_physical()
    assert BlochState(0.5j, 0.0).is_physical()
    assert not BlochState(0.0j, 0.7).is_physical()
    assert not BlochState(0.6 + 0.0j, -0.5).is_physical()
    assert not BlochState(complex(math.nan), 0.0).is_physical()


def test_outcome_bookkeeping():
    out = outcome_from_amplitudes(-0.5, 0.5, 2.0)
    assert out.cap_t == pytest.approx(0.25)
    assert out.cap_r == pytest.approx(0.25)
    assert out.p_t == pytest.approx(0.5)
    assert out.p_noise == pytest.approx(1.0)
    assert out.p_in == pytest.approx(2.0)


@pytest.mark.parametrize("call, got", [
    # Each gave numbers: x_eff 0.001976 and 0.009881 for x = 0.001 and
    # 0.01 with noise_frac -inf, x_eff 1.00000003307e-313, and p_e = inf
    # with NaN slopes.
    (lambda: saturation_curve(make_params(1e-320, 1.0), [1e-3, 1e-2, 1.0]),
     "x = 0.001 at index 0"),
    (lambda: saturation_curve(make_params(0.002, 1.0), [1e-313]),
     "x = 1e-313 at index 0"),
    (lambda: bistability_scan(make_params(10.0, 1.0), 0.5, [1.0, 1e308]),
     "x = 1e+308 at index 1"),
])
def test_sweeps_refuse_drives_outside_the_normal_range(call, got):
    with pytest.raises(UnsupportedRegime, match=re.escape(got) + "$"):
        call()


@pytest.mark.parametrize("gamma, kappa, gamma_cav", [
    # Q/Q0 underflows to 0; (Q/Q0) gamma underflows to 0 with Q/Q0 normal.
    (1.0, 1e-10, 1e308), (1e-100, 1e-10, 2e290)])
def test_devices_without_a_finite_inv_f_are_refused(gamma, kappa, gamma_cav):
    # f_ratio raised ZeroDivisionError (0/0 in inv_f).
    with pytest.raises(DomainError, match="gamma_cav = .* and kappa = "):
        make_params(gamma, kappa, gamma_cav=gamma_cav).f_ratio


def _refusal(call):
    """The message of the `UnsupportedRegime` that ``call()`` raises, or
    None."""
    try:
        call()
    except UnsupportedRegime as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_gamma=st.floats(-320.0, 308.0),
       ends=st.lists(st.integers(-323, 308), min_size=2, max_size=2,
                     unique=True).map(sorted),
       n=st.integers(2, 6), log_extinction=st.floats(0.01, 300.0))
# Only the difference point x + h of x = 10 overflows (exit 3 before, with
# no flag named): a window of 1e-5 in gamma that the search rarely hits.
@example(log_gamma=307.8567712517506, ends=[0, 1], n=2, log_extinction=1.0)
def test_api_and_cli_refuse_exactly_where_the_drive_power_rule_does(
        tmp_path, log_gamma, ends, n, log_extinction):
    gamma, extinction = 10.0 ** log_gamma, 10.0 ** log_extinction
    spec = f"log:{ends[0]}:{ends[1]}:{n}"
    x = cli.parse_grid(spec)
    params = make_params(gamma, 1.0)
    # bistability_scan's central-difference drives.
    h = np.where(1e-5 * (1.0 + x) <= 0.5 * x, 1e-5 * (1.0 + x),
                 np.maximum(1e-5 * x, math.ulp(0.0)))
    cases = {
        "saturation": (lambda: saturation_curve(params, x), x, 1.0, []),
        "bistability": (lambda: bistability_scan(params, 0.5, x),
                        np.stack((x, x + h, x - h)), 1.0, []),
        "reshape": (lambda: contrast_enhancement(x, extinction, params), x,
                    np.array([[1.0], [extinction]]),
                    ["--extinction", repr(extinction)]),
    }
    for command, (call, drives, ext, flags) in cases.items():
        want = _refusal(lambda: _drive_power(drives, gamma, extinction=ext))
        assert _refusal(call) == want, command
        code = cli.run([command, "--gamma", repr(gamma), "--x-grid", spec,
                        *flags, "--out", str(tmp_path / "o.csv")])
        assert (code == 2) == (want is not None), (command, code)

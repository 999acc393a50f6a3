"""The one range rule: an option row and the library argument its value
reaches unchanged refuse the same values, with the same words, and an
array argument is refused at its first entry outside its range."""

import argparse
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from onedatom import (BlochState, DomainError, DriveField, FieldProfileModel,
                      NonFiniteInput, NonPositiveRate, PillarDesign,
                      bistability_scan, cli, contrast_enhancement,
                      critical_power_watts, integrate, kerr_equivalent,
                      make_params, optimize_diameter, params_from_ratios,
                      settle, slow_light, sweep_diameter, switching_intensity)

IDEAL = make_params(1.0, 500.0)
NO_DRIVE = DriveField(0.0, 0.0)
CHAIN = params_from_ratios(0.002, 1.0, f=10.0)

RATES = {"gamma": 1.0, "kappa": 1.0}
DESIGN = {"q0": 1000.0, "d": 2.0}
KERR = {"lambda_um": 1.0, "n2_cm2_per_w": 1e-13, "intensity_w_per_cm2": 1.0}
P_C = {"gamma_per_s": 1e10, "lambda_um": 1.0}
I_PI = {"p_c_watts": 1e-9, "sigma_cm2": 1e-8}
SETTLE = {"drive": NO_DRIVE, "params": IDEAL}
INTEGRATE = {**SETTLE, "initial": BlochState.ground(), "samples": 2}


def _d_range(**bounds):
    """`optimize_diameter` over (d_range[0], d_range[1]), each bound given
    by that name or left at its default."""
    return optimize_diameter(1000.0, d_range=(bounds.get("d_range[0]", 0.5),
                                              bounds.get("d_range[1]", 8.0)))


#: Each option row whose value reaches one library argument unchanged:
#: (subcommand, flag, function, argument, the other arguments).
ROWS = [
    *(("spectrum", "--" + arg.replace("_", "-"), make_params, arg, RATES)
      for arg in ("gamma", "kappa", "delta", "gamma_at", "gamma_cav",
                  "gamma_star")),
    ("spectrum", "--q-ratio", params_from_ratios, "q_ratio", RATES),
    ("spectrum", "--f", params_from_ratios, "f", RATES),
    ("pillar", "--q0", PillarDesign, "q0", DESIGN),
    ("pillar", "--epsilon", PillarDesign, "epsilon", DESIGN),
    ("pillar", "--wavelength", PillarDesign, "lambda_0", DESIGN),
    ("pillar", "--n-index", PillarDesign, "n_index", DESIGN),
    ("pillar", "--loss-ratio", PillarDesign, "loss_ratio", DESIGN),
    ("pillar", "--gamma-star-ratio", PillarDesign, "gamma_star_ratio",
     DESIGN),
    ("pillar", "--grid-step", optimize_diameter, "grid_step", {"q0": 1000.0}),
    ("pillar", "--objective", optimize_diameter, "objective", {"q0": 1000.0}),
    ("pillar", "--d-min", _d_range, "d_range[0]", {}),
    ("pillar", "--d-max", _d_range, "d_range[1]", {}),
    ("kerr", "--wavelength-um", kerr_equivalent, "lambda_um", KERR),
    ("kerr", "--n2-cm2-per-w", kerr_equivalent, "n2_cm2_per_w", KERR),
    ("kerr", "--intensity-w-per-cm2", kerr_equivalent, "intensity_w_per_cm2",
     KERR),
    ("kerr", "--wavelength-um", critical_power_watts, "lambda_um", P_C),
    ("kerr", "--gamma-per-s", critical_power_watts, "gamma_per_s", P_C),
    ("kerr", "--pc-watts", switching_intensity, "p_c_watts", I_PI),
    ("kerr", "--sigma-cm2", switching_intensity, "sigma_cm2", I_PI),
    ("kerr", "--jump-factor", switching_intensity, "jump_factor", I_PI),
    ("reshape", "--extinction", contrast_enhancement, "extinction_in",
     {"x": 1.0, "params": IDEAL}),
    ("slowlight", "--n-stages", slow_light, "n_stages", {"params": CHAIN}),
    ("dynamics", "--settle-tol", settle, "tol", SETTLE),
    ("dynamics", "--duration", integrate, "duration", INTEGRATE),
]


class _Refused(Exception):
    """A usage error of `_Parser`."""


class _Parser:
    def error(self, message):
        raise _Refused(message)


def _row(name, flag):
    return next(row for row in cli._COMMANDS[name][1] if row[0] == flag)


def _cases():
    """Each row with NaN, +-inf, each finite bound of its range and the
    floats next to that bound on either side; a row of named choices with
    each choice and one that is not."""
    for name, flag, function, arg, others in ROWS:
        rng = _row(name, flag)[3]
        if isinstance(rng, tuple):
            yield from (pytest.param(name, flag, function, arg, others, value,
                                     id=f"{flag}-{value}")
                        for value in ("bogus", *rng))
            continue
        values = [math.nan, math.inf, -math.inf]
        for bound in (float(b) for b in rng[1:-1].split(",")):
            if math.isfinite(bound):
                values += [bound, math.nextafter(bound, -math.inf),
                           math.nextafter(bound, math.inf)]
        for value in values:
            yield pytest.param(name, flag, function, arg, others, value,
                               id=f"{flag}-{function.__name__}-{value!r}")


@pytest.mark.parametrize("name, flag, function, arg, others, value",
                         list(_cases()))
def test_library_arguments_refuse_what_their_option_refuses(
        name, flag, function, arg, others, value):
    row = _row(name, flag)
    ns = argparse.Namespace(**{cli._dest(flag): value})
    try:
        cli._check_ranges(ns, _Parser(), [row])
        flag_message = None
    except _Refused as exc:
        flag_message = str(exc)
    try:
        function(**{**others, arg: value})
        message = None
    except DomainError as exc:
        message = str(exc)
        error = type(exc)
    if flag_message is None:
        # Accepted: a later check may still refuse a result, never the
        # argument itself.
        assert message is None or not message.startswith(f"{arg} must be ")
    else:
        assert message == arg + flag_message[len(flag):]
        assert error is (NonPositiveRate if isinstance(value, str)
                         or math.isfinite(value) else NonFiniteInput)


@pytest.mark.parametrize("call, error, message", [
    # Gave a delay and a transmission for 1.5 stages with n_stages 1.
    (lambda: slow_light(CHAIN, n_stages=1.5), NonPositiveRate,
     "n_stages must be an integer >= 1, got 1.5"),
    # A bare ValueError.
    (lambda: slow_light(CHAIN, n_stages=math.nan), NonFiniteInput,
     "n_stages must be an integer >= 1, got nan"),
    # "length_m = nan is outside the float range", and the like.
    (lambda: kerr_equivalent(math.nan, 1e-13, 1.0), NonFiniteInput,
     "lambda_um must be finite and > 0, got nan"),
    (lambda: kerr_equivalent(1.0, 1e-13, math.inf), NonFiniteInput,
     "intensity_w_per_cm2 must be finite and > 0, got inf"),
    (lambda: critical_power_watts(math.nan, 1.0), NonFiniteInput,
     "gamma_per_s must be finite and > 0, got nan"),
    (lambda: critical_power_watts(1e10, math.inf), NonFiniteInput,
     "lambda_um must be finite and > 0, got inf"),
    (lambda: switching_intensity(1e-9, math.nan), NonFiniteInput,
     "sigma_cm2 must be finite and > 0, got nan"),
    (lambda: switching_intensity(math.inf, 1e-8), NonFiniteInput,
     "p_c_watts must be finite and > 0, got inf"),
    # Accepted.
    (lambda: FieldProfileModel(c_e=math.nan), NonFiniteInput,
     "c_e must be finite and > 0, got nan"),
    (lambda: FieldProfileModel(p_exp=math.inf), NonFiniteInput,
     "p_exp must be finite and > 0, got inf"),
    # Settled at window 1.
    (lambda: settle(NO_DRIVE, IDEAL, math.inf), NonFiniteInput,
     "tol must be finite and > 0, got inf"),
    # Blamed b_in: "b_in must be finite, got (nan+0j)".
    (lambda: DriveField.from_power(0.0, math.nan), NonFiniteInput,
     "p_in must be finite and >= 0, got nan"),
    # "unknown field model kind 'bogus'".
    (lambda: FieldProfileModel("bogus"), NonPositiveRate,
     "kind must be one of ('power_law', 'tabulated'), got 'bogus'"),
    # "invalid d_range (3.0, 1.0)".
    (lambda: _d_range(**{"d_range[0]": 3.0, "d_range[1]": 1.0}),
     NonPositiveRate, "d_range[0] must be < d_range[1], got (3.0, 1.0)"),
])
def test_scalar_arguments_outside_their_range_are_refused(call, error,
                                                         message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        call()


def _table(e2):
    return FieldProfileModel("tabulated", table=tuple(
        (1.0 + i, v) for i, v in enumerate(e2)))


#: Each array argument: (name, its range, its range in words, a valid
#: array, the call on an array, whether it also takes a 0-d array).
ARRAYS = [
    ("delta_omega", "(-inf, inf)", "finite", [0.5] * 3,
     lambda v: DriveField(v, 0.1), True),
    ("p_in", "[0, inf)", "finite and >= 0", [0.5] * 3,
     lambda v: DriveField.from_power(0.0, v), True),
    ("fraction_a", "[0, 1)", "in [0, 1)", [0.5] * 3,
     lambda v: bistability_scan(IDEAL, v, [1.0, 2.0]), True),
    ("x_grid", "(0, inf)", "finite and > 0", [1.0, 2.0, 3.0],
     lambda v: bistability_scan(IDEAL, 0.5, v), False),
    ("d_grid", "(0, inf)", "finite and > 0", [1.0, 2.0, 3.0],
     lambda v: sweep_diameter(1000.0, v), False),
    ("tabulated |E(d)|^2", "[0, 1]", "in [0, 1]", [0.5] * 3, _table, False),
]


def _outside(rng):
    """NaN, +-inf, and the first float past each finite bound of ``rng``."""
    values = [math.nan, math.inf, -math.inf]
    lo, hi = (float(b) for b in rng[1:-1].split(","))
    if math.isfinite(lo):
        values.append(lo if rng[0] == "(" else math.nextafter(lo, -math.inf))
    if math.isfinite(hi):
        values.append(hi if rng[-1] == ")" else math.nextafter(hi, math.inf))
    return values


def _array_cases():
    """Each value outside an argument's range at index 0 of its valid
    array, at index 2 of it as a list, and as a 0-d array (index None)
    where it takes one."""
    for name, rng, words, valid, call, takes_0d in ARRAYS:
        for value in _outside(rng):
            for i in (0, 2, None) if takes_0d else (0, 2):
                yield pytest.param(name, words, valid, call, value, i,
                                   id=f"{name}-{value!r}-{i}")


@pytest.mark.parametrize("name, words, valid, call, value, i",
                         list(_array_cases()))
def test_an_array_is_refused_at_its_first_entry_outside_its_range(
        name, words, valid, call, value, i):
    if i is None:
        array, where = np.array(value), ""
    else:
        array, where = np.array(valid), f" at index {i}"
        array[i] = value
        if i == 2:
            array = array.tolist()
    error = NonPositiveRate if math.isfinite(value) else NonFiniteInput
    message = f"{name} must be {words}, got {value!r}{where}"
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(array)


@pytest.mark.parametrize("grid, error, shown", [
    ([1.0, -1.0, math.nan], NonPositiveRate, "-1.0 at index 1"),
    ([1.0, math.nan, -1.0], NonFiniteInput, "nan at index 1"),
    ([[1.0, 2.0], [math.inf, 0.0]], NonFiniteInput, "inf at index 2"),
])
def test_the_first_entry_outside_the_range_decides_the_error(grid, error,
                                                             shown):
    # A 2-d grid is flattened, so its index is the flat one.
    with pytest.raises(error, match=re.escape(
            f"d_grid must be finite and > 0, got {shown}") + "$"):
        sweep_diameter(1000.0, grid)


def test_a_long_refused_array_gives_a_short_message():
    # The message held the caller's whole list.
    fraction_a = [0.5] * 10 ** 5
    fraction_a[70_000] = 2.0
    with pytest.raises(NonPositiveRate) as info:
        bistability_scan(IDEAL, fraction_a, [1.0, 2.0])
    assert str(info.value) == ("fraction_a must be in [0, 1), got 2.0 at "
                               "index 70000")
    assert len(str(info.value)) < 200


def test_an_infinite_integer_argument_raises_no_warning():
    # The whole-number test runs only on a value inside the interval, so
    # inf % 1 is never taken.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteInput,
                           match="n_stages must be an integer >= 1"):
            slow_light(CHAIN, n_stages=np.float64("inf"))


def test_the_error_classes_load_no_numerical_code():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, onedatom.errors; "
         "print(sorted(m for m in sys.modules if m.startswith('numpy')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

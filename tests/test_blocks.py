"""The grid sweeps evaluate their points in blocks of `csvio.BLOCK_ROWS`.

Each entry must be the value a call on that point alone gives, bit for
bit, at and next to every block edge, and a scalar call of every closed
form must give the entry of the array call; the whole-grid results
(bistability verdicts and slope) must follow from the assembled columns;
and the transient memory of a sweep must stay one block, whatever the
grid size.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onedatom import (DiameterSweep, DriveField, NonFiniteInput,
                      ScatteringOutcome, bistability_scan, cli,
                      contrast_enhancement, critical_power, make_params,
                      params_from_ratios, saturation_curve, saturation_point,
                      scatter_nonlinear, steady_state, sweep_diameter,
                      transmission_leaky)
from onedatom.csvio import BLOCK_ROWS

N = 2 * BLOCK_ROWS + 3
EDGES = (0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS,
         N - 1)
#: A leaky, dephased and detuned device: every term of the kernel counts.
DEVICE = make_params(0.002, 1.0, delta=0.13, gamma_at=0.0003,
                     gamma_cav=0.05, gamma_star=0.0001)
X_GRID = np.logspace(-3.0, 4.0, N)


def handler_output(argv):
    """(header, columns, manifest) of a CLI subcommand's handler: the
    computation of `cli.run` without the CSV and manifest output."""
    parser = cli.build_parser(argv)
    ns = parser.parse_args(argv)
    _, rows, handler = cli._COMMANDS[ns.command]
    cli._apply_config(ns, parser, rows + cli._COMMON)
    cli._check_ranges(ns, parser, rows)
    return handler(ns, parser)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_spectrum_entries_at_block_edges_are_one_point_values():
    for evanescent in (False, True):
        argv = ["spectrum", "--gamma-over-kappa", "0.002", "--delta", "0.13",
                "--gamma-at", "0.0003", "--gamma-cav", "0.05", "--gamma-star",
                "0.0001", "--x", "0.7", "--grid", f"-0.05:0.05:{N}"]
        header, columns, _ = handler_output(
            argv + (["--evanescent"] if evanescent else []))
        col = dict(zip(header, columns))
        for i in EDGES:
            dw = np.array([col["delta_omega"][i]])
            out = scatter_nonlinear(
                DriveField.from_power(dw, 0.25 * 0.7 * 0.002), DEVICE)
            empty = transmission_leaky(dw, DEVICE, empty_cavity=True,
                                       evanescent=evanescent)
            t, r, cap_t, cap_r = out.t, out.r, out.cap_t, out.cap_r
            if evanescent:
                t, r, cap_t, cap_r = r, t, cap_r, cap_t
            row = (t.real, t.imag, r.real, r.imag, cap_t, cap_r,
                   1.0 - cap_t - cap_r, empty.cap_t)
            for name, value in zip(header[2:], row):
                assert same_bits(col[name][i], value[0]), (name, i)


def test_transmission_entries_at_block_edges_are_one_point_values():
    dw = np.linspace(-0.05, 0.05, N)
    swept = transmission_leaky(dw, DEVICE)
    for i in EDGES:
        one = transmission_leaky(dw[i], DEVICE)
        for name in ("t", "r", "cap_t", "cap_r", "leaks"):
            assert same_bits(getattr(swept, name)[i], getattr(one, name))


def test_transmission_of_a_large_grid_matches_scalar_calls():
    # One array op over 16384 complex values (256 KiB) lets numpy reuse a
    # temporary in place, swapping the operands of q t0' (gamma + u num)
    # in the kernel's r; its complex product is not commutative bit for
    # bit, so a whole-grid call missed the scalar value of r by an ulp
    # in about one entry in six.  A block of 4096 stays below that size.
    dw = np.linspace(-0.05, 0.05, 5 * BLOCK_ROWS)
    swept = transmission_leaky(dw, DEVICE)
    for i in range(0, dw.size, 37):
        assert swept.r[i] == transmission_leaky(dw[i], DEVICE).r


def test_saturation_entries_at_block_edges_are_one_point_values():
    curve = saturation_curve(DEVICE, X_GRID)
    for i in EDGES:
        assert curve[i] == saturation_curve(DEVICE, X_GRID[i:i + 1])[0]


def test_contrast_entries_at_block_edges_are_one_point_values():
    res = contrast_enhancement(X_GRID, 57.0, DEVICE)
    for i in EDGES:
        one = contrast_enhancement(X_GRID[i], 57.0, DEVICE)
        assert (res.c_ideal[i], res.c_leaky[i]) == (one.c_ideal, one.c_leaky)


def test_bistability_entries_at_block_edges_are_two_point_values():
    # A scan needs two points: each edge entry is the first point of a
    # two-point scan (the last entry the second).
    scan = bistability_scan(DEVICE, 0.5, X_GRID)
    for i in EDGES:
        j = min(i, N - 2)
        pair = bistability_scan(DEVICE, 0.5, X_GRID[j:j + 2])
        for name in ("p_e", "p_t", "slope_analytic", "slope_numeric"):
            assert same_bits(getattr(scan, name)[i],
                             getattr(pair, name)[i - j]), (name, i)


@st.composite
def devices(draw):
    """A device in units of a random kappa, each leak zero or not."""
    kappa = draw(st.floats(1e-3, 1e3))

    def rate(lo, hi):
        return draw(st.one_of(st.just(0.0), st.floats(lo, hi))) * kappa

    return make_params(rate(1e-4, 2.0) or 0.002 * kappa, kappa,
                       delta=draw(st.floats(-1.0, 1.0)) * kappa,
                       gamma_at=rate(1e-5, 0.1), gamma_cav=rate(1e-4, 1.0),
                       gamma_star=rate(1e-5, 0.1))


def assert_scalar_is_entry(one, swept, i, what):
    """Every field of the scalar call's result ``one`` is a Python number
    with the bits of entry ``i`` of the array call's field."""
    for f in dataclasses.fields(one):
        value, column = getattr(one, f.name), getattr(swept, f.name)
        if np.ndim(column) == 0:        # not evaluated per point
            continue
        assert type(value) in (float, complex), (what, f.name, value)
        assert same_bits(value, column[i]), (what, f.name, i, value,
                                             column[i])


@settings(max_examples=150, deadline=None)
@given(params=devices(), data=st.data(),
       n=st.integers(1, 12), extinction=st.floats(1.5, 1e3))
def test_scalar_calls_are_the_array_entries_bit_for_bit(params, data, n,
                                                        extinction):
    # A scalar call once took |t|^2 and |b_in|^2 as Python float powers
    # (the C pow) and missed the array's correctly rounded square by an
    # ulp: cap_t in about half of the drives of a leaky, detuned device.
    def column(elements):
        return np.array(data.draw(st.lists(elements, min_size=n,
                                           max_size=n)))

    dw = column(st.floats(-3.0, 3.0)) * params.kappa
    x = column(st.floats(0.0, 1e3))
    # contrast_enhancement refuses an x > 0 whose low pulse (gamma/4)
    # x/extinction is subnormal (see tests/test_applications.py); these
    # keep it normal for every device drawn here.
    x_reshape = column(st.one_of(st.just(0.0), st.floats(1e-280, 1e3)))
    p_in = 0.25 * x * params.gamma
    b_in = np.sqrt(p_in) * np.exp(1j * column(st.floats(-math.pi, math.pi)))
    drive = DriveField(dw, b_in)
    powered = DriveField.from_power(dw, p_in)
    swept = {
        "scatter_nonlinear": scatter_nonlinear(drive, params),
        "steady_state": steady_state(drive, params),
        "saturation_point": saturation_point(drive, params),
        "from_power": powered,
        "from_power.scatter_nonlinear": scatter_nonlinear(powered, params),
        "transmission_leaky": transmission_leaky(dw, params),
        "transmission_leaky.empty": transmission_leaky(
            dw, params, empty_cavity=True, evanescent=True),
        "contrast_enhancement": contrast_enhancement(x_reshape, extinction,
                                                     params),
    }
    p_c = critical_power(dw, params)
    for i in range(n):
        one_drive = DriveField(dw[i].item(), b_in[i].item())
        one_powered = DriveField.from_power(dw[i].item(), p_in[i].item())
        one = {
            "scatter_nonlinear": scatter_nonlinear(one_drive, params),
            "steady_state": steady_state(one_drive, params),
            "saturation_point": saturation_point(one_drive, params),
            "from_power": one_powered,
            "from_power.scatter_nonlinear": scatter_nonlinear(one_powered,
                                                              params),
            "transmission_leaky": transmission_leaky(dw[i].item(), params),
            "transmission_leaky.empty": transmission_leaky(
                dw[i].item(), params, empty_cavity=True, evanescent=True),
            "contrast_enhancement": contrast_enhancement(
                x_reshape[i].item(), extinction, params),
        }
        for what, result in one.items():
            assert_scalar_is_entry(result, swept[what], i, what)
        for p, ps in ((one_drive.p_in, drive.p_in),
                      (one_powered.p_in, powered.p_in),
                      (critical_power(dw[i].item(), params), p_c)):
            assert type(p) is float and same_bits(p, ps[i])


def _flat_p_e_step(quarter_gamma, start):
    """The first x >= ``start`` whose drive power (gamma/4) x rounds like
    that of the next float, so P_e, and with it P_0, does not increase.
    For gamma/4 = 0.75 and x in [4/3, 2) about one float in four does."""
    x = start
    while quarter_gamma * x != quarter_gamma * np.nextafter(x, math.inf):
        x = np.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("step", [BLOCK_ROWS - 1, BLOCK_ROWS + 900])
def test_bistability_verdict_sees_a_flat_step_in_the_second_block(step):
    # The only non-increasing P_0 step joins the points step and step + 1:
    # across the first block edge, or inside the second block.
    params = params_from_ratios(3.0, 100.0, q_ratio=0.9, f=7.0)
    x = np.linspace(1.5, 1.9, N)
    x[step] = _flat_p_e_step(0.75, x[step])
    x[step + 1] = np.nextafter(x[step], math.inf)
    fractions = np.array([0.0, 0.5, 0.99])
    scan = bistability_scan(params, fractions, x)
    for a, unique in zip(fractions, scan.unique_solution):
        p_0 = scan.p_e - a * scan.p_t
        assert np.flatnonzero(np.diff(p_0) <= 0.0).tolist() == [step]
        assert not unique
    assert scan.max_slope == max(scan.slope_analytic.max(),
                                 scan.slope_numeric.max())
    smooth = bistability_scan(params, fractions, np.linspace(1.5, 1.9, N))
    assert smooth.unique_solution.tolist() == [True] * 3


def test_saturation_refusal_names_the_grid_index():
    x = np.logspace(-3.0, 4.0, N)
    x[BLOCK_ROWS + 5:] = math.inf
    with pytest.raises(NonFiniteInput, match=f"b_in.*index {BLOCK_ROWS + 5}$"):
        saturation_curve(DEVICE, x)


def test_spectrum_refusal_names_the_grid_index(capsys):
    # dw = nu kappa overflows from nu > 1.7977e9, point 7366 of 8195.
    assert cli.run(["spectrum", "--kappa", "1e299",
                    "--grid", f"0:2e9:{N}"]) == 2
    err = capsys.readouterr().err
    assert "--grid/--kappa/--delta must" in err and "inf at index 7366" in err


MEMORY_POINTS = 50 * BLOCK_ROWS
#: Transient bytes a sweep may hold beyond the columns it returns: one
#: block of intermediates (about 1 MB for the spectrum) and slack.
MEMORY_SLACK = 4 * 2 ** 20


def _spectrum_columns(x):
    header, columns, _ = handler_output(
        ["spectrum", "--gamma-over-kappa", "0.002", "--q-ratio", "0.9",
         "--f", "7", "--x", "0.7", "--grid", f"-2:2:{x.size}"])
    return columns


def _columns(result, names):
    return [getattr(result, name) for name in names]


# Before the sweeps were blocked, all five cases failed: the traced peaks
# were 35.9 MiB (bistability_scan, for 6.25 MiB of returned columns),
# 31.3 MiB (saturation_curve, 9.6 MiB), 60.9 MiB (contrast_enhancement,
# 3.1 MiB), 56.3 MiB (spectrum, 15.6 MiB) and 56.3 MiB (sweep_diameter,
# 17.2 MiB).  Blocked, each holds about 1 MiB beyond its columns.  An
# array scatter_nonlinear that filled t, r and p_in in one pass and its
# seven columns in a second traced 22.1 MiB for 14.1 MiB of columns.
@pytest.mark.parametrize("sweep", [
    lambda x: _columns(bistability_scan(DEVICE, [0.1, 0.5, 0.9, 0.99], x),
                       ("p_e", "p_t", "slope_analytic", "slope_numeric")),
    lambda x: _columns(saturation_curve(DEVICE, x), (
        "x_eff", "cap_t", "cap_r", "noise_frac", "p_t_over_p_c",
        "p_r_over_p_c", "caution")),
    lambda x: _columns(contrast_enhancement(x, 57.0, DEVICE),
                       ("c_ideal", "c_leaky")),
    _spectrum_columns,
    # Diameters of 1 nm to 10 mm.
    lambda x: _columns(sweep_diameter(1000.0, x),
                       [f.name for f in dataclasses.fields(DiameterSweep)]),
    # Amplitudes of 1e-3 to 1e4 sqrt(photons/s) on resonance.
    lambda x: _columns(scatter_nonlinear(DriveField(0.0, x), DEVICE),
                       [f.name for f in dataclasses.fields(ScatteringOutcome)]),
], ids=["bistability_scan", "saturation_curve", "contrast_enhancement",
        "spectrum", "sweep_diameter", "scatter_nonlinear"])
def test_sweep_memory_is_its_columns_plus_one_block(sweep):
    x = np.logspace(-3.0, 4.0, MEMORY_POINTS)
    sweep(x[:BLOCK_ROWS])           # warm caches and lazy imports
    tracemalloc.start()
    try:
        columns = sweep(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(c) == MEMORY_POINTS for c in columns)
    returned = sum(c.nbytes for c in columns)
    assert peak < returned + MEMORY_SLACK, (peak, returned)

"""The pillar scan as one array call: columns, rows, the optimizer's
refinement scans and input checks."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from onedatom import (DiameterSweep, FieldProfileModel, FiguresOfMerit,
                      NonFiniteInput, NonPositiveRate, PillarDesign,
                      default_field_model, figures_of_merit,
                      optimize_diameter, params_from_ratios,
                      resonance_extrema, sweep_diameter)
from onedatom.linear import _fixed_point
from onedatom.pillar import _OBJECTIVE_COLUMN, OBJECTIVES

FIELD_MODELS = {
    "power_law": default_field_model(),
    "power_law_p2.7": FieldProfileModel(c_e=1.3, p_exp=2.7),
    "tabulated": FieldProfileModel(
        kind="tabulated",
        table=[(0.5, 0.9), (1.0, 0.31), (2.0, 0.12), (4.0, 0.02), (8.0, 0.0)]),
}
COLUMNS = [f.name for f in fields(FiguresOfMerit)]


def reference_row(design, field_model):
    """The figures of merit of one design in Python-float arithmetic,
    through params_from_ratios and the scalar kernel: an independent scalar
    path that the array evaluation must match bit for bit.  T_max is the
    closed form (Q/Q0)^2, and the closed-form T_min of resonance_extrema
    agrees with the kernel's to rounding.
    """
    if field_model.kind == "power_law":
        e2 = min(1.0, (field_model.c_e / design.d) ** field_model.p_exp)
    else:
        ds, es = zip(*field_model.table)
        e2 = float(np.interp(design.d, ds, es))
    lam_n = design.lambda_0 / design.n_index
    q = 1.0 / (1.0 / design.q0 + 2.0 * e2 * design.epsilon / design.d)
    v = lam_n * math.pi * design.d ** 2 / 8.0
    fp = 3.0 * q * lam_n ** 3 / (4.0 * math.pi ** 2 * v)
    f = fp / (design.loss_ratio + 2.0 * design.gamma_star_ratio)
    q_ratio = min(q / design.q0, 1.0)
    params = params_from_ratios(1.0, 500.0, q_ratio, f)
    ext = resonance_extrema(params)
    # |t| * |t|, correctly rounded like the array square; |t| ** 2 calls
    # the C pow, which may miss by one ulp.
    t_abs = abs(_fixed_point(0.0, 0.0, params)[4].item())
    t_min = min(t_abs * t_abs, ext.t_max)
    assert math.isclose(t_min, ext.t_min, rel_tol=1e-14, abs_tol=0.0)
    beta = f / (1.0 + f)
    return FiguresOfMerit(
        d=design.d, q=q, v=v, fp=fp, f=f, q_ratio=q_ratio, t_max=ext.t_max,
        t_min=t_min, contrast=ext.t_max - t_min, eta=beta * q_ratio,
        beta_sq=beta * beta)


design_kwargs = st.fixed_dictionaries({
    "epsilon": st.floats(0.0, 0.05),
    "loss_ratio": st.floats(0.01, 2.0),
    "gamma_star_ratio": st.floats(0.0, 2.0),
})
diameters = arrays(float, st.integers(1, 70), elements=st.floats(0.3, 10.0))


@settings(max_examples=150, deadline=None)
@given(q0=st.floats(10.0, 1e6), d=diameters, kwargs=design_kwargs,
       model=st.sampled_from(sorted(FIELD_MODELS)))
def test_sweep_columns_are_the_single_design_values(q0, d, kwargs, model):
    fm = FIELD_MODELS[model]
    sweep = sweep_diameter(q0, d, fm, **kwargs)
    assert isinstance(sweep, DiameterSweep) and len(sweep) == d.size
    for i, di in enumerate(d.tolist()):
        design = PillarDesign(q0=q0, d=di, **kwargs)
        single = figures_of_merit(design, fm)
        ref = reference_row(design, fm)
        for name in COLUMNS:
            # Bit for bit: == would let -0.0 and 0.0 pass.
            got = getattr(sweep, name)[i]
            assert got.tobytes() == np.float64(getattr(single, name)).tobytes()
            assert got.tobytes() == np.float64(getattr(ref, name)).tobytes(), name


def test_sweep_rows_are_python_float_figures_of_merit():
    sweep = sweep_diameter(1000.0, [1.0, 2.4, 5.0])
    rows = list(sweep)
    assert [type(r) for r in rows] == [FiguresOfMerit] * 3
    assert all(type(getattr(r, name)) is float for r in rows for name in COLUMNS)
    assert rows[1] == sweep[1] == figures_of_merit(PillarDesign(q0=1000.0, d=2.4))


def test_optimizer_sweep_and_probes_share_the_scan():
    res = optimize_diameter(1000.0, "contrast")
    assert isinstance(res.sweep, DiameterSweep)
    assert res.grid_points == len(res.sweep) == 376
    # 65-point scans shrink a bracket of two grid steps (0.04 um) by 32 each,
    # to 3.8e-8 um <= 1e-7 um after 4.
    assert res.refine_scans == 4
    assert res.merit == figures_of_merit(PillarDesign(q0=1000.0, d=res.d_opt))
    assert res.value == res.merit.contrast >= float(np.max(res.sweep.contrast))
    # The golden-section search that the scans replaced reached these.
    assert res.value >= 0.8518584770097322
    assert abs(res.d_opt - 2.4315369952486776) <= 1e-7
    boundary = optimize_diameter(1000.0, "purcell", d_range=(3.0, 8.0))
    assert boundary.at_boundary and boundary.refine_scans == 0


def golden_section(q0, objective, field_model, a, b, **design_kwargs):
    """Maximum of one objective on [a, b] by golden-section search down to
    a 1e-7 um bracket, one single-design evaluation per probe: the
    refinement the optimizer used before its array scans.
    """
    key = _OBJECTIVE_COLUMN[objective]

    def value(d):
        design = PillarDesign(q0=q0, d=d, **design_kwargs)
        return getattr(figures_of_merit(design, field_model), key)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = value(c), value(d)
    while b - a > 1e-7:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = value(d)
    return value(0.5 * (a + b))


@settings(max_examples=60, deadline=None)
@given(q0=st.floats(10.0, 1e6), objective=st.sampled_from(OBJECTIVES),
       model=st.sampled_from(sorted(FIELD_MODELS)), kwargs=design_kwargs)
def test_refinement_scans_reach_the_golden_section_optimum(q0, objective,
                                                           model, kwargs):
    fm = FIELD_MODELS[model]
    res = optimize_diameter(q0, objective, field_model=fm, **kwargs)
    column = getattr(res.sweep, _OBJECTIVE_COLUMN[objective])
    i = int(np.argmax(column))
    if res.at_boundary:
        assert res.refine_scans == 0 and res.d_opt == res.sweep.d[i]
        return
    a, b = float(res.sweep.d[i - 1]), float(res.sweep.d[i + 1])
    assert a <= res.d_opt <= b
    golden = golden_section(q0, objective, fm, a, b, **kwargs)
    assert res.value >= golden - 1e-12 * abs(golden)


def test_refinement_clamps_a_maximum_on_a_scan_edge():
    # |E(d)|^2 dips to 0 over one ulp at d = 2.2, a node of the coarse scan
    # but of no refinement scan: the first refinement scan sees only the
    # decreasing Purcell factor of |E|^2 = 0.5, so its maximum is its first
    # point.  The next bracket is clamped to [first, second point] rather
    # than wrapping round to the last one, and every later scan keeps its
    # maximum on that first point, the coarse neighbour d = 2.18.  The
    # coarse maximum at the dip is better than that, so it is the optimum.
    grid = np.linspace(1.0, 3.0, 101)
    dip = grid[60]
    assert dip not in np.linspace(grid[59], grid[61], 65)
    fm = FieldProfileModel(kind="tabulated", table=[
        (0.5, 0.5), (np.nextafter(dip, 0.0), 0.5), (dip, 0.0),
        (np.nextafter(dip, 8.0), 0.5), (8.0, 0.5)])
    res = optimize_diameter(1000.0, "purcell", d_range=(1.0, 3.0),
                            field_model=fm)
    assert res.grid_points == 101 and not res.at_boundary
    assert int(np.argmax(res.sweep.fp)) == 60
    assert res.refine_scans == 4
    assert res.d_opt == grid[60] and res.merit == res.sweep[60]


extreme_ratio = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(q0=st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
       loss_ratio=extreme_ratio,
       gamma_star_ratio=st.just(0.0) | extreme_ratio)
def test_contrast_is_never_negative(q0, loss_ratio, gamma_star_ratio):
    sweep = sweep_diameter(q0, np.linspace(0.3, 10.0, 40),
                           loss_ratio=loss_ratio,
                           gamma_star_ratio=gamma_star_ratio)
    assert np.all(sweep.t_min <= sweep.t_max)
    assert np.all(sweep.contrast >= 0.0)


def test_q_ratio_is_clipped_at_one():
    # 1/(1/49) rounds to 49.00000000000001, which used to fail the
    # (0, 1] check of Q/Q0 for a loss-free sidewall.
    m = figures_of_merit(PillarDesign(q0=49.0, d=2.0, epsilon=0.0))
    assert m.q_ratio == 1.0 and m.t_max == 1.0


@pytest.mark.parametrize("name", ["q0", "d", "epsilon", "lambda_0", "n_index",
                                  "loss_ratio", "gamma_star_ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_design_rejects_non_finite_fields(name, value):
    values = {"q0": 1000.0, "d": 2.0, name: value}
    with pytest.raises(NonFiniteInput, match=name):
        PillarDesign(**values)


@pytest.mark.parametrize("grid_step, error", [
    (0.0, NonPositiveRate), (-1.0, NonPositiveRate),
    (math.nan, NonFiniteInput), (math.inf, NonFiniteInput)])
def test_optimizer_rejects_bad_grid_steps(grid_step, error):
    with pytest.raises(error, match="grid_step"):
        optimize_diameter(1000.0, grid_step=grid_step)


@pytest.mark.parametrize("d_range", [(0.5, math.inf), (math.nan, 8.0)])
def test_optimizer_rejects_non_finite_ranges(d_range):
    with pytest.raises(NonFiniteInput, match="d_range"):
        optimize_diameter(1000.0, d_range=d_range)


@pytest.mark.parametrize("grid, error", [
    ([1.0, math.nan], NonFiniteInput), ([1.0, 0.0], NonPositiveRate)])
def test_sweep_rejects_bad_diameters(grid, error):
    with pytest.raises(error, match="d_grid"):
        sweep_diameter(1000.0, grid)

"""The pillar scan as one array call: columns, rows, the optimizer's
refinement scans and input checks."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from onedatom import (DiameterSweep, DomainError, FieldProfileModel,
                      FiguresOfMerit, NonFiniteInput, NonPositiveRate,
                      PillarDesign, default_field_model, figures_of_merit,
                      optimize_diameter, params_from_ratios,
                      resonance_extrema, sweep_diameter)
from onedatom.linear import _fixed_point
from onedatom.pillar import (_OBJECTIVE_COLUMN, _REFINE_POINTS, OBJECTIVES,
                             _sweep)

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
    # A scan and its rows are one record: a row is true and has no length,
    # a scan is true when it holds a row.
    assert DiameterSweep is FiguresOfMerit and type(sweep) is DiameterSweep
    assert sweep and rows[0] and not sweep_diameter(1000.0, [])
    with pytest.raises(TypeError):
        len(rows[0])


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


def one_ulp_dip_model():
    """A field model whose |E(d)|^2 dips from 0.5 to 0 over one ulp at
    d = 2.2, node 60 of the coarse scan of d_range (1, 3)."""
    dip = np.linspace(1.0, 3.0, 101)[60]
    return FieldProfileModel(kind="tabulated", table=[
        (0.5, 0.5), (np.nextafter(dip, 0.0), 0.5), (dip, 0.0),
        (np.nextafter(dip, 8.0), 0.5), (8.0, 0.5)])


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
    fm = one_ulp_dip_model()
    res = optimize_diameter(1000.0, "purcell", d_range=(1.0, 3.0),
                            field_model=fm)
    assert res.grid_points == 101 and not res.at_boundary
    assert int(np.argmax(res.sweep.fp)) == 60
    assert res.refine_scans == 4
    assert res.d_opt == grid[60] and res.merit == res.sweep[60]


extreme_ratio = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def reference_optimizer(q0, objective, d_range, field_model, **design_kwargs):
    """(d_opt, value, merit, at_boundary, refine_scans) of the optimizer
    with every refinement scan a full `_sweep` and ``merit`` the best row
    of the last scan: the loop whose results the objective-only scans must
    keep bit for bit.  Same default grid step.
    """
    key = _OBJECTIVE_COLUMN[objective]
    lo, hi = d_range
    n = max(2, int(math.ceil((hi - lo) / 0.02)) + 1)
    grid = np.linspace(lo, hi, n)
    design = PillarDesign(q0=q0, d=lo, **design_kwargs)
    sweep = _sweep(design, grid, field_model)
    values = getattr(sweep, key)
    i = int(np.argmax(values))
    if (key == "contrast"
            and values[i] <= 4.0 * np.finfo(float).eps * np.max(sweep.t_max)):
        i = 0
    at_boundary = i in (0, n - 1)
    coarse = i
    scan, scans = sweep, 0
    if not at_boundary:
        a, b = grid[i - 1], grid[i + 1]
        while b - a > 1e-7:
            scan = _sweep(design, np.linspace(a, b, _REFINE_POINTS),
                          field_model)
            i = int(np.argmax(getattr(scan, key)))
            a = scan.d[max(i - 1, 0)]
            b = scan.d[min(i + 1, _REFINE_POINTS - 1)]
            scans += 1
    merit = scan[i]
    if getattr(merit, key) < values[coarse]:
        merit = sweep[coarse]
    return merit.d, getattr(merit, key), merit, at_boundary, scans


def bits(value):
    """The bytes of a float, or of each field of a FiguresOfMerit row."""
    if isinstance(value, FiguresOfMerit):
        return [bits(getattr(value, name)) for name in COLUMNS]
    return np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(q0=st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
       objective=st.sampled_from(OBJECTIVES),
       model=st.sampled_from(sorted(FIELD_MODELS) + ["one_ulp_dip"]),
       kwargs=st.fixed_dictionaries({
           "epsilon": st.floats(0.0, 0.05) | extreme_ratio,
           "loss_ratio": st.floats(0.01, 2.0) | extreme_ratio,
           "gamma_star_ratio": st.just(0.0) | extreme_ratio}))
def test_objective_scans_keep_the_full_scan_optimum(q0, objective, model,
                                                    kwargs):
    if model == "one_ulp_dip":
        d_range, fm = (1.0, 3.0), one_ulp_dip_model()
    else:
        d_range, fm = (0.5, 8.0), FIELD_MODELS[model]
    try:
        ref = reference_optimizer(q0, objective, d_range, fm, **kwargs)
    except DomainError as exc:
        with pytest.raises(type(exc)) as got:
            optimize_diameter(q0, objective, d_range, fm, **kwargs)
        assert str(got.value) == str(exc)
        return
    res = optimize_diameter(q0, objective, d_range, fm, **kwargs)
    assert (res.at_boundary, res.refine_scans) == ref[3:]
    assert type(res.merit) is FiguresOfMerit
    assert [bits(res.d_opt), bits(res.value), bits(res.merit)] == [
        bits(v) for v in ref[:3]]


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

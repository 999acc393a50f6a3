"""The pillar scan as one array call: columns, rows and input checks."""

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
    through params_from_ratios and resonance_extrema: an independent scalar
    path that the array evaluation must match bit for bit.
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
    ext = resonance_extrema(params_from_ratios(1.0, 500.0, q_ratio, f))
    beta = f / (1.0 + f)
    return FiguresOfMerit(
        d=design.d, q=q, v=v, fp=fp, f=f, q_ratio=q_ratio, t_max=ext.t_max,
        t_min=ext.t_min, contrast=ext.t_max - ext.t_min, eta=beta * q_ratio,
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
    # Golden section from a bracket of two grid steps (0.04 um) to 1e-7 um.
    assert res.golden_probes == 29
    assert res.merit == figures_of_merit(PillarDesign(q0=1000.0, d=res.d_opt))
    assert res.value == res.merit.contrast >= float(np.max(res.sweep.contrast))
    boundary = optimize_diameter(1000.0, "purcell", d_range=(3.0, 8.0))
    assert boundary.at_boundary and boundary.golden_probes == 0


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

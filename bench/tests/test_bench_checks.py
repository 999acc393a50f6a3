"""Every output check accepts real outputs and rejects corrupted ones."""

import json
import math
import shutil

import numpy as np
import pytest

import checks
from onedatom.cli import run

SMALL = {
    "spectrum_linear": (
        "spectrum --gamma-over-kappa 0.003 --delta 0.2 --q-ratio 0.8 --f 7 "
        "--grid -2:2:301",
        {"kind": "spectrum", "g": 0.003, "delta": 0.2, "q": 0.8, "f": 7.0,
         "grid": "-2:2:301"}),
    "spectrum_saturated": (
        "spectrum --gamma-over-kappa 0.003 --delta 0.2 --x 3 --grid -0.03:0.03:301",
        {"kind": "spectrum", "g": 0.003, "delta": 0.2, "x": 3.0,
         "grid": "-0.03:0.03:301"}),
    "saturation_ideal": (
        "saturation --ideal --x-grid log:-3:4:301",
        {"kind": "saturation", "g": 0.002, "grid": "log:-3:4:301"}),
    "saturation_leaky": (
        "saturation --q-ratio 0.9 --f 5 --x-grid log:-3:4:301",
        {"kind": "saturation", "g": 0.002, "q": 0.9, "f": 5.0,
         "grid": "log:-3:4:301"}),
    "reshape": (
        "reshape --q-ratio 0.9 --f 30 --extinction 20 --x-grid log:-3:2:101",
        {"kind": "reshape", "g": 0.002, "q": 0.9, "f": 30.0,
         "extinction": 20.0, "grid": "log:-3:2:101"}),
    "bistability": (
        "bistability --x-grid log:-3:4:301",
        {"kind": "bistability", "g": 0.002, "grid": "log:-3:4:301"}),
    "pillar": ("pillar --q0 3000 --objective efficiency",
               {"kind": "pillar", "q0": 3000.0, "objective": "efficiency"}),
    "slowlight": ("slowlight --f-list 5,10,100",
                  {"kind": "slowlight", "f_list": [5.0, 10.0, 100.0]}),
    "kerr": ("kerr", {"kind": "kerr"}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run each small command once; return name -> (csv path, check spec)."""
    base = tmp_path_factory.mktemp("cli")
    made = {}
    for name, (line, spec) in SMALL.items():
        out = base / f"{name}.csv"
        assert run([*line.split(), "--out", str(out)]) == 0
        made[name] = (out, spec)
    return made


def copy(outputs, name, tmp_path):
    src, spec = outputs[name]
    dst = tmp_path / src.name
    shutil.copy(src, dst)
    shutil.copy(f"{src}.manifest.json", f"{dst}.manifest.json")
    return dst, spec


def rewrite_cell(path, row, column, transform):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(transform(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_outputs_pass(outputs, name):
    out, spec = outputs[name]
    rows = checks.check_cli(spec, str(out))
    assert rows == len(out.read_text().splitlines()) - 1


def test_missing_row_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "spectrum_linear", tmp_path)
    lines = out.read_text().split("\n")
    out.write_text("\n".join(lines[:-2] + [""]))
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_cli(spec, str(out))


def test_wrong_manifest_row_count_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "saturation_ideal", tmp_path)
    manifest = json.loads(open(f"{out}.manifest.json").read())
    manifest["rows"] += 1
    open(f"{out}.manifest.json", "w").write(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="manifest rows"):
        checks.check_cli(spec, str(out))


def test_unparsable_manifest_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "kerr", tmp_path)
    open(f"{out}.manifest.json", "w").write("{\"rows\": 1,")
    with pytest.raises(checks.CheckFailed, match="does not parse"):
        checks.check_cli(spec, str(out))


def test_wrong_header_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "reshape", tmp_path)
    out.write_text(out.read_text().replace("c_leaky", "c_lossy", 1))
    with pytest.raises(checks.CheckFailed, match="header"):
        checks.check_cli(spec, str(out))


@pytest.mark.parametrize("name,column", [
    ("spectrum_linear", "leaks"), ("spectrum_saturated", "leaks"),
    ("saturation_leaky", "noise_frac")])
def test_broken_energy_budget_is_rejected(outputs, tmp_path, name, column):
    out, spec = copy(outputs, name, tmp_path)
    rewrite_cell(out, 17, column, lambda v: v + 1e-9)
    with pytest.raises(checks.CheckFailed, match=r"T\+R\+leaks"):
        checks.check_cli(spec, str(out))


def test_wrong_ideal_saturation_curve_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "saturation_ideal", tmp_path)
    rewrite_cell(out, 100, "cap_t", lambda v: v * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="cap_t"):
        checks.check_cli(spec, str(out))


def test_suboptimal_pillar_optimum_is_rejected(outputs, tmp_path):
    out, spec = copy(outputs, "pillar", tmp_path)
    path = f"{out}.manifest.json"
    manifest = json.loads(open(path).read())
    manifest["results"]["value"] *= 0.99
    open(path, "w").write(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="optimum"):
        checks.check_cli(spec, str(out))


def test_settle_check_rejects_1e_5_error():
    op = {"gamma": 1.0, "kappa": 500.0, "delta": 150.0, "q": 1.0,
          "f": math.inf, "dw": 1.5, "p_in": 3.0}
    s, s_z = checks.steady_state(op)
    checks.check_settled(op, s, s_z)
    for ds, dz in ((1e-5, 0), (1e-5j, 0), (0, 1e-5)):
        with pytest.raises(checks.CheckFailed, match="settled"):
            checks.check_settled(op, s + ds, s_z + dz)


def test_dynamics_output_and_settled_state(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--kappa", "500", "--samples", "201",
                "--settle", "--out", str(out)]) == 0
    spec = {"kind": "dynamics", "g": 0.002, "kappa": 500.0, "x": 1.0,
            "samples": 201}
    assert checks.check_cli(spec, str(out)) == 201
    path = f"{out}.manifest.json"
    manifest = json.loads(open(path).read())
    manifest["results"]["settled"]["s_z"] += 1e-5
    open(path, "w").write(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="settled s_z"):
        checks.check_cli(spec, str(out))


def test_trajectory_outside_bloch_ball_is_rejected(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "0.5", "--kappa", "500", "--samples", "101",
                "--out", str(out)]) == 0
    rewrite_cell(out, 50, "s_z", lambda v: -0.6)
    rows, col = checks.read_csv(out, checks.COLUMNS["dynamics"])
    op = {"gamma": 1.0, "kappa": 500.0, "delta": 0.0, "q": 1.0,
          "f": math.inf, "dw": 0.0, "p_in": 0.125, "samples": 101}
    with pytest.raises(checks.CheckFailed, match="Bloch ball"):
        checks.check_trajectory(col, rows, op, 20.0)


def test_grid_matches_the_cli_parser():
    from onedatom.cli import parse_grid
    for text in ("-2:2:2001", "log:-3:4:701", "-0.02:0.02:401"):
        assert np.array_equal(checks.grid(text), parse_grid(text))

"""The seeded input generator."""

import math
import pathlib

import pytest

import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert a == b
    assert workloads.inputs_hash(a) == workloads.inputs_hash(b)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_other_seed_other_inputs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 8)
    assert a != b
    assert workloads.inputs_hash(a) != workloads.inputs_hash(b)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_pass_shape_does_not_depend_on_seed(name):
    shapes = {tuple(op.get("kind") or op["argv"][0]
                    for op in sorted(workloads.generate(name, s),
                                     key=lambda o: str(o.get("kind") or o["argv"][0])))
              for s in range(5)}
    assert len(shapes) == 1


def test_cli_figures_are_the_readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    typed = {line[len("onedatom "):].strip()
             for line in readme.splitlines() if line.startswith("onedatom ")}
    ours = {" ".join(op["argv"]) for op in workloads.cli_figures(0)}
    assert ours == typed


def test_dense_sweeps_use_the_default_pool_and_large_grids():
    sizes = []
    for op in workloads.dense_sweeps(3):
        assert "--threads" not in op["argv"]
        if "grid" in op["check"]:
            sizes.append(int(op["check"]["grid"].rsplit(":", 1)[1]))
    assert len(sizes) == 6 and min(sizes) >= 6001
    assert sum(sizes) > 100_000


@pytest.mark.parametrize("seed", range(4))
def test_strongly_driven_off_resonant_share_is_fixed(seed):
    ideal = [op for op in workloads.ode_oracle(seed)
             if op["kind"] == "settle" and math.isinf(op["f"])]
    strong = []
    for op in ideal:
        p_c = workloads.ideal_critical_power(op["dw"], op["gamma"],
                                             op["kappa"], op["delta"])
        if op["p_in"] / p_c >= 10 ** workloads.STRONG_LOG10_X and abs(op["dw"]) >= 2.5:
            strong.append(op)
    assert len(ideal) == 12
    assert len(strong) == 3
    assert sorted(op["delta"] for op in strong) == [-250.0, 0.0, 150.0]

import argparse
import ast
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import onedatom
from onedatom import (DriveField, cli, make_params, pillar,
                      scatter_nonlinear, transmission_leaky)
from onedatom.cli import parse_grid, run


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def read_manifest(out_path):
    with open(str(out_path) + ".manifest.json") as fh:
        return json.load(fh)


def test_parse_grid_linear_and_log():
    g = parse_grid("-2:2:5")
    assert list(g) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    lg = parse_grid("log:-1:1:3")
    assert list(lg) == pytest.approx([0.1, 1.0, 10.0])
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("1:2:1")


def test_spectrum_reproduces_linear_dip(tmp_path):
    out = tmp_path / "fig3.csv"
    code = run(["spectrum", "--gamma-over-kappa", "0.002", "--delta", "0",
                "--grid", "-2:2:2001", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 2001
    assert header[:2] == ["nu", "delta_omega"]
    centre = rows[1000]
    named = dict(zip(header, centre))
    assert named["nu"] == 0.0
    assert named["cap_t"] == 0.0
    assert named["cap_r"] == 1.0
    assert named["cap_t0"] == 1.0
    manifest = read_manifest(out)
    assert manifest["rows"] == 2001
    assert manifest["derived"]["q_ratio"] == 1.0
    assert "versions" in manifest


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `onedatom ...` lines of the README's command-line examples."""
    return [line.split()[1:] for line in README.read_text().splitlines()
            if line.startswith("onedatom ")]


def test_readme_commands_are_deterministic(tmp_path, monkeypatch, capsys):
    # Each README figure command, run twice, writes the same CSV and
    # manifest bytes; the worker-pool option that once existed is gone.
    commands = readme_commands()
    assert len(commands) == 11
    outputs = {}
    for rep in ("a", "b"):
        work = tmp_path / rep
        work.mkdir()
        monkeypatch.chdir(work)
        for argv in commands:
            assert run(argv) == 0, argv
            out = pathlib.Path(argv[argv.index("--out") + 1])
            manifest = pathlib.Path(f"{out}.manifest.json")
            outputs.setdefault(out.name, []).append(
                (out.read_bytes(), manifest.read_bytes()))
    for name, (first, second) in outputs.items():
        assert first == second, name
    capsys.readouterr()
    assert run(["spectrum", "--grid", "-2:2:301", "--threads", "1",
                "--out", "threads.csv"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not pathlib.Path("threads.csv").exists()


def test_spectrum_nonlinear_leaky_resonant_value(tmp_path):
    # On resonance the leaky device gives t = beta/(1 + beta^2 x) - 1
    # with x = 4 P_in/gamma = 1 and beta = f/(1+f).
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--x", "1", "--f", "5", "--grid", "0:1:5",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    named = dict(zip(header, rows[0]))
    beta = 5.0 / 6.0
    t = beta / (1.0 + beta * beta) - 1.0
    assert named["re_t"] == pytest.approx(t, rel=1e-12)
    assert named["im_t"] == 0.0
    assert named["cap_r"] == pytest.approx((1.0 + t) ** 2, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--x", "1", "--f", "5", "--grid", "-0.01:0.01:21"],
    ["saturation", "--delta", "0.5", "--x-grid", "log:-3:4:71"],
    ["saturation", "--gamma-star", "0.001", "--x-grid", "log:-3:4:71"],
    ["reshape", "--delta", "0.3", "--x-grid", "log:-3:2:51"]])
def test_leaky_dephased_and_detuned_nonlinear_runs(tmp_path, argv):
    # Saturated leaky, dephased and detuned devices run and keep the budget.
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 0
    header, rows = read_csv(out)
    col = dict(zip(header, np.array(rows).T))
    assert np.isfinite(np.array(rows)).all()
    rest = col.get("leaks", col.get("noise_frac"))
    if rest is not None:
        assert np.all(np.abs(col["cap_t"] + col["cap_r"] + rest - 1.0) < 1e-12)
        assert np.all(rest >= -1e-12)


def test_spectrum_usage_errors():
    assert run(["spectrum", "--grid", "nonsense"]) == 2
    assert run(["spectrum", "--no-such-flag"]) == 2
    assert run(["spectrum", "--gamma-cav", "1", "--q-ratio", "0.5"]) == 2


def test_saturation_ideal_curve(tmp_path):
    out = tmp_path / "sat.csv"
    assert run(["saturation", "--ideal", "--x-grid", "log:-3:4:71",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "x_eff", "cap_t", "cap_r", "noise_frac",
                      "p_t_over_p_c", "p_r_over_p_c", "caution"]
    x_last, t_last = rows[-1][0], rows[-1][2]
    assert x_last == pytest.approx(1e4)
    assert t_last == pytest.approx((1e4 / (1 + 1e4)) ** 2, rel=1e-12)
    manifest = read_manifest(out)
    assert manifest["results"]["p_c"] == pytest.approx(0.0005)  # gamma/4, gamma=0.002


def test_saturation_ideal_conflicts_with_leak_flags():
    assert run(["saturation", "--ideal", "--f", "5"]) == 2


@pytest.mark.parametrize("argv, pair, message", [
    (["spectrum", "--grid", "-1:1:3"],
     {"gamma": 0.1, "gamma_over_kappa": 0.5},
     "--gamma and --gamma-over-kappa are mutually exclusive"),
    (["saturation", "--x-grid", "log:-1:1:3"],
     {"ideal": True, "gamma_star": 0.1},
     "--ideal conflicts with --gamma-star")])
@pytest.mark.parametrize("from_config", [(), ("gamma", "ideal"),
                                         ("gamma_over_kappa", "gamma_star")])
def test_gamma_and_dephasing_pairs_are_usage_errors(tmp_path, capsys, argv,
                                                    pair, message,
                                                    from_config):
    # Each pair exits 2 naming both flags, also when one of them comes
    # from --config; neither flag is silently dropped.
    config = {k: v for k, v in pair.items() if k in from_config}
    for key, value in pair.items():
        if key not in config:
            flag = "--" + key.replace("_", "-")
            argv = argv + ([flag] if value is True else [flag, str(value)])
    if config:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_each_flag_of_the_gamma_and_dephasing_pairs_alone_keeps_its_output(
        tmp_path):
    def csv_and_derived(*argv):
        out = tmp_path / "o.csv"
        assert run([*argv, "--out", str(out)]) == 0
        return out.read_bytes(), read_manifest(out)["derived"]

    grid = ["--grid", "-1:1:5"]
    default, derived = csv_and_derived("spectrum", *grid)
    assert derived["gamma"] == 0.002
    assert csv_and_derived("spectrum", "--gamma", "0.002", *grid)[0] == default
    by_ratio, derived = csv_and_derived(
        "spectrum", "--gamma-over-kappa", "0.25", "--kappa", "2", *grid)
    assert derived["gamma"] == 0.5
    assert csv_and_derived("spectrum", "--gamma", "0.5", "--kappa", "2",
                           *grid)[0] == by_ratio
    grid = ["--x-grid", "log:-1:1:5"]
    default, derived = csv_and_derived("saturation", *grid)
    assert derived["gamma_star"] == 0.0
    assert csv_and_derived("saturation", "--ideal", *grid)[0] == default
    assert csv_and_derived("saturation", "--gamma-star", "0", *grid)[0] \
        == default
    dephased, derived = csv_and_derived("saturation", "--gamma-star", "0.1",
                                        *grid)
    assert derived["gamma_star"] == 0.1 and dephased != default


def test_dynamics_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--duration", "20", "--samples", "11",
                "--kappa", "500", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "re_s", "im_s", "s_z",
                      "re_bt", "im_bt", "re_br", "im_br"]
    assert len(rows) == 11
    assert rows[0][3] == -0.5


def test_dynamics_settle_manifest(tmp_path):
    out = tmp_path / "settle.csv"
    assert run(["dynamics", "--x", "1", "--settle", "--samples", "5",
                "--kappa", "500", "--out", str(out)]) == 0
    settled = read_manifest(out)["results"]["settled"]
    assert settled["s_z"] == pytest.approx(-0.25, abs=1e-6)
    # The distance of the settled state to the closed-form fixed point: the
    # settle tolerance for the eliminated equations, and for the full
    # system the error of the elimination (1.8e-4 here).
    assert 0.0 <= settled["steady_state_gap"] < 1e-8
    # The master equation settles at x = 1 (the mean-field closure it
    # replaced had no damped steady state there and exited 3).
    full = tmp_path / "full.csv"
    assert run(["dynamics", "--x", "1", "--settle", "--samples", "5",
                "--kappa", "500", "--full-system", "--out", str(full)]) == 0
    settled = read_manifest(full)["results"]["settled"]
    assert 1e-8 < settled["steady_state_gap"] <= 1e-3
    assert settled["windows"] == 7


def test_dynamics_settle_honours_a_given_duration(tmp_path):
    # --settle used to replace --duration by the settled time (35 here)
    # without a word; without the flag the settled time stays the default.
    argv = ["dynamics", "--x", "1", "--kappa", "500", "--samples", "5",
            "--settle"]
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    assert run([*argv, "--duration", "3", "--out", str(given)]) == 0
    assert run([*argv, "--out", str(default)]) == 0
    manifest = read_manifest(given)
    assert manifest["options"]["duration"] == 3.0
    assert manifest["results"]["settled"]["time"] == 35.0
    assert read_csv(given)[1][-1][0] == 3.0
    assert read_manifest(default)["options"]["duration"] == 35.0
    assert read_csv(default)[1][-1][0] == 35.0


def test_dynamics_manifest_solver_diagnostics(tmp_path):
    out = tmp_path / "settle.csv"
    assert run(["dynamics", "--x", "1", "--settle", "--samples", "5",
                "--kappa", "500", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    solver = manifest["diagnostics"]["solver"]
    assert set(solver) == {"method", "squarings", "samples", "settle_windows"}
    assert solver["method"] == "expm"
    assert isinstance(solver["squarings"], int) and solver["squarings"] > 0
    assert solver["samples"] == manifest["rows"] == 5
    assert solver["settle_windows"] == manifest["results"]["settled"]["windows"]
    header, rows = read_csv(out)
    assert header == ["t", "re_s", "im_s", "s_z",
                      "re_bt", "im_bt", "re_br", "im_br"]
    # Only deterministic counts: a second run writes the same manifest.
    again = tmp_path / "again.csv"
    assert run(["dynamics", "--x", "1", "--settle", "--samples", "5",
                "--kappa", "500", "--out", str(again)]) == 0
    assert read_manifest(again)["diagnostics"] == manifest["diagnostics"]

    plain = tmp_path / "plain.csv"
    assert run(["dynamics", "--x", "1", "--samples", "5", "--kappa", "500",
                "--out", str(plain)]) == 0
    solver = read_manifest(plain)["diagnostics"]["solver"]
    assert solver["settle_windows"] == 0 and solver["squarings"] > 0

    full = tmp_path / "full.csv"
    assert run(["dynamics", "--x", "1", "--samples", "5", "--kappa", "500",
                "--settle", "--full-system", "--out", str(full)]) == 0
    solver = read_manifest(full)["diagnostics"]["solver"]
    assert solver["fock_levels"] == 4 and solver["settle_windows"] == 7


@pytest.mark.parametrize("value", ["0", "-3", "1", "2.7", "nan", "inf"])
def test_dynamics_rejects_bad_sample_counts(tmp_path, capsys, value):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--samples", value,
                "--out", str(out)]) == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_dynamics_rejects_bad_sample_count_from_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 2.7}))
    assert run(["dynamics", "--config", str(config),
                "--out", str(tmp_path / "traj.csv")]) == 2
    assert "--samples" in capsys.readouterr().err


def test_dynamics_accepts_integral_sample_count(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--samples", "2", "--duration", "1",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 and rows[-1][0] == 1.0
    assert read_manifest(out)["options"]["samples"] == 2


#: The package's public names, as listed before they were resolved lazily.
PUBLIC_NAMES = {
    "BistabilityResult", "BlochState", "DephasingUnsupported", "DiameterSweep",
    "DomainError", "DriveField", "FieldProfileModel", "FiguresOfMerit",
    "InvalidInitial", "LeakyNotSupported", "LinearSpectrumPoint", "Linewidths",
    "NoConvergence", "NonFiniteInput", "NonPositiveRate",
    "OneDimAtomError", "OptimizeResult",
    "PillarDesign", "ReshapeResult", "ResonanceExtrema", "SaturationCurve",
    "SaturationCurvePoint", "SaturationPoint", "ScanFailed",
    "ScatteringOutcome", "SettleResult", "SlowLightResult", "StepCollapse",
    "SystemParams", "Trajectory", "UnsupportedRegime", "bistability_scan",
    "contrast_enhancement", "critical_power", "critical_power_watts",
    "default_field_model", "empty_cavity_t0", "figures_of_merit", "integrate",
    "kerr_equivalent", "linewidths_ideal", "make_params", "mode_volume",
    "optimize_diameter", "outcome_from_amplitudes", "output_amplitudes",
    "params_from_ratios", "phi_ideal", "phi_leaky", "purcell_factor",
    "q_total", "resonance_extrema", "saturation_curve", "saturation_point",
    "scatter_nonlinear", "scattering_matrix_ideal", "settle",
    "slow_light", "steady_state", "susceptibility", "sweep_diameter",
    "switching_intensity", "t0_prime", "transmission_leaky",
}

#: One cheap call of each subcommand.
CHEAP_CALLS = {
    "spectrum": ["--grid", "-2:2:21"], "saturation": ["--x-grid", "log:-1:1:5"],
    "dynamics": ["--x", "1", "--duration", "1", "--samples", "3"],
    "pillar": ["--q0", "1000"], "slowlight": [],
    "bistability": ["--x-grid", "log:-1:1:5"],
    "reshape": ["--x-grid", "log:-1:1:5"], "kerr": [],
}

FRESH_IMPORT = """
import json, sys
import onedatom.cli
print(json.dumps(sorted(sys.modules)))
"""

FRESH_RUN = """
import json, sys
import onedatom.cli
code = onedatom.cli.run(sys.argv[1:])
print(json.dumps([code, "scipy" in sys.modules]))
"""

FRESH_API = """
import json
import onedatom
listed = dir(onedatom)
names = onedatom.__all__
print(json.dumps({"all": names, "undir": sorted(set(names) - set(listed)),
                  "unresolved": [n for n in names if not hasattr(onedatom, n)],
                  "unknown": hasattr(onedatom, "no_such_name")}))
"""


def test_cli_import_does_not_load_the_integrator(tmp_path, capsys):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)

    def fresh(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    loaded = set(fresh(FRESH_IMPORT))
    assert {m for m in loaded if m.split(".")[0] == "onedatom"} == {
        "onedatom", "onedatom.cli", "onedatom.csvio", "onedatom.errors"}
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    for name in ("spectrum", "pillar", "kerr"):
        assert fresh(FRESH_RUN, name, *CHEAP_CALLS[name],
                     "--out", f"{name}.csv") == [0, False], name
    for extra in ([], ["--full-system"]):
        assert fresh(FRESH_RUN, "dynamics", "--x", "1", "--kappa", "500",
                     "--samples", "5", "--settle", *extra,
                     "--out", "dynamics.csv") == [0, False], extra

    api = fresh(FRESH_API)
    assert set(api["all"]) == PUBLIC_NAMES
    assert api["undir"] == [] and api["unresolved"] == []
    assert api["unknown"] is False
    with pytest.raises(AttributeError):
        onedatom.no_such_name

    subs = next(a for a in cli.build_parser(["kerr", "--out", "k.csv"])._actions
                if a.dest == "command").choices
    assert list(subs) == ["kerr"]
    assert [n for n in subs if len(subs[n]._actions) > 1] == ["kerr"]

    for name, args in CHEAP_CALLS.items():
        out = tmp_path / f"{name}.csv"
        assert run([name, *args, "--out", str(out)]) == 0, name
        assert "scipy" not in read_manifest(out)["versions"], name
    capsys.readouterr()
    assert run(["--help"]) == 0
    listing = capsys.readouterr().out
    for name in CHEAP_CALLS:
        assert name in listing
        assert run([name, "--help"]) == 0
        assert "--out" in capsys.readouterr().out


def subcommands(parser):
    """The subcommand parsers registered on ``parser``, by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def test_a_named_subcommand_builds_only_its_own_parser(tmp_path, monkeypatch,
                                                        capsys):
    for name, args in CHEAP_CALLS.items():
        assert list(subcommands(cli.build_parser([name, *args]))) == [name]
    for argv in ([], ["--help"], ["bogus"], ["-h", "kerr"]):
        assert list(subcommands(cli.build_parser(argv))) == list(CHEAP_CALLS)

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    # A process builds each parser on first use only.
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, count in ((["kerr", "--out", str(tmp_path / "k.csv")], 2),
                        (["--help"], 9)):
        for want in (count, 0):
            built.clear()
            assert run(argv) == 0
            assert len(built) == want, argv


def test_a_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch,
                                                        capsys):
    # On one table of parsers, each README line runs fresh, then with an
    # unknown flag, then with its options from --config, then again: the
    # first and last runs write the same bytes, the --config run too, and
    # the usage error reads as it does on a parser built for it alone.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_PARSERS", {})

    def outputs(argv):
        out = pathlib.Path(argv[argv.index("--out") + 1])
        manifest = pathlib.Path(f"{out}.manifest.json")
        return out.read_bytes(), manifest.read_bytes()

    def fresh_table_run(argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSERS", {})
            return run(argv), capsys.readouterr()

    for argv in readme_commands():
        assert run(argv) == 0, argv
        first = outputs(argv)
        bogus = [*argv, "--bogus", "1"]
        assert (run(bogus), capsys.readouterr()) == fresh_table_run(bogus)
        options, flag = {}, None
        for arg in argv[1:]:
            if arg.startswith("--"):
                flag = arg[2:]
                options[flag] = True
            else:
                options[flag] = arg
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        assert run([argv[0], "--config", str(config)]) == 0, argv
        assert outputs(argv) == first, argv
        assert run(argv) == 0, argv
        assert outputs(argv) == first, argv
    capsys.readouterr()
    for argv in (["--help"], *([name, "--help"] for name in CHEAP_CALLS)):
        texts = [(run(argv), capsys.readouterr()) for _ in range(2)]
        assert texts[0] == texts[1] and texts[0][0] == 0, argv


def test_usage_errors_list_every_subcommand(capsys):
    # The usage line and the choices name all eight subcommands whether one
    # or all eight parsers are built.
    braces = "{" + ",".join(CHEAP_CALLS) + "}"
    assert run(["spectrum", "--bogus", "1"]) == 2
    err = capsys.readouterr().err
    assert braces in err and "unrecognized arguments: --bogus 1" in err
    assert run([]) == 2
    err = capsys.readouterr().err
    assert braces in err
    assert "the following arguments are required: command" in err
    assert run(["bogus"]) == 2
    err = capsys.readouterr().err
    assert braces in err
    choices = err.split("argument command: invalid choice")[1]
    positions = [choices.find(name) for name in CHEAP_CALLS]
    assert -1 not in positions and positions == sorted(positions)


def test_pillar_optimization_manifest(tmp_path):
    out = tmp_path / "pillar.csv"
    assert run(["pillar", "--q0", "1000", "--objective", "contrast",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["d_um", "Q", "V_um3", "Fp", "f", "Tmax", "Tmin",
                      "contrast", "eta", "beta_sq"]
    res = read_manifest(out)["results"]
    assert res["d_opt"] == pytest.approx(2.4, abs=0.4)
    assert res["contrast"] == pytest.approx(0.85, abs=0.03)
    assert not res["at_boundary"]


def test_pillar_requires_q0():
    assert run(["pillar", "--objective", "contrast"]) == 2


def test_slowlight_rows(tmp_path):
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", "5,10", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "f" and len(rows) == 2
    named = dict(zip(header, rows[1]))
    assert named["n_half"] == pytest.approx(0.5 * math.log(2) / math.log(1.1))


def test_slowlight_manifest_reports_the_chain_of_n_stages(tmp_path):
    # --n-stages once changed nothing but the manifest's echo of it.
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", "5,10", "--n-stages", "7",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    results = read_manifest(out)["results"]
    assert len(results["delay_after_stages"]) == len(rows) == 2
    for row, delay, t in zip(rows, results["delay_after_stages"],
                             results["t_after_stages"]):
        named = dict(zip(header, row))
        assert delay == pytest.approx(7 * named["delay_analytic"], rel=1e-15)
        assert t == pytest.approx(named["t_per_stage"] ** 7, rel=1e-14)


def test_bistability_verdicts(tmp_path):
    out = tmp_path / "bi.csv"
    assert run(["bistability", "--x-grid", "log:-3:4:701",
                "--out", str(out)]) == 0
    res = read_manifest(out)["results"]
    assert res["max_slope"] < 1.0
    assert all(res["verdicts"].values())


@pytest.mark.parametrize("argv, count", [
    (["--gamma", "1e-300", "--x-grid", "log:-7:0:8"], 5), ([], 0)])
def test_bistability_manifest_counts_subnormal_p_t_rows(tmp_path, argv,
                                                        count):
    # x = 1e-7 ... 1e-3 give a p_t below the normal float range there.
    out = tmp_path / "bi.csv"
    assert run(["bistability", *argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    p_t = np.array([row[2] for row in rows])
    assert np.count_nonzero(p_t < np.finfo(float).tiny) == count
    assert read_manifest(out)["diagnostics"] == {"p_t_subnormal_rows": count}


@pytest.mark.parametrize("kappa, x, rtol", [
    ("1e308", "1", 1e-12), ("1e-300", "1", 1e-12),
    # gamma = 2e-311 is subnormal, with 12 digits.
    ("1e-308", "0", 1e-9)])
def test_spectrum_runs_across_the_float_range_of_kappa(tmp_path, kappa, x,
                                                       rtol):
    # Rates in units of kappa give the kappa = 1 spectrum: 2i dw once
    # overflowed at kappa = 1e308, and kappa = 1e-308 exited 3 on NaN.
    cols = {}
    for k in ("1", kappa):
        out = tmp_path / f"{k}.csv"
        assert run(["spectrum", "--kappa", k, "--x", x, "--grid", "-1:1:5",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        cols[k] = dict(zip(header, np.array(rows).T))
    for name in ("re_t", "im_t", "re_r", "im_r", "cap_t", "cap_r", "cap_t0"):
        np.testing.assert_allclose(cols[kappa][name], cols["1"][name],
                                   rtol=rtol, atol=1e-15, err_msg=name)


def test_slowlight_manifest_flags_delays_outside_the_band(tmp_path):
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", "0.1,0.01,5", "--out", str(out)]) == 0
    diagnostics = read_manifest(out)["diagnostics"]
    assert diagnostics == {"delay_band": 0.02,
                           "f_outside_delay_band": [0.1, 0.01]}
    assert run(["slowlight", "--f-list", "5,10,100", "--out", str(out)]) == 0
    assert read_manifest(out)["diagnostics"]["f_outside_delay_band"] == []


def test_bistability_honours_detuning_and_leaks(tmp_path):
    out = tmp_path / "bi.csv"
    assert run(["bistability", "--delta", "0.5", "--x-grid", "log:0:1:3",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    col = dict(zip(header, np.array(rows).T))
    x = col["x"]
    # |t0(0)|^2 (gamma/4) x^3/(1+x)^2, gamma = 0.002, |t0(0)|^2 = 0.8.
    np.testing.assert_allclose(col["p_t"], 0.8 * 0.0005 * x ** 3 / (1 + x) ** 2,
                               rtol=1e-13)
    assert col["p_t"][0] == pytest.approx(1e-4, rel=1e-13)
    assert run(["bistability", "--gamma-at", "0.0001", "--x-grid",
                "log:-3:4:71", "--out", str(out)]) == 0
    res = read_manifest(out)["results"]
    assert res["max_slope"] < 1.0
    assert all(res["verdicts"].values())


def test_bistability_kernel_calls_do_not_grow_with_fractions(tmp_path,
                                                              monkeypatch):
    # One kernel call for the scan and both central-difference points, for
    # any number of feedback fractions (was one scan per fraction).
    from onedatom import applications
    calls = []
    kernel = applications._fixed_point
    monkeypatch.setattr(applications, "_fixed_point",
                        lambda *a: calls.append(1) or kernel(*a))
    counts = []
    for fractions in ("0.5", "0.1,0.5,0.9,0.99", "0,0.1,0.2,0.3,0.4,0.5,0.6"):
        calls.clear()
        assert run(["bistability", "--fraction-a-list", fractions,
                    "--x-grid", "log:-3:4:71",
                    "--out", str(tmp_path / "bi.csv")]) == 0
        counts.append(len(calls))
    assert counts == [1, 1, 1]
    verdicts = read_manifest(tmp_path / "bi.csv")["results"]["verdicts"]
    assert list(verdicts) == ["0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]
    # Keys are exact: fractions that print alike in six digits stay apart.
    assert run(["bistability", "--fraction-a-list", "0.1234567,0.1234568",
                "--x-grid", "log:-1:1:3", "--out", str(tmp_path / "bi.csv")]) == 0
    verdicts = read_manifest(tmp_path / "bi.csv")["results"]["verdicts"]
    assert list(verdicts) == ["0.1234567", "0.1234568"]


@pytest.mark.parametrize("argv, want", [
    # Was c_leaky = inf on every row: T(x/d) underflowed.
    (["--extinction", "1e200", "--x-grid", "log:-3:2:5"],
     lambda x: 1e200 * ((1.0 + x / 1e200) / (1.0 + x)) ** 2),
    # Was 0.1 = 1/d at x = 0, next to 9.99999 at x = 5e-7.
    (["--q-ratio", "0.9", "--extinction", "10", "--x-grid", "0:0.000001:3"],
     lambda x: 10.0 * ((1.0 + x / 10.0) / (1.0 + x)) ** 2)])
def test_reshape_c_leaky_of_lossless_emitters(tmp_path, argv, want):
    out = tmp_path / "re.csv"
    assert run(["reshape", *argv, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    col = dict(zip(header, np.array(rows).T))
    np.testing.assert_allclose(col["c_leaky"], want(col["x"]), rtol=1e-12)


def test_reshape_manifest(tmp_path):
    out = tmp_path / "re.csv"
    assert run(["reshape", "--q-ratio", "0.96", "--f", "100",
                "--x-grid", "log:-3:2:101", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "c_ideal", "c_leaky"]
    assert read_manifest(out)["results"]["max_c_leaky"] >= 4.0


def test_kerr_row(tmp_path):
    out = tmp_path / "kerr.csv"
    assert run(["kerr", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    named = dict(zip(header, rows[0]))
    assert named["length_m"] == pytest.approx(5e6)
    assert named["i_pi_w_per_cm2"] == pytest.approx(0.4966, abs=1e-3)


def test_stdout_csv_and_stderr_manifest(capsys):
    assert run(["spectrum", "--grid", "0:1:3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("nu,delta_omega,")
    assert len(lines) == 4
    manifest = json.loads(captured.err)
    assert manifest["command"] == "spectrum"


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "-1:1:11", "f": 5.0}))
    out1 = tmp_path / "c1.csv"
    assert run(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    _, rows = read_csv(out1)
    assert len(rows) == 11
    assert read_manifest(out1)["derived"]["f"] == pytest.approx(5.0)
    out2 = tmp_path / "c2.csv"
    assert run(["spectrum", "--config", str(cfg), "--grid", "-1:1:21",
                "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    assert len(rows2) == 21


def test_config_unknown_key_rejected(tmp_path, capsys):
    # Only the subcommand's own option rows, --out and --manifest may be
    # set by the config file; the subcommand and --config itself may not.
    cfg = tmp_path / "bad.json"
    for name, config, key in (
            ("spectrum", {"gird": "-1:1:11"}, "gird"),
            ("kerr", {"command": "spectrum"}, "command"),
            ("kerr", {"config": "nonexistent.json", "gamma_per_s": 2e10},
             "config"),
            ("kerr", {"bogus": 1}, "bogus")):
        cfg.write_text(json.dumps(config))
        assert run([name, "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")]) == 2, key
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg], key


def test_explicit_manifest_path(tmp_path):
    out = tmp_path / "s.csv"
    man = tmp_path / "custom.json"
    assert run(["spectrum", "--grid", "0:1:3", "--out", str(out),
                "--manifest", str(man)]) == 0
    assert json.loads(man.read_text())["command"] == "spectrum"


def test_float_format_17_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run(["spectrum", "--grid", "0:1:3", "--out", str(out)]) == 0
    with open(out) as fh:
        fh.readline()
        row = fh.readline().strip().split(",")
    # cap_r at nu=0 is exactly 1, cap_t exactly 0
    named = dict(zip(("nu", "delta_omega", "re_t", "im_t", "re_r", "im_r",
                      "cap_t", "cap_r", "leaks", "cap_t0"), row))
    assert named["cap_r"] == "1"
    assert float(named["re_r"]) == 1.0

@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--grid", "nan:1:5"], "--grid"),
    (["spectrum", "--grid", "0:1e400:3"], "--grid"),
    (["spectrum", "--x", "nan", "--grid", "0:1:5"], "--x"),
    (["spectrum", "--x", "inf", "--grid", "0:1:5"], "--x"),
    (["saturation", "--x-grid", "0:inf:5"], "--x-grid"),
    (["saturation", "--x-grid", "log:0:400:3"], "--x-grid"),
    (["reshape", "--x-grid", "log:-400:0:3"], "--x-grid"),
    (["bistability", "--x-grid", "log:nan:1:3"], "--x-grid"),
    (["reshape", "--extinction", "nan"], "--extinction"),
    # A non-finite --x or --power is a range error of its own flag now.
    (["dynamics", "--x", "-1"], "--x/--power"),
    (["dynamics", "--x", "1e308", "--gamma", "1e10"], "--x/--power"),
    (["spectrum", "--grid", "0:1:100000000000000"], "--grid"),
    (["bistability", "--gamma-over-kappa", "1e308"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    (["saturation", "--gamma-over-kappa", "1e308"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    (["reshape", "--gamma", "1e308"], "--gamma/--x-grid"),
    (["spectrum", "--gamma", "1e308", "--x", "10", "--grid", "0:1:5"],
     "--gamma/--x"),
    # Subnormal drive powers keep only a few bits of x.
    (["saturation", "--gamma", "1e-320", "--x-grid", "log:-3:4:8"],
     "--gamma/--x-grid"),
    (["spectrum", "--gamma", "1e-310", "--x", "1", "--grid", "0:1:5"],
     "--gamma/--x"),
    (["reshape", "--gamma-over-kappa", "1e-300", "--kappa", "1e-10"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    (["bistability", "--gamma", "1e-300", "--x-grid", "log:-10:0:3"],
     "--gamma/--x-grid"),
    # The low pulse x/extinction (was c_leaky = inf on every row, exit 0).
    (["reshape", "--extinction", "1e308", "--x-grid", "log:-3:2:5"],
     "--gamma-over-kappa/--kappa/--x-grid/--extinction"),
    (["dynamics", "--x", "nan"], "--x"),
    (["dynamics", "--power", "inf"], "--power"),
    # Only the difference point x + h overflows (was exit 3, no flag named).
    (["bistability", "--gamma", "7.190701351505882e+307",
      "--x-grid", "log:0:1:2"], "--gamma/--x-grid"),
    # Descending or non-positive grids (were exit 3 naming x_grid).
    (["saturation", "--x-grid", "log:4:-3:5"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    (["bistability", "--x-grid", "log:4:-3:5"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    (["bistability", "--x-grid", "0:1:3"],
     "--gamma-over-kappa/--kappa/--x-grid"),
    # Refused derived rates (were exit 3 naming the API argument).
    (["spectrum", "--gamma-over-kappa", "1e200", "--kappa", "1e200"],
     "--gamma-over-kappa/--kappa"),
    (["dynamics", "--x", "1", "--gamma-over-kappa", "1e200",
      "--kappa", "1e200"], "--gamma-over-kappa/--kappa"),
    (["bistability", "--gamma-over-kappa", "1e200", "--kappa", "1e200"],
     "--gamma-over-kappa/--kappa"),
    (["saturation", "--ideal", "--gamma-over-kappa", "1e200",
      "--kappa", "1e200"], "--gamma-over-kappa/--kappa"),
    (["saturation", "--q-ratio", "1e-300", "--kappa", "1e10"],
     "--gamma-over-kappa/--kappa/--q-ratio"),
    (["spectrum", "--gamma-cav", "1e308", "--kappa", "1e-10"],
     "--gamma-over-kappa/--kappa/--gamma-cav"),
    (["reshape", "--gamma", "1", "--f", "1e-320"], "--gamma/--kappa/--f"),
    (["slowlight", "--gamma-over-kappa", "1e200", "--kappa", "1e200"],
     "--gamma-over-kappa/--kappa/--f-list"),
    (["slowlight", "--gamma-over-kappa", "1e-320", "--kappa", "1e-10"],
     "--gamma-over-kappa/--kappa/--f-list"),
])
def test_non_finite_grids_and_drives_are_usage_errors(tmp_path, capsys,
                                                      argv, flag):
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag}" in err or f"{flag} must" in err
    assert not out.exists()


@pytest.mark.parametrize("outputs, flag", [
    (["--out", "."], "--out"),                      # a directory
    (["--out", "missing/k.csv"], "--out"),
    (["--out", "k.csv", "--manifest", "missing/m.json"], "--manifest"),
    (["--out", "-", "--manifest", "missing/m.json"], "--manifest"),
])
def test_outputs_that_cannot_be_opened_are_usage_errors(
        tmp_path, monkeypatch, capsys, outputs, flag):
    # Each ended in a traceback with exit 1; the CSV stayed behind when only
    # the manifest could not be opened.
    monkeypatch.chdir(tmp_path)
    assert run(["kerr", *outputs]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} must be a writable file path" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command",
                         ["spectrum", "saturation", "bistability", "reshape"])
def test_cavity_leak_that_underflows_q_ratio_is_refused(tmp_path, capsys,
                                                        command):
    # Q/Q0 = 0 made the manifest's f a ZeroDivisionError (exit 1).
    out = tmp_path / "o.csv"
    assert run([command, "--gamma-cav", "1e308", "--kappa", "1e-10",
                "--out", str(out)]) in (2, 3)
    err = capsys.readouterr().err
    assert "gamma_cav" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_overflowing_detuning_grid_is_a_usage_error(tmp_path, capsys):
    # nu * kappa overflows at index 7366; no numpy warning may reach stderr.
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", "--kappa", "1e299", "--grid", "0:2e9:8195",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--grid/--kappa/--delta must" in err
    assert "got inf at index 7366" in err
    assert "Warning" not in err and "np." not in err
    assert not out.exists()


def test_parse_grid_rejects_values_outside_the_float_range():
    for text in ("nan:1:5", "0:1e400:3", "-inf:0:3", "-1e308:1.7e308:3",
                 "log:0:400:3", "log:-400:0:3", "0:1:100000000000000"):
        with pytest.raises(ValueError):
            parse_grid(text)
    assert parse_grid("log:-300:300:3").tolist() == [1e-300, 1.0, 1e300]


@pytest.mark.parametrize("f_list", ["0", "5,0", "-1", "nan", "", "a,b"])
def test_slowlight_rejects_bad_f_list(tmp_path, capsys, f_list):
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", f_list, "--out", str(out)]) == 2
    assert "--f-list" in capsys.readouterr().err
    assert not out.exists()


def test_slowlight_accepts_infinite_f(tmp_path):
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", "10,inf", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert [r[0] for r in rows] == [10.0, math.inf]


@pytest.mark.parametrize("config, key", [
    ({"x": "abc"}, "'x'"), ({"x": [1]}, "'x'"), ({"x": True}, "'x'"),
    ({"evanescent": "yes"}, "'evanescent'"),
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys,
                                                          config, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--config", str(cfg), "--grid", "0:1:3",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "--" + key.strip("'") in err
    assert not out.exists()


def test_config_values_convert_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x": "1", "grid": "-0.02:0.02:5",
                               "evanescent": True}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["spectrum", "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["spectrum", "--x", "1", "--grid", "-0.02:0.02:5",
                "--evanescent", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_columns_match_the_kernels(tmp_path):
    params = make_params(0.002, 1.0, delta=0.3)
    for extra in ([], ["--x", "2"]):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--delta", "0.3", "--grid", "-1:1:41",
                    "--evanescent", *extra, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        col = dict(zip(header, np.array(rows).T))
        dw = col["delta_omega"]
        empty = transmission_leaky(dw, params, empty_cavity=True,
                                   evanescent=True)
        if extra:
            res = scatter_nonlinear(
                DriveField.from_power(dw, 0.25 * 2 * 0.002), params)
            t, r = res.r, res.t          # the evanescent geometry swaps them
            leaks = 1.0 - np.abs(t) ** 2 - np.abs(r) ** 2
        else:
            res = transmission_leaky(dw, params, evanescent=True)
            t, r, leaks = res.t, res.r, res.leaks
        assert np.array_equal(col["re_t"], t.real)
        assert np.array_equal(col["im_r"], r.imag)
        assert np.array_equal(col["cap_t"], np.abs(t) ** 2)
        assert np.array_equal(col["cap_r"], np.abs(r) ** 2)
        assert np.array_equal(col["leaks"], leaks)
        assert np.array_equal(col["cap_t0"], empty.cap_t)


def test_bistability_rejects_empty_fraction_list(tmp_path, capsys):
    out = tmp_path / "bi.csv"
    assert run(["bistability", "--fraction-a-list", ",", "--x-grid",
                "log:-3:4:11", "--out", str(out)]) == 2
    assert "--fraction-a-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--grid-step", "0"), ("--grid-step", "-1"), ("--grid-step", "nan"),
    ("--n-index", "inf"), ("--d-max", "inf"), ("--q0", "nan"),
    ("--epsilon", "nan"), ("--wavelength", "nan"),
    ("--gamma-star-ratio", "nan"), ("--loss-ratio", "inf"),
    # Against the default --d-max 8 (was exit 3, "invalid d_range").
    ("--d-min", "9"), ("--d-min", "8"),
])
def test_pillar_bad_inputs_are_usage_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "p.csv"
    argv = ["pillar", "--q0", "1000", "--objective", "contrast", flag, value,
            "--out", str(out)]
    assert run(argv) == 2
    assert f"{flag} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    # d^2 underflows, so V = 0 and F_p = inf (was NaN rows and exit 0).
    (["--d-min", "1e-200", "--d-max", "1e-199"], "float range at d=1e-200"),
    # 1e308 grid steps (was an OverflowError traceback).
    (["--d-max", "1e300", "--grid-step", "1e-300"], "grid steps"),
    # (lambda/n)^3 overflows (was an OverflowError traceback).
    (["--wavelength", "1e300"], "figures of merit leave the float range"),
    # The messages name the flags that feed them.
    (["--d-max", "1e300", "--grid-step", "1e-300"],
     "--d-min/--d-max/--grid-step: d_range"),
    (["--wavelength", "1e300"], "--wavelength/--n-index/--loss-ratio/"
                                "--gamma-star-ratio: figures of merit"),
])
def test_pillar_scans_out_of_range_are_domain_errors(tmp_path, capsys, extra,
                                                     message):
    out = tmp_path / "p.csv"
    assert run(["pillar", "--q0", "1000", *extra, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pillar_csv_is_the_single_design_rows(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["pillar", "--q0", "1000", "--objective", "contrast",
                "--loss-ratio", "0.3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 376
    for line in lines:
        d = float(line.split(",")[0])
        m = pillar.figures_of_merit(
            pillar.PillarDesign(q0=1000.0, d=d, loss_ratio=0.3))
        assert line == ",".join("%.17g" % v for v in (
            m.d, m.q, m.v, m.fp, m.f, m.t_max, m.t_min, m.contrast, m.eta,
            m.beta_sq))


def test_pillar_manifest_reports_the_optimizer_counts(tmp_path):
    out = tmp_path / "pillar_sweep.csv"
    assert run(["pillar", "--q0", "1000", "--objective", "contrast",
                "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["diagnostics"] == {
        "optimizer": {"grid_points": 376, "refine_scans": 4}}
    assert manifest["rows"] == 376


def test_pillar_contrast_lost_to_rounding_is_a_boundary_optimum(tmp_path):
    # gamma* = 1e300 gamma leaves a contrast of about 1e-300: T_max - T_min
    # is rounding noise, so no interior optimum is refined out of it.
    out = tmp_path / "pillar_sweep.csv"
    assert run(["pillar", "--q0", "1000", "--gamma-star-ratio", "1e300",
                "--out", str(out)]) == 0
    manifest = read_manifest(out)
    res = manifest["results"]
    assert res["at_boundary"] is True
    assert res["d_opt"] == 0.5
    assert res["contrast"] == res["value"] == 0.0
    assert manifest["diagnostics"] == {
        "optimizer": {"grid_points": 376, "refine_scans": 0}}
    _, rows = read_csv(out)
    contrast = np.array([float(row[7]) for row in rows])
    t_max = np.array([float(row[5]) for row in rows])
    assert 0.0 < contrast.max() <= 4.0 * np.finfo(float).eps * t_max.max()


@pytest.mark.parametrize("flag, value", [
    ("--rtol", "-1"), ("--rtol", "0"), ("--rtol", "1e-20"), ("--rtol", "nan"),
    ("--atol", "0")])
def test_dynamics_rejects_bad_tolerances(tmp_path, capsys, flag, value):
    # The propagator is exact and takes no tolerance: --rtol and --atol are
    # unknown flags, a usage error that names them.
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--samples", "5", "--settle",
                flag, value, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--duration", "inf"), ("--duration", "nan"), ("--duration", "0"),
    ("--duration", "-1"), ("--settle-tol", "nan"), ("--settle-tol", "0"),
    ("--settle-tol", "-1"), ("--settle-tol", "inf"), ("--delta-omega", "nan"),
    ("--delta-omega", "inf"), ("--initial-re-s", "nan"),
    ("--initial-im-s", "-inf"), ("--initial-s-z", "nan"),
    ("--initial-s-z", "0.7"), ("--initial-re-s", "0.6"),
    ("--initial-im-s", "-1e308"), ("--samples", "1e308")])
def test_dynamics_bad_inputs_name_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--x", "1", "--samples", "5", "--settle",
                flag, value, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    # Rates near the float range settle at once (was LSODA return code -3).
    (["--gamma", "1e300", "--x", "1"], 0),
    (["--gamma", "1e300", "--x", "1", "--settle"], 0),
    # A 5e296 photons/s drive: its Rabi phase is beyond double precision
    # (LSODA stepped through it and never returned).
    (["--x", "1e300"], 3),
    (["--x", "1e300", "--settle", "--full-system"], 3),
    # More than FOCK_MAX Fock states.
    (["--x", "1000", "--full-system"], 3),
    # kappa = 1e308 overflows 2 kappa in the master equation only (LSODA
    # exited 3 on both); gamma_at = 1e300 kappa leaves the cavity far
    # slower than the master equation's fastest rate.
    (["--x", "1", "--kappa", "1e308"], 0),
    (["--x", "1", "--kappa", "1e308", "--full-system"], 3),
    (["--x", "1", "--gamma-at", "1e300", "--settle", "--full-system"], 3),
    (["--x", "1", "--kappa", "500", "--settle", "--full-system"], 0)])
def test_dynamics_exit_matrix(tmp_path, capsys, argv, code):
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--duration", "1", "--samples", "3", *argv,
                "--out", str(out)]) == code
    if code:
        assert "error: --x/--power" in capsys.readouterr().err
        assert not out.exists()
    else:
        _, rows = read_csv(out)
        assert np.isfinite(rows).all()


def test_no_module_imports_scipy():
    # The propagator is numpy only; scipy is a test dependency.
    src = pathlib.Path(cli.__file__).parent
    imports = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            imports += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] == "scipy"]
    assert imports == []


@pytest.mark.parametrize("value", ["nan", "inf", "2.5", "0", "-1"])
def test_slowlight_rejects_bad_stage_counts(tmp_path, capsys, value):
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--n-stages", value, "--out", str(out)]) == 2
    assert "--n-stages must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert run(["slowlight", "--n-stages", "3", "--out", str(out)]) == 0
    assert read_manifest(out)["options"]["n_stages"] == 3


def test_slowlight_huge_f_has_a_finite_half_power_count(tmp_path):
    # 1 + 1/f rounds here (to 1 past f = 2**53), but
    # N_1/2 = ln2 / (2 ln(1 + 1/f)) ~ f ln2 / 2 to double precision.
    out = tmp_path / "sl.csv"
    assert run(["slowlight", "--f-list", "1e12,1e15,1e16,1e308",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    for row in rows:
        named = dict(zip(header, row))
        assert named["n_half"] == pytest.approx(0.5 * math.log(2) * named["f"],
                                                rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--delta", "1e308", "--grid", "-1:1:5"],
    # gamma/kappa = 1e-600 underflows in units of kappa (kappa = 1e-308
    # alone now runs).
    ["spectrum", "--gamma", "1e-300", "--kappa", "1e300", "--grid", "-1:1:5"],
    # delta/kappa = 1e600, and gamma_at/kappa at f = 5e-324, leave the
    # float range.
    ["spectrum", "--delta", "1e300", "--kappa", "1e-300"],
    ["saturation", "--f", "5e-324", "--x-grid", "log:-3:4:7", "--kappa",
     "1e-300", "--delta", "100"]])
def test_nan_columns_are_domain_errors(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning either
        assert run(argv + ["--out", str(out)]) == 3
    column = {"spectrum": "re_t", "saturation": "x_eff"}[argv[0]]
    assert capsys.readouterr().err == (
        f"error: {argv[0]}: column {column} holds NaN; no output written\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    # The empty cavity is the kernel's saturated limit, in its 4^-k
    # scaling: at kappa = 1e-320 cap_t0 is that of kappa = 1 (was NaN,
    # exit 3, from an unscaled t0' = 1/(1 + i delta/kappa)).
    (["spectrum", "--kappa", "1e-320", "--grid", "-2:2:5"], 0),
    (["bistability", "--kappa", "1e-320"], 2),
    (["bistability", "--delta", "1e300", "--kappa", "1e-300"], 3),
    # The norm of the equations of motion overflows.
    (["dynamics", "--duration", "1", "--samples", "3", "--gamma-over-kappa",
      "1e308", "--power", "1e308"], 3),
    # P_t/P_c and P_r/P_c are 0/0 (a NaN column).
    (["saturation", "--gamma-at", "1e308", "--delta", "2.5"], 3),
    # The default duration 20/gamma overflows.
    (["dynamics", "--kappa", "1e-306", "--gamma", "5e-308", "--samples",
      "3"], 2)])
def test_rates_outside_the_float_range_print_no_numpy_warning(
        tmp_path, capsys, argv, code):
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--out", str(out)]) == code
    if code == 0:
        header, rows = read_csv(out)
        cap_t0 = [row[header.index("cap_t0")] for row in rows]
        assert cap_t0 == pytest.approx([0.2, 0.5, 1.0, 0.5, 0.2], abs=1e-15)
        return
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(("error: ", "onedatom: error: "))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rates, flags", [
    (["--gamma", "5e-308"], "--gamma"),
    (["--gamma-over-kappa", "0.05"], "--gamma-over-kappa/--kappa")])
def test_an_overflowing_default_duration_names_its_flags(tmp_path, capsys,
                                                         rates, flags):
    # The default duration 20/gamma is inf: a usage error (was an
    # OverflowError traceback from the propagator).
    out = tmp_path / "traj.csv"
    assert run(["dynamics", "--kappa", "1e-306", *rates, "--samples", "3",
                "--out", str(out)]) == 2
    assert (f"error: --duration/{flags} must be valid: duration must be "
            "finite, got inf") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    "--wavelength-um", "--n2-cm2-per-w", "--intensity-w-per-cm2",
    "--sigma-cm2", "--jump-factor", "--pc-watts", "--gamma-per-s"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_kerr_inputs_must_be_finite_and_positive(tmp_path, capsys, flag,
                                                 value):
    out = tmp_path / "kerr.csv"
    assert run(["kerr", flag, value, "--out", str(out)]) == 2
    assert f"{flag} must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, result", [
    (["--n2-cm2-per-w", "1e-320"], "length_m"),
    (["--pc-watts", "1e308", "--sigma-cm2", "1e-300"], "i_pi_w_per_cm2")])
def test_kerr_results_outside_the_float_range_are_domain_errors(
        tmp_path, capsys, argv, result):
    out = tmp_path / "kerr.csv"
    assert run(["kerr", *argv, "--out", str(out)]) == 3
    assert f"error: {result} = inf" in capsys.readouterr().err
    assert not out.exists()


def out_of_range_values():
    """(subcommand, flag, value) from the option table: NaN and one value
    past each finite bound of every numeric option (of each number of a
    list option), and a value outside every set of strings."""
    for name, (_, rows, _) in cli._COMMANDS.items():
        for flag, kind, _, rng, _, _ in rows:
            if isinstance(rng, tuple):
                yield name, flag, "none-of-these"
            if not isinstance(rng, str):
                continue
            yield name, flag, "nan"
            lo, hi = (float(b) for b in rng[1:-1].split(","))
            for bound, closed, away in ((lo, rng[0] == "[", -math.inf),
                                        (hi, rng[-1] == "]", math.inf)):
                if not math.isfinite(bound):
                    continue
                past = bound
                if closed:
                    past = (bound + math.copysign(1.0, away) if kind is int
                            else math.nextafter(bound, away))
                yield name, flag, repr(past)
            if kind is int:
                yield name, flag, repr(lo + 0.5)


@pytest.mark.parametrize("name, flag, value", list(out_of_range_values()))
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, name, flag,
                                              value):
    assert run([name, *CHEAP_CALLS[name], flag, value,
                "--out", str(tmp_path / "o.csv")]) == 2
    assert f"error: {flag} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # Each exited 3 naming gamma_star, gamma, lambda_0 or fraction_a.
    ["spectrum", "--gamma-star", "-1"], ["slowlight", "--kappa", "-1"],
    ["pillar", "--q0", "1000", "--wavelength", "-1"],
    ["bistability", "--fraction-a-list", "2"]])
def test_library_range_errors_name_the_flag(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "o.csv")]) == 2
    assert f"error: {argv[-2]} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # f underflows to 0: ZeroDivisionError in N_1/2.
    ["--f-list", "1e-320", "--gamma-over-kappa", "1e-320"],
    # 2 beta/gamma overflows: inf delays written with exit 0.
    ["--f-list", "5", "--gamma-over-kappa", "1e-320"],
    # The numeric delay's step gamma/1000 underflows: a NaN column.
    ["--kappa", "1e-320"]])
def test_slowlight_outside_the_float_range_names_the_flags(tmp_path, capsys,
                                                           argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning either
        assert run(["slowlight", *argv,
                    "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: --gamma-over-kappa/--kappa/--f-list must be valid" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_each_option_is_declared_by_one_table_row():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "add_argument"}
    builder = next(node for node in tree.body
                   if getattr(node, "name", None) == "build_parser")
    assert calls and calls <= set(ast.walk(builder))
    for name, (_, rows, _) in cli._COMMANDS.items():
        sub = next(a for a in cli.build_parser([name])._actions
                   if a.dest == "command").choices[name]
        flags = [s for a in sub._actions for s in a.option_strings]
        assert flags == ["-h", "--help"] + [
            row[0] for row in rows + cli._COMMON], name
    # The table holds library constants without importing their modules.
    pillar_rows = {row[0]: row for row in cli._COMMANDS["pillar"][1]}
    assert pillar_rows["--objective"][3] == pillar.OBJECTIVES
    assert [pillar_rows[f][2] for f in ("--epsilon", "--wavelength",
                                        "--n-index")] == [
        pillar.DEFAULT_EPSILON, pillar.DEFAULT_WAVELENGTH,
        pillar.DEFAULT_N_INDEX]


def _flag_arities():
    """Each subcommand's flags, with whether the flag takes a value."""
    table = {}
    for name in CHEAP_CALLS:
        parser = cli.build_parser([name])
        sub = next(a for a in parser._actions if a.dest == "command").choices[name]
        table[name] = {a.option_strings[-1]: a.nargs != 0
                       for a in sub._actions if a.option_strings
                       and a.dest not in ("help", "out", "manifest")}
    return table


FLAGS = _flag_arities()
VALUES = ["0", "-1", "1", "0.3", "2.5", "nan", "inf", "-inf", "1e308",
          "-1e308", "0:1:5", "log:-3:4:7", "log:-8:0:5", "1:0:3", "0:1:1",
          "0:1", "log:0:400:3", "nan:1:3", "a:b:c", "5,0", ",", "1,x",
          "5,10,inf", "", "junk", "--", "1e-320", "5e-324", "1e-300",
          "1e300"]
#: Flags set before the fuzzed ones, so that a dynamics example stays short
#: unless it overrides them.
CHEAP_PREFIX = {"dynamics": ["--duration", "1", "--samples", "3"]}


@st.composite
def fuzzed_argv(draw):
    name = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[draw(st.sampled_from(sorted(FLAGS)))] \
        if draw(st.integers(0, 9)) == 0 else FLAGS[name]
    argv = [name, *CHEAP_PREFIX.get(name, [])]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv.append(flag)
        if flags[flag]:
            argv.append(draw(st.sampled_from(VALUES)))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_argv())
def test_fuzzed_arguments_exit_0_2_or_3(tmp_path, argv):
    # Any argument list ends in success, a usage error or a domain error:
    # never a traceback, another exit code or a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--out", str(tmp_path / "o.csv")])
    assert code in (0, 2, 3), argv
    if code == 0:
        _, rows = read_csv(tmp_path / "o.csv")
        assert not np.isnan(rows).any(), argv

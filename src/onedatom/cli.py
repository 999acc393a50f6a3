"""Command-line interface.

Eight subcommands (spectrum, saturation, dynamics, pillar, slowlight,
bistability, reshape, kerr) produce deterministic CSV data on --out or
stdout plus a JSON run manifest (inputs, derived parameters, results,
versions).  The manifest is written next to --out as
``<out>.manifest.json``, or to --manifest; when the CSV goes to stdout, or
--manifest is "-", the manifest goes to stderr.  Every option can also be
supplied through ``--config file.json`` (keys mirror the flag names);
explicit flags win over the config file.

Each subcommand is one entry of ``_COMMANDS``: its help line, its option
rows and its handler.  A call uses the parser of the subcommand it names
only (all eight for --help or a missing or unknown command), which a
process builds once, on first use, and reuses, and that subcommand's rows
only: `build_parser` makes their argparse options, and `run` fills them
from --config and the defaults, refuses a value out of range (exit 2,
naming the flag) and writes them to the manifest's ``options``.  The
handler imports the compute modules it runs, so a call loads only the
modules of its own subcommand.

A handler checks the exclusive pairs and ``--ideal`` conflicts of its
options and parses grids; the API functions it calls check the rest, and
`_api_call` turns their refusal into a usage error naming the options.
It computes, writing nothing, and returns ``(header, columns,
manifest)``: the manifest holds its own entries only, such as the options
it derives, and a ``versions`` entry adds to the artifact, Python and
numpy versions.  `run` is the one output path: it refuses a column holding
NaN (exit 3), writes the CSV, then adds ``command``, ``rows`` and
``versions`` to the manifest and writes it.  An output that cannot be
opened, or a --manifest that names the --out file, is a usage error naming
the flag, and leaves no file.

Rates are in the caller's angular-frequency unit with kappa defaulting
to 1, so detunings and rates passed on the command line are effectively in
units of kappa.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .csvio import open_out, write_csv
from .errors import (DomainError, NonFiniteInput, UnsupportedRegime,
                     _in_range, _range_text)

#: Most points a grid or a trajectory may have.
MAX_POINTS = 10 ** 7


def parse_grid(text: str) -> np.ndarray:
    """Parse "a:b:n" (linear, inclusive) or "log:a:b:n" (decades).

    Raises ValueError on malformed text, n outside [2, MAX_POINTS],
    non-finite endpoints, and grid values that are not finite (or, on a log
    grid, underflow to 0).
    """
    log = text.startswith("log:")
    body = text[4:] if log else text
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be a:b:n or log:a:b:n, got {text!r}")
    a, b = float(parts[0]), float(parts[1])
    n = int(parts[2])
    if n < 2:
        raise ValueError(f"grid needs n >= 2 points, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"grid has at most {MAX_POINTS} points, got {n}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    with np.errstate(all="ignore"):
        values = np.linspace(a, b, n)
        if log:
            values = 10.0 ** values
    if not np.all(np.isfinite(values)) or (log and not np.all(values > 0.0)):
        raise ValueError(f"grid {text!r} has values outside the float range")
    return values


def _grid_option(parser, flag, text):
    """parse_grid for the option ``flag``; malformed values are usage errors."""
    try:
        return parse_grid(text)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _parse_list(spec: str) -> list[float]:
    """The comma-separated numbers of ``spec``; [] if one is malformed."""
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        return []


def _api_call(parser, flags, call, *args, **kwargs):
    """``call(*args, **kwargs)``; its refusal (a `DomainError`) is a usage
    error naming ``flags``, the options that its arguments come from."""
    try:
        return call(*args, **kwargs)
    except DomainError as exc:
        parser.error(f"{flags} must be valid: {exc}")


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _write_manifest(ns, parser, manifest):
    """Write ``manifest`` to its path, or to stderr if that is "-" or the
    CSV went to stdout.  A path that cannot be written is a usage error
    naming the flag that set it; the CSV written before it is removed."""
    manifest = _json_safe(manifest)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    path, flag = ns.manifest, "--manifest"
    if path is None and ns.out not in (None, "-"):
        path, flag = ns.out + ".manifest.json", "--out"
    if path in (None, "-"):
        sys.stderr.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        if ns.out not in (None, "-"):
            os.remove(ns.out)
        parser.error(f"{flag} must be a writable file path: {exc}")


def _params_view(params):
    return {**vars(params), "q_ratio": params.q_ratio, "f": params.f_ratio,
            "beta": params.beta, "is_bad_cavity": params.is_bad_cavity}


# ---------------------------------------------------------------------------
# option rows: defaults, --config values and ranges

def _dest(flag):
    return flag[2:].replace("-", "_")


def _apply_config(ns, parser, rows):
    """Fill unset options from --config, converted by the row's type (an int
    option converts as a float and is checked for integrality later), then
    from the rows' defaults.  A config key that names no row, or names
    --config itself, is a usage error."""
    config = {}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {ns.config!r}: {exc}")
        if not isinstance(config, dict):
            parser.error("config must be a JSON object")
        config = {str(k).replace("-", "_"): v for k, v in config.items()}
        unknown = set(config) - {_dest(flag) for flag, *_ in rows
                                 if flag != "--config"}
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
    for flag, kind, default, *_ in rows:
        key = _dest(flag)
        value = config.get(key)
        if getattr(ns, key) is None and value is not None:
            try:
                if isinstance(value, bool) != (kind is bool):
                    raise ValueError
                setattr(ns, key, value if kind is bool
                        else (float if kind is int else kind)(value))
            except (TypeError, ValueError):
                parser.error(f"config key {key!r} ({flag}): invalid value "
                             f"{value!r}")
        if getattr(ns, key) is None:
            setattr(ns, key, default)


def _check_ranges(ns, parser, rows):
    """Usage error naming the first set option outside its row's range: one
    of a tuple of strings, or an interval that bounds a number, an integer
    (then stored as an int) or each number of a comma-separated list."""
    for flag, kind, _, rng, _, _ in rows:
        value = getattr(ns, _dest(flag))
        if rng is None or value is None:
            continue
        if kind is str and not isinstance(rng, tuple):
            numbers = _parse_list(value)
            ok = bool(numbers) and all(_in_range(v, rng) for v in numbers)
        else:
            ok = _in_range(value, rng, kind)
        if not ok:
            parser.error(f"{flag} must be {_range_text(rng, kind)}, got "
                         f"{value!r}")
        if kind is int:
            setattr(ns, _dest(flag), int(value))


def _build_params(ns, parser, *, force_ideal=False):
    """The system parameters of ``ns``, and the flags that set gamma.  A
    refused rate is a usage error naming gamma's flags, --kappa and the
    leak flags that are set.  --gamma-over-kappa defaults to 0.002 and
    --gamma-star to 0."""
    from .model import make_params
    if ns.gamma is not None and ns.gamma_over_kappa is not None:
        parser.error("--gamma and --gamma-over-kappa are mutually exclusive")
    kappa = ns.kappa
    gamma = (ns.gamma if ns.gamma is not None
             else (ns.gamma_over_kappa or 0.002) * kappa)
    flags = "--gamma" if ns.gamma is not None else "--gamma-over-kappa/--kappa"
    leaks = [f"--{name.replace('_', '-')}"
             for name in ("gamma_at", "gamma_cav", "q_ratio", "f",
                          "gamma_star") if getattr(ns, name) is not None]
    rates = "/".join([flags.split("/")[0], "--kappa", *leaks])
    if force_ideal and leaks:
        parser.error(f"--ideal conflicts with {leaks[0]}")
    if ns.gamma_cav is not None and ns.q_ratio is not None:
        parser.error("--gamma-cav and --q-ratio are mutually exclusive")
    if ns.gamma_at is not None and ns.f is not None:
        parser.error("--gamma-at and --f are mutually exclusive")
    gamma_cav = ns.gamma_cav or 0.0
    if ns.q_ratio is not None:
        gamma_cav = 2.0 * kappa * (1.0 / ns.q_ratio - 1.0)
    q = 1.0 / (1.0 + gamma_cav / (2.0 * kappa))
    gamma_at = ns.gamma_at or 0.0
    if ns.f is not None:
        gamma_at = q * gamma / ns.f
    gamma_star = 0.0 if ns.gamma_star is None else ns.gamma_star
    return _api_call(parser, rates, make_params, gamma, kappa, delta=ns.delta,
                     gamma_at=gamma_at, gamma_cav=gamma_cav,
                     gamma_star=gamma_star), flags


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_spectrum(ns, parser):
    from .linear import _fixed_point, transmission_leaky
    from .model import DriveField, _blockwise, _drive_power, _outcome_block
    nu = _grid_option(parser, "--grid", ns.grid)
    params, system = _build_params(ns, parser)
    b_in = np.sqrt(_api_call(parser, f"{system}/--x", _drive_power,
                             ns.x, params.gamma))
    with np.errstate(over="ignore", invalid="ignore"):
        dw = nu * params.kappa - params.delta
    drive = _api_call(parser, "--grid/--kappa/--delta", DriveField, dw, b_in)

    def block(sl, dwb):
        _, _, _, _, t, r, _ = _fixed_point(dwb, drive.b_in, params)
        empty = transmission_leaky(dwb, params, empty_cavity=True,
                                   evanescent=ns.evanescent)
        t, r = (r, t) if ns.evanescent else (t, r)
        t, r, cap_t, cap_r, _, _, leaks = _outcome_block(sl, t, r, 1.0)
        return (t.real, t.imag, r.real, r.imag, cap_t, cap_r, leaks,
                empty.cap_t)

    header = ("nu", "delta_omega", "re_t", "im_t", "re_r", "im_r",
              "cap_t", "cap_r", "leaks", "cap_t0")
    return header, (nu, dw, *_blockwise((dw,), (float,) * 8, block)), {
        "derived": _params_view(params)}


def _cmd_saturation(ns, parser):
    from . import nonlinear
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    params, system = _build_params(ns, parser, force_ideal=ns.ideal)
    curve = _api_call(parser, f"{system}/--x-grid",
                      nonlinear.saturation_curve, params, grid)
    header = ("x", "x_eff", "cap_t", "cap_r", "noise_frac",
              "p_t_over_p_c", "p_r_over_p_c", "caution")
    return header, [getattr(curve, k) for k in header], {
        "derived": _params_view(params),
        "results": {"p_c": nonlinear.critical_power(0.0, params)}}


def _cmd_dynamics(ns, parser):
    from . import dynamics, nonlinear
    from .model import BlochState, DriveField, _drive_power
    params, system = _build_params(ns, parser)
    if ns.x is not None and ns.power is not None:
        parser.error("--x and --power are mutually exclusive")
    p_in = ns.power if ns.power is not None else float(_api_call(
        parser, f"{system}/--x/--power", _drive_power,
        ns.x or 0.0, params.gamma))
    drive = DriveField.from_power(ns.delta_omega, p_in)
    duration = ns.duration if ns.duration is not None else 20.0 / params.gamma
    initial = BlochState(complex(ns.initial_re_s, ns.initial_im_s),
                         ns.initial_s_z)
    _api_call(parser, "--initial-re-s/--initial-im-s/--initial-s-z",
              initial.require_physical)
    results = {}
    settled = None
    try:
        if ns.settle:
            settled = dynamics.settle(drive, params, ns.settle_tol,
                                      full_system=ns.full_system)
            if ns.duration is None:
                duration = settled.time
            s, s_z = settled.state.s, settled.state.s_z
            fixed = nonlinear.steady_state(drive, params)
            # With --full-system the gap is the error of the elimination.
            results["settled"] = {
                "re_s": s.real, "im_s": s.imag, "s_z": s_z,
                "time": settled.time, "windows": settled.windows,
                "steady_state_gap": max(
                    abs(s.real - fixed.s.real), abs(s.imag - fixed.s.imag),
                    abs(s_z - fixed.s_z))}
        traj = dynamics.integrate(drive, params, initial, duration,
                                  samples=ns.samples,
                                  full_system=ns.full_system)
    except UnsupportedRegime as exc:
        raise UnsupportedRegime(f"--x/--power/--delta-omega: {exc}") from None
    except NonFiniteInput as exc:       # the default 20/gamma overflowed
        parser.error(f"--duration/{system} must be valid: {exc}")
    results["final"] = {"re_s": traj.s[-1].real, "im_s": traj.s[-1].imag,
                        "s_z": float(traj.s_z[-1])}
    runs = [traj] + ([settled] if settled else [])
    solver = {"method": "expm", "samples": len(traj.times),
              "squarings": sum(run.squarings for run in runs),
              "settle_windows": settled.windows if settled else 0}
    if ns.full_system:
        solver["fock_levels"] = max(run.fock_levels for run in runs)
    return dynamics.TRAJECTORY_COLUMNS, traj.columns, {
        "options": {"p_in": p_in, "duration": duration},
        "derived": _params_view(params), "results": results,
        "diagnostics": {"solver": solver}}


def _cmd_pillar(ns, parser):
    from . import pillar
    if ns.q0 is None:
        parser.error("--q0 is required")
    if not ns.d_min < ns.d_max:
        parser.error(f"--d-min must be < --d-max, got {ns.d_min} >= {ns.d_max}")
    try:
        res = pillar.optimize_diameter(
            ns.q0, ns.objective, d_range=(ns.d_min, ns.d_max),
            grid_step=ns.grid_step, epsilon=ns.epsilon, lambda_0=ns.wavelength,
            n_index=ns.n_index, loss_ratio=ns.loss_ratio,
            gamma_star_ratio=ns.gamma_star_ratio)
    except UnsupportedRegime as exc:
        # The grid-step cap is fed by the scan range and step, the float
        # range of the figures of merit by the diameters and the design.
        flags = ("--d-min/--d-max/--grid-step" if "grid steps" in str(exc)
                 else "--q0/--d-min/--d-max/--epsilon/--wavelength/"
                      "--n-index/--loss-ratio/--gamma-star-ratio")
        raise UnsupportedRegime(f"{flags}: {exc}") from None
    # CSV header -> field of the sweep and of its optimum row.
    columns = {"d_um": "d", "Q": "q", "V_um3": "v", "Fp": "fp", "f": "f",
               "Tmax": "t_max", "Tmin": "t_min", "contrast": "contrast",
               "eta": "eta", "beta_sq": "beta_sq"}
    return tuple(columns), [getattr(res.sweep, k) for k in columns.values()], {
        "options": {"d_range": [ns.d_min, ns.d_max]},
        "results": {"d_opt": res.d_opt, "value": res.value,
                    "at_boundary": res.at_boundary,
                    **{h: getattr(res.merit, k) for h, k in columns.items()
                       if h != "d_um"}},
        "diagnostics": {"optimizer": {"grid_points": res.grid_points,
                                      "refine_scans": res.refine_scans}}}


def _cmd_slowlight(ns, parser):
    from . import applications
    from .model import params_from_ratios
    gamma = ns.gamma_over_kappa * ns.kappa
    header = ("f", "beta", "delay_analytic", "delay_numeric",
              "t_per_stage", "n_half", "total_delay_at_n_half")

    def chain(f):
        return applications.slow_light(
            params_from_ratios(gamma, ns.kappa, f=f), n_stages=ns.n_stages)

    results = [_api_call(parser, "--gamma-over-kappa/--kappa/--f-list",
                         chain, f) for f in _parse_list(ns.f_list)]
    band = 0.02         # the numeric delay confirms 2 beta/gamma within 2%
    outside = [r.f for r in results
               if not abs(r.delay_numeric / r.delay_analytic - 1.0) <= band]
    return header, [[getattr(r, k) for r in results] for k in header], {
        "options": {"gamma": gamma},
        # One entry per CSV row: the chain of --n-stages stages.
        "results": {k: [getattr(r, k) for r in results]
                    for k in ("delay_after_stages", "t_after_stages")},
        "diagnostics": {"delay_band": band, "f_outside_delay_band": outside}}


def _cmd_bistability(ns, parser):
    from .applications import bistability_scan
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    params, system = _build_params(ns, parser)
    scan = _api_call(parser, f"{system}/--x-grid", bistability_scan, params,
                     _parse_list(ns.fraction_a_list), grid)
    header = ("x", "p_e", "p_t", "slope_analytic", "slope_numeric")
    return header, [getattr(scan, k) for k in header], {
        "derived": _params_view(params),
        "results": {"max_slope": scan.max_slope, "verdicts": {
            repr(a): unique for a, unique in zip(
                scan.fraction_a.tolist(), scan.unique_solution.tolist())}},
        # Such a p_t keeps only a few significant bits.
        "diagnostics": {"p_t_subnormal_rows": int(np.count_nonzero(
            scan.p_t < np.finfo(float).tiny))}}


def _cmd_reshape(ns, parser):
    from .applications import contrast_enhancement
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    params, system = _build_params(ns, parser)
    res = _api_call(parser, f"{system}/--x-grid/--extinction",
                    contrast_enhancement, grid, ns.extinction, params)
    best = int(np.argmax(res.c_leaky))
    return ("x", "c_ideal", "c_leaky"), (res.x, res.c_ideal, res.c_leaky), {
        "derived": _params_view(params),
        "results": {"max_c_leaky": float(res.c_leaky[best]),
                    "x_at_max": float(res.x[best])}}


def _cmd_kerr(ns, parser):
    from . import applications
    length_m = applications.kerr_equivalent(
        ns.wavelength_um, ns.n2_cm2_per_w, ns.intensity_w_per_cm2)
    p_c = ns.pc_watts if ns.pc_watts is not None else \
        applications.critical_power_watts(ns.gamma_per_s, ns.wavelength_um)
    i_pi = applications.switching_intensity(p_c, ns.sigma_cm2, ns.jump_factor)
    header = ("lambda_um", "n2_cm2_per_w", "intensity_w_per_cm2",
              "length_m", "p_c_watts", "sigma_cm2", "i_pi_w_per_cm2")
    row = (ns.wavelength_um, ns.n2_cm2_per_w, ns.intensity_w_per_cm2,
           length_m, p_c, ns.sigma_cm2, i_pi)
    return header, [[v] for v in row], {
        "results": {"length_m": length_m, "length_km": length_m / 1e3,
                    "p_c_watts": p_c, "i_pi_w_per_cm2": i_pi}}


# ---------------------------------------------------------------------------
# the option table

#: The system-parameter rows, one "system parameters" group in --help.
_SYSTEM = (
    ("--gamma", float, None, "(0, inf)", "emission rate into the mode", None),
    ("--gamma-over-kappa", float, None, "(0, inf)",
     "gamma as a fraction of kappa (default 0.002)", None),
    ("--kappa", float, 1.0, "(0, inf)", "cavity-port rate (default 1)", None),
    ("--delta", float, 0.0, "(-inf, inf)", "cavity-emitter detuning", None),
    ("--gamma-at", float, None, "[0, inf)", "emitter leak rate", None),
    ("--gamma-cav", float, None, "[0, inf)", "cavity leak rate", None),
    ("--gamma-star", float, None, "[0, inf)", "pure dephasing rate", None),
    ("--q-ratio", float, None, "(0, 1]", "Q/Q0; alternative to --gamma-cav",
     None),
    ("--f", float, None, "(0, inf]",
     "f ratio (inf allowed); alternative to --gamma-at", None),
)

#: The rows every subcommand ends with.
_COMMON = (
    ("--config", str, None, None, "JSON file mirroring the flag names", None),
    ("--out", str, None, None, "CSV output path (default: stdout)", None),
    ("--manifest", str, None, None,
     "manifest path, or - for stderr (default: <out>.manifest.json)", None),
)

#: Subcommand name -> (help line, option rows, handler).  A row is (flag,
#: type, default, range, help, manifest key).  The type is float, str, bool
#: (a switch) or int (a float that must be integral, then an int).  The
#: range is None, a tuple of the allowed strings, or an interval such as
#: "(0, 1]" that bounds the number, or each number of a str option's
#: comma-separated list; "(-inf, inf)" means finite.  A default of None
#: leaves the option unset.  A row with a manifest key writes the option's
#: value to options.<key>; the handler adds the options it derives.
_COMMANDS = {
    "spectrum": ("linear or saturated transmission spectrum", _SYSTEM + (
        ("--grid", str, "-2:2:2001", None,
         "(dw+delta)/kappa grid, a:b:n (default -2:2:2001)", "grid"),
        ("--x", float, 0.0, "[0, inf)",
         "resonant saturation parameter (0 = linear spectrum)", "x"),
        ("--evanescent", bool, False, None,
         "swap t and r (waveguide-coupled geometry)", "evanescent"),
    ), _cmd_spectrum),
    "saturation": ("resonant transmission vs drive power", _SYSTEM + (
        ("--x-grid", str, "log:-3:4:701", None,
         "saturation grid (default log:-3:4:701)", "x_grid"),
        ("--ideal", bool, False, None,
         "force the lossless dephasing-free system", "ideal"),
    ), _cmd_saturation),
    "dynamics": ("time-domain Bloch trajectory", _SYSTEM + (
        ("--x", float, None, "(-inf, inf)",
         "resonant saturation parameter of the drive", None),
        ("--power", float, None, "[0, inf)", "drive power (photons/s)", None),
        ("--delta-omega", float, 0.0, "(-inf, inf)", "emitter-drive detuning",
         "delta_omega"),
        ("--duration", float, None, "(0, inf)", "integration time "
         "(default 20/gamma, or the settled time with --settle)", None),
        ("--samples", int, 1001, f"[2, {MAX_POINTS}]",
         "number of output samples, an integer >= 2 (default 1001)",
         "samples"),
        ("--initial-re-s", float, 0.0, "(-inf, inf)", None, None),
        ("--initial-im-s", float, 0.0, "(-inf, inf)", None, None),
        ("--initial-s-z", float, -0.5, "(-inf, inf)", None, None),
        ("--full-system", bool, False, None,
         "propagate the emitter-cavity master equation", "full_system"),
        ("--settle", bool, False, None,
         "relax to steady state; report it in the manifest", "settle"),
        ("--settle-tol", float, 1e-9, "(0, inf)", None, None),
    ), _cmd_dynamics),
    # The defaults of --epsilon, --wavelength and --n-index are pillar's
    # DEFAULT_* constants, and --objective's range is pillar.OBJECTIVES.
    "pillar": ("micropillar diameter optimization", (
        ("--q0", float, None, "(0, inf)", "intrinsic quality factor", "q0"),
        ("--objective", str, "contrast",
         ("contrast", "purcell", "efficiency", "beta_sq"),
         "contrast | purcell | efficiency | beta_sq", "objective"),
        ("--d-min", float, 0.5, "(0, inf)", None, None),
        ("--d-max", float, 8.0, "(0, inf)", None, None),
        ("--grid-step", float, 0.02, "(0, inf)", "coarse sweep step, um",
         "grid_step"),
        ("--epsilon", float, 0.007, "[0, inf)", "etching-quality parameter",
         "epsilon"),
        ("--wavelength", float, 1.0, "(0, inf)", "vacuum wavelength, um",
         "lambda_0"),
        ("--n-index", float, 3.5, "(1, inf)", None, "n_index"),
        ("--loss-ratio", float, 1.0, "(0, inf)", "gamma_at/gamma_free",
         "loss_ratio"),
        ("--gamma-star-ratio", float, 0.0, "[0, inf)", None,
         "gamma_star_ratio"),
    ), _cmd_pillar),
    "slowlight": ("group delay of the atom chain", (
        ("--f-list", str, "5,10,100", "(0, inf]",
         "comma-separated f values (default 5,10,100)", "f_list"),
        ("--gamma-over-kappa", float, 0.002, "(0, inf)", None, None),
        ("--kappa", float, 1.0, "(0, inf)", None, "kappa"),
        ("--n-stages", int, 1, "[1, inf)", None, "n_stages"),
    ), _cmd_slowlight),
    "bistability": ("feedback-loop slope scan", _SYSTEM + (
        ("--fraction-a-list", str, "0.1,0.5,0.9,0.99", "[0, 1)",
         "feedback fractions (default 0.1,0.5,0.9,0.99)", "fraction_a_list"),
        ("--x-grid", str, "log:-3:4:7001", None, "default log:-3:4:7001",
         "x_grid"),
    ), _cmd_bistability),
    "reshape": ("pulse contrast enhancement", _SYSTEM + (
        ("--extinction", float, 100.0, "(1, inf)", "input extinction ratio",
         "extinction"),
        ("--x-grid", str, "log:-3:2:501", None, "default log:-3:2:501",
         "x_grid"),
    ), _cmd_reshape),
    "kerr": ("equivalent Kerr-medium comparison", (
        ("--wavelength-um", float, 1.0, "(0, inf)", None, "wavelength_um"),
        ("--n2-cm2-per-w", float, 1e-13, "(0, inf)", None, "n2_cm2_per_w"),
        ("--intensity-w-per-cm2", float, 1.0, "(0, inf)", None,
         "intensity_w_per_cm2"),
        ("--sigma-cm2", float, 1e-8, "(0, inf)", "focus area", "sigma_cm2"),
        ("--jump-factor", float, 10.0, "(0, inf)", None, "jump_factor"),
        ("--pc-watts", float, None, "(0, inf)", "critical power in watts",
         None),
        ("--gamma-per-s", float, 1e10, "(0, inf)",
         "emission rate used to derive P_c (default 1e10)", None),
    ), _cmd_kerr),
}

# Treat tokens like "-2:2:2001" or "-0.5" as values, not option strings.
_NEGATIVE_VALUE = re.compile(r"^-\d[\d.:eE,+-]*$")


#: The parsers built so far in this process, by `build_parser`'s key: the
#: first subcommand named in argv (or None) and whether argv starts with it.
_PARSERS = {}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the arguments ``argv``.  When ``argv`` starts with a
    subcommand, only that subcommand's parser is built; otherwise (--help,
    a missing or an unknown command) all eight are.  Only the first
    subcommand named in ``argv`` gets its options, one per row of its table
    entry.  A process builds each such parser once, on first use, and
    reuses it: parsing leaves a parser as it was."""
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    alone = bool(argv) and argv[0] == named
    if (named, alone) in _PARSERS:
        return _PARSERS[named, alone]
    parser = argparse.ArgumentParser(
        prog="onedatom",
        description="One-dimensional-atom spectra, saturation curves, "
                    "dynamics, pillar design and application calculators.")
    parser._negative_number_matcher = _NEGATIVE_VALUE
    # The metavar keeps all eight names in the usage line of a lone parser.
    # It is set for a lone parser only: argparse would also put it in place
    # of "command" in the errors for a missing or an unknown command.
    subs = parser.add_subparsers(dest="command", required=True, **(
        {"metavar": "{" + ",".join(_COMMANDS) + "}"} if alone else {}))
    for name in [named] if alone else _COMMANDS:
        help_text, rows, _ = _COMMANDS[name]
        sp = subs.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_VALUE
        if name != named:
            continue
        system = sp.add_argument_group("system parameters")  # unshown if empty
        for row in rows + _COMMON:
            flag, kind, _, _, help_row, _ = row
            kwargs = ({"action": "store_true", "default": None} if kind is bool
                      else {"type": float if kind is int else kind})
            (system if row in _SYSTEM else sp).add_argument(
                flag, help=help_row, **kwargs)
    _PARSERS[named, alone] = parser
    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code (0 ok, 2 usage, 3 domain)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
        _, rows, handler = _COMMANDS[ns.command]
        _apply_config(ns, parser, rows + _COMMON)
        _check_ranges(ns, parser, rows)
        if (ns.manifest not in (None, "-") and ns.out not in (None, "-")
                and os.path.realpath(ns.manifest) == os.path.realpath(ns.out)):
            parser.error("--manifest must be a writable file path other "
                         f"than --out, got {ns.manifest!r}")
        header, columns, manifest = handler(ns, parser)
        for name, column in zip(header, columns):
            if np.isnan(column).any():
                raise DomainError(f"{ns.command}: column {name} holds NaN; "
                                  "no output written")
        try:
            with open_out(ns.out) as fh:
                rows_written = write_csv(fh, header, columns)
        except OSError as exc:
            parser.error(f"--out must be a writable file path: {exc}")
        manifest["options"] = {
            **{key: getattr(ns, _dest(flag)) for flag, *_, key in rows if key},
            **manifest.get("options", {})}
        manifest.update(command=ns.command, rows=rows_written, versions={
            "artifact": __version__, "python": sys.version.split()[0],
            "numpy": np.__version__, **manifest.get("versions", {})})
        _write_manifest(ns, parser, manifest)
        return 0
    except SystemExit as exc:          # usage errors, --help
        return int(exc.code or 0)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

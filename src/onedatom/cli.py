"""Command-line interface.

Eight subcommands (spectrum, saturation, dynamics, pillar, slowlight,
bistability, reshape, kerr) produce deterministic CSV data on --out or
stdout plus a JSON run manifest (inputs, derived parameters, results,
versions).  The manifest is written next to --out as
``<out>.manifest.json``; when the CSV goes to stdout the manifest goes to
stderr.  Every option can also be supplied through ``--config file.json``
(keys mirror the flag names); explicit flags win over the config file.

Each subcommand is one row of ``_COMMANDS``: its help line, the function
that adds its options and its handler.  A call builds the options of the
subcommand it names only, and the handler imports the compute modules it
runs, so a call loads neither the integrator nor scipy unless it is
``dynamics``; only that manifest names scipy's version.

A handler checks its options and computes, writing nothing, and returns
``(header, columns, manifest)``: the manifest holds its own entries only,
and a ``versions`` entry adds to the artifact, Python and numpy versions.
`run` is the one output path: it refuses a column holding NaN (exit 3),
writes the CSV, then adds ``command``, ``rows`` and ``versions`` to the
manifest and writes it.

Rates are in the caller's angular-frequency unit with kappa defaulting
to 1, so detunings and rates passed on the command line are effectively in
units of kappa.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .csvio import open_out, write_csv
from .errors import DomainError

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


def _check_finite(parser, ns, keys, positive=False):
    """Usage error naming the first set option of ``keys`` that is not
    finite (or, with ``positive``, not finite and > 0)."""
    for key in keys:
        value = getattr(ns, key)
        if value is not None and not (math.isfinite(value)
                                      and (value > 0.0 or not positive)):
            parser.error(f"--{key.replace('_', '-')} must be finite"
                         f"{' and > 0' if positive else ''}, got {value}")


def _check_drive(parser, ns, flag, x, gamma):
    """Usage error unless the drive power 0.25*x*gamma of every x != 0 in
    ``x`` (the value or grid of the option ``flag``) is a finite normal
    float: a subnormal power keeps only a few bits of x."""
    x = np.abs(np.ravel(x))
    low, high = (0.25 * float(v) * gamma
                 for v in (x[x > 0.0].min(initial=math.inf), x.max()))
    if not (math.isfinite(high) and low >= sys.float_info.min):
        system = ("--gamma" if ns.gamma is not None
                  else "--gamma-over-kappa/--kappa")
        parser.error(f"{system}/{flag} must give a finite drive power "
                     f"0.25*x*gamma of at least {sys.float_info.min}, got "
                     f"{low} to {high}")


def _count_option(parser, ns, key, least, most=None):
    """The option ``key`` as an int; it must be an integer in [least, most]."""
    value = getattr(ns, key)
    if not (value >= least and float(value).is_integer()
            and (most is None or value <= most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        parser.error(f"--{key.replace('_', '-')} must be an integer {bound}, "
                     f"got {value!r}")
    return int(value)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _write_manifest(ns, manifest):
    manifest = _json_safe(manifest)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    path = ns.manifest
    if path is None and ns.out not in (None, "-"):
        path = ns.out + ".manifest.json"
    if path is None:
        sys.stderr.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _params_view(params):
    return {
        "gamma": params.gamma, "kappa": params.kappa, "delta": params.delta,
        "gamma_at": params.gamma_at, "gamma_cav": params.gamma_cav,
        "gamma_star": params.gamma_star, "q_ratio": params.q_ratio,
        "f": params.f_ratio, "beta": params.beta,
        "is_bad_cavity": params.is_bad_cavity,
    }


# ---------------------------------------------------------------------------
# option plumbing

_SYSTEM_DEFAULTS = {
    "gamma": None, "gamma_over_kappa": 0.002, "kappa": 1.0, "delta": 0.0,
    "gamma_at": None, "gamma_cav": None, "gamma_star": 0.0,
    "q_ratio": None, "f": None,
}


def _add_system_options(sub):
    g = sub.add_argument_group("system parameters")
    g.add_argument("--gamma", type=float, help="emission rate into the mode")
    g.add_argument("--gamma-over-kappa", type=float,
                   help="gamma as a fraction of kappa (default 0.002)")
    g.add_argument("--kappa", type=float, help="cavity-port rate (default 1)")
    g.add_argument("--delta", type=float, help="cavity-emitter detuning")
    g.add_argument("--gamma-at", type=float, help="emitter leak rate")
    g.add_argument("--gamma-cav", type=float, help="cavity leak rate")
    g.add_argument("--gamma-star", type=float, help="pure dephasing rate")
    g.add_argument("--q-ratio", type=float,
                   help="Q/Q0; alternative to --gamma-cav")
    g.add_argument("--f", type=float,
                   help="f ratio (inf allowed); alternative to --gamma-at")


def _add_common_options(sub):
    sub.add_argument("--config", help="JSON file mirroring the flag names")
    sub.add_argument("--out", help="CSV output path (default: stdout)")
    sub.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")


def _config_value(parser, action, key, value):
    """Convert a config value as argparse converts the flag's text."""
    flag = action.option_strings[0]
    if action.nargs == 0:                     # a store_true flag
        if isinstance(value, bool):
            return value
    elif not isinstance(value, bool):
        try:
            return (action.type or str)(value)
        except (TypeError, ValueError):
            pass
    parser.error(f"config key {key!r} ({flag}): invalid value {value!r}")


def _apply_config(ns, parser, defaults):
    """Fill unset options from --config, then from the defaults table."""
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
        unknown = set(config) - set(vars(ns))
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subs.choices[ns.command]._actions}
    for key, value in vars(ns).items():
        if value is None and config.get(key) is not None:
            setattr(ns, key, _config_value(parser, actions[key], key, config[key]))
    for key, value in defaults.items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, value)
    return ns


def _build_params(ns, parser, *, force_ideal=False):
    from .model import make_params
    _check_finite(parser, ns, ("kappa",), positive=True)
    kappa = ns.kappa
    gamma = ns.gamma if ns.gamma is not None else ns.gamma_over_kappa * kappa
    if force_ideal:
        for name in ("gamma_at", "gamma_cav", "q_ratio", "f"):
            if getattr(ns, name) is not None:
                parser.error(f"--ideal conflicts with --{name.replace('_', '-')}")
        return make_params(gamma, kappa, delta=ns.delta)
    if ns.gamma_cav is not None and ns.q_ratio is not None:
        parser.error("--gamma-cav and --q-ratio are mutually exclusive")
    if ns.gamma_at is not None and ns.f is not None:
        parser.error("--gamma-at and --f are mutually exclusive")
    gamma_cav = ns.gamma_cav or 0.0
    if ns.q_ratio is not None:
        if not 0.0 < ns.q_ratio <= 1.0:
            parser.error(f"--q-ratio must be in (0, 1], got {ns.q_ratio}")
        gamma_cav = 2.0 * kappa * (1.0 / ns.q_ratio - 1.0)
    q = 1.0 / (1.0 + gamma_cav / (2.0 * kappa))
    gamma_at = ns.gamma_at or 0.0
    if ns.f is not None:
        if ns.f <= 0.0:
            parser.error(f"--f must be > 0, got {ns.f}")
        gamma_at = 0.0 if math.isinf(ns.f) else q * gamma / ns.f
    return make_params(gamma, kappa, delta=ns.delta, gamma_at=gamma_at,
                       gamma_cav=gamma_cav, gamma_star=ns.gamma_star)


# ---------------------------------------------------------------------------
# subcommands: the options of each, then its handler

def _spectrum_options(sp):
    _add_system_options(sp)
    sp.add_argument("--grid", help="(dw+delta)/kappa grid, a:b:n (default -2:2:2001)")
    sp.add_argument("--x", type=float,
                    help="resonant saturation parameter (0 = linear spectrum)")
    sp.add_argument("--evanescent", action="store_true", default=None,
                    help="swap t and r (waveguide-coupled geometry)")


def _cmd_spectrum(ns, parser):
    from .linear import transmission_leaky
    from .model import DriveField
    from .nonlinear import scatter_nonlinear
    _apply_config(ns, parser, dict(_SYSTEM_DEFAULTS, grid="-2:2:2001", x=0.0,
                                   evanescent=False))
    nu = _grid_option(parser, "--grid", ns.grid)
    params = _build_params(ns, parser)
    if not (math.isfinite(ns.x) and ns.x >= 0.0):
        parser.error(f"--x must be finite and >= 0, got {ns.x}")
    _check_drive(parser, ns, "--x", ns.x, params.gamma)
    dw = nu * params.kappa - params.delta
    empty = transmission_leaky(dw, params, empty_cavity=True,
                               evanescent=ns.evanescent)
    out = scatter_nonlinear(
        DriveField.from_power(dw, 0.25 * ns.x * params.gamma), params)
    t, r, cap_t, cap_r = out.t, out.r, out.cap_t, out.cap_r
    if ns.evanescent:
        t, r, cap_t, cap_r = r, t, cap_r, cap_t
    header = ("nu", "delta_omega", "re_t", "im_t", "re_r", "im_r",
              "cap_t", "cap_r", "leaks", "cap_t0")
    return header, (nu, dw, t.real, t.imag, r.real, r.imag, cap_t, cap_r,
                    1.0 - cap_t - cap_r, empty.cap_t), {
        "options": {"grid": ns.grid, "x": ns.x, "evanescent": ns.evanescent},
        "derived": _params_view(params)}


def _saturation_options(sp):
    _add_system_options(sp)
    sp.add_argument("--x-grid", help="saturation grid (default log:-3:4:701)")
    sp.add_argument("--ideal", action="store_true", default=None,
                    help="force the lossless dephasing-free system")


def _cmd_saturation(ns, parser):
    from . import nonlinear
    _apply_config(ns, parser, dict(_SYSTEM_DEFAULTS, x_grid="log:-3:4:701",
                                   ideal=False))
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    params = _build_params(ns, parser, force_ideal=ns.ideal)
    _check_drive(parser, ns, "--x-grid", grid, params.gamma)
    curve = nonlinear.saturation_curve(params, grid)
    header = ("x", "x_eff", "cap_t", "cap_r", "noise_frac",
              "p_t_over_p_c", "p_r_over_p_c", "caution")
    return header, [getattr(curve, k) for k in header], {
        "options": {"x_grid": ns.x_grid, "ideal": ns.ideal},
        "derived": _params_view(params),
        "results": {"p_c": nonlinear.critical_power(0.0, params)}}


def _dynamics_options(sp):
    _add_system_options(sp)
    sp.add_argument("--x", type=float, help="resonant saturation parameter of the drive")
    sp.add_argument("--power", type=float, help="drive power (photons/s)")
    sp.add_argument("--delta-omega", type=float, help="emitter-drive detuning")
    sp.add_argument("--duration", type=float, help="integration time (default 20/gamma)")
    sp.add_argument("--samples", type=float,
                    help="number of output samples, an integer >= 2 (default 1001)")
    sp.add_argument("--rtol", type=float,
                    help="LSODA relative tolerance, >= 2.2e-14 (default 1e-10)")
    sp.add_argument("--atol", type=float,
                    help="LSODA absolute tolerance, > 0 (default 1e-12)")
    sp.add_argument("--initial-re-s", type=float)
    sp.add_argument("--initial-im-s", type=float)
    sp.add_argument("--initial-s-z", type=float)
    sp.add_argument("--full-system", action="store_true", default=None,
                    help="keep the cavity amplitude dynamical")
    sp.add_argument("--settle", action="store_true", default=None,
                    help="relax to steady state; report it in the manifest")
    sp.add_argument("--settle-tol", type=float)


def _cmd_dynamics(ns, parser):
    from . import dynamics, nonlinear
    from .model import BlochState, DriveField
    _apply_config(ns, parser, dict(
        _SYSTEM_DEFAULTS, x=None, power=None, delta_omega=0.0, duration=None,
        samples=1001, rtol=1e-10, atol=1e-12, initial_re_s=0.0,
        initial_im_s=0.0, initial_s_z=-0.5, full_system=False, settle=False,
        settle_tol=1e-9))
    params = _build_params(ns, parser)
    if ns.x is not None and ns.power is not None:
        parser.error("--x and --power are mutually exclusive")
    p_in = ns.power if ns.power is not None else 0.25 * (ns.x or 0.0) * params.gamma
    if not (math.isfinite(p_in) and p_in >= 0.0):
        parser.error(f"--x/--power must give a finite drive power >= 0, got {p_in}")
    _check_finite(parser, ns, ("delta_omega", "initial_re_s", "initial_im_s",
                               "initial_s_z"))
    _check_finite(parser, ns, ("duration", "settle_tol"), positive=True)
    drive = DriveField.from_power(ns.delta_omega, p_in)
    samples = _count_option(parser, ns, "samples", 2, MAX_POINTS)
    try:
        dynamics.check_tolerances(ns.rtol, ns.atol)
    except DomainError as exc:     # the message starts with rtol or atol
        parser.error(f"--{exc}")
    duration = ns.duration if ns.duration is not None else 20.0 / params.gamma
    initial = BlochState(complex(ns.initial_re_s, ns.initial_im_s),
                         ns.initial_s_z)
    if not initial.is_physical():
        parser.error("--initial-re-s/--initial-im-s/--initial-s-z must give "
                     f"|s_z| <= 1/2 and |s|^2 <= 1/4, got {initial}")
    results = {}
    nfev = settle_windows = 0
    if ns.settle:
        settled = dynamics.settle(drive, params, ns.settle_tol,
                                  rtol=ns.rtol, atol=ns.atol,
                                  full_system=ns.full_system)
        duration = settled.time
        nfev, settle_windows = settled.nfev, settled.windows
        s, s_z = settled.state.s, settled.state.s_z
        fixed = nonlinear.steady_state(drive, params)
        # With --full-system the gap is the elimination and closure error.
        results["settled"] = {
            "re_s": s.real, "im_s": s.imag, "s_z": s_z, "time": settled.time,
            "windows": settled.windows, "steady_state_gap": max(
                abs(s.real - fixed.s.real), abs(s.imag - fixed.s.imag),
                abs(s_z - fixed.s_z))}
    traj = dynamics.integrate(drive, params, initial, duration,
                              rtol=ns.rtol, atol=ns.atol, samples=samples,
                              full_system=ns.full_system)
    results["final"] = {"re_s": traj.s[-1].real, "im_s": traj.s[-1].imag,
                        "s_z": float(traj.s_z[-1])}
    import scipy                   # loaded by the LSODA driver
    return dynamics.TRAJECTORY_COLUMNS, traj.columns, {
        "options": {"delta_omega": ns.delta_omega, "p_in": p_in,
                    "duration": duration, "samples": samples,
                    "rtol": ns.rtol, "atol": ns.atol,
                    "full_system": ns.full_system, "settle": ns.settle},
        "derived": _params_view(params), "results": results,
        "diagnostics": {"solver": {"method": "LSODA",
                                   "nfev": nfev + traj.nfev,
                                   "settle_windows": settle_windows}},
        "versions": {"scipy": scipy.__version__}}


def _pillar_options(sp):
    sp.add_argument("--q0", type=float, help="intrinsic quality factor")
    sp.add_argument("--objective", help="contrast | purcell | efficiency | beta_sq")
    sp.add_argument("--d-min", type=float)
    sp.add_argument("--d-max", type=float)
    sp.add_argument("--grid-step", type=float, help="coarse sweep step, um")
    sp.add_argument("--epsilon", type=float, help="etching-quality parameter")
    sp.add_argument("--wavelength", type=float, help="vacuum wavelength, um")
    sp.add_argument("--n-index", type=float)
    sp.add_argument("--loss-ratio", type=float, help="gamma_at/gamma_free")
    sp.add_argument("--gamma-star-ratio", type=float)


def _cmd_pillar(ns, parser):
    from . import pillar
    _apply_config(ns, parser, dict(
        objective="contrast", d_min=0.5, d_max=8.0, grid_step=0.02,
        epsilon=pillar.DEFAULT_EPSILON, wavelength=pillar.DEFAULT_WAVELENGTH,
        n_index=pillar.DEFAULT_N_INDEX, loss_ratio=1.0, gamma_star_ratio=0.0))
    if ns.q0 is None:
        parser.error("--q0 is required")
    if ns.objective not in pillar.OBJECTIVES:
        parser.error(f"--objective must be one of {pillar.OBJECTIVES}")
    _check_finite(parser, ns, ("q0", "d_min", "d_max", "epsilon", "wavelength",
                               "n_index", "loss_ratio", "gamma_star_ratio"))
    _check_finite(parser, ns, ("grid_step",), positive=True)
    kwargs = dict(epsilon=ns.epsilon, lambda_0=ns.wavelength,
                  n_index=ns.n_index, loss_ratio=ns.loss_ratio,
                  gamma_star_ratio=ns.gamma_star_ratio)
    res = pillar.optimize_diameter(ns.q0, ns.objective,
                                   d_range=(ns.d_min, ns.d_max),
                                   grid_step=ns.grid_step, **kwargs)
    header = ("d_um", "Q", "V_um3", "Fp", "f", "Tmax", "Tmin",
              "contrast", "eta", "beta_sq")
    columns = ("d", "q", "v", "fp", "f", "t_max", "t_min",
               "contrast", "eta", "beta_sq")
    m = res.merit
    return header, [getattr(res.sweep, k) for k in columns], {
        "options": {"q0": ns.q0, "objective": ns.objective,
                    "d_range": [ns.d_min, ns.d_max],
                    "grid_step": ns.grid_step, **kwargs},
        "results": {"d_opt": res.d_opt, "value": res.value,
                    "at_boundary": res.at_boundary,
                    "Q": m.q, "Fp": m.fp, "f": m.f, "V_um3": m.v,
                    "Tmax": m.t_max, "Tmin": m.t_min, "contrast": m.contrast,
                    "eta": m.eta, "beta_sq": m.beta_sq},
        "diagnostics": {"optimizer": {"grid_points": res.grid_points,
                                      "golden_probes": res.golden_probes}}}


def _slowlight_options(sp):
    sp.add_argument("--f-list", help="comma-separated f values (default 5,10,100)")
    sp.add_argument("--gamma-over-kappa", type=float)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--n-stages", type=float)


def _cmd_slowlight(ns, parser):
    from . import applications
    from .model import params_from_ratios
    _apply_config(ns, parser, dict(f_list="5,10,100", gamma_over_kappa=0.002,
                                   kappa=1.0, n_stages=1))
    fs = _parse_list(ns.f_list)
    if not fs or not all(f > 0.0 for f in fs):
        parser.error("--f-list must be comma-separated numbers > 0 "
                     f"(inf allowed), got {ns.f_list!r}")
    n_stages = _count_option(parser, ns, "n_stages", 1)
    gamma = ns.gamma_over_kappa * ns.kappa
    header = ("f", "beta", "delay_analytic", "delay_numeric",
              "t_per_stage", "n_half", "total_delay_at_n_half")
    results = [applications.slow_light(
                   params_from_ratios(gamma, ns.kappa, f=f), n_stages=n_stages)
               for f in fs]
    return header, [[getattr(r, k) for r in results] for k in header], {
        "options": {"f_list": ns.f_list, "gamma": gamma, "kappa": ns.kappa,
                    "n_stages": n_stages}}


def _bistability_options(sp):
    _add_system_options(sp)
    sp.add_argument("--fraction-a-list", help="feedback fractions (default 0.1,0.5,0.9,0.99)")
    sp.add_argument("--x-grid", help="default log:-3:4:7001")


def _cmd_bistability(ns, parser):
    from . import applications
    _apply_config(ns, parser, dict(
        _SYSTEM_DEFAULTS, fraction_a_list="0.1,0.5,0.9,0.99",
        x_grid="log:-3:4:7001"))
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    fractions = _parse_list(ns.fraction_a_list)
    if not fractions:
        parser.error("--fraction-a-list must be comma-separated numbers, "
                     f"got {ns.fraction_a_list!r}")
    params = _build_params(ns, parser)
    _check_drive(parser, ns, "--x-grid", grid, params.gamma)
    scans = [applications.bistability_scan(params, a, grid) for a in fractions]
    first = scans[0]
    header = ("x", "p_e", "p_t", "slope_analytic", "slope_numeric")
    return header, [getattr(first, k) for k in header], {
        "options": {"fraction_a_list": ns.fraction_a_list, "x_grid": ns.x_grid},
        "derived": _params_view(params),
        "results": {
            "max_slope": first.max_slope,
            "verdicts": {format(s.fraction_a, "g"): s.unique_solution
                         for s in scans}}}


def _reshape_options(sp):
    _add_system_options(sp)
    sp.add_argument("--extinction", type=float, help="input extinction ratio")
    sp.add_argument("--x-grid", help="default log:-3:2:501")


def _cmd_reshape(ns, parser):
    from . import applications
    _apply_config(ns, parser, dict(_SYSTEM_DEFAULTS, extinction=100.0,
                                   x_grid="log:-3:2:501"))
    grid = _grid_option(parser, "--x-grid", ns.x_grid)
    params = _build_params(ns, parser)
    if not (math.isfinite(ns.extinction) and ns.extinction > 1.0):
        parser.error(f"--extinction must be finite and > 1, got {ns.extinction}")
    _check_drive(parser, ns, "--x-grid", grid, params.gamma)
    res = applications.contrast_enhancement(grid, ns.extinction, params)
    best = int(np.argmax(res.c_leaky))
    return ("x", "c_ideal", "c_leaky"), (res.x, res.c_ideal, res.c_leaky), {
        "options": {"extinction": ns.extinction, "x_grid": ns.x_grid},
        "derived": _params_view(params),
        "results": {"max_c_leaky": float(res.c_leaky[best]),
                    "x_at_max": float(res.x[best])}}


def _kerr_options(sp):
    sp.add_argument("--wavelength-um", type=float)
    sp.add_argument("--n2-cm2-per-w", type=float)
    sp.add_argument("--intensity-w-per-cm2", type=float)
    sp.add_argument("--sigma-cm2", type=float, help="focus area")
    sp.add_argument("--jump-factor", type=float)
    sp.add_argument("--pc-watts", type=float, help="critical power in watts")
    sp.add_argument("--gamma-per-s", type=float,
                    help="emission rate used to derive P_c (default 1e10)")


def _cmd_kerr(ns, parser):
    from . import applications
    _apply_config(ns, parser, dict(
        wavelength_um=1.0, n2_cm2_per_w=1e-13, intensity_w_per_cm2=1.0,
        sigma_cm2=1e-8, jump_factor=10.0, pc_watts=None, gamma_per_s=1e10))
    _check_finite(parser, ns, ("wavelength_um", "n2_cm2_per_w",
                               "intensity_w_per_cm2", "sigma_cm2", "jump_factor",
                               "pc_watts", "gamma_per_s"), positive=True)
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
        "options": {"wavelength_um": ns.wavelength_um,
                    "n2_cm2_per_w": ns.n2_cm2_per_w,
                    "intensity_w_per_cm2": ns.intensity_w_per_cm2,
                    "sigma_cm2": ns.sigma_cm2, "jump_factor": ns.jump_factor},
        "results": {"length_m": length_m, "length_km": length_m / 1e3,
                    "p_c_watts": p_c, "i_pi_w_per_cm2": i_pi}}


# ---------------------------------------------------------------------------

#: Subcommand name -> (help line, option adder, handler).
_COMMANDS = {
    "spectrum": ("linear or saturated transmission spectrum", _spectrum_options,
                 _cmd_spectrum),
    "saturation": ("resonant transmission vs drive power", _saturation_options,
                   _cmd_saturation),
    "dynamics": ("time-domain Bloch trajectory", _dynamics_options, _cmd_dynamics),
    "pillar": ("micropillar diameter optimization", _pillar_options, _cmd_pillar),
    "slowlight": ("group delay of the atom chain", _slowlight_options,
                  _cmd_slowlight),
    "bistability": ("feedback-loop slope scan", _bistability_options,
                    _cmd_bistability),
    "reshape": ("pulse contrast enhancement", _reshape_options, _cmd_reshape),
    "kerr": ("equivalent Kerr-medium comparison", _kerr_options, _cmd_kerr),
}

# Treat tokens like "-2:2:2001" or "-0.5" as values, not option strings.
_NEGATIVE_VALUE = re.compile(r"^-\d[\d.:eE,+-]*$")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the arguments ``argv``: all eight subcommands are
    registered, but only the first one named in ``argv`` gets its options."""
    parser = argparse.ArgumentParser(
        prog="onedatom",
        description="One-dimensional-atom spectra, saturation curves, "
                    "dynamics, pillar design and application calculators.")
    parser._negative_number_matcher = _NEGATIVE_VALUE
    subs = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_text, add_options, _) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_VALUE
        if name == named:
            add_options(sp)
            _add_common_options(sp)
    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code (0 ok, 2 usage, 3 domain)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
        header, columns, manifest = _COMMANDS[ns.command][2](ns, parser)
        for name, column in zip(header, columns):
            if np.isnan(column).any():
                raise DomainError(f"{ns.command}: column {name} holds NaN; "
                                  "no output written")
        with open_out(ns.out) as fh:
            rows = write_csv(fh, header, columns)
        manifest.update(command=ns.command, rows=rows, versions={
            "artifact": __version__, "python": sys.version.split()[0],
            "numpy": np.__version__, **manifest.get("versions", {})})
        _write_manifest(ns, manifest)
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

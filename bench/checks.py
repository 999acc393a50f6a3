"""Output checks against independent numpy references.

Each check reads what an operation wrote (CSV, manifest) or returned
(a settled state) and raises `CheckFailed` on the first mismatch.  The
references are the paper's closed forms written out again here with
numpy; none calls into onedatom.

Tolerances: amplitudes and closed forms 1e-9 (the CLI evaluates the same
formulas in another order), energy budget T + R + leaks = 1 to 1e-12,
settled states to 1e-6 per component (as acceptance criterion 06).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

COLUMNS = {
    "spectrum": ("nu", "delta_omega", "re_t", "im_t", "re_r", "im_r",
                 "cap_t", "cap_r", "leaks", "cap_t0"),
    "saturation": ("x", "x_eff", "cap_t", "cap_r", "noise_frac",
                   "p_t_over_p_c", "p_r_over_p_c", "caution"),
    "dynamics": ("t", "re_s", "im_s", "s_z", "re_bt", "im_bt", "re_br",
                 "im_br"),
    "pillar": ("d_um", "Q", "V_um3", "Fp", "f", "Tmax", "Tmin", "contrast",
               "eta", "beta_sq"),
    "slowlight": ("f", "beta", "delay_analytic", "delay_numeric",
                  "t_per_stage", "n_half", "total_delay_at_n_half"),
    "bistability": ("x", "p_e", "p_t", "slope_analytic", "slope_numeric"),
    "reshape": ("x", "c_ideal", "c_leaky"),
    "kerr": ("lambda_um", "n2_cm2_per_w", "intensity_w_per_cm2", "length_m",
             "p_c_watts", "sigma_cm2", "i_pi_w_per_cm2"),
}

AMPLITUDE_TOL = 1e-9
BUDGET_TOL = 1e-12
SETTLE_TOL = 1e-6
BLOCH_TOL = 1e-9
#: Relative distance of a trajectory's last sample from the steady state
#: after 20/gamma from the ground state.  The slowest coherence decay the
#: workloads use (q = 0.3, f = 1) is 0.3 gamma, leaving e^-6 = 2.5e-3.
FINAL_TOL = 1e-2
#: The full system's mean-field closure departs from the eliminated steady
#: state by about x (below 1% for x <= 0.01), plus gamma/(2 kappa) = 1e-3.
FULL_SYSTEM_TOL = 2e-2

PILLAR_OBJECTIVE_COLUMN = {"contrast": "contrast", "purcell": "Fp",
                           "efficiency": "eta", "beta_sq": "beta_sq"}
PLANCK_J_S = 6.62607015e-34
C_LIGHT_M_S = 2.99792458e8


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(name, got, want, rtol=0.0, atol=AMPLITUDE_TOL):
    got, want = np.broadcast_arrays(np.asarray(got), np.asarray(want))
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(f"{name}: {int(bad.sum())} values off, first at "
                          f"index {i}: got {got.flat[i]!r}, want {want.flat[i]!r}")


def grid(text):
    """The CLI's grid syntax a:b:n or log:a:b:n, evaluated with numpy."""
    log = text.startswith("log:")
    a, b, n = (text[4:] if log else text).split(":")
    lin = np.linspace(float(a), float(b), int(n))
    return 10.0 ** lin if log else lin


def read_csv(path, columns):
    """Header check, data-row count and the values as a dict of columns."""
    text = Path(path).read_text(encoding="utf-8")
    _require(text.endswith("\n"), f"{path}: missing final newline")
    lines = text.split("\n")[:-1]
    header = tuple(lines[0].split(","))
    _require(header == tuple(columns),
             f"{path}: header {header} != {tuple(columns)}")
    rows = len(lines) - 1
    _require(rows >= 1, f"{path}: no data rows")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    _require(data.shape == (rows, len(columns)),
             f"{path}: ragged rows {data.shape}")
    return rows, {c: data[:, i] for i, c in enumerate(columns)}


def read_manifest(path, rows):
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: manifest does not parse: {exc}") from None
    _require(isinstance(manifest, dict), f"{path}: manifest is not an object")
    _require(manifest.get("rows") == rows,
             f"{path}: manifest rows {manifest.get('rows')!r} != {rows} CSV rows")
    return manifest


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# closed-form references

def _inv_f(f):
    return 0.0 if math.isinf(f) else 1.0 / f


def linear_t(dw, gamma, kappa, delta, q=1.0, f=math.inf):
    """Linear transmission amplitude of the (leaky) system."""
    t0p = 1.0 / (1.0 + 1j * q * (dw + delta) / kappa)
    denom = t0p + _inv_f(f) + 2j * dw / (q * gamma)
    return q * t0p * (-1.0 + t0p / denom)


def ideal_steady_state(dw, p_in, gamma, kappa, delta):
    """Semiclassical steady state (s, s_z) of the ideal system, any detuning."""
    a = 2.0 * dw / gamma
    b = (dw + delta) / kappa
    x = p_in / (0.25 * gamma * (a * a + (a * b - 1.0) ** 2))
    t0 = 1.0 / (1.0 + 1j * (dw + delta) / kappa)
    s = (np.sqrt(2.0 / gamma) / (1.0 + x) * 1j * np.sqrt(p_in)
         / (1.0 + 2j * dw / (gamma * t0)))
    return s, -0.5 / (1.0 + x)


def leaky_steady_state(p_in, gamma, f):
    """Steady state (s, s_z) of the leaky system on full resonance."""
    beta = 1.0 / (1.0 + _inv_f(f))
    x = 4.0 * beta * beta * p_in / gamma
    return (np.sqrt(2.0 / gamma) * 1j * np.sqrt(p_in) * beta / (1.0 + x),
            -0.5 / (1.0 + x))


def resonant_t(x, q=1.0, f=math.inf):
    """Resonant transmission amplitude at saturation parameter x."""
    inv_f = _inv_f(f)
    beta = 1.0 / (1.0 + inv_f)
    xb = beta * beta * x
    return -q * (inv_f / (1.0 + inv_f) + xb) / (1.0 + xb)


def steady_state(op):
    if math.isinf(op["f"]) and op["q"] == 1.0:
        return ideal_steady_state(op["dw"], op["p_in"], op["gamma"],
                                  op["kappa"], op["delta"])
    return leaky_steady_state(op["p_in"], op["gamma"], op["f"])


# ---------------------------------------------------------------------------
# CSV checks, one per subcommand

def _budget(name, cap_t, cap_r, rest):
    _close(f"{name} T+R+leaks", cap_t + cap_r + rest, 1.0, atol=BUDGET_TOL)
    _require(np.all(rest >= -BUDGET_TOL), f"{name}: negative leaks")


def check_spectrum(c, col, rows):
    kappa = c.get("kappa", 1.0)
    gamma = c["g"] * kappa
    delta, q, f, x = c["delta"], c.get("q", 1.0), c.get("f", math.inf), c.get("x", 0.0)
    nu = grid(c["grid"])
    _require(rows == nu.size, f"spectrum: {rows} rows, want {nu.size}")
    _close("nu", col["nu"], nu, atol=0.0)
    dw = nu * kappa - delta
    _close("delta_omega", col["delta_omega"], dw, atol=1e-12)
    if x == 0.0:
        t = linear_t(dw, gamma, kappa, delta, q, f)
    else:
        p_in = 0.25 * x * gamma
        s, _ = ideal_steady_state(dw, p_in, gamma, kappa, delta)
        t0 = 1.0 / (1.0 + 1j * (dw + delta) / kappa)
        t = -t0 * (1.0 + 1j * np.sqrt(gamma / 2.0) * s / np.sqrt(p_in))
    r = 1.0 + t
    _close("t", col["re_t"] + 1j * col["im_t"], t)
    _close("r", col["re_r"] + 1j * col["im_r"], r)
    _close("cap_t", col["cap_t"], np.abs(t) ** 2)
    _close("cap_r", col["cap_r"], np.abs(r) ** 2)
    _close("cap_t0", col["cap_t0"],
           np.abs(q / (1.0 + 1j * q * (dw + delta) / kappa)) ** 2)
    _budget("spectrum", col["cap_t"], col["cap_r"], col["leaks"])


def check_saturation(c, col, rows):
    q, f = c.get("q", 1.0), c.get("f", math.inf)
    x = grid(c["grid"])
    _require(rows == x.size, f"saturation: {rows} rows, want {x.size}")
    _close("x", col["x"], x, atol=0.0)
    t = resonant_t(x, q, f)
    cap_t, cap_r = t * t, (1.0 + t) ** 2
    x_eff = x / (1.0 + _inv_f(f)) ** 2
    _close("cap_t", col["cap_t"], cap_t)
    _close("cap_r", col["cap_r"], cap_r)
    _close("x_eff", col["x_eff"], x_eff, rtol=AMPLITUDE_TOL, atol=0.0)
    _close("p_t_over_p_c", col["p_t_over_p_c"], cap_t * x_eff,
           rtol=AMPLITUDE_TOL)
    _close("p_r_over_p_c", col["p_r_over_p_c"], cap_r * x_eff,
           rtol=AMPLITUDE_TOL)
    clear = (np.abs(x_eff - 0.1) > 1e-9) & (np.abs(x_eff - 10.0) > 1e-8)
    caution = (x_eff > 0.1) & (x_eff < 10.0)
    _require(np.array_equal(col["caution"][clear] == 1.0, caution[clear]),
             "saturation: caution flags differ from 0.1 < x_eff < 10")
    if q == 1.0 and math.isinf(f):
        _close("ideal T = x^2/(1+x)^2", col["cap_t"], x * x / (1.0 + x) ** 2)
    _budget("saturation", col["cap_t"], col["cap_r"], col["noise_frac"])


def check_reshape(c, col, rows):
    x = grid(c["grid"])
    d = c["extinction"]
    _require(rows == x.size, f"reshape: {rows} rows, want {x.size}")
    _close("x", col["x"], x, atol=0.0)
    _close("c_ideal", col["c_ideal"], d * ((1.0 + x) / (1.0 + x / d)) ** 2,
           rtol=AMPLITUDE_TOL, atol=0.0)
    t_hi, t_lo = resonant_t(x, c["q"], c["f"]), resonant_t(x / d, c["q"], c["f"])
    _close("c_leaky", col["c_leaky"], (t_hi / t_lo) ** 2 / d,
           rtol=AMPLITUDE_TOL, atol=0.0)


def check_bistability(c, col, rows):
    gamma = c["g"]
    x = grid(c["grid"])
    _require(rows == x.size, f"bistability: {rows} rows, want {x.size}")
    _close("x", col["x"], x, atol=0.0)
    _close("p_e", col["p_e"], 0.25 * gamma * x, rtol=1e-12, atol=0.0)
    _close("p_t", col["p_t"], 0.25 * gamma * x ** 3 / (1.0 + x) ** 2,
           rtol=1e-12, atol=0.0)
    slope = x * x * (3.0 + x) / (1.0 + x) ** 3
    _close("slope_analytic", col["slope_analytic"], slope, rtol=1e-12)
    _close("slope_numeric", col["slope_numeric"], slope, atol=1e-6)


def check_pillar(c, col, rows, manifest):
    n = max(2, int(math.ceil((8.0 - 0.5) / 0.02)) + 1)
    _require(rows == n, f"pillar: {rows} rows, want {n}")
    d = np.linspace(0.5, 8.0, n)
    _close("d_um", col["d_um"], d, atol=1e-12)
    lam_n = 1.0 / 3.5
    _close("V_um3", col["V_um3"], lam_n * math.pi * d * d / 8.0, rtol=1e-12,
           atol=0.0)
    _close("Fp", col["Fp"],
           3.0 * col["Q"] * lam_n ** 3 / (4.0 * math.pi ** 2 * col["V_um3"]),
           rtol=1e-12, atol=0.0)
    beta = col["f"] / (1.0 + col["f"])
    _close("beta_sq", col["beta_sq"], beta * beta, rtol=1e-12)
    _close("eta", col["eta"], beta * col["Q"] / c["q0"], rtol=1e-12)
    _close("contrast", col["contrast"], col["Tmax"] - col["Tmin"], atol=1e-12)
    res = manifest.get("results", {})
    best = float(np.max(col[PILLAR_OBJECTIVE_COLUMN[c["objective"]]]))
    value = res.get("value")
    _require(isinstance(value, float) and value >= best * (1.0 - 1e-12),
             f"pillar: optimum {value!r} below the best sweep value {best!r}")
    _require(0.5 <= res.get("d_opt", -1.0) <= 8.0,
             f"pillar: d_opt {res.get('d_opt')!r} outside the range")


def check_slowlight(c, col, rows):
    f = np.asarray(c["f_list"])
    _require(rows == f.size, f"slowlight: {rows} rows, want {f.size}")
    gamma = 0.002
    beta = f / (1.0 + f)
    _close("f", col["f"], f, atol=0.0)
    _close("beta", col["beta"], beta, rtol=1e-12)
    _close("delay_analytic", col["delay_analytic"], 2.0 * beta / gamma,
           rtol=1e-12, atol=0.0)
    # The phase-derivative delay matches the bad-cavity formula to 2%
    # (acceptance criterion 09).
    _close("delay_numeric", col["delay_numeric"], 2.0 * beta / gamma,
           rtol=0.02, atol=0.0)
    _close("t_per_stage", col["t_per_stage"], beta * beta, rtol=1e-12)
    n_half = 0.5 * math.log(2.0) / np.log1p(1.0 / f)
    _close("n_half", col["n_half"], n_half, rtol=1e-9, atol=0.0)


def check_kerr(c, col, rows):
    _require(rows == 1, f"kerr: {rows} rows, want 1")
    length = 1e-4 / (2.0 * 1e-13 * 1.0) * 1e-2
    p_c = 0.25 * 1e10 * PLANCK_J_S * C_LIGHT_M_S / 1e-6
    _close("length_m", col["length_m"], length, rtol=1e-12, atol=0.0)
    _close("p_c_watts", col["p_c_watts"], p_c, rtol=1e-12, atol=0.0)
    _close("i_pi_w_per_cm2", col["i_pi_w_per_cm2"], 10.0 * p_c / 1e-8,
           rtol=1e-12, atol=0.0)


def check_trajectory(col, rows, op, duration):
    """Sample times, the Bloch-ball bound, b_r - b_t = b_in, final state."""
    n = op["samples"]
    _require(rows == n, f"trajectory: {rows} rows, want {n}")
    _close("t", col["t"], np.linspace(0.0, duration, n), rtol=1e-12, atol=0.0)
    s = col["re_s"] + 1j * col["im_s"]
    _require(np.all(np.abs(s) ** 2 + col["s_z"] ** 2 <= 0.25 + BLOCH_TOL),
             "trajectory leaves the Bloch ball")
    b_in = math.sqrt(op["p_in"])
    _close("b_r - b_t", (col["re_br"] - col["re_bt"])
           + 1j * (col["im_br"] - col["im_bt"]), b_in,
           atol=1e-12 * max(1.0, b_in))
    want_s, want_z = steady_state(op)
    tol = FULL_SYSTEM_TOL if op.get("full_system") else FINAL_TOL
    _close("final s", s[-1], want_s, atol=tol * max(abs(want_s), 1e-3))
    _close("final s_z", col["s_z"][-1], want_z, atol=tol * 0.5)


def check_settled(op, s, s_z):
    want_s, want_z = steady_state(op)
    _close("settled re_s", s.real, want_s.real, atol=SETTLE_TOL)
    _close("settled im_s", s.imag, want_s.imag, atol=SETTLE_TOL)
    _close("settled s_z", s_z, want_z, atol=SETTLE_TOL)


def check_cli(c, out_path):
    """Check one CLI run from its CSV and manifest; return the CSV rows."""
    kind = c["kind"]
    manifest_path = f"{out_path}.manifest.json"
    rows, col = read_csv(out_path, COLUMNS[kind])
    manifest = read_manifest(manifest_path, rows)
    if kind == "dynamics":
        settled = manifest.get("results", {}).get("settled", {})
        gamma = c["g"] * c["kappa"]
        p_in = 0.25 * c["x"] * gamma
        op = {"gamma": gamma, "kappa": c["kappa"], "delta": 0.0, "q": 1.0,
              "f": math.inf, "dw": 0.0, "p_in": p_in,
              "samples": c["samples"]}
        try:
            got = complex(settled["re_s"], settled["im_s"])
            got_z = float(settled["s_z"])
            duration = float(manifest["options"]["duration"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"dynamics manifest lacks {exc}") from None
        check_settled(op, got, got_z)
        check_trajectory(col, rows, op, duration)
    elif kind == "pillar":
        check_pillar(c, col, rows, manifest)
    else:
        CHECKS[kind](c, col, rows)
    return rows


CHECKS = {"spectrum": check_spectrum, "saturation": check_saturation,
          "reshape": check_reshape, "bistability": check_bistability,
          "slowlight": check_slowlight, "kerr": check_kerr}

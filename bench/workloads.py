"""Seeded inputs of the three benchmark workloads.

Every workload is a list of operations run one at a time (closed loop, one
client).  An operation is a plain dict, so the inputs of a seed can be
hashed and compared.  The numbers below were chosen so that one pass costs
the same for every seed: the seed moves values inside fixed strata and
permutes assignments, and never changes grid sizes or the share of the
expensive regimes.

* ``cli_figures``: the README's figure commands verbatim, each a fresh
  ``python -m onedatom.cli`` process.  The seed only permutes their order.
* ``dense_sweeps``: large sweeps through ``onedatom.cli.run`` in process,
  with the default thread pool (no ``--threads``), plus a batch of pillar
  optimizations.
* ``ode_oracle``: ``settle`` and ``integrate`` through the Python API;
  a fixed quarter of the ideal settles are strongly driven off resonance,
  the slowest case of the RK45 oracle.  The full-system runs are weakly
  driven (x <= 0.004), where the mean-field closure agrees with the
  eliminated steady state to better than 1%.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: The README's figure commands, with what their outputs are checked against.
README_COMMANDS = (
    ("spectrum --gamma-over-kappa 0.002 --delta 0 --grid -2:2:2001 --out fig_dip.csv",
     {"kind": "spectrum", "g": 0.002, "delta": 0.0, "grid": "-2:2:2001"}),
    ("spectrum --delta -0.5 --grid -2:2:2001 --out fig_fano.csv",
     {"kind": "spectrum", "g": 0.002, "delta": -0.5, "grid": "-2:2:2001"}),
    ("spectrum --x 10 --grid -0.02:0.02:401 --out fig_saturated.csv",
     {"kind": "spectrum", "g": 0.002, "delta": 0.0, "x": 10.0,
      "grid": "-0.02:0.02:401"}),
    ("saturation --ideal --x-grid log:-3:4:701 --out fig_saturation.csv",
     {"kind": "saturation", "g": 0.002, "grid": "log:-3:4:701"}),
    ("saturation --q-ratio 0.96 --f 10 --out fig_saturation_leaky.csv",
     {"kind": "saturation", "g": 0.002, "q": 0.96, "f": 10.0,
      "grid": "log:-3:4:701"}),
    ("dynamics --x 1 --kappa 500 --samples 1001 --settle --out traj.csv",
     {"kind": "dynamics", "g": 0.002, "kappa": 500.0, "x": 1.0,
      "samples": 1001}),
    ("pillar --q0 1000 --objective contrast --out pillar_sweep.csv",
     {"kind": "pillar", "q0": 1000.0, "objective": "contrast"}),
    ("slowlight --f-list 5,10,100 --out slowlight.csv",
     {"kind": "slowlight", "f_list": [5.0, 10.0, 100.0]}),
    ("bistability --out bistability.csv",
     {"kind": "bistability", "g": 0.002, "grid": "log:-3:4:7001"}),
    ("reshape --q-ratio 0.96 --f 100 --extinction 100 --out reshape.csv",
     {"kind": "reshape", "g": 0.002, "q": 0.96, "f": 100.0,
      "extinction": 100.0, "grid": "log:-3:2:501"}),
    ("kerr --out kerr.csv", {"kind": "kerr"}),
)

#: Grid size of each dense sweep, chosen so that every sweep costs about
#: the same (0.4 s with the default pool on 2 cores); the tail percentile
#: then falls inside one cluster of similar operations.
DENSE_POINTS = {"spectrum_linear": 10001, "spectrum_saturated": 8001,
                "saturation": 25001, "reshape": 6001, "bistability": 50001}
#: Pillar optimizations per dense pass: every objective once per log10(q0)
#: stratum, so the batch costs the same for every seed.
PILLAR_OBJECTIVES = ("contrast", "purcell", "efficiency", "beta_sq")
PILLAR_Q0_STRATA = ((2.5, 2.875), (2.875, 3.25), (3.25, 3.625), (3.625, 4.0))

#: ode_oracle design: every operation is a fixed point of the regime map,
#: and the seed jitters it within a narrow cell (JITTER_LOG10 in x and f,
#: JITTER_REL in dw and q), so each operation costs about the same for
#: every seed while its exact inputs differ.  Signs stay fixed: with a
#: detuned cavity, flipping dw changes the drive power by up to 30%.  Ideal settles: one per
#: (log10 x, cavity detuning delta, |dw|) cell; the last three cells are
#: strongly driven and off resonance, the slowest case of the RK45 oracle,
#: and stay a fixed quarter of the ideal settles.
IDEAL_SETTLES = tuple((lx, delta, dw)
                      for lx in (-1.75, -0.5, 0.5)
                      for delta, dw in ((0.0, 0.25), (-250.0, -1.25),
                                        (150.0, 2.25))) + (
    (1.7, 0.0, 2.75), (1.7, -250.0, -2.75), (1.7, 150.0, 2.75))
STRONG_LOG10_X = 1.6
#: Leaky settles on full resonance: (log10 x, q, log10 f).
LEAKY_SETTLES = ((-1.75, 0.95, 1.7), (-1.25, 0.45, 0.3), (-0.75, 0.75, 1.0),
                 (-0.25, 0.35, 1.3), (0.25, 0.85, 0.0), (0.75, 0.55, 1.9),
                 (1.25, 0.65, -0.2), (1.75, 0.9, 0.6))
#: Eliminated trajectories: (log10 x, q, log10 f, delta, dw); q = 1 with
#: f = inf is the ideal system.
ELIMINATED_RUNS = ((0.0, 1.0, math.inf, 100.0, -1.0),
                   (0.0, 0.7, 1.0, 0.0, 0.0),
                   (0.5, 1.0, math.inf, -200.0, 1.5),
                   (-0.5, 0.9, 0.5, 0.0, 0.0))
#: Full-system trajectories at kappa/gamma = 500, weakly driven:
#: (log10 x, dw).
FULL_SYSTEM_RUNS = ((-3.0, 0.5), (-2.5, -0.5))
JITTER_LOG10 = 0.03
JITTER_REL = 0.02
ODE_KAPPA = 500.0
SAMPLES = 1001


def _num(v):
    """Exact text form of a float for the command line."""
    return repr(float(v))


def ideal_critical_power(dw, gamma, kappa, delta):
    """P_c(dw) = (gamma/4) phi(dw) of the ideal system."""
    a = 2.0 * dw / gamma
    b = (dw + delta) / kappa
    return 0.25 * gamma * (a * a + (a * b - 1.0) ** 2)


def cli_figures(seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(README_COMMANDS))
    ops = []
    for i in order:
        line, check = README_COMMANDS[int(i)]
        argv = line.split()
        ops.append({"argv": argv, "out": argv[-1], "check": check})
    return ops


def dense_sweeps(seed):
    rng = np.random.default_rng(seed)
    g = float(10.0 ** rng.uniform(math.log10(5e-4), math.log10(5e-3)))
    delta = float(rng.uniform(-0.5, 0.5))
    q = float(rng.uniform(0.5, 1.0))
    f = float(10.0 ** rng.uniform(0.0, 2.0))
    x = float(10.0 ** rng.uniform(-1.0, 1.5))
    ext = float(10.0 ** rng.uniform(1.0, 3.0))
    n = DENSE_POINTS
    width = _num(10.0 * g)
    grids = {"spectrum_linear": f"-2:2:{n['spectrum_linear']}",
             "spectrum_saturated": f"-{width}:{width}:{n['spectrum_saturated']}",
             "saturation": f"log:-3:4:{n['saturation']}",
             "reshape": f"log:-3:2:{n['reshape']}",
             "bistability": f"log:-3:4:{n['bistability']}"}
    common = ["--gamma-over-kappa", _num(g)]
    leaky = ["--q-ratio", _num(q), "--f", _num(f)]
    ops = [
        (["spectrum", *common, "--delta", _num(delta), *leaky,
          "--grid", grids["spectrum_linear"], "--out", "spectrum_linear.csv"],
         {"kind": "spectrum", "g": g, "delta": delta, "q": q, "f": f,
          "grid": grids["spectrum_linear"]}),
        (["spectrum", *common, "--delta", _num(delta), "--x", _num(x),
          "--grid", grids["spectrum_saturated"], "--out", "spectrum_saturated.csv"],
         {"kind": "spectrum", "g": g, "delta": delta, "x": x,
          "grid": grids["spectrum_saturated"]}),
        (["saturation", "--ideal", *common, "--x-grid", grids["saturation"],
          "--out", "saturation_ideal.csv"],
         {"kind": "saturation", "g": g, "grid": grids["saturation"]}),
        (["saturation", *common, *leaky, "--x-grid", grids["saturation"],
          "--out", "saturation_leaky.csv"],
         {"kind": "saturation", "g": g, "q": q, "f": f,
          "grid": grids["saturation"]}),
        (["reshape", *common, *leaky, "--extinction", _num(ext),
          "--x-grid", grids["reshape"], "--out", "reshape.csv"],
         {"kind": "reshape", "g": g, "q": q, "f": f, "extinction": ext,
          "grid": grids["reshape"]}),
        (["bistability", *common, "--x-grid", grids["bistability"],
          "--out", "bistability.csv"],
         {"kind": "bistability", "g": g, "grid": grids["bistability"]}),
    ]
    pillars = [(obj, float(10.0 ** rng.uniform(lo, hi)))
               for obj in PILLAR_OBJECTIVES for lo, hi in PILLAR_Q0_STRATA]
    for k, i in enumerate(rng.permutation(len(pillars))):
        obj, q0 = pillars[int(i)]
        ops.append((["pillar", "--q0", _num(q0), "--objective", obj,
                     "--out", f"pillar_{k}.csv"],
                    {"kind": "pillar", "q0": q0, "objective": obj}))
    return [{"argv": argv, "out": argv[-1], "check": check}
            for argv, check in ops]


def ode_oracle(seed):
    rng = np.random.default_rng(seed)
    gamma, kappa = 1.0, ODE_KAPPA

    def log_jitter(center):
        return float(10.0 ** (center + rng.uniform(-JITTER_LOG10, JITTER_LOG10)))

    def rel_jitter(center):
        return float(center * (1.0 + rng.uniform(-JITTER_REL, JITTER_REL)))

    def drive(kind, lx, q, lf, delta, dw, **extra):
        f = math.inf if math.isinf(lf) else log_jitter(lf)
        q = 1.0 if q == 1.0 else min(rel_jitter(q), 1.0)
        x = log_jitter(lx)
        if math.isinf(f) and q == 1.0:
            p_in = x * ideal_critical_power(dw, gamma, kappa, delta)
        else:                   # leaky runs are on full resonance
            p_in = x * 0.25 * gamma * (1.0 + 1.0 / f) ** 2
        return {"kind": kind, "gamma": gamma, "kappa": kappa, "delta": delta,
                "q": q, "f": f, "dw": dw, "p_in": p_in, **extra}

    ops = [drive("settle", lx, 1.0, math.inf, delta, rel_jitter(dw), tol=1e-9)
           for lx, delta, dw in IDEAL_SETTLES]
    ops += [drive("settle", lx, q, lf, 0.0, 0.0, tol=1e-9)
            for lx, q, lf in LEAKY_SETTLES]
    traj = {"duration": 20.0 / gamma, "samples": SAMPLES}
    for k, (lx, q, lf, delta, dw) in enumerate(ELIMINATED_RUNS):
        ops.append(drive("integrate", lx, q, lf, delta, rel_jitter(dw), **traj,
                         full_system=False, out=f"trajectory_{k}.csv"))
    for k, (lx, dw) in enumerate(FULL_SYSTEM_RUNS):
        ops.append(drive("integrate", lx, 1.0, math.inf, 0.0, rel_jitter(dw),
                         **traj, full_system=True,
                         out=f"trajectory_full_{k}.csv"))
    return ops


GENERATORS = {"cli_figures": cli_figures, "dense_sweeps": dense_sweeps,
              "ode_oracle": ode_oracle}

#: Percentile reported as op_tail_s, fixed per workload: the highest whole
#: percentile with ten operations beyond it in a run of the usual length
#: (cli_figures 3 passes x 11, dense_sweeps 8 x 22, ode_oracle 6 x 26).
#: A run makes at least that many operations.
TAIL_PERCENTILE = {"cli_figures": 69, "dense_sweeps": 94, "ode_oracle": 93}


def generate(workload, seed):
    return GENERATORS[workload](int(seed))


def inputs_hash(ops):
    text = json.dumps(ops, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()

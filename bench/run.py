"""Benchmark of the onedatom toolkit, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it needs ``src/onedatom``).  The
package is used from ``src`` without installing it.  Workloads are defined
in `workloads`: ``cli_figures`` (README commands as processes),
``dense_sweeps`` (large sweeps through ``onedatom.cli.run``) and
``ode_oracle`` (``settle``/``integrate`` through the API).

A run repeats passes over the seed's operations, one operation at a time,
until about ``--seconds`` have gone by and at least ten operations lie
beyond the tail percentile.  Every output is checked after its
pass, outside the timed region (`checks`); later passes only compare
output digests with the first.  With ``--trace 0`` the end-to-end
metrics are reported:

* ``setup_s``: median of three fresh interpreters that each generate the
  inputs and import ``onedatom.cli``, after one untimed import that fills
  the bytecode cache;
* ``wall_s``: median time of one pass; ``op_p50_s`` and ``op_tail_s``:
  median and tail latency of one operation, the tail at the fixed
  percentile of `workloads.TAIL_PERCENTILE` (the record gives the sample
  count);
* ``points_per_s``: CSV data rows plus returned steady states per second
  of pass time;
* ``peak_rss_mb``: high-water resident set after the first pass, before
  any check runs (of the largest CLI process for ``cli_figures``);
* ``ok_frac``: operations that succeeded and passed their checks, over
  those attempted.

With ``--trace 1`` two passes run plainly, then two with every onedatom
layer wrapped (`tracer`); per-layer busy seconds (self time, summed over
threads) and counters of one pass are reported, with the tracing overhead
``trace.overhead_s`` (traced pass wall minus untraced pass wall) and the
median cumulative import times from ``python -X importtime``.  The exact counters must agree
between the two traced passes, or the run fails.

Which end-to-end metric each layer metric should move:

* ``import.*_s``: ``cli_figures`` op_p50_s; setup_s of the other workloads;
* ``cli.*``: ``cli_figures`` op_p50_s;
* ``model.calls``, ``linear.*``, ``nonlinear.*``, ``applications.*``:
  ``dense_sweeps`` points_per_s;
* ``pillar.*``: ``dense_sweeps`` wall_s;
* ``csvio.*``: ``dense_sweeps`` points_per_s and ``ode_oracle`` wall_s;
* ``dynamics.*``: ``ode_oracle`` wall_s.

The last line of standard output is the result as one JSON object; the
line before it is the run record (machine, versions, seed, input hash,
output sha256).  Spans and the record are also written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
IMPORT_PROBES = 3
#: Traced runs: the last untraced pass (the first warms caches) is the
#: baseline of the tracing overhead.
UNTRACED_PASSES = 2
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120.0
IMPORT_MODULES = ("onedatom", "onedatom.cli", "scipy.integrate")

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
         "points_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# environment

def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root, **kwargs):
    """Run a child interpreter to completion (killed and reaped on timeout)."""
    return subprocess.run([sys.executable, *argv], env=child_env(root),
                          timeout=CHILD_TIMEOUT_S, text=True, **kwargs)


def git_state(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=30)
        return rev.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(root, seed):
    rev, dirty = git_state(root)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "os_cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "git_revision": rev, "git_dirty": dirty, "seed": seed}


# ---------------------------------------------------------------------------
# operations

class Runner:
    """Runs the operations of one workload and checks what they produced."""

    def __init__(self, workload, ops, root, work, spans_dir):
        self.workload = workload
        self.ops = ops
        self.root = root
        self.work = work
        self.spans_dir = spans_dir
        self.tracer = None
        self.traced = False
        self.import_stderr = []
        self.od = None
        if workload != "cli_figures":
            import onedatom
            import onedatom.cli
            self.od = onedatom

    def enable_tracing(self):
        self.traced = True
        if self.od is not None:
            self.tracer = tracing.Tracer()
            self.tracer.install()

    def run_op(self, i, op, pass_no):
        """Run one operation; return its value or raise on failure."""
        if self.workload == "cli_figures":
            if self.traced:
                spans = self.spans_dir / f"pass{pass_no}-op{i}.npz"
                argv = ["-X", "importtime", str(HERE / "trace_cli.py"),
                        str(spans), str(i), *op["argv"]]
            else:
                argv = ["-m", "onedatom.cli", *op["argv"]]
            proc = run_child(argv, self.root, cwd=self.work,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if self.traced:
                self.import_stderr.append(proc.stderr)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}")
            return None
        if self.workload == "dense_sweeps":
            code = self.od.cli.run(op["argv"])
            if code != 0:
                raise RuntimeError(f"onedatom.cli.run returned {code}")
            return None
        return self._api(op)

    def _api(self, op):
        od = self.od
        if op["q"] == 1.0 and math.isinf(op["f"]):
            params = od.make_params(op["gamma"], op["kappa"], delta=op["delta"])
        else:
            params = od.params_from_ratios(op["gamma"], op["kappa"], op["q"],
                                           op["f"])
        drive = od.DriveField.from_power(op["dw"], op["p_in"])
        if op["kind"] == "settle":
            res = od.settle(drive, params, op["tol"])
            return res.state.s, res.state.s_z
        traj = od.integrate(drive, params, od.BlochState.ground(),
                            op["duration"], samples=op["samples"],
                            full_system=op["full_system"])
        with open(op["out"], "w", encoding="utf-8", newline="") as fh:
            return traj.write_csv(fh)

    def check(self, op, value):
        """Full output check of one operation: (points, CSV sha256 or None)."""
        if self.workload != "ode_oracle":
            rows = checks.check_cli(op["check"], op["out"])
            return rows, checks.digest(op["out"])
        if op["kind"] == "settle":
            s, s_z = value
            checks.check_settled(op, s, s_z)
            return 1, None
        rows, col = checks.read_csv(op["out"], checks.COLUMNS["dynamics"])
        if rows != value:
            raise checks.CheckFailed(f"write_csv returned {value}, file has {rows} rows")
        checks.check_trajectory(col, rows, op, op["duration"])
        return rows, checks.digest(op["out"])

    def quick_digest(self, op, value):
        if self.workload != "ode_oracle":
            return checks.digest(op["out"], f"{op['out']}.manifest.json")
        if op["kind"] == "settle":
            return repr(value)
        return checks.digest(op["out"])


class Measurement:
    """Latencies, failures and output digests accumulated over passes."""

    def __init__(self, runner):
        self.runner = runner
        self.walls = []
        self.latencies = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.first = {}           # op index -> (points, digest) of a good pass
        self.sha256 = {}
        self.errors = []
        self.rss_mb = None

    def run_pass(self, pass_no):
        r = self.runner
        values, errors, lat = [], [], []
        t_pass = time.perf_counter()
        for i, op in enumerate(r.ops):
            if r.tracer is not None:
                r.tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                value, err = r.run_op(i, op, pass_no), None
            except Exception as exc:       # counted as a failed operation
                value, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            values.append(value)
            errors.append(err)
        wall = time.perf_counter() - t_pass
        self.walls.append(wall)
        self.latencies.extend(lat)
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb(r.workload)
        self._verify(pass_no, values, errors)

    def _verify(self, pass_no, values, errors):
        r = self.runner
        for i, (op, value, err) in enumerate(zip(r.ops, values, errors)):
            self.attempted += 1
            if err is None:
                try:
                    quick = r.quick_digest(op, value)
                    good = self.first.get(i)
                    if good is None:
                        points, sha = r.check(op, value)
                        self.first[i] = (points, quick)
                        if sha is not None:
                            self.sha256[op["out"]] = sha
                    elif quick != good[1]:
                        raise checks.CheckFailed("output differs from the first pass")
                    else:
                        points = good[0]
                    self.points += points
                    continue
                except (checks.CheckFailed, OSError, ValueError) as exc:
                    err = f"check: {exc}"
            self.failed += 1
            self.errors.append(f"pass {pass_no} op {i}: {err}")
            log(f"FAILED pass {pass_no} op {i} {op.get('argv', op.get('kind'))}: {err}")


# ---------------------------------------------------------------------------
# set-up and import timing

def setup_seconds(root, workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = run_child([str(HERE / "setup_probe.py"), workload, str(seed)],
                         root, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times), times


def import_seconds(stderr_texts):
    """Median cumulative import time per module over the given processes."""
    per_module = {m: [] for m in IMPORT_MODULES}
    for text in stderr_texts:
        cum = tracing.parse_importtime(text)
        for m in IMPORT_MODULES:
            per_module[m].append(cum.get(m, 0.0))
    return {f"import.{m}_s": statistics.median(v) if v else 0.0
            for m, v in per_module.items()}


def import_probe_stderr(root):
    texts = []
    for _ in range(IMPORT_PROBES):
        proc = run_child(["-X", "importtime", "-c", "import onedatom.cli"],
                         root, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        texts.append(proc.stderr)
    return texts


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_figures" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced passes

def traced_pass_metrics(runner, pass_no, spans_dir):
    """Per-layer metrics of one traced pass; spans land in ``spans_dir``."""
    total = {}
    if runner.tracer is not None:
        layers = runner.tracer.layers
        cols, counts = runner.tracer.save(spans_dir / f"pass{pass_no}.npz")
        runner.tracer.reset()
        return tracing.layer_metrics(layers, cols, counts)
    for i in range(len(runner.ops)):
        path = spans_dir / f"pass{pass_no}-op{i}.npz"
        if not path.is_file():
            continue
        layers, cols, counts = tracing.load(path)
        total = tracing.merge(total, tracing.layer_metrics(layers, cols, counts))
    return total


def run_traced(runner, measurement, spans_dir):
    for p in range(UNTRACED_PASSES):
        measurement.run_pass(p)
    untraced = measurement.walls[-1]
    runner.enable_tracing()
    per_pass = []
    for p in range(UNTRACED_PASSES, UNTRACED_PASSES + TRACED_PASSES):
        measurement.run_pass(p)
        per_pass.append(traced_pass_metrics(runner, p, spans_dir))
    mismatched = tracing.count_mismatches(per_pass)
    exact = tracing.exact_counts(per_pass[0])
    metrics = {}
    for k in per_pass[0]:
        vals = [m.get(k, 0) for m in per_pass]
        metrics[k] = vals[0] if k in exact else statistics.median(vals)
    traced = measurement.walls[UNTRACED_PASSES:]
    metrics["trace.overhead_s"] = statistics.median(traced) - untraced
    return metrics, mismatched, {"untraced_wall_s": measurement.walls[:UNTRACED_PASSES],
                                 "traced_wall_s": traced}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "onedatom" / "cli.py").is_file():
        log(f"error: {root}/src/onedatom not found; run from a source tree root")
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".bench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    work = out_dir / "work"
    spans_dir = out_dir / "spans"
    work.mkdir(parents=True)
    spans_dir.mkdir()

    ops = workloads.generate(args.workload, args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine(root, args.seed),
              "inputs_sha256": workloads.inputs_hash(ops),
              "operations_per_pass": len(ops)}
    try:
        warm = run_child(["-c", "import onedatom.cli"], root, capture_output=True)
        if warm.returncode != 0:
            raise RuntimeError(f"import onedatom.cli failed: {warm.stderr.strip()[-500:]}")
        if not args.trace:
            setup_s, setup_all = setup_seconds(root, args.workload, args.seed)
            record["setup_s_each"] = setup_all
        else:
            probes = [] if args.workload == "cli_figures" else import_probe_stderr(root)
        runner = Runner(args.workload, ops, root, work, spans_dir)
    except (RuntimeError, OSError, ImportError, subprocess.TimeoutExpired) as exc:
        log(f"error: set-up failed: {exc}")
        return 2

    os.chdir(work)
    meas = Measurement(runner)
    correct = True
    if args.trace:
        metrics, mismatched, info = run_traced(runner, meas, spans_dir)
        cli = args.workload == "cli_figures"
        metrics.update(import_seconds(runner.import_stderr if cli else probes))
        record["trace"] = info
        if mismatched:
            correct = False
            log(f"error: exact counts differ between traced passes: {mismatched}")
            record["count_mismatch"] = mismatched
    else:
        pct = workloads.TAIL_PERCENTILE[args.workload]
        need = math.ceil(10 / (1 - pct / 100))    # ten operations beyond pct
        t_start = time.perf_counter()
        while True:
            meas.run_pass(len(meas.walls))
            elapsed = time.perf_counter() - t_start
            if (len(meas.latencies) >= need and
                    elapsed >= args.seconds - 0.5 * statistics.median(meas.walls)):
                break
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(meas.walls),
            "op_p50_s": statistics.median(meas.latencies),
            "op_tail_s": float(np.percentile(meas.latencies, pct)),
            "points_per_s": meas.points / sum(meas.walls),
            "peak_rss_mb": meas.rss_mb,
            "ok_frac": (meas.attempted - meas.failed) / meas.attempted,
        }
        record["op_tail"] = {"percentile": pct, "samples": len(meas.latencies),
                             "beyond": sum(v > metrics["op_tail_s"]
                                           for v in meas.latencies)}
        record["pass_walls_s"] = meas.walls
        n = len(ops)
        record["op_latencies_s"] = [meas.latencies[i:i + n]
                                    for i in range(0, len(meas.latencies), n)]
    os.chdir(root)
    correct = correct and meas.failed == 0
    record.update(passes=len(meas.walls), attempted=meas.attempted,
                  failed=meas.failed, errors=meas.errors[:20],
                  outputs_sha256=meas.sha256)
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": meas.attempted,
              "failed": meas.failed,
              "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""Span bookkeeping, the exact-count self-check and the traced bootstrap."""

import json
import pathlib
import subprocess
import sys

import tracer as tracing

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def spans(rows):
    """Columns from (id, name, start, end, parent, thread) tuples."""
    cols = {k: [] for k in ("id", "name", "start", "end", "parent",
                            "thread", "op")}
    for sid, name, start, end, parent, thread in rows:
        for k, v in zip(("id", "name", "start", "end", "parent", "thread"),
                        (sid, name, start, end, parent, thread)):
            cols[k].append(v)
        cols["op"].append(0)
    return cols


def test_self_time_subtracts_the_union_of_children():
    # A parent on thread 0 with overlapping children on two threads.
    cols = spans([(0, 0, 0.0, 10.0, -1, 0),
                   (1, 1, 1.0, 3.0, 0, 0),
                   (1 << 32, 1, 2.0, 6.0, 0, 1),
                   ((1 << 32) | 1, 1, 8.0, 9.0, 0, 1)])
    own = tracing.self_times(cols)
    assert own.tolist() == [4.0, 2.0, 4.0, 1.0]


def test_layer_metrics_sum_self_time_and_calls():
    cols = spans([(0, 0, 0.0, 10.0, -1, 0), (1, 1, 1.0, 4.0, 0, 0),
                  (2, 2, 5.0, 6.0, 0, 0)])
    layers = ["cli", "linear", "dynamics.full_system"]
    m = tracing.layer_metrics(layers, cols, {"linear.points": 5})
    assert m["cli.busy_s"] == 6.0
    assert m["linear.busy_s"] == 3.0 and m["linear.calls"] == 1
    assert m["linear.points"] == 5
    assert m["dynamics.integrate.calls"] == 1
    assert m["dynamics.full_system.busy_s"] == 1.0
    assert m["dynamics.integrate.busy_s"] == 1.0


def test_count_mismatch_is_detected():
    a = {"linear.calls": 4, "linear.busy_s": 0.1, "csvio.bytes": 10}
    assert tracing.count_mismatches([a, dict(a, **{"linear.busy_s": 0.2})]) == []
    assert tracing.count_mismatches([a, dict(a, **{"csvio.bytes": 11})]) == ["csvio.bytes"]


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       179 |        179 |   onedatom.errors\n"
            "import time:      1185 |     929470 |   onedatom\n"
            "import time:      8271 |     939201 | onedatom.cli\n")
    cum = tracing.parse_importtime(text)
    assert cum["onedatom"] == 0.92947 and cum["onedatom.cli"] == 0.939201


TRACE_TWICE = """
import json, sys
import tracer as tracing
import onedatom.cli
t = tracing.Tracer()
t.install()
out = []
for _ in range(2):
    t.begin_op(0)
    assert onedatom.cli.run(["spectrum", "--grid", "-2:2:201", "--out", sys.argv[1]]) == 0
    cols, counts = t.spans()
    out.append(tracing.layer_metrics(t.layers, cols, counts))
    t.reset()
print(json.dumps(out))
"""


def _env():
    import os
    return dict(os.environ, PYTHONPATH=f"{BENCH}{os.pathsep}{ROOT / 'src'}")


def test_traced_counts_repeat_in_process(tmp_path):
    proc = subprocess.run([sys.executable, "-c", TRACE_TWICE,
                           str(tmp_path / "s.csv")], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert tracing.count_mismatches([first, second]) == []
    assert first["linear.points"] == 402      # t and the empty-cavity t0
    assert first["csvio.rows"] == 201
    assert first["csvio.bytes"] == (tmp_path / "s.csv").stat().st_size
    assert first["cli.calls"] >= 2 and first["linear.busy_s"] > 0.0


def test_cli_bootstrap_writes_spans(tmp_path):
    spans_path = tmp_path / "spans.npz"
    proc = subprocess.run([sys.executable, str(BENCH / "trace_cli.py"),
                           str(spans_path), "3", "kerr", "--out", "k.csv"],
                          cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers, cols, counts = tracing.load(spans_path)
    m = tracing.layer_metrics(layers, cols, counts)
    assert set(cols["op"]) == {3}
    assert m["cli.calls"] >= 2 and m["applications.calls"] == 3
    assert m["csvio.rows"] == 1

"""In-memory span tracing around the public functions of the onedatom layers.

`Tracer.install` wraps every public function (and public classmethod)
defined in a onedatom module, in every onedatom namespace that holds a
reference to it, so calls between layers and calls made through a module
attribute (``nonlinear.saturation_curve``) are both recorded.  One
exception: `csvio.format_value` runs once per CSV cell; its time stays in
the self time of `csvio.write_csv`.

A span is (name, start, end, parent, thread, operation id).  Each thread
appends to its own buffer, so pool workers need no lock.  A span opened
in a thread with no open span of its own takes as parent the innermost
open span of the thread that started the operation; the CLI's pool
workers thus hang under the subcommand that created the pool.

Counters, kept per thread and summed: ``linear.points`` and
``nonlinear.points`` are the grid sizes handed to the layer from outside
it, ``pillar.points`` the designs evaluated (`figures_of_merit` calls),
``csvio.rows`` and ``csvio.bytes`` what `write_csv` wrote, and
``dynamics.settle.windows`` and ``dynamics.integrate.samples`` come from
the returned results.

This module imports nothing heavy at load time: the CLI bootstrap imports
it before `onedatom`, under ``python -X importtime``.
"""

from __future__ import annotations

import inspect
import threading
from array import array
from collections import Counter
from time import perf_counter

#: onedatom modules whose public functions are wrapped, in import order.
MODULES = ("model", "linear", "nonlinear", "dynamics", "pillar",
           "applications", "csvio", "cli")
#: Called once per CSV cell; wrapping it would multiply the span count.
UNWRAPPED = {("csvio", "format_value")}
#: Layers whose `points` are the grid sizes handed to the layer from outside.
ENTRY_POINT_LAYERS = ("linear", "nonlinear")

SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "thread", "op")
#: Counters that must repeat exactly between two traced runs of one input.
EXACT_SUFFIXES = (".calls", ".points", ".rows", ".bytes", ".windows",
                  ".samples")


def _grid_size(args):
    """Largest length among array-like positional arguments, else 1."""
    n = 1
    for a in args:
        if isinstance(a, (str, bytes)):
            continue
        size = getattr(a, "size", None)
        if size is None and isinstance(a, (list, tuple)):
            size = len(a)
        if isinstance(size, int) and size > n:
            n = size
    return n


class _Buffer:
    __slots__ = ("tid", "name", "start", "end", "parent", "op", "stack",
                 "counts")

    def __init__(self, tid):
        self.tid = tid
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []          # (span id, layer) of the open spans
        self.counts = Counter()


class Tracer:
    """Record spans and layer counters for the calls made after `install`."""

    def __init__(self):
        self.names = []          # span name id -> "layer.function"
        self.layers = []         # span name id -> layer key
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._root = None

    # -- recording ---------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin_op(self, op_id):
        """Mark the calling thread as the one that runs operation `op_id`."""
        self.op = op_id
        self._root = self._buffer()

    def reset(self):
        """Drop the recorded spans and counters (wrappers stay installed)."""
        with self._lock:
            self._buffers = []
        self._local = threading.local()
        self._root = None

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        nid = self._name_id(name, layer)
        full_nid = None
        if layer == "dynamics" and fn.__name__ == "integrate":
            layer_key = "dynamics.integrate"
            full_nid = self._name_id(f"{layer}.integrate[full_system]",
                                     "dynamics.full_system")
        elif layer == "dynamics":
            layer_key = f"dynamics.{fn.__name__}"
        else:
            layer_key = layer
        self.layers[nid] = layer_key
        count_points = layer in ENTRY_POINT_LAYERS
        is_write_csv = layer == "csvio" and fn.__name__ == "write_csv"
        is_merit = layer == "pillar" and fn.__name__ == "figures_of_merit"
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent, parent_layer = stack[-1]
            else:
                root = tracer._root
                top = root.stack if root is not None else None
                parent, parent_layer = top[-1] if top else (-1, None)
            idx = len(buf.start)
            sid = (buf.tid << 32) | idx
            use = full_nid if full_nid is not None and kwargs.get(
                "full_system") else nid
            buf.name.append(use)
            buf.parent.append(parent)
            buf.op.append(tracer.op)
            buf.end.append(0.0)
            stack.append((sid, layer_key))
            pos = None
            if is_write_csv:
                try:
                    pos = args[0].tell()
                except (AttributeError, OSError, ValueError):
                    pos = None
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                stack.pop()
            counts = buf.counts
            if count_points and parent_layer != layer:
                counts[f"{layer}.points"] += _grid_size(args)
            elif is_merit:
                counts["pillar.points"] += 1
            elif is_write_csv:
                counts["csvio.rows"] += result
                if pos is not None:
                    counts["csvio.bytes"] += args[0].tell() - pos
            elif layer_key == "dynamics.settle":
                counts["dynamics.settle.windows"] += result.windows
            elif layer_key == "dynamics.integrate":
                counts["dynamics.integrate.samples"] += len(result.times)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every onedatom module in place."""
        import importlib
        package = importlib.import_module("onedatom")
        mods = {m: importlib.import_module(f"onedatom.{m}") for m in MODULES}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer, name) in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(obj, layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, classmethod):
                            setattr(obj, attr,
                                    classmethod(self.wrap(raw.__func__, layer)))
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    # -- export ------------------------------------------------------------

    def spans(self):
        """Columns of every recorded span as numpy arrays, plus the counters."""
        import numpy as np
        with self._lock:
            buffers = list(self._buffers)
        parts = {k: [] for k in SPAN_COLUMNS}
        counts = Counter()
        for buf in buffers:
            n = len(buf.start)
            parts["id"].append((buf.tid << 32) | np.arange(n, dtype=np.int64))
            parts["thread"].append(np.full(n, buf.tid, dtype=np.int64))
            for k, dtype in (("name", np.int32), ("start", float),
                             ("end", float), ("parent", np.int64),
                             ("op", np.int64)):
                parts[k].append(np.frombuffer(getattr(buf, k), dtype)[:n].copy())
            counts.update(buf.counts)
        cols = {k: np.concatenate(v) if v else np.empty(0)
                for k, v in parts.items()}
        return cols, counts

    def save(self, path):
        """Write the spans and counters to ``path`` (.npz) and return them."""
        import json

        import numpy as np
        cols, counts = self.spans()
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 counts=np.array(json.dumps(dict(counts))), **cols)
        return cols, counts


def load(path):
    """Read a file written by `Tracer.save` as (layers, cols, counts)."""
    import json

    import numpy as np
    with np.load(path) as z:
        layers = [str(x) for x in z["layers"]]
        cols = {k: z[k] for k in SPAN_COLUMNS}
        counts = Counter(json.loads(str(z["counts"])))
    return layers, cols, counts


def self_times(cols):
    """Self time of every span: its duration minus the union of its children.

    Children may run on other threads and overlap one another; the union
    is clipped to the parent's interval.
    """
    import numpy as np
    ids = np.asarray(cols["id"], dtype=np.int64)
    parents = np.asarray(cols["parent"], dtype=np.int64)
    starts = np.asarray(cols["start"], dtype=float)
    ends = np.asarray(cols["end"], dtype=float)
    own = ends - starts
    if ids.size == 0:
        return own
    by_id = np.argsort(ids)
    slot = np.clip(np.searchsorted(ids[by_id], parents), 0, ids.size - 1)
    ppos = np.where(ids[by_id][slot] == parents, by_id[slot], -1)
    kids = np.nonzero(ppos >= 0)[0]
    kids = kids[np.lexsort((starts[kids], ppos[kids]))]
    kp = ppos[kids].tolist()
    lo = starts[ppos[kids]].tolist()
    hi = ends[ppos[kids]].tolist()
    ks = np.maximum(starts[kids], lo).tolist()
    ke = np.minimum(ends[kids], hi).tolist()
    covered = {}
    cur_p, cur_s, cur_e = -1, 0.0, 0.0
    for p, s, e in zip(kp, ks, ke):
        if e <= s:
            continue
        if p != cur_p or s > cur_e:
            if cur_p >= 0:
                covered[cur_p] = covered.get(cur_p, 0.0) + cur_e - cur_s
            cur_p, cur_s, cur_e = p, s, e
        elif e > cur_e:
            cur_e = e
    if cur_p >= 0:
        covered[cur_p] = covered.get(cur_p, 0.0) + cur_e - cur_s
    for p, c in covered.items():
        own[p] -= c
    return own


#: Per-layer metrics reported from a traced run, besides import and overhead.
LAYER_METRICS = (
    "cli.busy_s", "cli.calls", "model.busy_s", "model.calls",
    "linear.busy_s", "linear.calls", "linear.points",
    "nonlinear.busy_s", "nonlinear.calls", "nonlinear.points",
    "applications.busy_s", "applications.calls",
    "pillar.busy_s", "pillar.calls", "pillar.points",
    "csvio.busy_s", "csvio.rows", "csvio.bytes",
    "dynamics.settle.busy_s", "dynamics.settle.calls",
    "dynamics.settle.windows",
    "dynamics.integrate.busy_s", "dynamics.integrate.calls",
    "dynamics.integrate.samples", "dynamics.full_system.busy_s",
)


def layer_metrics(layers, cols, counts):
    """Busy seconds, call counts and work counters per layer.

    `dynamics.integrate.*` covers every `integrate` call;
    `dynamics.full_system.busy_s` is the part of it spent in calls with
    ``full_system=True``.
    """
    import numpy as np
    out = {m: 0.0 if m.endswith("busy_s") else 0 for m in LAYER_METRICS}
    names = np.asarray(cols["name"], dtype=np.int64)
    busy = np.bincount(names, weights=self_times(cols), minlength=len(layers))
    calls = np.bincount(names, minlength=len(layers))
    for key, b, c in zip(layers, busy.tolist(), calls.tolist()):
        if key == "dynamics.full_system":
            out["dynamics.full_system.busy_s"] += b
            key = "dynamics.integrate"
        if f"{key}.busy_s" in out:
            out[f"{key}.busy_s"] += b
        if f"{key}.calls" in out:
            out[f"{key}.calls"] += c
    for k, v in counts.items():
        if k in out:
            out[k] += v
    return out


def exact_counts(metrics):
    """The subset of `metrics` that must repeat exactly for one input."""
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}


def count_mismatches(per_pass):
    """Exact counters that differ between the passes of one input."""
    exact = [exact_counts(m) for m in per_pass]
    keys = set().union(*exact)
    return sorted(k for k in keys if len({e.get(k) for e in exact}) > 1)


def merge(a, b):
    """Sum two metric dicts key by key."""
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def parse_importtime(stderr_text):
    """Cumulative seconds per module from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cum_us = int(parts[1])
        except ValueError:
            continue                # the header line
        cumulative.setdefault(parts[2].strip(), cum_us / 1e6)
    return cumulative

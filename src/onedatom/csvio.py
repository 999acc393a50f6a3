"""Deterministic CSV writing shared by the CLI and trajectory export.

Floats are rendered with 17 significant digits ("." decimal separator),
lines end with "\\n", one header row per file.  Identical inputs therefore
produce byte-identical files.

`write_csv` takes the data as equal-length columns (numpy arrays or
sequences) and writes them in blocks of `BLOCK_ROWS` rows: each block is
rendered by one "%.17g,...,%.17g\\n" template and written with one call,
so memory stays bounded by the block whatever the file size.  Booleans are
written as 1/0 and integers without a decimal point.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from itertools import chain

#: Rows formatted and written per block.
BLOCK_ROWS = 4096


def write_csv(fh, header, columns) -> int:
    """Write ``header`` and the equal-length ``columns``; return the row count."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    fh.write(",".join(header) + "\n")
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        block = [c[start:stop] for c in columns]
        block = [b.tolist() if hasattr(b, "tolist") else b for b in block]
        fh.write(line * (stop - start) % tuple(chain.from_iterable(zip(*block))))
    return n


@contextmanager
def open_out(path):
    """Yield a text handle for ``path``; None or "-" means stdout."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh

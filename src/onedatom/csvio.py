"""Deterministic CSV writing shared by the CLI and trajectory export.

Floats are rendered exactly as Python's "%.17g" renders them (17
significant digits, "." decimal separator, trailing zeros dropped), lines
end with "\\n", one header row per file.  Identical inputs therefore
produce byte-identical files.  Booleans are written as 1/0 and integers as
the floats they convert to (without a decimal point below 1e17).

`write_csv` takes the data as equal-length columns (numpy arrays or
sequences) and checks every column before it writes anything, the header
included.  It then formats the rows with numpy array arithmetic one chunk
of at most `CHUNK_VALUES` values at a time, one write call per chunk, so
the transient memory is one chunk's work arrays and two chunks' text
(about 1.3 MiB for ten columns), whatever the file size:

* For |v| in [1e-280, 1e280), with k = floor(log10 |v|), the product
  |v| 10^(16-k) is formed as a double-double: 10^(16-k) is a (hi, lo) pair
  of doubles taken from a table built exactly from Python integers on
  first use, and |v| hi is split into its rounded value and exact error by
  Dekker's two-product.  Its floor D and remainder are accurate to
  about 1e-14; k is corrected once when D falls outside [10^16, 10^17), the
  remainder rounds D half up, and 10^17 carries to 10^16 with k + 1.
* A value the array path cannot decide exactly is formatted by "%.17g"
  itself: a non-finite value, |v| outside [1e-280, 1e280) (zero aside),
  or a remainder within 1e-7 of a rounding tie.
* The 17 digits come from uint32 divisions of D's two halves.  Each value
  is laid out in 30 byte slots (sign, the "0.000" prefix of values in
  [1e-4, 1), the digits with the decimal point shifted in, the exponent,
  the separator); unused slots hold 0 and are dropped when the slots are
  transposed into text.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

#: Values formatted and written per chunk of rows.
CHUNK_VALUES = 8192

_SLOTS = 30                  # byte slots per value, separator included
_EXACT = (1e-280, 1e280)     # |v| range of the array path
_Q_MIN, _Q_MAX = -266, 298   # 10^q table range, 16 - k for k of that range
_K_MIN, _K_MAX = -300, 300   # layout table range; array-path |k| <= 282
_SPLIT = 134217729.0         # 2^27 + 1, Veltkamp's splitting constant


@cache
def _tables():
    """10^q as split (hi, lo) doubles, and the layout of each exponent k.

    Returns (hi, hi_high, hi_low, lo, layout, point): hi is the double
    nearest 10^q and hi_high + hi_low its exact Veltkamp split, lo the double
    nearest 10^q - hi, indexed by q - _Q_MIN; layout[:, k - _K_MIN] holds
    the five prefix slots and the five exponent slots of a value with
    exponent k, and point[k - _K_MIN] the index of the digit before its
    decimal point (-1: the point is in the prefix).
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        power = 10 ** abs(q)
        if q >= 0:
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()    # den = 2^s
            lo.append(math.ldexp((den - num * power) / power,
                                 1 - den.bit_length()))
    hi = np.array(hi)
    t = _SPLIT * hi
    hi_high = t - (t - hi)
    cells = []
    for k in range(_K_MIN, _K_MAX + 1):
        prefix = "0." + "0" * (-1 - k) if -4 <= k < 0 else ""
        exponent = "e%+03d" % k if k < -4 or k >= 17 else ""
        cell = prefix.ljust(5, "\0") + exponent.ljust(5, "\0")
        cells.append(cell.encode())
    layout = np.frombuffer(b"".join(cells), np.uint8).reshape(-1, 10).T.copy()
    ks = np.arange(_K_MIN, _K_MAX + 1)
    point = np.where((ks < -4) | (ks >= 17), 0, np.clip(ks, -1, 16))
    point = point.astype(np.int8)
    return hi, hi_high, hi - hi_high, np.array(lo), layout, point


def _scaled(a, k):
    """floor(a 10^(16-k)) as int64 and its remainder in [0, 1)."""
    hi, hi_high, hi_low, lo, _, _ = _tables()
    i = 16 - k - _Q_MIN
    bh, bl = hi_high[i], hi_low[i]
    p = a * hi[i]
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    whole = np.floor(p)
    low = (p - whole) + (err + a * lo[i])
    below = np.floor(low)
    return whole.astype(np.int64) + below.astype(np.int64), low - below


def _decimal(v):
    """(k, digits, fallback): the exponent, the (17, n) digits of the
    17-digit rounding of |v| (zeros for 0) and the indices of the values
    the array path cannot decide."""
    a = np.abs(v)
    zero = a == 0.0
    exact = (a >= _EXACT[0]) & (a < _EXACT[1])
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    d, rem = _scaled(a, k)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], rem[off] = _scaled(a[off], k[off])
    fallback = np.flatnonzero(~(exact | zero) | (np.abs(rem - 0.5) < 1e-7)
                              | (d < 10 ** 16) | (d >= 10 ** 17))
    d += rem >= 0.5
    carry = d == 10 ** 17
    d -= carry * (9 * 10 ** 16)
    k += carry
    d *= ~zero
    k *= ~zero
    digits = np.empty((17, v.size), np.uint8)
    high = (d // 10 ** 9).astype(np.uint32)
    low = (d - high.astype(np.int64) * 10 ** 9).astype(np.uint32)
    ten = np.uint32(10)
    for part, rows in ((low, range(16, 7, -1)), (high, range(7, -1, -1))):
        for row in rows:
            q = part // ten
            np.subtract(part, q * ten, out=digits[row], casting="unsafe")
            part = q
    return k, digits, fallback


def _format(v, sep):
    """The text of the float64 values ``v``, each followed by its byte of
    ``sep`` (a comma or a newline)."""
    *_, layout, point = _tables()
    n = v.size
    k, digits, fallback = _decimal(v)
    k -= _K_MIN
    p = point[k]
    rows = np.arange(17, dtype=np.int8)[:, None]
    last = ((digits != 0) * rows).max(axis=0)
    slots = np.empty((_SLOTS, n), np.uint8)
    slots[0] = np.signbit(v) * np.uint8(45)
    np.take(layout[:5], k, axis=1, out=slots[1:6])
    np.take(layout[5:], k, axis=1, out=slots[24:29])
    digits += np.uint8(48)
    digits *= rows <= np.maximum(p, last)
    left = rows <= p
    np.multiply(digits, left, out=slots[6:23])
    slots[23] = 0
    digits *= ~left
    slots[7:24] += digits
    dot = (last > p) * (p >= 0) * np.uint8(46)
    slots.ravel()[(p + 7).astype(np.intp) * n + np.arange(n)] = dot
    slots[29] = sep
    for i in fallback:
        text = ("%.17g" % v[i]).encode()
        slots[:-1, i] = 0
        slots[:len(text), i] = np.frombuffer(text, np.uint8)
    return slots.T.tobytes().translate(None, b"\0").decode("ascii")


def _real(column):
    """``column`` as an array; "%.17g" takes no strings, complex numbers or
    None, which numpy's float conversion of an object array would take."""
    values = np.asarray(column)
    if values.dtype.kind not in "biufO":
        raise TypeError(f"CSV values must be real numbers, got {values.dtype}")
    if values.dtype.kind == "O":
        for v in values.flat:
            "%.17g" % (v,)              # raises TypeError as the writer would
    return values


def write_csv(fh, header, columns) -> int:
    """Write ``header`` and the equal-length ``columns``, all checked
    before anything is written; return the row count."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    columns = [_real(c) for c in columns]
    fh.write(",".join(header) + "\n")
    if not n:
        return 0
    width = len(columns)
    chunk = max(1, CHUNK_VALUES // width)
    seps = np.full((chunk, width), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    for lo in range(0, n, chunk):
        values = np.empty((min(chunk, n - lo), width))
        for j, c in enumerate(columns):
            values[:, j] = c[lo:lo + chunk]
        # `text` keeps the last chunk alive while the next is made; freeing
        # it first lets malloc trim the heap and fault it back per chunk.
        text = _format(values.ravel(), seps[:values.size])
        fh.write(text)
    return n


@contextmanager
def open_out(path):
    """Yield a text handle for ``path``; None or "-" means stdout."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh

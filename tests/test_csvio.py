import io
import math

import numpy as np
import pytest

from onedatom.csvio import BLOCK_ROWS, write_csv

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
           1.0, 0.1, 1 / 3, -1e300, 123456789.0, 1e17, 2.0 ** 60]


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def test_values_render_with_17_significant_digits():
    buf = io.StringIO()
    flags = [i % 2 == 0 for i in range(len(SPECIAL))]
    ints = list(range(-3, len(SPECIAL) - 3))
    n = write_csv(buf, ("v", "flag", "n"), (np.array(SPECIAL), flags, ints))
    assert n == len(SPECIAL)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "v,flag,n" and lines[-1] == ""
    expected = [f"{format(v, '.17g')},{int(b)},{k}"
                for v, b, k in zip(SPECIAL, flags, ints)]
    assert lines[1:-1] == expected
    assert [line.split(",")[0] for line in lines[2:7]] == [
        "-0", "inf", "-inf", "nan", "4.9406564584124654e-324"]
    assert lines[1] == "0,1,-3" and lines[-2].endswith(",0,10")


def test_blocks_cross_boundaries_without_changing_bytes():
    n = 2 * BLOCK_ROWS + 17
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(n), rng.standard_normal(n) > 0.0
    buf = CountingWriter()
    assert write_csv(buf, ("a", "b"), (a, b)) == n
    expected = "a,b\n" + "".join(f"{format(x, '.17g')},{int(y)}\n"
                                 for x, y in zip(a.tolist(), b.tolist()))
    assert buf.getvalue() == expected
    assert buf.calls == 1 + 3          # the header, then one write per block


def test_empty_columns_write_the_header_only():
    buf = io.StringIO()
    assert write_csv(buf, ("a", "b"), (np.empty(0), [])) == 0
    assert buf.getvalue() == "a,b\n"


def test_ragged_or_missing_columns_are_rejected():
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), ("a", "b"), ([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), ("a", "b"), ([1.0],))

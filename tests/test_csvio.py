import io
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onedatom.csvio import CHUNK_VALUES, write_csv

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
           1.0, 0.1, 1 / 3, -1e300, 123456789.0, 1e17, 2.0 ** 60]
# Rows per chunk of a file of two columns (4096) and of three (2730).
ROWS_2, ROWS_3 = CHUNK_VALUES // 2, CHUNK_VALUES // 3


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
    n = 2 * ROWS_2 + 17
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(n), rng.standard_normal(n) > 0.0
    buf = CountingWriter()
    assert write_csv(buf, ("a", "b"), (a, b)) == n
    expected = "a,b\n" + "".join(f"{format(x, '.17g')},{int(y)}\n"
                                 for x, y in zip(a.tolist(), b.tolist()))
    assert buf.getvalue() == expected
    assert buf.calls == 1 + 3          # the header, then one write per chunk


def test_empty_columns_write_the_header_only():
    buf = io.StringIO()
    assert write_csv(buf, ("a", "b"), (np.empty(0), [])) == 0
    assert buf.getvalue() == "a,b\n"


def test_ragged_or_missing_columns_are_rejected():
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), ("a", "b"), ([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), ("a", "b"), ([1.0],))


# The per-value rendering the writer must reproduce byte for byte.
def reference_csv(header, columns):
    rows = zip(*[c.tolist() if hasattr(c, "tolist") else c for c in columns])
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)


def written(header, columns):
    buf = io.StringIO()
    assert write_csv(buf, header, columns) == len(columns[0])
    return buf.getvalue()


def assert_same_as_reference(values):
    values = np.asarray(values, dtype=float)
    assert written(("v",), (values,)) == reference_csv(("v",), (values,))


bit_patterns = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300)


@settings(max_examples=200, deadline=None)
@given(bits=bit_patterns, data=st.data())
def test_arbitrary_columns_match_the_per_value_format(bits, data):
    n = len(bits)
    floats = np.array(bits, dtype=np.uint64).view(np.float64)
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ints = data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n,
                              max_size=n))
    columns = (floats, flags, ints, floats[::-1].copy())
    header = ("a", "flag", "n", "b")
    assert written(header, columns) == reference_csv(header, columns)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    for values in (powers, np.nextafter(powers, 0.0),
                   np.nextafter(powers, np.inf), -powers):
        assert_same_as_reference(values)


def test_fixed_and_exponent_notation_boundaries():
    edges = [9.9999999999999995e-05, 1e-4, 1e16, 1e17]
    values = [w for v in edges
              for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))]
    assert_same_as_reference(values + [-v for v in values])
    text = written(("v",), (np.array(edges),))
    assert text == ("v\n9.9999999999999991e-05\n0.0001\n10000000000000000\n"
                    "1e+17\n")


def test_seventeen_nines_carry_into_the_exponent():
    values = [99999999999999999.0, 0.99999999999999999, 9.9999999999999999e-5,
              9.99999999999999999e16, 9.999999999999999e22]
    assert_same_as_reference(values)
    assert written(("v",), (np.array(values[:1]),)) == "v\n1e+17\n"


def test_rounding_ties_and_near_ties_match_the_per_value_format():
    # 1e15 + j/4 scales to a 17-digit remainder of exactly 1/2 for odd j:
    # "%.17g" rounds those to even, and the writer must too.
    ties = 1e15 + np.arange(1, 40, 2) / 4.0
    near = np.concatenate([np.nextafter(ties, 0.0),
                           np.nextafter(ties, np.inf)])
    assert_same_as_reference(np.concatenate([ties, near, -ties]))
    assert written(("v",), (ties[:2],)) == (
        "v\n1000000000000000.2\n1000000000000000.8\n")


def test_subnormals_zeros_and_non_finite_values():
    values = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e-300,
              2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf,
              math.nan, -math.nan, 1.7976931348623157e308, 1e280, 1e-280]
    assert_same_as_reference(values)


@pytest.mark.parametrize("n", [1, ROWS_3 - 1, ROWS_3, ROWS_3 + 1,
                               2 * ROWS_3 + 1, ROWS_2 - 1, ROWS_2, ROWS_2 + 1])
def test_files_of_one_row_and_around_a_block(n):
    rng = np.random.default_rng(n)
    columns = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
               rng.random(n) > 0.5, list(range(n)))
    header = ("x", "flag", "i")
    assert written(header, columns) == reference_csv(header, columns)


def test_non_real_values_are_refused():
    # Object columns: numpy's float conversion took "1.5" as 1.5 and None
    # as nan, where "%.17g" raises.
    for column in (np.array([1 + 2j]), ["1.5"],
                   np.array(["1.5", 2.0], dtype=object),
                   np.array([None], dtype=object),
                   np.array([b"1"], dtype=object),
                   np.array([1.0] * 3 * ROWS_2 + [None], dtype=object)):
        buf = io.StringIO()
        with pytest.raises(TypeError):
            write_csv(buf, ("v",), (column,))
        assert buf.getvalue() == ""     # not even the header
    # The object entries "%.17g" takes keep its bytes.
    accepted = np.array([True, np.True_, Decimal("1.5"), 2 ** 70],
                        dtype=object)
    assert written(("v",), (accepted,)) == (
        "v\n1\n1\n1.5\n1.1805916207174113e+21\n")


class Discard:
    def write(self, text):
        return len(text)


def test_transient_memory_does_not_grow_with_the_row_count():
    # The README's figure: a ten-column file costs the writer one chunk's
    # work arrays and two chunks' text, about 1.3 MiB by tracemalloc.
    header = tuple(f"c{j}" for j in range(10))
    write_csv(Discard(), header, [np.ones(1)] * 10)     # builds the tables
    peaks = []
    for n in (5_000, 50_000):
        rng = np.random.default_rng(n)
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
                   for _ in header]
        tracemalloc.start()
        try:
            assert write_csv(Discard(), header, columns) == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]
    assert max(peaks) < 1.5 * 2 ** 20

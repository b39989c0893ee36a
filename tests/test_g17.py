"""The CSV float kernel against Python's own ``%.17g``, value by value."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satsync import _g17
from satsync._g17 import format_rows


def per_value(values):
    """The kernel's contract, one ``format`` call per value."""
    return [",".join(format(v, ".17g") for v in row) for row in values.tolist()]


def assert_prints_as_percent(values, cols=1):
    values = np.asarray(values, dtype=float).reshape(-1, cols)
    text = format_rows(values)
    assert text.endswith(b"\n")
    got = text[:-1].decode().split("\n")
    want = per_value(values)
    assert len(got) == len(want)
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} rows differ, first {values[bad[0]].tolist()}: {got[bad[0]]!r} != {want[bad[0]]!r}"


@given(arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 7)), elements=st.floats()))
def test_any_floats_print_as_percent(values):
    # nan, both infinities, both zeros and subnormals included; over 128
    # rows the matrix spans two passes
    assert_prints_as_percent(values, values.shape[1])


def test_exact_ties_round_half_to_even():
    # odd M / 4 with M in [4e15, 9e15) ends in .25 or .75 after sixteen
    # integer digits: its 17th digit is an exact tie
    m = np.random.default_rng(0).integers(4 * 10**15, 9 * 10**15, size=20000) | 1
    ties = m / 4
    scaled = np.concatenate([ties * 2.0**k for k in (-60, -1, 1, 60)])
    assert_prints_as_percent(np.concatenate([ties, -ties, scaled]), 4)
    assert format_rows(np.array([[1e15 + 0.25, 1e15 + 0.75]])) == b"1000000000000000.2,1000000000000000.8\n"


def powers_of_ten():
    """The double nearest 10^k and both its neighbours, k = -300 .. 300,
    and the k whose double lies below 10^k yet prints as it."""
    values, carried = [], []
    for k in range(-300, 301):
        x = float(10**k) if k >= 0 else 1 / 10**-k  # correctly rounded
        values += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
        num, den = x.as_integer_ratio()
        below = num < den * 10**k if k >= 0 else num * 10**-k < den
        if below and format(x, ".16e").startswith("1.0000000000000000e"):
            carried.append(k)
    return values, carried


def test_powers_of_ten_and_their_neighbours():
    values, carried = powers_of_ten()
    assert_prints_as_percent(values, 3)
    # thirteen lie below 10^k yet round up to it, e.g. fl(1e-14)
    assert len(carried) == 13 and -14 in carried


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
def test_digits_do_not_rest_on_the_last_bit_of_log10(monkeypatch, toward):
    # a log10 one ulp off puts the exponent of a value at a power of ten
    # one off: the 17-digit integer then has 16 or 18 digits, or rounds
    # up to 10^17
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values, _ = powers_of_ten()
    assert_prints_as_percent(values, 3)


def test_range_edges_and_special_values():
    edges = [_g17.LOWEST, _g17.HIGHEST]
    near = [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1.0, -1.0, 10.0, 1e16, 1e17, 0.0001, 9.999999999999999e-05, 1e-5]
    assert_prints_as_percent(edges + near + special, 1)


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert_prints_as_percent(bits.view(np.float64), 8)

"""The CSV writer against the per-value "%.17g" format it replaces.

cli._emit_csv formats whole blocks of a table in numpy and sends only
near-ties, out-of-window magnitudes and non-finite values through "%.17g";
the reference here is the writer it replaced: one "%.17g" per value.
"""

import contextlib
import io
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncplane import cli


def _percent_csv(table: np.ndarray) -> str:
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return row * len(table) % tuple(table.ravel().tolist())


def _emitted(table: np.ndarray) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_csv("h", table, None)
    head, _, body = out.getvalue().partition("\n")
    assert head == "h"
    return body


def _assert_same_text(values) -> None:
    values = np.asarray(values, dtype=float)
    for cols in (1, 3, 7):
        table = values[:len(values) // cols * cols].reshape(-1, cols)
        got, want = _emitted(table).splitlines(), _percent_csv(table).splitlines()
        assert len(got) == len(want)
        for row, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"row {row}: {g!r} != {w!r}"


def _neighbours(x: np.ndarray, ulps: int = 2) -> np.ndarray:
    """x and its nearest `ulps` floats on either side."""
    out = [x]
    down, up = x, x
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


floats = st.one_of(
    st.floats(),  # every float: subnormals, +-0, +-inf and nan included
    st.integers(0, 2**64 - 1).map(_float_from_bits),
    st.builds(lambda k, u: float(_neighbours(np.array([10.0 ** k]), 2)[u]),
              st.integers(-307, 308), st.integers(0, 4)),
    st.builds(lambda m, k: (m + k / 4) * (1 if m % 2 else -1),
              st.integers(10**15, 2**50), st.integers(0, 3)),
)


@settings(deadline=None, max_examples=300)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=floats))
def test_emit_csv_equals_the_per_value_format(table):
    assert _emitted(table) == _percent_csv(table)


@settings(deadline=None, max_examples=200)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 12)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_every_written_cell_reads_back_bit_for_bit(table):
    cells = np.array([[float(c) for c in line.split(",")]
                      for line in _emitted(table).splitlines()])
    assert cells.shape == table.shape
    assert np.array_equal(cells.view(np.int64), table.view(np.int64))


def test_powers_of_ten_and_their_neighbours():
    # p alone rounds to 1e16 or 1e17 on some of these; E must come from p + lo
    powers = 10.0 ** np.arange(-323, 309)
    _assert_same_text(np.concatenate([_neighbours(powers), -_neighbours(powers)]))


def test_power_table_covers_the_window_edges():
    # _csv_cells asks for the rows of E - 1 to E + 1 around np.log10's estimate of E
    hi, lo, hi_high, hi_low = cli._POWERS
    assert np.isfinite(np.concatenate(cli._POWERS)).all()
    assert np.array_equal(hi_high + hi_low, hi)
    for x in (1e-290, np.nextafter(1e290, 0)):
        estimate = int(np.floor(np.log10(x)))
        for E in range(estimate - 1, estimate + 2):
            row = E - cli._E_MIN
            assert 0 <= row < len(hi)
            exact = Fraction(10) ** (16 - E)
            assert hi[row] == float(exact)
            assert lo[row] == float(exact - Fraction(hi[row]))
    assert [len(column) for column in cli._powers_of_ten()] == [len(hi)] * 4


def test_the_fixed_form_edges():
    # %g switches to the exponent form below E = -4 and from E = 17 on
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 0.000123456789, 0.00099999999999999, 1.5e-5,
                      9999999999999998.0, 12345678901234568.0, 99999999999999984.0,
                      123456789012345678.0, 14791378337711040.0, 10000000000000002.0])
    _assert_same_text(np.concatenate([_neighbours(edges, 3), -_neighbours(edges, 3)]))


def test_integer_parts_keep_their_zeros():
    _assert_same_text([14791378337711040.0, 100000000000000000.0, 1e16, 20000000000000000.0,
                       1479137833771104.0, 1000.0, 1e15, 1e-4 * 10])
    assert _emitted(np.array([[14791378337711040.0, 1e16, 1000.0]])) == (
        "14791378337711040,10000000000000000,1000\n")


@pytest.mark.parametrize("digits", range(0, 6))
def test_exact_ties_round_half_to_even(digits):
    # m + odd / 2^(digits + 2) with m of 16 - digits figures has 18 significant
    # digits ending in 5: an exact tie at 17 digits, on both parities of the 17th
    m = 10 ** (15 - digits) + np.arange(0, 600, 37) * 10 ** max(0, 9 - digits)
    odd = np.arange(1, 2 ** (digits + 2), 2)
    ties = (m[:, None] + odd[None, :] / 2.0 ** (digits + 2)).ravel()
    _assert_same_text(np.concatenate([ties, -ties, ties * 2.0 ** -40, ties * 2.0 ** 60]))


def test_exact_ties_scaled_by_an_inexact_power_of_ten():
    # k / 2^24 (E = -7) and k / 2^25 (E = -8) end in ...5 at the 18th digit;
    # their scale 10^23 or 10^24 is not a double, so lo carries it
    ties = np.array([k / 2**24 for k in range(3, 17, 2)] + [1 / 2**25, 3 / 2**25])
    _assert_same_text(np.concatenate([ties, -ties]))


def test_zeros_subnormals_and_nonfinite_values():
    _assert_same_text([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-290,
                       9.99e289, 1e290, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
                       -np.nan, 1.0, -1.0])
    assert _emitted(np.array([[0.0, -0.0, np.inf, -np.inf]])) == "0,-0,inf,-inf\n"


def test_three_digit_exponents():
    # inside the kernel's window (|x| in [1e-290, 1e290)) and outside it
    values = np.array([1.2345e-100, 6.113e149, 9.999999999999999e-291, 1.5e-200, 7e250, 3e-300])
    _assert_same_text(np.concatenate([values, -values]))


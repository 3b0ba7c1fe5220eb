from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympack.rationals import (RationalParseError, format_rational,
                               parse_rational, sqrt_bounds)

F = Fraction


@given(st.fractions())
def test_parse_inverts_format(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_accepts_signs_and_outer_blanks():
    assert parse_rational(" -3/4 ") == F(-3, 4)
    assert parse_rational("+1/-2") == F(-1, 2)
    assert parse_rational("7\n") == 7


@pytest.mark.parametrize("text", [
    "", "0.5", "1e3", "1_000", "1/ 2", "1 /2", "1 000", "+-1", "1/2/3",
    "1/0", "abc", "١٢", "１２", "1/٢",
])
def test_parse_rejects(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


@given(st.fractions(min_value=0), st.integers(4, 80))
def test_sqrt_bounds_enclose_the_root(x, bits):
    lower, upper = sqrt_bounds(x, bits)
    assert lower * lower <= x <= upper * upper
    assert upper - lower in (0, F(1, x.denominator << bits))
    assert sqrt_bounds(x * x, bits) == (x, x)

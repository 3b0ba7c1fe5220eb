import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympack.rationals import (RationalParseError, format_rational,
                               parse_integer, parse_rational, rational_below,
                               runs, sqrt_bounds, to_grid)

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
    pytest.param("7" * 5000, id="5000-digits"),
])
def test_parse_rejects(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


def test_parse_integer_reads_ascii_digits_with_a_sign():
    assert parse_integer(" -12 ", "n") == -12
    assert parse_integer("+3", "n") == 3
    assert parse_integer("007", "n") == 7
    # a blank that str.strip() and the pattern take but int() does not
    assert parse_integer("\x1c1\x1c", "n") == 1
    assert parse_rational("\x1c1/2") == F(1, 2)


@pytest.mark.parametrize("text", [
    "", " ", "1_000", "1 2", "+-1", "1/2", "0.5", "١٢٨", "１２"])
def test_parse_integer_rejects(text):
    with pytest.raises(RationalParseError, match="--n must be ASCII digits"):
        parse_integer(text, "--n")


@pytest.mark.parametrize("parse", [
    lambda text: parse_integer(text, "--n"), parse_rational,
    lambda text: parse_rational("1/" + text)])
def test_long_literal_names_the_limit_only(parse):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RationalParseError,
                       match=f"more than {limit} digits") as info:
        parse("7" * (limit + 1))
    assert len(str(info.value)) < 200


def test_rational_below_and_sqrt_bounds_refuse_their_domain():
    with pytest.raises(ValueError, match="max_denominator"):
        rational_below(F(1, 3), 0)
    with pytest.raises(ValueError, match="negative"):
        sqrt_bounds(F(-1, 4))


@given(st.fractions(min_value=0), st.integers(4, 80))
def test_sqrt_bounds_enclose_the_root(x, bits):
    lower, upper = sqrt_bounds(x, bits)
    assert lower * lower <= x <= upper * upper
    assert upper - lower in (0, F(1, x.denominator << bits))
    assert sqrt_bounds(x * x, bits) == (x, x)


@given(st.lists(st.lists(st.fractions(), max_size=5), max_size=4))
def test_to_grid_scales_every_group_by_the_lcm(groups):
    d, grid = to_grid(*groups)
    assert d == math.lcm(*(x.denominator for xs in groups for x in xs))
    assert grid == [[x * d for x in xs] for xs in groups]
    assert all(type(n) is int for ns in grid for n in ns)


def test_to_grid_of_empty_groups():
    assert to_grid() == (1, [])
    assert to_grid([], []) == (1, [[], []])


def test_runs_group_equal_consecutive_values():
    half = F(1, 2)
    found = runs([half, F(1, 2), 1, F(1), "1/3", half])
    assert found == [(half, 2), (1, 2), (F(1, 3), 1), (half, 1)]
    assert all(type(x) is F for x, _ in found)
    assert runs([]) == []

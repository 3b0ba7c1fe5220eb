import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympack.rationals import (RationalParseError, format_rational,
                               parse_rational, runs, sqrt_bounds, to_grid)

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

"""Exact rational parsing/formatting and directed-rounding square roots.

Every geometric quantity in this package is a ``fractions.Fraction``.  The
only irrational values that ever appear are square roots inside lower-bound
formulas; those are replaced by rational one-sided approximations computed
with integer square roots, so a returned bound is always a *certified*
lower bound, never a float guess.  The exact kernels share the integer
grid (``to_grid``) and the runs of equal balls (``runs``) written here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from math import isqrt, lcm

DEFAULT_PRECISION_BITS = 128    # the bits of a bound when none are given

# an integer literal as parse_rational and the ball-list "xN" count accept it
INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")


class RationalParseError(ValueError):
    """Raised when input is not an exact rational 'p/q' or integer string."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or an integer string into an exact Fraction.

    Each side of the '/' is ASCII digits with an optional sign; blanks are
    allowed only around the whole literal.  Decimal points and exponents
    are rejected: callers holding an irrational or floating-point quantity
    must approximate it by a rational explicitly (see
    :func:`rational_below`) so the approximation direction is a conscious
    choice.
    """
    s = text.strip()
    if not s:
        raise RationalParseError("empty rational literal")
    if any(c in s for c in ".eE"):
        raise RationalParseError(
            f"{text!r} is not an exact rational; approximate it by 'p/q' first")
    try:
        if "/" in s:
            num, den = s.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalParseError(f"malformed rational {text!r}: {exc}") from None
    # int() also takes '1_000', inner blanks and non-ASCII digits
    if not all(INTEGER_LITERAL.fullmatch(part) for part in s.split("/")):
        raise RationalParseError(
            f"malformed rational {text!r}: write each side of '/' as "
            "ASCII digits with an optional sign")
    return value


def format_rational(x) -> str:
    """'p/q', or 'p' for an integer; only a non-Fraction is converted."""
    x = exact(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def exact(value) -> Fraction:
    """``value`` itself when it already is a Fraction, else Fraction(value)."""
    return value if type(value) is Fraction else Fraction(value)


def exact_tuple(xs) -> tuple[Fraction, ...]:
    """``xs`` itself when it is a tuple of Fractions, else a tuple of them."""
    if type(xs) is tuple and {*map(type, xs)} <= {Fraction}:
        return xs
    return tuple(map(exact, xs))


def exact_fields(obj, *names):
    """Make each named field of a frozen dataclass an exact Fraction."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not Fraction:
            object.__setattr__(obj, name, Fraction(value))


def to_grid(*groups) -> tuple[int, list[list[int]]]:
    """(d, each group as the integers x*d) over the lcm d of every denominator.

    Each group is read twice, so it must be a sequence; no entries give d = 1.
    """
    d = lcm(*{x.denominator for xs in groups for x in xs})
    return d, [[x.numerator * (d // x.denominator) for x in xs] for xs in groups]


def runs(xs) -> list[tuple[Fraction, int]]:
    """(first entry as a Fraction, count) of each run of equal consecutive
    values; a run of one repeated object costs no comparison, as ``groupby``
    tests identity first."""
    return [(exact(x), len(list(group))) for x, group in groupby(xs)]


def rational_below(x, max_denominator: int = 10**6) -> Fraction:
    """Best rational approximation to x from below with bounded denominator.

    Downward direction keeps volumes of approximated domains no larger
    than the true domain, so certificates stay sound.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    target = Fraction(x)
    cand = target.limit_denominator(max_denominator)
    if cand > target:
        # limit_denominator may round up; fall back to the floor grid point
        cand = Fraction((target.numerator * max_denominator)
                        // target.denominator, max_denominator)
    return cand


def sqrt_enclosure(num: int, den: int, bits: int) -> tuple[int, int]:
    """(lower, upper) numerators of sqrt(num/den) over the denominator den * 2^bits.

    num/den >= 0 must be in lowest terms: the enclosure is taken on that
    grid, so a scaled representation of the same rational gives other
    numerators.  lower == upper exactly when the root is on the grid, in
    particular on perfect squares; otherwise upper = lower + 1.
    """
    scaled = (num * den) << (2 * bits)
    root = isqrt(scaled)
    return root, root if root * root == scaled else root + 1


def sqrt_bounds(x, precision: int | None = None) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) enclosure of sqrt(x), exact on perfect squares.

    Width of the enclosure is at most 2^-precision relative to the scaled
    integer grid; both endpoints are exact Fractions.  No precision means
    ``DEFAULT_PRECISION_BITS``.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of negative rational")
    bits = DEFAULT_PRECISION_BITS if precision is None else precision
    lower, upper = sqrt_enclosure(x.numerator, x.denominator, bits)
    denom = x.denominator << bits
    low = Fraction(lower, denom)
    return low, low if upper == lower else Fraction(upper, denom)


def decimal_lower(x, digits: int = 12) -> str:
    """Decimal string of x rounded toward -infinity at the given digit count."""
    x = Fraction(x)
    scale = 10 ** digits
    scaled = (x.numerator * scale) // x.denominator
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, scale)
    return f"{sign}{whole}.{frac:0{digits}d}"

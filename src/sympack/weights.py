"""Continued-fraction weight expansions of rational ellipsoids.

The weight sequence w(a) of a rational a >= 1 is produced by Euclidean
subtraction: starting from the pair (a, 1), repeatedly subtract the smaller
entry from the larger and record the smaller.  Its length equals the sum of
the partial quotients of the continued fraction of a, and the squares of
the weights sum back to a exactly.

The subtractions run in quotient runs: with a = n/q, the pair (a, 1) is
(n, q)/q, and one ``divmod`` of the integer pair gives a whole run of equal
weights, one ``Fraction`` repeated as often as its partial quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import to_grid


class WeightError(ValueError):
    """Input outside the rational-and-normalized range of the expansion."""


def _check_normalized(a) -> Fraction:
    if isinstance(a, float):
        raise WeightError(
            "float input; approximate it by a rational first "
            "(see rationals.rational_below)")
    try:
        a = Fraction(a)
    except (TypeError, ValueError):
        raise WeightError(
            f"{a!r} is not rational; approximate it by a rational first "
            "(see rationals.rational_below)") from None
    if a < 1:
        raise WeightError(f"a = {a} < 1; normalize the ellipsoid so a >= 1")
    return a


@dataclass(frozen=True)
class WeightSequence:
    weights: tuple[Fraction, ...]
    source: Fraction

    def __len__(self):
        return len(self.weights)

    @property
    def sum_squares(self) -> Fraction:
        return sum((w * w for w in self.weights), Fraction(0))


def _euclid(x: int, y: int):
    """(quotient, divisor) of each division of Euclid's algorithm on x, y."""
    while y:
        q, r = divmod(x, y)
        yield q, y
        x, y = y, r


def _euclid_weights(x: int, y: int, scale: int) -> tuple[Fraction, ...]:
    """Weights of the pair (x, y)/scale, x >= y > 0: one run per quotient."""
    weights: list[Fraction] = []
    for q, y in _euclid(x, y):
        weights += [Fraction(y, scale)] * q
    return tuple(weights)


def weight_sequence(a) -> WeightSequence:
    """Weights of E(1,a) by Euclidean subtraction; deterministic and exact."""
    a = _check_normalized(a)
    return WeightSequence(
        _euclid_weights(a.numerator, a.denominator, a.denominator), a)


def continued_fraction(a) -> list[int]:
    """Partial quotients [q0; q1, ...] of a rational a >= 1."""
    a = _check_normalized(a)
    return [q for q, _ in _euclid(a.numerator, a.denominator)]


def weight_count(a) -> int:
    """Length of the weight sequence = sum of continued-fraction quotients."""
    return sum(continued_fraction(a))


def ellipsoid_weights(a, b) -> tuple[Fraction, ...]:
    """Ball capacities equivalent to E(a,b): min(a,b) * w(max/min).

    The squares of the entries sum to a*b exactly.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise WeightError(f"ellipsoid parameters must be positive, got ({a}, {b})")
    d, [[x, y]] = to_grid([a, b])
    return _euclid_weights(max(x, y), min(x, y), d)

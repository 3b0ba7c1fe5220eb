"""Toric domains of the first quadrant: balls, ellipsoids, pseudo-balls,
scaled projective planes, and their exact volumes.

Each domain is a projective plane with balls cut out, on integers: the
``complement`` of each (see ``certifier``) is built on its first lookup
and kept with the object.  ``Complement`` is the one home of the two
formulas every threshold and certificate reads: the blow-up bound
(1 - kappa)/(3 + sqrt(p)) of the balls cut out (``blowup_terms``, which
``certifier.lambda_bound`` and ``lattice.d_omega_bound`` read) and the
volume left in the plane (``room``); a domain's volume is its
complement's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .rationals import (DEFAULT_PRECISION_BITS, exact, exact_fields,
                        format_rational, parse_rational, sqrt_enclosure,
                        to_grid)
from .weights import _euclid


class DomainError(ValueError):
    """Base class for invalid toric-domain input."""


class InvalidParameterError(DomainError):
    """A domain parameter is non-positive (or otherwise nonsensical)."""


class PseudoBallViolation(DomainError):
    """Positive parameters that fail the strict pseudo-ball inequalities."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid pseudo-ball: " + "; ".join(violations))


class Complement(NamedTuple):
    """P^2(mu/d) minus ``count`` balls of capacity w/d for each run
    (count, w), with squares = sum count w^2 and p = sum count; its volume
    is (mu^2 - squares) / (2 d^2)."""

    d: int
    mu: int
    runs: tuple[tuple[int, int], ...]
    squares: int
    p: int

    @property
    def kappa_sq(self) -> Fraction:
        """The share sum count w^2 / mu^2 of P^2(mu/d) that is cut out."""
        return Fraction(self.squares, self.mu * self.mu)

    @property
    def volume(self) -> Fraction:
        return self.room()

    def room(self, scale: int = 1, ball_squares: int = 0) -> Fraction:
        """The volume left once balls x/scale with sum x^2 = ball_squares are
        taken out as well: ((mu^2 - squares) scale^2 - d^2 ball_squares)
        / (2 d^2 scale^2), negative when they do not fit."""
        d2, s2 = self.d * self.d, scale * scale
        return Fraction((self.mu * self.mu - self.squares) * s2
                        - d2 * ball_squares, 2 * d2 * s2)

    def blowup_terms(self, precision: int | None = None) -> tuple[int, int]:
        """Numerator and denominator, unreduced, of the blow-up bound
        (1 - kappa)/(3 + sqrt(p)) of the balls cut out, scaled by mu/d.

        kappa and sqrt(p) are replaced by their upper enclosures from
        ``rationals.sqrt_enclosure``, K / (e 2^b) and P / 2^b with e the
        denominator of kappa^2 in lowest terms, so the bound is
        mu (e 2^b - K) / (d e (3 2^b + P)).  No precision means
        ``DEFAULT_PRECISION_BITS``.
        """
        mu2 = self.mu * self.mu
        g = gcd(self.squares, mu2)
        num, den = self.squares // g, mu2 // g
        bits = DEFAULT_PRECISION_BITS if precision is None else precision
        k_up = sqrt_enclosure(num, den, bits)[1]
        p_up = sqrt_enclosure(self.p, 1, bits)[1]
        return (self.mu * ((den << bits) - k_up),
                self.d * den * ((3 << bits) + p_up))


def complement_of(d: int, mu: int, runs) -> Complement:
    """The complement of the given runs in P^2(mu/d), its sums taken once."""
    runs = tuple(runs)
    squares = p = 0
    for count, w in runs:
        squares += count * w * w
        p += count
    return Complement(d, mu, runs, squares, p)


def _plane(scale: Fraction) -> Complement:
    """P^2(scale) with nothing cut out."""
    return complement_of(scale.denominator, scale.numerator, ())


def _weight_runs(x: int, y: int):
    """(count, w) runs of the weights of E(x, y); none when y = 0."""
    return _euclid(max(x, y), min(x, y))


def _require_positive(**params: Fraction):
    for name, value in params.items():
        if value.numerator <= 0:
            raise InvalidParameterError(f"parameter {name} = {value} must be > 0")


def validate_pseudo_ball(a, b, alpha, beta) -> list[str]:
    """Return the list of violated strict inequalities (empty means valid).

    Non-positive parameters are an input error, raised separately, since
    they are outside the constraint system rather than a boundary case.
    """
    a, b, alpha, beta = exact(a), exact(b), exact(alpha), exact(beta)
    _require_positive(a=a, b=b, alpha=alpha, beta=beta)
    violations = []
    total = alpha + beta
    if not a > alpha:
        violations.append(f"a > alpha fails ({a} <= {alpha})")
    if not b > beta:
        violations.append(f"b > beta fails ({b} <= {beta})")
    if not a < total:
        violations.append(f"a < alpha+beta fails ({a} >= {total})")
    if not b < total:
        violations.append(f"b < alpha+beta fails ({b} >= {total})")
    return violations


@dataclass(frozen=True)
class Ball:
    capacity: Fraction

    def __post_init__(self):
        exact_fields(self, "capacity")
        _require_positive(capacity=self.capacity)

    @cached_property
    def complement(self) -> Complement:
        """B(c) is P^2(c) with nothing cut out."""
        return _plane(self.capacity)

    def __str__(self):
        return f"B({format_rational(self.capacity)})"


@dataclass(frozen=True)
class Ellipsoid:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        exact_fields(self, "a", "b")
        _require_positive(a=self.a, b=self.b)

    @cached_property
    def complement(self) -> Complement:
        """E(a,b) is P^2(max) minus the weights of E(max - min, max)
        (McDuff-Schlenk, arXiv:0912.0532)."""
        d, [[a, b]] = to_grid([self.a, self.b])
        mu = max(a, b)
        return complement_of(d, mu, _weight_runs(mu, mu - min(a, b)))

    def __str__(self):
        return f"E({format_rational(self.a)},{format_rational(self.b)})"


@dataclass(frozen=True)
class PseudoBall:
    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        exact_fields(self, "a", "b", "alpha", "beta")
        violations = validate_pseudo_ball(self.a, self.b, self.alpha, self.beta)
        if violations:
            raise PseudoBallViolation(violations)

    @cached_property
    def complement(self) -> Complement:
        """T(a,b,alpha,beta) is P^2(alpha+beta) minus the weights of
        E(alpha+beta-a, alpha) and E(alpha+beta-b, beta)
        (Cristofaro-Gardiner, arXiv:1409.4378)."""
        d, [[a, b, alpha, beta]] = to_grid([self.a, self.b, self.alpha, self.beta])
        mu = alpha + beta
        return complement_of(d, mu, [*_weight_runs(alpha, mu - a),
                                     *_weight_runs(beta, mu - b)])

    def __str__(self):
        return "T({},{},{},{})".format(*map(format_rational,
                                            (self.a, self.b, self.alpha, self.beta)))


@dataclass(frozen=True)
class ProjectivePlane:
    scale: Fraction

    def __post_init__(self):
        exact_fields(self, "scale")
        _require_positive(scale=self.scale)

    @cached_property
    def complement(self) -> Complement:
        return _plane(self.scale)

    def __str__(self):
        return f"P2({format_rational(self.scale)})"


ToricDomain = Ball | Ellipsoid | PseudoBall | ProjectivePlane


def volume(d: ToricDomain) -> Fraction:
    """The exact volume of ``d``: that of its complement."""
    return d.complement.volume


_DOMAIN_RE = re.compile(r"^\s*(B|E|T|P2)\s*\(([^()]*)\)\s*$")


def parse_domain(text: str) -> ToricDomain:
    """Parse the CLI domain grammar: B(3/2), E(1,5/2), T(3/2,3/2,1,1), P2(2)."""
    m = _DOMAIN_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse domain spec {text!r}")
    tag, body = m.group(1), m.group(2)
    args = [parse_rational(part) for part in body.split(",")] if body.strip() else []
    arity = {"B": 1, "E": 2, "T": 4, "P2": 1}[tag]
    if len(args) != arity:
        raise DomainError(f"{tag}(...) takes {arity} parameters, got {len(args)}")
    if tag == "B":
        return Ball(args[0])
    if tag == "E":
        return Ellipsoid(args[0], args[1])
    if tag == "T":
        return PseudoBall(*args)
    return ProjectivePlane(args[0])

"""Certified packing-stability thresholds and packing certificates.

The threshold of a target is obtained by excising it from a projective
plane, expanding the complement into balls, and applying the blow-up
bound; the result is a certified lower bound for the capacity below which
every volume-admissible ball collection embeds.  Certificates are
one-sided: NOT_CERTIFIED draws no conclusion.  For targets that reduce to
the plane, the Cremona oracle gives the exact decision.

Both are computed on integers.  A threshold takes kappa^2 and p of the
complement from Euclid on numerators and denominators and is normalized
once.  A certificate works on runs of one repeated ball object, as ``xN``
and ``[c] * k`` produce them: each run is converted and checked once, and
its volume enters as count * c^2.  The certificate still lists one
capacity, one check and one reason per ball, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import toric
from .cremona import ReductionTrace, _reduce_grid
from .lattice import BlowupForm, blowup_terms
from .weights import _euclid, quotient_sum

CONSERVATIVE = "conservative"
OPTIMISTIC = "optimistic"

_MODES = (CONSERVATIVE, OPTIMISTIC)


BlowupTarget = BlowupForm    # a p-fold blow-up of P^2(1) is its form

Target = BlowupForm | toric.Ellipsoid | toric.PseudoBall | toric.Ball


def target_volume(t: Target) -> Fraction:
    if isinstance(t, BlowupForm):
        return t.volume
    return toric.volume(t)


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _ellipsoid_terms(n: int, d: int) -> tuple[int, int, int]:
    """(kappa^2 numerator, denominator, p) for c = n/d > 1 in lowest terms.

    The complement of E(1,c) in P^2(c) is E(c-1, c): kappa^2 = (c-1)/c =
    (n-d)/n, already in lowest terms, and p counts the weights of (n-d, n).
    """
    return n - d, n, quotient_sum(n, n - d)


def ellipsoid_bound_parts(c: Fraction) -> tuple[Fraction, int]:
    """(kappa^2, p) of the complement of E(1,c) in P^2(c), c > 1 rational."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError(f"need c > 1, got {c}")
    kappa_num, kappa_den, p = _ellipsoid_terms(c.numerator, c.denominator)
    return Fraction(kappa_num, kappa_den), p


def lambda_bound(t: Target, mode: str = CONSERVATIVE,
                 precision: int | None = None) -> Fraction:
    """Certified lower bound for the stability threshold of the target.

    Conservative mode halves the bound obtained from the complement
    construction; optimistic mode reports it in full.  Scales linearly
    with the target.
    """
    _check_mode(mode)
    halve = 2 if mode == CONSERVATIVE else 1
    if isinstance(t, BlowupForm):
        scale, scale_den = 1, 1
        kappa_num, kappa_den, p = (t.kappa_sq.numerator,
                                   t.kappa_sq.denominator, t.p)
    elif isinstance(t, toric.Ball):
        return t.capacity / (3 * halve)
    elif isinstance(t, toric.Ellipsoid):
        big = max(t.a, t.b)
        c = big / min(t.a, t.b)
        if c == 1:
            return big / (3 * halve)
        scale, scale_den = big.numerator, big.denominator
        kappa_num, kappa_den, p = _ellipsoid_terms(c.numerator, c.denominator)
    elif isinstance(t, toric.PseudoBall):
        # on the common denominator: P^2(mu) minus E(mu-a, alpha), E(mu-b, beta)
        d = lcm(t.a.denominator, t.b.denominator,
                t.alpha.denominator, t.beta.denominator)
        a, b, alpha, beta = (x.numerator * (d // x.denominator)
                             for x in (t.a, t.b, t.alpha, t.beta))
        mu = alpha + beta
        scale, scale_den = mu, d
        kappa_num = (mu - a) * alpha + (mu - b) * beta
        kappa_den = mu * mu
        p = quotient_sum(mu - a, alpha) + quotient_sum(mu - b, beta)
    else:
        raise TypeError(f"unsupported target {t!r}")
    num, den = blowup_terms(kappa_num, kappa_den, p, precision)
    return Fraction(scale * num, scale_den * den * halve)


@dataclass(frozen=True)
class BallCheck:
    capacity: Fraction
    below_threshold: bool


@dataclass(frozen=True)
class Certificate:
    target: Target
    lambda_threshold: Fraction
    mode: str
    balls: tuple[Fraction, ...]
    checks: tuple[BallCheck, ...]
    volume_slack: Fraction
    verdict: str                       # "CERTIFIED" | "NOT_CERTIFIED"
    reasons: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED"


def _runs(balls) -> list[tuple[Fraction, int]]:
    """(capacity, count) of each run of one repeated ball object, in order."""
    runs: list[list] = []              # [ball object, count]
    for b in balls:
        if runs and b is runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return [(Fraction(b), count) for b, count in runs]


def certify_packing(t: Target, balls, mode: str = CONSERVATIVE,
                    precision: int | None = None) -> Certificate:
    """Certify that the given open balls pack the target.

    CERTIFIED iff every capacity is strictly below the threshold and the
    volume obstruction (non-strict) holds; every failed check is listed.
    """
    _check_mode(mode)
    runs = _runs(balls)
    if any(c <= 0 for c, _ in runs):
        raise ValueError("ball capacities must be > 0")
    threshold = lambda_bound(t, mode, precision)
    capacities: list[Fraction] = []
    checks: list[BallCheck] = []
    reasons: list[str] = []
    squares = Fraction(0)
    for c, count in runs:
        below = c < threshold
        capacities += [c] * count
        checks += [BallCheck(c, below)] * count
        if not below:
            reasons += [f"capacity {c} >= threshold {threshold}"] * count
        squares += Fraction(count * c.numerator ** 2, c.denominator ** 2)
    slack = target_volume(t) - squares / 2
    if slack < 0:
        reasons.append(f"volume obstruction fails by {-slack}")
    verdict = "CERTIFIED" if not reasons else "NOT_CERTIFIED"
    return Certificate(t, threshold, mode, tuple(capacities), tuple(checks),
                       slack, verdict, tuple(reasons))


def decide_balls_into_ellipsoid(a, balls) -> ReductionTrace:
    """Exact decision for packing open balls into E(1,a), a > 1 rational.

    Appends the balls to the weight expansion of the complementary
    ellipsoid E(a-1,a) in P^2(a), normalizes by a, and runs the Cremona
    reduction.  The trace's verdict is the answer.

    The normalized vector is built on its integer grid.  With a = n/q and
    L the lcm of the ball denominators, it is (1; w/a, b/a) over d = n*L:
    a weight y/q of E(a-1,a), from Euclid on (n, n-q), is y*L, and a ball
    b is b*q*L.  Zero balls are left out.
    """
    a = Fraction(a)
    if a <= 1:
        raise ValueError(f"need a > 1, got {a}")
    runs = _runs(balls)
    if any(b < 0 for b, _ in runs):
        raise ValueError("ball capacities must be >= 0")
    n, q = a.numerator, a.denominator
    scale = lcm(*(b.denominator for b, _ in runs))
    lams: list[int] = []
    for count, y in _euclid(n, n - q):
        lams += [y * scale] * count
    for b, count in runs:
        if b > 0:
            lams += [b.numerator * q * (scale // b.denominator)] * count
    return _reduce_grid(n * scale, n * scale, lams, False)


# --- hypotheses of the curve-directed isotopy lemma -----------------------

class InvalidAssignmentError(ValueError):
    pass


@dataclass(frozen=True)
class AxisAssignment:
    """One axis of E(a, b), the first (length a) or the second (length b)."""

    a: Fraction
    b: Fraction
    component: int
    axis: str

    def __post_init__(self):
        if self.axis not in ("first", "second"):
            raise InvalidAssignmentError(
                f"axis must be 'first' or 'second', got {self.axis!r}")


@dataclass(frozen=True)
class CrossAssignment:
    """Both axes assigned at a self-intersection point, on distinct branches."""

    a: Fraction
    b: Fraction
    first_component: int
    first_branch: str
    second_component: int
    second_branch: str


@dataclass(frozen=True)
class FreeEllipsoid:
    a: Fraction
    b: Fraction


Assignment = AxisAssignment | CrossAssignment | FreeEllipsoid


def check_directed_hypotheses(component_areas, assignments):
    """Check the strict area-excess hypotheses of the directed-packing lemma.

    Each component must have area strictly greater than the sum of the
    first-axis lengths, second-axis lengths, and cross-axis lengths
    assigned to it.  Returns (ok, per-component slacks).
    """
    areas = [Fraction(x) for x in component_areas]
    loads = [Fraction(0)] * len(areas)

    def _add(idx, amount):
        if not 0 <= idx < len(areas):
            raise InvalidAssignmentError(f"no component {idx}")
        loads[idx] += amount

    for asg in assignments:
        if isinstance(asg, AxisAssignment):
            _add(asg.component,
                 Fraction(asg.a if asg.axis == "first" else asg.b))
        elif isinstance(asg, CrossAssignment):
            if (asg.first_component == asg.second_component
                    and asg.first_branch == asg.second_branch):
                raise InvalidAssignmentError(
                    "cross assigned twice to the same branch "
                    f"({asg.first_branch!r} of component {asg.first_component})")
            _add(asg.first_component, Fraction(asg.a))
            _add(asg.second_component, Fraction(asg.b))
        elif isinstance(asg, FreeEllipsoid):
            continue
        else:
            raise InvalidAssignmentError(f"unknown assignment {asg!r}")

    slacks = [area - load for area, load in zip(areas, loads)]
    return all(s > 0 for s in slacks), slacks

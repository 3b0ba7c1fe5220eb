"""Certified packing-stability thresholds and packing certificates.

The threshold of a target is obtained by excising it from a projective
plane, expanding the complement into balls, and applying the blow-up
bound; the result is a certified lower bound for the capacity below which
every volume-admissible ball collection embeds.  Certificates are
one-sided: NOT_CERTIFIED draws no conclusion.  For targets that reduce to
the plane, the Cremona oracle gives the exact decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import toric
from .cremona import PackingVector, ReductionTrace, reduce_vector
from .lattice import BlowupForm, blowup_bound, d_omega_bound
from .weights import ellipsoid_weights, weight_count

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


def ellipsoid_bound_parts(c: Fraction) -> tuple[Fraction, int]:
    """(kappa^2, p) of the complement of E(1,c) in P^2(c), c > 1 rational."""
    kappa_sq = (c - 1) / c
    p = weight_count(c / (c - 1))
    return kappa_sq, p


def lambda_bound(t: Target, mode: str = CONSERVATIVE,
                 precision: int | None = None) -> Fraction:
    """Certified lower bound for the stability threshold of the target.

    Conservative mode halves the bound obtained from the complement
    construction; optimistic mode reports it in full.  Scales linearly
    with the target.
    """
    _check_mode(mode)
    if isinstance(t, BlowupForm):
        bound = d_omega_bound(t, precision)
    elif isinstance(t, toric.Ball):
        bound = t.capacity / 3
    elif isinstance(t, toric.Ellipsoid):
        small, big = min(t.a, t.b), max(t.a, t.b)
        if small == big:
            bound = small / 3
        else:
            kappa_sq, p = ellipsoid_bound_parts(big / small)
            bound = big * blowup_bound(kappa_sq, p, precision)
    elif isinstance(t, toric.PseudoBall):
        mu = t.alpha + t.beta
        e1 = (mu - t.a, t.alpha)
        e2 = (mu - t.b, t.beta)
        kappa_sq = (e1[0] * e1[1] + e2[0] * e2[1]) / mu ** 2
        p = (weight_count(max(e1) / min(e1)) + weight_count(max(e2) / min(e2)))
        bound = mu * blowup_bound(kappa_sq, p, precision)
    else:
        raise TypeError(f"unsupported target {t!r}")
    if mode == CONSERVATIVE:
        bound = bound / 2
    return bound


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


def certify_packing(t: Target, balls, mode: str = CONSERVATIVE,
                    precision: int | None = None) -> Certificate:
    """Certify that the given open balls pack the target.

    CERTIFIED iff every capacity is strictly below the threshold and the
    volume obstruction (non-strict) holds; every failed check is listed.
    """
    _check_mode(mode)
    capacities = tuple(Fraction(b) for b in balls)
    if any(b <= 0 for b in capacities):
        raise ValueError("ball capacities must be > 0")
    threshold = lambda_bound(t, mode, precision)
    checks = tuple(BallCheck(b, b < threshold) for b in capacities)
    vol = target_volume(t)
    slack = vol - sum((b * b for b in capacities), Fraction(0)) / 2
    reasons = []
    for chk in checks:
        if not chk.below_threshold:
            reasons.append(
                f"capacity {chk.capacity} >= threshold {threshold}")
    if slack < 0:
        reasons.append(f"volume obstruction fails by {-slack}")
    verdict = "CERTIFIED" if not reasons else "NOT_CERTIFIED"
    return Certificate(t, threshold, mode, capacities, checks, slack,
                       verdict, tuple(reasons))


def decide_balls_into_ellipsoid(a, balls) -> ReductionTrace:
    """Exact decision for packing open balls into E(1,a), a > 1 rational.

    Appends the balls to the weight expansion of the complementary
    ellipsoid E(a-1,a) in P^2(a), normalizes, and runs the Cremona
    reduction.  The trace's verdict is the answer.
    """
    a = Fraction(a)
    if a <= 1:
        raise ValueError(f"need a > 1, got {a}")
    complement = ellipsoid_weights(a - 1, a)
    capacities = tuple(Fraction(b) for b in balls)
    if any(b < 0 for b in capacities):
        raise ValueError("ball capacities must be >= 0")
    entries = tuple(w / a for w in complement) + tuple(
        b / a for b in capacities if b > 0)
    return reduce_vector(PackingVector(Fraction(1), entries))


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

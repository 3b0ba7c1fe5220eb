"""Certified stability thresholds, certificates and exact packing decisions.

Every target is a projective plane with balls cut out: the target's
``complement`` (``toric.Complement``) says, on integers, that it is
P^2(mu/d) minus ``count`` balls of capacity w/d for each run (count, w).
A blow-up of P^2(1) cuts out its balls; a ball B(c) is P^2(c) with
nothing cut out; E(a,b) is P^2(max) minus the weights of E(max - min, max)
(McDuff-Schlenk, arXiv:0912.0532); and T(a,b,alpha,beta) is
P^2(alpha+beta) minus the weights of E(alpha+beta-a, alpha) and
E(alpha+beta-b, beta) (Cristofaro-Gardiner, arXiv:1409.4378).  Weights
come as the runs of Euclid's algorithm, so an ellipsoid costs O(log) runs
and is never expanded.

The complement, with its sums sum count w^2 and sum count, is built on
the target's first lookup and kept with the object.  So a target object,
such as a plan's piece, pays for it once however many thresholds,
certificates and decisions read it; a freshly built equal target builds
its own.  Thresholds, certificates and decisions all come from that one
map: the threshold (``lambda_bound``) is the complement's blow-up bound
(``Complement.blowup_terms``), a certified lower bound for the capacity
below which every volume-admissible ball collection embeds; a certificate
(``certify_packing``) checks the balls against that threshold and against
the volume the complement leaves once they are taken out
(``Complement.room``); and the exact decision (``decide_packing``) is the
Cremona reduction of (mu; complement + balls).  Neither formula is
written out in this module.

``decide_packing`` is the one exact decision for a target; a yes/no caller
reads ``.accepted``, e.g. balls pack P^2(mu) iff
``decide_packing(toric.Ball(mu), balls).accepted``.

Certificates are one-sided: NOT_CERTIFIED draws no conclusion.  They work
on runs of equal balls (``rationals.runs``), as ``xN`` and ``[c] * k``
produce them: each run is converted and checked once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import toric
from .cremona import ReductionTrace, _reduce
from .lattice import BlowupForm
from .rationals import runs, to_grid

CONSERVATIVE = "conservative"
OPTIMISTIC = "optimistic"

_MODES = (CONSERVATIVE, OPTIMISTIC)


BlowupTarget = BlowupForm    # a p-fold blow-up of P^2(1) is its form

Target = BlowupForm | toric.Ellipsoid | toric.PseudoBall | toric.Ball


def _check_mode(mode: str):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def ellipsoid_bound_parts(c: Fraction) -> tuple[Fraction, int]:
    """(kappa^2, p) of the complement of E(1,c) in P^2(c), c > 1 rational."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError(f"need c > 1, got {c}")
    cut = toric.Ellipsoid(1, c).complement
    return cut.kappa_sq, cut.p


def lambda_bound(t: Target, mode: str = CONSERVATIVE,
                 precision: int | None = None) -> Fraction:
    """Certified lower bound for the stability threshold of the target.

    The complement's blow-up bound, scaled by mu/d: optimistic mode
    reports it in full, conservative mode halves it.  Scales linearly with
    the target.
    """
    _check_mode(mode)
    num, den = t.complement.blowup_terms(precision)
    return Fraction(num, den * 2 if mode == CONSERVATIVE else den)


@dataclass(frozen=True)
class BallCheck:
    capacity: Fraction
    below_threshold: bool


@dataclass(frozen=True)
class Certificate:
    target: Target
    lambda_threshold: Fraction
    mode: str
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

    CERTIFIED iff every capacity is strictly below the threshold
    (``lambda_bound``) and the volume obstruction (non-strict) holds; every
    failed check is listed.  The slack vol(t) - sum c^2/2 is the
    complement's ``room`` for the balls x/L on their grid L.
    """
    threshold = lambda_bound(t, mode, precision)
    ball_runs = runs(balls)
    if any(c <= 0 for c, _ in ball_runs):
        raise ValueError("ball capacities must be > 0")
    scale, [grid] = to_grid([c for c, _ in ball_runs])
    checks: list[BallCheck] = []
    reasons: list[str] = []
    ball_squares = 0
    for (c, count), x in zip(ball_runs, grid):
        below = c < threshold
        checks += [BallCheck(c, below)] * count
        if not below:
            reasons += [f"capacity {c} >= threshold {threshold}"] * count
        ball_squares += count * x * x
    slack = t.complement.room(scale, ball_squares)
    if slack < 0:
        reasons.append(f"volume obstruction fails by {-slack}")
    verdict = "CERTIFIED" if not reasons else "NOT_CERTIFIED"
    return Certificate(t, threshold, mode, tuple(checks), slack, verdict,
                       tuple(reasons))


def decide_packing(t: Target, balls) -> ReductionTrace:
    """Exact decision for packing open balls into the target.

    The balls join the complement's in P^2(mu/d), everything is normalized
    by mu/d, and the Cremona reduction decides.  On the grid d' = mu L, with
    L the lcm of the ball denominators, a complement ball w is w L and a
    ball b is b d L.  Zero balls are left out.
    """
    d, mu, cut, _, _ = t.complement
    ball_runs = [(b, count) for b, count in runs(balls) if b]
    if any(b < 0 for b, _ in ball_runs):
        raise ValueError("ball capacities must be >= 0")
    scale, [grid] = to_grid([b for b, _ in ball_runs])
    tally = Counter()
    for count, w in cut:
        tally[w * scale] += count
    for x, (_, count) in zip(grid, ball_runs):
        tally[x * d] += count
    return _reduce(mu * scale, mu * scale, tally)


def decide_balls_into_ellipsoid(a, balls) -> ReductionTrace:
    """Exact decision for packing open balls into E(1,a), a > 1 rational."""
    a = Fraction(a)
    if a <= 1:
        raise ValueError(f"need a > 1, got {a}")
    return decide_packing(toric.Ellipsoid(1, a), balls)


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

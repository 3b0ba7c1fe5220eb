"""Cremona-move reduction deciding ball packings of the projective plane.

A candidate packing (mu; lambda_1..lambda_n) of P^2(mu) is reduced by the
standard move: with the three largest entries l1 >= l2 >= l3 and defect
delta = mu - l1 - l2 - l3, replace (mu; l1, l2, l3, ...) by
(mu + delta; l1 + delta, l2 + delta, l3 + delta, ...) while delta < 0.
The vector is accepted when the defect becomes non-negative with all
entries non-negative and the volume obstruction holds; open balls make the
volume comparison non-strict (equality is a very full filling).

Integer kernel.  mu and the lambda_i are scaled once to integers over their
common denominator d (``rationals.to_grid``), and the moves (sort, defect,
move) run on Python ints: a move adds the integer defect to four entries,
so the vector stays on the grid.  A rejection names the first check that
fails: a negative entry, else the volume check at the terminal step.

Termination.  On the grid a negative-defect move lowers mu by at least 1,
and once mu <= 0 at most one more move ends the reduction.  So with
M = max(mu * d, 0) there are at most M + 1 moves; the kernel raises
``MoveBoundError`` rather than exceed that.

Volume.  sum lambda_i^2 against mu^2 is invariant under the moves, and a
failed volume check always ends in a rejection.  A reduction still runs
the moves then, so that its trace and reason are those of the full
reduction.  The exact decision for a target is ``certifier.decide_packing``,
which builds that trace; a yes/no caller reads its ``accepted``.  Only
``max_equal_ball`` decides its equal balls with the volume and the first
defect alone wherever those settle the answer.

Traces.  One loop (``_reduce_grid``) runs every reduction and builds its
trace as the moves run.  It takes the entries as runs (count, x) and
counts each state against ``MAX_TRACE_ENTRIES`` before it expands the runs
or builds the state.  A step's ``after`` holds the moved values and the
tail of its ``before``.  Each distinct grid integer x of a trace is one
shared ``Fraction(x, d)``, in lowest terms and normalized as the input
was, so the trace equals one computed on ``Fraction``s throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import exact_fields, exact_tuple, to_grid

REASON_NEGATIVE = "negative entry"
REASON_VOLUME = "volume"


MAX_TRACE_ENTRIES = 4 * 10 ** 6  # entries, mu included, a reduction may keep


class MoveBoundError(RuntimeError):
    """A reduction made more moves than its termination bound allows."""


class TraceSizeError(ValueError):
    """A reduction whose states would hold more than MAX_TRACE_ENTRIES entries."""


@dataclass(frozen=True)
class PackingVector:
    mu: Fraction
    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        exact_fields(self, "mu")
        object.__setattr__(self, "lambdas", exact_tuple(self.lambdas))

    def __str__(self):
        return f"({self.mu}; {', '.join(str(l) for l in self.lambdas)})"


@dataclass(frozen=True)
class ReductionStep:
    before: PackingVector
    defect: Fraction
    after: PackingVector


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)
    verdict: str = "rejected"            # "accepted" | "rejected"
    reason: str | None = None
    volume_ok: bool = False

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def terminal(self) -> PackingVector:
        return self.steps[-1].after if self.steps else None


class _GridFractions(dict):
    """Fraction(x, d) of each grid integer x, built on its first lookup."""

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, x: int) -> Fraction:
        value = self[x] = Fraction(x, self.d)
        return value


def _reduce_grid(d: int, mu: int, runs) -> ReductionTrace:
    """The reduction of (mu; lambdas)/d, the lambdas given as runs
    (count, x) of grid integers in any order, with its trace.

    The first state, zero padding included, is counted before the runs are
    expanded, and each later one before it is built.
    """
    n = squares = 0
    for count, x in runs:
        n += count
        squares += count * x * x
    width = max(n, 3) + 1
    _check_trace_size(width, 1)
    lams: list[int] = []
    for count, x in runs:
        lams += [x] * count
    lams.sort(reverse=True)
    vol_ok = squares <= mu * mu
    if lams and lams[-1] < 0:
        return ReductionTrace(reason=REASON_NEGATIVE, volume_ok=vol_ok)
    lams += [0] * (width - 1 - n)
    limit = max(mu, 0) + 1
    frac = _GridFractions(d)
    steps: list[ReductionStep] = []
    m = mu
    while True:
        before = PackingVector(frac[m], tuple(map(frac.__getitem__, lams)))
        a, b, c = lams[:3]
        delta = m - a - b - c
        if delta >= 0:
            steps.append(ReductionStep(before, frac[delta], before))
            break
        if len(steps) == limit:
            raise MoveBoundError(f"more than {limit} Cremona moves from an "
                                 f"integer mu of {mu}")
        # the state is sorted and non-negative, so c + delta is the least
        # entry after the move
        m, a, b, c = m + delta, a + delta, b + delta, c + delta
        steps.append(ReductionStep(before, frac[delta], PackingVector(
            frac[m], (frac[a], frac[b], frac[c], *before.lambdas[3:]))))
        if c < 0:
            break
        lams[:3] = a, b, c
        lams.sort(reverse=True)
        _check_trace_size(width, len(steps) + 1)
    reason = (REASON_NEGATIVE if delta < 0
              else None if vol_ok else REASON_VOLUME)
    return ReductionTrace(steps, "rejected" if reason else "accepted", reason,
                          vol_ok)


def _check_trace_size(width: int, states: int):
    """Refuse ``states`` states of ``width`` entries past MAX_TRACE_ENTRIES."""
    if states * width > MAX_TRACE_ENTRIES:
        raise TraceSizeError(
            f"the reduction of {width - 1} entries would keep more than "
            f"{MAX_TRACE_ENTRIES} entries in its {states} states")


def reduce_vector(v: PackingVector) -> ReductionTrace:
    """Iterate Cremona moves to a verdict; total and always terminating.

    The moves run even when the volume check fails, so the trace and the
    reason are those of the full reduction.
    """
    d, ([mu], lams) = to_grid([v.mu], v.lambdas)
    return _reduce_grid(d, mu, [(1, x) for x in lams])


def _equal_balls_fit(n: int, x: int, mu: int) -> bool:
    """True iff n open balls of capacity x pack P^2(mu), on one integer grid.

    For n >= 9 balls that pass the volume check, 3x <= mu, so the moves run
    only for n <= 8.
    """
    if n * x * x > mu * mu:
        return False
    return min(n, 3) * x <= mu or _reduce_grid(mu, mu, [(n, x)]).accepted


def max_equal_ball(n: int, tol) -> Fraction:
    """Largest capacity (within tol) of n equal balls packing P^2(1).

    Binary search over the accepted/rejected threshold; the returned value
    is accepted and the value plus tol is rejected.  Each step decides the
    n balls of capacity mid on the grid of mid, with no n-entry list for
    n >= 9.
    """
    if n < 1:
        raise ValueError("need at least one ball")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    lo, hi = Fraction(0), Fraction(2)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _equal_balls_fit(n, mid.numerator, mid.denominator):
            lo = mid
        else:
            hi = mid
    return lo

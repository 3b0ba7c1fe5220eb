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
``max_equal_ball``, which needs no trace, decides its equal balls with
the volume and the first defect alone wherever those settle the answer.

Traces.  A trace is built once, from the integer states, after the
reduction ends (``_reduce_grid``, which ``reduce_vector`` and
``certifier.decide_packing`` share).  Within one trace each distinct grid
integer x becomes a single ``Fraction(x, d)``, shared by every vector that
holds it, and a move's ``after`` vector reuses the untouched tail of its
``before``.  The entries are in lowest terms and normalized as the input
was, so the trace is the same as one computed on ``Fraction``s throughout.
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


def _run_moves(mu: int, lams: list[int]) -> tuple[str | None, list[tuple]]:
    """Cremona moves on the integer grid, up to the first failed check.

    Returns ``REASON_NEGATIVE`` when an entry is or becomes negative, or
    None when the defect became non-negative, together with the sorted,
    zero-padded state before each move; the last state of a None result is
    the terminal one.  The volume is the caller's.  A state that would
    take the kept states past ``MAX_TRACE_ENTRIES`` entries raises
    ``TraceSizeError`` instead; the first state, a copy of the input, is
    always kept.
    """
    lams = sorted(lams, reverse=True)
    states: list[tuple] = []
    if lams and lams[-1] < 0:
        return REASON_NEGATIVE, states
    lams += [0] * (3 - len(lams))
    limit = max(mu, 0) + 1
    max_states = MAX_TRACE_ENTRIES // (len(lams) + 1)
    while True:
        a, b, c = lams[0], lams[1], lams[2]
        delta = mu - a - b - c
        states.append((mu, *lams))
        if delta >= 0:
            return None, states
        if len(states) > limit:
            raise MoveBoundError(f"more than {limit} Cremona moves from an "
                                 f"integer mu of {states[0][0]}")
        # the state is sorted and non-negative, so c + delta is the least
        # entry after the move
        mu += delta
        c += delta
        if c < 0:
            return REASON_NEGATIVE, states
        lams[0], lams[1], lams[2] = a + delta, b + delta, c
        lams.sort(reverse=True)
        if len(states) >= max_states:
            raise TraceSizeError(
                f"the reduction of {len(lams)} entries would keep more than "
                f"{MAX_TRACE_ENTRIES} entries in its {len(states) + 1} states")


class _GridFractions(dict):
    """Fraction(x, d) of each grid integer x, built on its first lookup."""

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, x: int) -> Fraction:
        value = self[x] = Fraction(x, self.d)
        return value


def _reduce_grid(d: int, mu: int, lams: list[int]) -> ReductionTrace:
    """The reduction of (mu; lams)/d as a trace: moves first, then the steps.

    Each distinct integer of the trace becomes one ``Fraction(x, d)``.
    """
    vol_ok = sum(l * l for l in lams) <= mu * mu
    reason, states = _run_moves(mu, lams)
    if reason is None and not vol_ok:
        reason = REASON_VOLUME
    frac = _GridFractions(d)
    steps = []
    for state in states:
        before = PackingVector(frac[state[0]],
                               tuple(map(frac.__getitem__, state[1:])))
        m, a, b, c = state[:4]
        delta = m - a - b - c
        after = before if delta >= 0 else PackingVector(
            frac[m + delta], (frac[a + delta], frac[b + delta],
                              frac[c + delta], *before.lambdas[3:]))
        steps.append(ReductionStep(before, frac[delta], after))
    return ReductionTrace(steps, "accepted" if reason is None else "rejected",
                          reason, vol_ok)


def reduce_vector(v: PackingVector) -> ReductionTrace:
    """Iterate Cremona moves to a verdict; total and always terminating.

    The moves run even when the volume check fails, so the trace and the
    reason are those of the full reduction.
    """
    d, ([mu], lams) = to_grid([v.mu], v.lambdas)
    return _reduce_grid(d, mu, lams)


def _equal_balls_fit(n: int, x: int, mu: int) -> bool:
    """True iff n open balls of capacity x pack P^2(mu), on one integer grid.

    For n >= 9 balls that pass the volume check, 3x <= mu, so the moves run
    only for n <= 8.
    """
    if n * x * x > mu * mu:
        return False
    return min(n, 3) * x <= mu or _run_moves(mu, [x] * n)[0] is None


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

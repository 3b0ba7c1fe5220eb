"""Cremona-move reduction deciding ball packings of the projective plane.

A candidate packing (mu; lambda_1..lambda_n) of P^2(mu) is reduced by the
standard move: with the three largest entries l1 >= l2 >= l3 and defect
delta = mu - l1 - l2 - l3, replace (mu; l1, l2, l3, ...) by
(mu + delta; l1 + delta, l2 + delta, l3 + delta, ...) while delta < 0.
The vector is accepted when the defect becomes non-negative with all
entries non-negative and the volume obstruction holds; open balls make the
volume comparison non-strict (equality is a very full filling).

Kernel.  ``_reduce`` runs every reduction on integers over the common
denominator d (``rationals.to_grid``), where a negative-defect move lowers
mu by at least 1: at most max(mu * d, 0) + 1 moves end it, past which it
raises ``MoveBoundError``.  A rejection names the first check that fails:
a negative entry, else the volume, which the moves keep invariant.  The
entries are sorted runs (value, count).  Where a single largest entry A
sits over a run of v of at least two entries and v + delta >= 0, the next
move gives back delta, as mu and A both change by it; so
k = min(count // 2, (A - v) // -delta + 1) moves form one pass.  Each pass
is logged as (k, delta); more than MAX_TRACE_ENTRIES // 4 passes are
refused, as no trace of that many states could be kept.

Traces.  ``ReductionTrace.steps`` is replayed from the log on first read,
and the log dropped; a trace past ``MAX_TRACE_ENTRIES`` entries is refused
before any state is built.  A step's ``after`` holds the moved values and
the tail of its ``before``; each grid integer x is one ``Fraction(x, d)``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import exact, exact_tuple, to_grid

REASON_NEGATIVE = "negative entry"
REASON_VOLUME = "volume"

MAX_TRACE_ENTRIES = 4 * 10 ** 6  # entries, mu included, a trace may keep


class MoveBoundError(RuntimeError):
    """A reduction made more moves than its termination bound allows."""


class TraceSizeError(ValueError):
    """A reduction whose states would hold more than MAX_TRACE_ENTRIES entries."""


@dataclass(frozen=True, init=False)
class PackingVector:
    mu: Fraction
    lambdas: tuple[Fraction, ...]

    def __init__(self, mu, lambdas):
        object.__setattr__(self, "mu", exact(mu))
        object.__setattr__(self, "lambdas", exact_tuple(lambdas))

    def __str__(self):
        return f"({self.mu}; {', '.join(str(l) for l in self.lambdas)})"


@dataclass(frozen=True)
class ReductionStep:
    before: PackingVector
    defect: Fraction
    after: PackingVector


@dataclass(eq=False)
class ReductionTrace:
    """A verdict; traces compare by verdict, reason, volume_ok and steps."""

    verdict: str = "rejected"            # "accepted" | "rejected"
    reason: str | None = None
    volume_ok: bool = False
    _log: tuple | None = field(default=None, repr=False)  # until steps read
    _steps: list = field(default_factory=list, repr=False)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"

    @property
    def steps(self) -> list[ReductionStep]:
        if self._log:
            self._steps, self._log = [*self._expand(*self._log)], None
        return self._steps

    @property
    def terminal(self) -> PackingVector | None:
        return self.steps[-1].after if self.steps else None

    def __eq__(self, other):
        return isinstance(other, ReductionTrace) and (
            (self.verdict, self.reason, self.volume_ok, self.steps)
            == (other.verdict, other.reason, other.volume_ok, other.steps))

    def _expand(self, d, mu, tally, passes):
        """Yield the steps, replaying the log on the sorted entries."""
        n = sum(tally.values())
        states = sum(k for k, _ in passes) + (self.reason != REASON_NEGATIVE)
        if states * (n + 1) > MAX_TRACE_ENTRIES:
            raise TraceSizeError(f"{states} states of {n} entries keep more "
                                 f"than {MAX_TRACE_ENTRIES} entries")
        frac = {x: Fraction(x, d) for x in (*tally, mu)}
        lams = sorted(Counter(tally).elements(), reverse=True)
        get = frac.__getitem__
        for k, delta in passes:
            for _ in range(k):
                before = PackingVector(get(mu), tuple(map(get, lams)))
                a, b, c = lams[:3]
                mu, a, b, c = mu + delta, a + delta, b + delta, c + delta
                for x in delta, mu, a, b, c:
                    if x not in frac:
                        frac[x] = Fraction(x, d)
                after = PackingVector(get(mu), (get(a), get(b), get(c),
                                                *before.lambdas[3:]))
                yield ReductionStep(before, get(delta), after)
                lams[:3] = a, b, c
                lams.sort(reverse=True)
        if self.reason != REASON_NEGATIVE:
            before = PackingVector(get(mu), tuple(map(get, lams)))
            yield ReductionStep(before, Fraction(mu - sum(lams[:3]), d),
                                before)


def _reduce(d: int, mu: int, tally) -> ReductionTrace:
    """The reduction of (mu; lambdas)/d, ``tally`` counting each lambda on
    the grid; the state is the ascending runs (values, counts)."""
    vol_ok = sum(count * x * x for x, count in tally.items()) <= mu * mu
    if tally and min(tally) < 0:
        return ReductionTrace("rejected", REASON_NEGATIVE, vol_ok)
    if sum(tally.values()) < 3:
        tally = {**tally, 0: tally.get(0, 0) + 3 - sum(tally.values())}
    values, counts = map(list, zip(*sorted(tally.items())))
    limit, cap = max(mu, 0) + 1, MAX_TRACE_ENTRIES // 4
    passes, moves, m = [], 0, mu
    while True:
        a = values[-1]
        b = a if counts[-1] > 1 else values[-2]
        c = (a if counts[-1] > 2 else values[-2]
             if counts[-1] + counts[-2] > 2 else values[-3])
        delta = m - a - b - c
        if delta >= 0:
            break
        # a single largest entry over a run of b, none moved below zero
        k = (min(counts[-2] // 2, (a - b) // -delta + 1)
             if counts[-1] == 1 and b == c and b + delta >= 0 else 1)
        if moves + k > limit:
            raise MoveBoundError(f"more than {limit} moves from grid mu {mu}")
        if len(passes) == cap:
            raise TraceSizeError(f"more than {cap} passes of moves: a trace "
                                 f"of over {MAX_TRACE_ENTRIES} entries")
        passes.append((k, delta))
        moves += k
        if c + delta < 0:
            break
        m += k * delta
        top = 1 + 2 * k                  # a, then k each of b and c
        while counts and top >= counts[-1]:
            top -= counts.pop()
            values.pop()
        if top:
            counts[-1] -= top
        for x, count in ((a + k * delta, 1), (b + delta, k), (c + delta, k)):
            i = bisect_left(values, x)
            if i < len(values) and values[i] == x:
                counts[i] += count
            else:
                values.insert(i, x)
                counts.insert(i, count)
    reason = (REASON_NEGATIVE if delta < 0
              else None if vol_ok else REASON_VOLUME)
    return ReductionTrace("rejected" if reason else "accepted", reason, vol_ok,
                          (d, mu, tally, passes))


def reduce_vector(v: PackingVector) -> ReductionTrace:
    """Iterate Cremona moves to a verdict; total and always terminating."""
    d, ([mu], lams) = to_grid([v.mu], v.lambdas)
    return _reduce(d, mu, Counter(lams))


def max_equal_ball(n: int, tol) -> Fraction:
    """Largest capacity (within tol) of n equal balls packing P^2(1).

    Binary search: the value returned is accepted and the value plus tol
    rejected; each step checks the volume, then decides the balls as one run.
    """
    if n < 1:
        raise ValueError("need at least one ball")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    lo, hi = Fraction(0), Fraction(2)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        x, mu = mid.numerator, mid.denominator
        if n * x * x <= mu * mu and _reduce(mu, mu, {x: n}).accepted:
            lo = mid
        else:
            hi = mid
    return lo

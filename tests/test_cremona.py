import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympack import cremona
from sympack.certifier import decide_packing
from sympack.cremona import (REASON_NEGATIVE, REASON_VOLUME, MoveBoundError,
                             PackingVector, TraceSizeError, _equal_balls_fit,
                             _reduce_grid, max_equal_ball, reduce_vector)
from sympack.toric import Ball, Ellipsoid

from helpers import REASON_MU_EXHAUSTED, reference_reduce

F = Fraction


def vec(mu, *lams):
    return PackingVector(F(mu), tuple(F(l) for l in lams))


def fits(mu, balls):
    """The yes/no decision: do the open balls pack P^2(mu)?"""
    return decide_packing(Ball(mu), balls).accepted


def cremona_step(v):
    """One move on the sorted vector; the sorted vector when its defect >= 0."""
    return reduce_vector(v).steps[0].after


def test_step_examples():
    out = cremona_step(vec(1, F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
    assert out.mu == F(1, 2)
    assert sorted(out.lambdas) == [0, 0, 0, F(1, 2)]

    fixed = vec(1, 0, 0, 0)
    assert cremona_step(fixed) == fixed

    out = cremona_step(vec(1, *([F(2, 5)] * 5)))
    assert out.mu == F(4, 5)
    assert sorted(out.lambdas) == [F(1, 5)] * 3 + [F(2, 5)] * 2


def test_step_preserves_quadratic_invariant():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 6)
        v = vec(F(rng.randint(1, 20), 7),
                *[F(rng.randint(0, 12), 13) for _ in range(n)])
        w = cremona_step(v)
        assert (v.mu ** 2 - sum(l * l for l in v.lambdas)
                == w.mu ** 2 - sum(l * l for l in w.lambdas))


def test_reduce_five_balls_trace():
    trace = reduce_vector(vec(1, *([F(2, 5)] * 5)))
    assert trace.accepted
    # two negative-defect moves plus the terminal evaluation
    assert len(trace.steps) == 3
    assert trace.steps[-1].defect >= 0
    assert trace.terminal.mu == F(3, 5)
    assert sorted(trace.terminal.lambdas, reverse=True)[:4] == [F(1, 5)] * 4


def test_reduce_41_hundredths_rejected():
    trace = reduce_vector(vec(1, *([F(41, 100)] * 5)))
    assert not trace.accepted
    assert trace.reason == REASON_NEGATIVE


def test_reduce_two_large_rejected():
    trace = reduce_vector(vec(1, F(3, 5), F(3, 5)))
    assert not trace.accepted
    assert trace.reason == REASON_NEGATIVE
    assert min(trace.steps[0].after.lambdas) == F(-1, 5)


def test_volume_rejection_reason():
    # defect already non-negative, but twelve balls overfill the volume
    trace = reduce_vector(vec(1, *([F(3, 10)] * 12)))
    assert not trace.accepted
    assert trace.reason == REASON_VOLUME


def test_decide_examples():
    assert fits(1, [F(1, 2)] * 4)
    assert fits(1, [1])
    raised = [F(2, 5)] * 4 + [F(2, 5) + F(1, 1000)]
    assert not fits(1, raised)


def test_decide_validates_input():
    with pytest.raises(ValueError):
        fits(0, [F(1, 2)])
    with pytest.raises(ValueError):
        fits(1, [F(-1, 2)])


def test_scale_invariance():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 6)
        lams = [F(rng.randint(0, 10), 17) for _ in range(n)]
        c = F(rng.randint(1, 30), rng.randint(1, 30))
        assert (fits(1, lams)
                == fits(c, [c * l for l in lams]))


def test_permutation_invariance():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(2, 6)
        lams = [F(rng.randint(0, 10), 19) for _ in range(n)]
        shuffled = lams[:]
        rng.shuffle(shuffled)
        assert fits(1, lams) == fits(1, shuffled)


def test_shrink_monotonicity():
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 6)
        lams = [F(rng.randint(1, 12), 25) for _ in range(n)]
        if not fits(1, lams):
            continue
        smaller = [l * F(rng.randint(0, 10), 10) for l in lams]
        assert fits(1, [l for l in smaller if l > 0] or [0])
        checked += 1


def test_max_equal_ball_four():
    assert abs(max_equal_ball(4, F(1, 1000)) - F(1, 2)) <= F(1, 1000)


def test_max_equal_ball_validates():
    with pytest.raises(ValueError):
        max_equal_ball(0, F(1, 10))
    with pytest.raises(ValueError):
        max_equal_ball(3, 0)


rationals = st.builds(F, st.integers(0, 60), st.integers(1, 24))
vectors = st.tuples(st.builds(F, st.integers(-3, 60), st.integers(1, 24)),
                    st.lists(st.one_of(rationals, rationals.map(lambda x: -x)),
                             max_size=12))


def _trace_tuple(trace):
    return (trace.verdict, trace.reason, trace.volume_ok,
            [(s.before.mu, s.before.lambdas, s.defect, s.after.mu,
              s.after.lambdas) for s in trace.steps])


@settings(max_examples=400, deadline=None)
@given(vectors)
def test_kernel_matches_fraction_reference(vector):
    mu, lams = vector
    trace = reduce_vector(PackingVector(mu, tuple(lams)))
    verdict, reason, vol_ok, steps = reference_reduce(mu, lams)
    assert _trace_tuple(trace) == (verdict, reason, vol_ok, steps)
    # the reference checks "mu exhausted" too; it never fires
    assert trace.reason != REASON_MU_EXHAUSTED
    # the termination bound: at most max(mu*d, 0) + 1 moves
    d = math.lcm(*(x.denominator for x in [mu, *lams]))
    moves = sum(1 for step in steps if step[2] < 0)
    assert moves <= max(mu * d, 0) + 1
    if mu > 0 and all(l >= 0 for l in lams):
        assert fits(mu, lams) == trace.accepted


def test_decide_agrees_with_trace_on_volume_failures():
    rng = random.Random(31)
    failures = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        lams = [F(rng.randint(1, 30), rng.randint(20, 60)) for _ in range(n)]
        trace = reduce_vector(vec(1, *lams))
        if trace.volume_ok:
            continue
        failures += 1
        assert not trace.accepted
        assert fits(1, lams) == trace.accepted
    assert failures > 50


def test_packing_vector_normalizes_entries():
    class Sub(F):
        pass

    v = PackingVector(2, [1, "1/2", True, F(1, 3), Sub(3, 4)])
    assert type(v.lambdas) is tuple
    assert v.lambdas == (1, F(1, 2), 1, F(1, 3), F(3, 4))
    assert all(type(x) is F for x in (v.mu, *v.lambdas))
    assert PackingVector("3/2", ()).mu == F(3, 2)
    assert type(PackingVector(Sub(3, 2), ()).mu) is F
    # entries that are Fractions already are kept, not copied
    lams = (F(1, 2), F(1, 3))
    assert PackingVector(F(1), lams).lambdas is lams


def test_reduce_many_balls_within_budget():
    v = vec(1000, *([F(1, 1000)] * 10 ** 5))
    started = time.perf_counter()
    trace = reduce_vector(v)
    assert time.perf_counter() - started < 0.25
    assert trace.accepted


def test_decide_many_balls_within_budget():
    # one run of 10^6 equal balls is converted once, trace included
    started = time.perf_counter()
    assert fits(1000, [F(1, 1000)] * 10 ** 6)
    assert time.perf_counter() - started < 1


def test_max_equal_ball_nine_is_fast():
    started = time.perf_counter()
    tol = F(1, 10 ** 9)
    assert abs(max_equal_ball(9, tol) - F(1, 3)) <= tol
    assert time.perf_counter() - started < 0.5


def test_move_bound_raises():
    # the bound of mu + 1 moves holds only on the integer grid: fed the
    # unscaled Fractions, mu = 1 allows two moves and this vector needs eight
    with pytest.raises(MoveBoundError):
        _reduce_grid(1, F(1), [(9, F(34, 100))])
    # the same vector on the grid runs to its rejection within the bound
    trace = reduce_vector(vec(1, *([F(34, 100)] * 9)))
    assert trace.reason == reference_reduce(1, [F(34, 100)] * 9)[1]


def test_trace_size_limit(monkeypatch):
    # (1; 34/100 x 9) keeps 8 states of 10 entries before its rejection
    v = vec(1, *([F(34, 100)] * 9))
    expected = reduce_vector(v)
    assert len(expected.steps) == 8
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 80)
    assert reduce_vector(v) == expected
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 79)
    with pytest.raises(TraceSizeError, match="more than 79 entries"):
        reduce_vector(v)
    assert issubclass(TraceSizeError, ValueError)
    # the first state counts too: (1; 1/2, 0, 0) holds 4 entries
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4)
    assert reduce_vector(vec(1, F(1, 2))).accepted
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 3)
    with pytest.raises(TraceSizeError, match="more than 3 entries"):
        reduce_vector(vec(1, F(1, 2)))


def test_trace_size_counted_before_expanding(monkeypatch):
    # E(1, 1 + 1/10^6) cuts out about 10^6 weights, given as a few runs;
    # the first state is refused before any list of them is built
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(TraceSizeError):
            decide_packing(Ellipsoid(1, 1 + F(1, 10 ** 6)), [F(1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


# runs of one repeated ball object, as ``xN`` and ``(c,) * n`` give them
ball_runs = st.lists(st.tuples(rationals, st.integers(1, 30)), max_size=5).map(
    lambda runs: [b for c, count in runs for b in [c] * count])


@settings(max_examples=400, deadline=None)
@given(st.builds(F, st.integers(1, 60), st.integers(1, 24)), ball_runs)
def test_decide_on_runs_matches_fraction_reference(mu, balls):
    verdict = reference_reduce(mu, balls)[0]
    assert fits(mu, balls) == (verdict == "accepted")


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 120))
def test_equal_balls_fit_matches_fraction_reference(n, x, mu):
    verdict = reference_reduce(mu, [x] * n)[0]
    assert _equal_balls_fit(n, x, mu) == (verdict == "accepted")


def test_max_equal_ball_million_within_budget():
    # n >= 9 equal balls that pass the volume check need no Cremona move,
    # so no list of 10^6 entries is built at any bisection step
    tol = F(1, 10 ** 9)
    started = time.perf_counter()
    value = max_equal_ball(10 ** 6, tol)
    assert time.perf_counter() - started < 1
    assert value <= F(1, 1000) < value + tol

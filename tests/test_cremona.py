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
                             PackingVector, TraceSizeError, _reduce,
                             max_equal_ball, reduce_vector)
from sympack.toric import Ball, Ellipsoid

from helpers import REASON_MU_EXHAUSTED, reference_decide, reference_reduce

F = Fraction


def vec(mu, *lams):
    return PackingVector(F(mu), tuple(F(l) for l in lams))


def fits(mu, balls):
    """The yes/no decision: do the open balls pack P^2(mu)?"""
    return decide_packing(Ball(mu), balls).accepted


def passes(trace):
    """The (k, delta) passes the kernel logged for a trace not yet read."""
    return trace._log[-1]


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
        _reduce(1, F(1), {F(34, 100): 9})
    # the same vector on the grid runs to its rejection within the bound
    trace = reduce_vector(vec(1, *([F(34, 100)] * 9)))
    assert trace.reason == reference_reduce(1, [F(34, 100)] * 9)[1]


def test_move_bound_counts_every_move_of_a_pass():
    # (1/2; 3/8, 1/8 x 4) makes two moves in one pass: on the grid 8 the
    # defect -1 comes back once, as 3 - 1 stays above the run of ones
    lams = [F(3, 8)] + [F(1, 8)] * 4
    assert passes(reduce_vector(vec(F(1, 2), *lams)))[0] == (2, -1)
    # (4; 3, 1 x 10): the pass ends when the largest entry falls below the
    # run, after (3 - 1) // 1 + 1 = 3 moves, and the next move is rejected
    trace = reduce_vector(vec(4, 3, *[1] * 10))
    assert passes(trace) == [(3, -1), (1, -2)]
    # once read, the trace keeps its steps and drops the log
    assert len(trace.steps) == 4 and trace._log is None
    # fed unscaled, mu = 1/2 allows one move: with two entries 1/8 the one
    # move is made, with four the pass of two moves is refused
    assert _reduce(1, F(1, 2), {F(3, 8): 1, F(1, 8): 2}).accepted
    with pytest.raises(MoveBoundError):
        _reduce(1, F(1, 2), {F(3, 8): 1, F(1, 8): 4})


def test_trace_size_limit(monkeypatch):
    # (1; 34/100 x 9) keeps 8 states of 10 entries before its rejection
    v = vec(1, *([F(34, 100)] * 9))
    expected = reduce_vector(v)
    assert len(expected.steps) == 8
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 80)
    assert reduce_vector(v) == expected
    # past the limit the decision stands and reading its steps is refused
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 79)
    trace = reduce_vector(v)
    assert (trace.verdict, trace.reason) == ("rejected", REASON_NEGATIVE)
    for read in (lambda: trace.steps, lambda: trace.terminal,
                 lambda: trace == expected):
        with pytest.raises(TraceSizeError, match="more than 79 entries"):
            read()
    assert issubclass(TraceSizeError, ValueError)
    # the first state counts too: (1; 1/2, 0, 0) holds 4 entries
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4)
    assert len(reduce_vector(vec(1, F(1, 2))).steps) == 1
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 3)
    trace = reduce_vector(vec(1, F(1, 2)))
    assert trace.accepted
    with pytest.raises(TraceSizeError, match="more than 3 entries"):
        trace.steps


def test_trace_size_counted_before_expanding(monkeypatch):
    # E(1, 1 + 1/10^6) cuts out about 10^6 weights, given as a few runs;
    # the decision runs on the runs, and reading its one state of about
    # 10^6 entries is refused before any list of them is built
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 1000)
    tracemalloc.start()
    try:
        trace = decide_packing(Ellipsoid(1, 1 + F(1, 10 ** 6)), [F(1, 2)])
        with pytest.raises(TraceSizeError, match="1 states of"):
            trace.steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.accepted
    assert peak < 10 ** 6


def test_pass_cap_refuses_the_decision(monkeypatch):
    # (1; 34/100 x 9) logs 8 passes of one move each; a reduction that
    # would log more than MAX_TRACE_ENTRIES // 4 passes is refused, as its
    # trace of more states of at least 4 entries could not be read
    v = vec(1, *([F(34, 100)] * 9))
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4 * 8)
    assert reduce_vector(v).reason == REASON_NEGATIVE
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4 * 8 - 1)
    with pytest.raises(TraceSizeError, match="more than 7 passes"):
        reduce_vector(v)
    # a pass of many moves counts once: E(1, 10^12) with a ball 1/2 makes
    # 5 * 10^11 moves in two passes
    monkeypatch.setattr(cremona, "MAX_TRACE_ENTRIES", 4 * 2)
    assert decide_packing(Ellipsoid(1, 10 ** 12), [F(1, 2)]).accepted


def test_untraced_decision_has_no_trace_limit():
    # E(1, 2844) with a ball 1/2 makes 1,422 moves of 2,845 balls in two
    # passes; its trace would keep 1,423 states, past MAX_TRACE_ENTRIES
    trace = decide_packing(Ellipsoid(1, 2844), [F(1, 2)])
    assert trace.accepted and trace.volume_ok
    assert [k for k, _ in passes(trace)] == [1421, 1]
    with pytest.raises(TraceSizeError, match="1423 states of 2845 entries"):
        trace.steps


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
    # n equal balls of capacity x / mu in P^2(1), one run on the grid mu
    assert _trace_tuple(_reduce(mu, mu, {x: n})) == reference_reduce(
        1, [F(x, mu)] * n)


# a single largest entry over a run of 2-60 equal entries, with a defect
# that keeps the run non-negative, then a few smaller runs: the shape whose
# moves the kernel takes as one pass
@st.composite
def batching_vectors(draw):
    den = draw(st.integers(1, 12))
    v = draw(st.integers(1, 40))
    top = v + draw(st.integers(1, 200))
    mu = top + 2 * v - draw(st.integers(1, v))
    lams = [top] + [v] * draw(st.integers(2, 60))
    for _ in range(draw(st.integers(0, 3))):
        lams += [draw(st.integers(0, v))] * draw(st.integers(1, 4))
    return F(mu, den), [F(x, den) for x in lams]


@settings(max_examples=300, deadline=None)
@given(batching_vectors())
def test_batched_passes_match_fraction_reference(vector):
    mu, lams = vector
    trace = reduce_vector(PackingVector(mu, tuple(lams)))
    assert _trace_tuple(trace) == reference_reduce(mu, lams)


# thin ellipsoids: E(1, a) for a near 1 cuts out a long run of equal
# weights, and for an integer a one weight a - 1 over a run of ones
thin_a = st.one_of(st.builds(lambda q: 1 + F(1, q), st.integers(1, 60)),
                   st.integers(2, 60),
                   st.builds(lambda n, q: n + F(1, q), st.integers(1, 30),
                             st.integers(2, 30)))


@settings(max_examples=200, deadline=None)
@given(thin_a, st.lists(st.builds(F, st.integers(1, 60), st.integers(1, 40)),
                        max_size=2))
def test_batched_ellipsoid_decisions_match_fraction_reference(a, balls):
    trace = decide_packing(Ellipsoid(1, a), balls)
    assert _trace_tuple(trace) == reference_decide(Ellipsoid(1, a), balls)


def test_max_equal_ball_million_within_budget():
    # n >= 9 equal balls that pass the volume check need no Cremona move,
    # so no list of 10^6 entries is built at any bisection step
    tol = F(1, 10 ** 9)
    started = time.perf_counter()
    value = max_equal_ball(10 ** 6, tol)
    assert time.perf_counter() - started < 1
    assert value <= F(1, 1000) < value + tol

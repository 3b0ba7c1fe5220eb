import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympack import cli, cremona, planner, toric
from sympack.certifier import (CONSERVATIVE, OPTIMISTIC, AxisAssignment,
                               CrossAssignment, FreeEllipsoid,
                               InvalidAssignmentError, certify_packing,
                               check_directed_hypotheses,
                               decide_balls_into_ellipsoid, decide_packing,
                               ellipsoid_bound_parts, lambda_bound)
from sympack.cremona import PackingVector, reduce_vector
from sympack.lattice import BlowupForm, d_omega_bound
from sympack.weights import ellipsoid_weights

from helpers import (rand_fraction, rand_pseudo_ball,
                     reference_certify_packing, reference_decide,
                     reference_decide_ellipsoid, reference_lambda_bound)

F = Fraction


def test_ellipsoid_bound_value():
    b = lambda_bound(toric.Ellipsoid(1, 2), OPTIMISTIC)
    truth = 2 * (1 - math.sqrt(0.5)) / (3 + math.sqrt(2))
    assert truth - 1e-12 < float(b) <= truth + 1e-12
    assert abs(float(b) - 0.1327) < 1e-4
    assert lambda_bound(toric.Ellipsoid(1, 2), CONSERVATIVE) == b / 2


def test_ball_bound_exact():
    assert lambda_bound(toric.Ball(1), OPTIMISTIC) == F(1, 3)
    assert lambda_bound(toric.Ball(1), CONSERVATIVE) == F(1, 6)
    assert lambda_bound(toric.Ellipsoid(1, 1), OPTIMISTIC) == F(1, 3)


def test_pseudo_ball_bound_exact():
    # complement weights scale to kappa^2 = 1/4 and p = 4, both square roots exact
    t = toric.PseudoBall(F(3, 2), F(3, 2), 1, 1)
    assert lambda_bound(t, OPTIMISTIC) == F(1, 5)
    assert lambda_bound(t, CONSERVATIVE) == F(1, 10)


def test_ellipsoid_bound_parts():
    kappa_sq, p = ellipsoid_bound_parts(F(2))
    assert kappa_sq == F(1, 2) and p == 2
    kappa_sq, p = ellipsoid_bound_parts(F(7))
    assert kappa_sq == F(6, 7) and p == 7
    for c in (F(1), F(1, 2)):
        with pytest.raises(ValueError):
            ellipsoid_bound_parts(c)


def test_bound_is_the_complement_blowup_bound():
    # the threshold of E(a,b) or T(a,b,alpha,beta) is the blow-up bound of
    # its complement's weights in P^2(scale), scaled back
    rng = random.Random(13)
    for _ in range(40):
        small = rand_fraction(rng, F(1, 10), F(3))
        big = small * rand_fraction(rng, F(1), F(9))
        c = big / small
        t = toric.Ellipsoid(*rng.sample((small, big), 2))
        form = BlowupForm(tuple(w / c for w in ellipsoid_weights(c - 1, c)))
        assert lambda_bound(t, OPTIMISTIC) == big * d_omega_bound(form)

        t = rand_pseudo_ball(rng)
        scale = t.alpha + t.beta
        weights = (ellipsoid_weights(scale - t.a, t.alpha)
                   + ellipsoid_weights(scale - t.b, t.beta))
        form = BlowupForm(tuple(w / scale for w in weights))
        assert lambda_bound(t, OPTIMISTIC) == scale * d_omega_bound(form)


def test_scaling_covariance():
    rng = random.Random(14)
    targets = [toric.Ellipsoid(1, F(5, 2)), toric.Ball(F(2, 3)),
               toric.PseudoBall(F(5, 4), F(6, 5), 1, F(1, 2))]
    for t in targets:
        for _ in range(10):
            c = F(rng.randint(1, 20), rng.randint(1, 20))
            if isinstance(t, toric.Ball):
                scaled = toric.Ball(c * t.capacity)
            elif isinstance(t, toric.Ellipsoid):
                scaled = toric.Ellipsoid(c * t.a, c * t.b)
            else:
                scaled = toric.PseudoBall(c * t.a, c * t.b,
                                          c * t.alpha, c * t.beta)
            for mode in (CONSERVATIVE, OPTIMISTIC):
                assert lambda_bound(scaled, mode) == c * lambda_bound(t, mode)


def test_mode_validation():
    with pytest.raises(ValueError):
        lambda_bound(toric.Ball(1), "bold")


def test_local_boundedness_on_grid():
    values = []
    a = F(11, 10)
    while a <= 3:
        values.append(lambda_bound(toric.Ellipsoid(1, a), CONSERVATIVE))
        a += F(1, 10)
    assert all(0 < v < 1 for v in values)
    assert min(values) > 0


def test_certify_ellipsoid_hundred_balls():
    cert = certify_packing(toric.Ellipsoid(1, 2), [F(13, 100)] * 100,
                           OPTIMISTIC)
    assert cert.certified
    assert cert.volume_slack == F(31, 200)
    assert all(c.below_threshold for c in cert.checks)


def test_certify_rejects_large_ball():
    cert = certify_packing(toric.Ellipsoid(1, 2), [F(1, 2)], OPTIMISTIC)
    assert not cert.certified
    assert any("threshold" in r for r in cert.reasons)


def test_certify_pseudo_ball():
    cert = certify_packing(toric.PseudoBall(F(3, 2), F(3, 2), 1, 1),
                           [F(19, 100)] * 10, OPTIMISTIC)
    assert cert.certified
    assert cert.volume_slack == F(3, 2) - F(361, 2000)


def test_certify_volume_reason():
    # capacities below threshold but total volume too large
    t = toric.Ball(1)
    balls = [F(3, 10)] * 12
    cert = certify_packing(t, balls, OPTIMISTIC)
    assert not cert.certified
    assert any("volume" in r for r in cert.reasons)


def test_certify_scale_invariant_verdict():
    t = toric.Ellipsoid(1, 2)
    balls = [F(13, 100)] * 50
    c = F(7, 3)
    a = certify_packing(t, balls, OPTIMISTIC)
    b = certify_packing(toric.Ellipsoid(c, 2 * c), [c * x for x in balls],
                        OPTIMISTIC)
    assert a.verdict == b.verdict


def positive(max_num=60, max_den=97):
    return st.builds(F, st.integers(1, max_num), st.integers(1, max_den))


def unit_interval():
    """Rationals strictly between 0 and 1."""
    return st.builds(lambda n, d: F(n, n + d), st.integers(1, 500),
                     st.integers(1, 500))


pseudo_balls = st.builds(
    lambda alpha, beta, s, t: toric.PseudoBall(alpha + s * beta,
                                               beta + t * alpha, alpha, beta),
    positive(), positive(), unit_interval(), unit_interval())

targets = st.one_of(
    st.builds(toric.Ellipsoid, positive(), positive()),
    st.builds(lambda a: toric.Ellipsoid(a, a), positive()),
    st.builds(toric.Ball, positive()),
    pseudo_balls,
    st.lists(st.builds(F, st.integers(1, 9), st.integers(30, 400)),
             max_size=6).map(lambda ls: BlowupForm(tuple(ls))))
modes = st.sampled_from((CONSERVATIVE, OPTIMISTIC))
precisions = st.sampled_from((None, 4, 17, 64))


@settings(max_examples=300, deadline=None)
@given(targets, modes, precisions)
def test_lambda_bound_matches_reference(t, mode, precision):
    assert lambda_bound(t, mode, precision) == reference_lambda_bound(
        t, mode, precision)


def _run(kind, c, count):
    """``count`` balls of capacity c: one object, equal distinct objects,
    one string, or one int."""
    if kind == "same":
        return [c] * count
    if kind == "distinct":
        return [F(c.numerator, c.denominator) for _ in range(count)]
    if kind == "str":
        return [f"{c.numerator}/{c.denominator}"] * count
    return [c.numerator] * count


ball_lists = st.lists(
    st.builds(_run, st.sampled_from(("same", "distinct", "str", "int")),
              st.builds(F, st.integers(1, 40), st.integers(1, 120)),
              st.integers(1, 30)),
    max_size=6).map(lambda runs: [b for run in runs for b in run])


@settings(max_examples=300, deadline=None)
@given(targets, ball_lists, modes, precisions)
def test_certify_packing_matches_reference(t, balls, mode, precision):
    assert certify_packing(t, balls, mode, precision) == reference_certify_packing(
        t, balls, mode, precision)


def test_certify_packing_rejects_nonpositive_run():
    with pytest.raises(ValueError):
        certify_packing(toric.Ball(1), [F(1, 10)] * 3 + [F(0)] * 2)


def test_certify_long_list_within_budget():
    balls = [F(13, 100)] * 10 ** 5
    started = time.perf_counter()
    cert = certify_packing(toric.Ellipsoid(1, 2), balls, OPTIMISTIC)
    assert time.perf_counter() - started < 0.25
    assert cert.volume_slack == 1 - 10 ** 5 * F(169, 20000)
    assert len(cert.checks) == 10 ** 5


def test_certify_separate_equal_objects_within_budget():
    balls = [F(1, 1000) for _ in range(10 ** 5)]
    started = time.perf_counter()
    cert = certify_packing(toric.Ellipsoid(1, 2), balls)
    assert time.perf_counter() - started < 0.25
    assert cert.certified and len(cert.checks) == 10 ** 5


@settings(max_examples=200, deadline=None)
@given(targets, ball_lists, modes)
def test_equal_results_on_separate_equal_objects(t, balls, mode):
    fresh = [F(b) for b in balls]       # a new object for every entry
    assert certify_packing(t, fresh, mode) == certify_packing(t, balls, mode)
    assert decide_packing(t, fresh) == decide_packing(t, balls)
    assert cli._fmt_all(fresh) == cli._fmt_all(balls)


def test_decide_full_fill_two():
    trace = decide_balls_into_ellipsoid(2, [1, 1])
    assert trace.accepted
    start = trace.steps[0].before
    assert sorted(start.lambdas, reverse=True)[:4] == [F(1, 2)] * 4
    assert sum(l * l for l in start.lambdas) == start.mu ** 2


def test_decide_full_fill_five_halves():
    trace = decide_balls_into_ellipsoid(F(5, 2), [1, 1, F(1, 2), F(1, 2)])
    assert trace.accepted
    start = trace.steps[0].before
    expect = [F(3, 5), F(2, 5), F(2, 5), F(2, 5),
              F(1, 5), F(1, 5), F(1, 5), F(1, 5)]
    assert sorted(start.lambdas, reverse=True) == expect
    assert sum(l * l for l in start.lambdas) == 1      # volume equality
    assert len(trace.steps) == 4


def test_decide_overfull_rejected():
    trace = decide_balls_into_ellipsoid(2, [1, 1, F(1, 100)])
    assert not trace.accepted


def test_decide_requires_a_above_one():
    for a in (1, F(9, 10), 0, -2, "1"):
        with pytest.raises(ValueError):
            decide_balls_into_ellipsoid(a, [F(1, 2)])


def test_decide_rejects_negative_ball():
    for balls in ([F(1, 2), F(-1, 3)], [-1], ["-1/2", 0]):
        with pytest.raises(ValueError):
            decide_balls_into_ellipsoid(F(5, 2), balls)


# balls as the CLI and callers pass them: zeros, ints, strs and Fractions,
# each drawn as a run of one repeated object
_balls = st.one_of(st.integers(0, 3),
                   st.builds(F, st.integers(0, 40), st.integers(1, 12)),
                   st.builds("{}/{}".format, st.integers(0, 40),
                             st.integers(1, 12)))
_ball_lists = st.lists(st.tuples(_balls, st.integers(1, 4)), max_size=6).map(
    lambda runs: [b for ball, count in runs for b in [ball] * count])


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda n, q: 1 + F(n, q), st.integers(1, 60),
                 st.integers(1, 12)),
       _ball_lists)
def test_decide_ellipsoid_matches_fraction_reference(a, balls):
    trace = decide_balls_into_ellipsoid(a, balls)
    verdict, reason, vol_ok, steps = reference_decide_ellipsoid(a, balls)
    assert (trace.verdict, trace.reason, trace.volume_ok) == (verdict, reason,
                                                              vol_ok)
    assert [(s.before.mu, s.before.lambdas, s.defect, s.after.mu,
             s.after.lambdas) for s in trace.steps] == steps


def _steps(trace):
    return [(s.before.mu, s.before.lambdas, s.defect, s.after.mu,
             s.after.lambdas) for s in trace.steps]


# every target kind; E(a,b) is drawn with a < b, a = b and a > b
@settings(max_examples=300, deadline=None)
@given(targets, _ball_lists)
@example(toric.Ellipsoid(F(1, 79), 36), [])
def test_decide_packing_matches_reference(t, balls):
    trace = decide_packing(t, balls)
    try:
        trace.steps
    except cremona.TraceSizeError:
        # as E(1/79, 36), whose reduction keeps 1,422 states, 4,045,590
        # entries in all; the Fraction reference is too slow for such sizes,
        # so the decision is checked against its trace, read past the limit
        with mock.patch.object(cremona, "MAX_TRACE_ENTRIES", 10 ** 9):
            steps = trace.steps
        assert (sum(len(s.before.lambdas) + 1 for s in steps)
                > cremona.MAX_TRACE_ENTRIES)
        start, last = steps[0].before, steps[-1]
        assert trace.volume_ok == (sum(l * l for l in start.lambdas)
                                   <= start.mu ** 2)
        assert all(s.defect < 0 for s in steps[:-1])
        if last.defect < 0:
            assert min(last.after.lambdas) < 0
            assert trace.reason == cremona.REASON_NEGATIVE
        else:
            assert last.after == last.before and min(last.after.lambdas) >= 0
            assert trace.reason == (None if trace.volume_ok
                                    else cremona.REASON_VOLUME)
        assert trace.accepted == (trace.reason is None)
        return
    verdict, reason, vol_ok, steps = reference_decide(t, balls)
    assert (trace.verdict, trace.reason, trace.volume_ok) == (verdict, reason,
                                                              vol_ok)
    assert _steps(trace) == steps


def test_decide_packing_blowup_is_the_plane_reduction():
    lams = (F(1, 2), F(1, 3), F(1, 4))
    balls = [F(1, 5)] * 4 + [F(1, 7)]
    trace = decide_packing(BlowupForm(lams), balls)
    assert trace == reduce_vector(PackingVector(1, lams + tuple(balls)))


def test_decide_packing_rejects_negative_ball():
    with pytest.raises(ValueError):
        decide_packing(toric.Ball(1), [F(1, 2), F(-1, 3)])


def test_decide_ellipsoid_many_balls_within_budget():
    balls = [F(1, 1000)] * 10 ** 5
    started = time.perf_counter()
    trace = decide_balls_into_ellipsoid(2, balls)
    assert time.perf_counter() - started < 0.5
    assert trace.accepted


@pytest.mark.parametrize("env", ["32", "abc"])
def test_library_bounds_ignore_precision_env(monkeypatch, env):
    # only the CLI reads SYMPACK_PRECISION; a library call without a
    # precision takes 128 bits
    form = BlowupForm((F(1, 2), F(1, 3)))
    targets = (form, toric.Ellipsoid(1, F(5, 2)),
               toric.PseudoBall(F(3, 2), F(3, 2), 1, 1))
    pol = planner.Polarization(tuple(planner.Curve(1, F(1, 10))
                                     for _ in range(3)))

    def bounds(precision):
        plan = planner.build_plan(pol, precision=precision)
        return ([lambda_bound(t, OPTIMISTIC, precision) for t in targets],
                [certify_packing(t, [F(1, 20)] * 3, CONSERVATIVE, precision)
                 for t in targets],
                d_omega_bound(form, precision),
                (plan.lambda_pieces, plan.lambda_prime))

    expected = bounds(128)
    assert bounds(64) != expected
    monkeypatch.setenv("SYMPACK_PRECISION", env)
    assert bounds(None) == expected


def test_target_volume():
    assert toric.volume(toric.Ellipsoid(1, 2)) == 1
    cut = BlowupForm((F(1, 2),)).complement
    assert F(cut.mu ** 2 - cut.squares, 2 * cut.d ** 2) == F(3, 8)


def test_directed_simple():
    ok, slacks = check_directed_hypotheses(
        [1], [AxisAssignment(F(1, 2), F(3, 4), 0, "first")])
    assert ok and slacks == [F(1, 2)]


def test_directed_strictness():
    ok, slacks = check_directed_hypotheses(
        [1], [AxisAssignment(F(1, 2), 1, 0, "first"),
              AxisAssignment(F(1, 2), 1, 0, "first")])
    assert not ok and slacks == [0]


def test_directed_cross():
    ok, slacks = check_directed_hypotheses(
        [1, 1], [CrossAssignment(F(3, 5), F(7, 10), 0, "first", 1, "second")])
    assert ok and slacks == [F(2, 5), F(3, 10)]


def test_directed_second_axis_and_free():
    ok, slacks = check_directed_hypotheses(
        [2], [AxisAssignment(5, F(1, 2), 0, "second"), FreeEllipsoid(9, 9)])
    assert ok and slacks == [F(3, 2)]


def test_directed_invalid_cross():
    with pytest.raises(InvalidAssignmentError):
        check_directed_hypotheses(
            [1], [CrossAssignment(F(1, 2), F(1, 2), 0, "first", 0, "first")])
    with pytest.raises(InvalidAssignmentError):
        check_directed_hypotheses(
            [1], [AxisAssignment(F(1, 2), 1, 3, "first")])
    with pytest.raises(InvalidAssignmentError):
        AxisAssignment(F(1, 2), 1, 0, "diagonal")


def test_directed_rejects_a_non_assignment():
    with pytest.raises(InvalidAssignmentError, match="unknown assignment 7"):
        check_directed_hypotheses([1], [7])

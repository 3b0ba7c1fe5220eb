"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

from sympack import certifier, planner, toric
from sympack.certifier import (CONSERVATIVE, certify_packing,
                               decide_balls_into_ellipsoid, decide_packing,
                               lambda_bound)
from sympack.cremona import max_equal_ball
from sympack.lattice import BlowupForm, d_omega_bound, d_omega_search
from sympack.rationals import rational_below
from sympack.weights import continued_fraction, weight_count, weight_sequence

from helpers import (classify_by_flow, moment_vertices, point_polygon_distance,
                     polygon_contains, rand_fraction, rand_pseudo_ball)

F = Fraction


def report(n: int | str, text: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} over budget: {elapsed:.1f}s"
    print(f"PASS criterion {n}: {text} ({elapsed:.1f}s)")


def test_criterion_1_weight_identities():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(1000):
        q = rng.randint(1, 60)
        a = F(rng.randint(q + 1, 100 * q), q)
        ws = weight_sequence(a)
        assert ws.sum_squares == a
        assert sum(ws.weights) == a + 1 - F(1, a.denominator)
        assert len(ws) == sum(continued_fraction(a)) == weight_count(a)
    report(1, "10^3 weight expansions satisfy the exact sum identities",
           started, 5.0)


def test_criterion_2_max_equal_ball_regression():
    started = time.perf_counter()
    expected = [F(1), F(1, 2), F(1, 2), F(1, 2), F(2, 5), F(2, 5),
                F(3, 8), F(6, 17), F(1, 3)]
    tol = F(1, 10 ** 9)
    for n, want in enumerate(expected, start=1):
        got = max_equal_ball(n, tol)
        assert abs(got - want) <= tol, (n, got, want)
    report(2, "max_equal_ball(1..9) matches the classical packing numbers "
              "within 1e-9", started, 10.0)


def test_criterion_3_bound_dominance_and_area_excess():
    started = time.perf_counter()
    rng = random.Random(3003)
    done = 0
    while done < 500:
        p = rng.randint(1, 6)
        lams = tuple(F(rng.randint(1, 59), 60) for _ in range(p))
        if sum(l * l for l in lams) > F(9, 10):
            continue
        form = BlowupForm(lams)
        res = d_omega_search(form, 8, check_area_excess=True)
        assert res.value >= d_omega_bound(form)
        done += 1
    report(3, "500 random forms: search value dominates the certified bound "
              "and every admissible class has area excess", started, 60.0)


def test_criterion_4_certifier_soundness():
    started = time.perf_counter()
    rng = random.Random(4004)
    checked = 0
    while checked < 5000:          # blow-up targets
        p = rng.randint(1, 4)
        lams = tuple(F(rng.randint(1, 11), 12) for _ in range(p))
        if sum(l * l for l in lams) >= F(4, 5):
            continue
        # the blow-up must actually exist: the lambda balls themselves
        # have to pack the plane, Sum(lambda^2) < 1 alone is not enough
        if not decide_packing(toric.Ball(1), lams).accepted:
            continue
        target = BlowupForm(lams)
        thr = lambda_bound(target, CONSERVATIVE, 64)
        k = rng.randint(1, 12)
        cap = rational_below(thr * F(rng.randint(1, 9), 10), 10 ** 6)
        if cap <= 0:
            continue
        cert = certify_packing(target, [cap] * k, CONSERVATIVE, 64)
        if not cert.certified:
            continue
        assert decide_packing(target, [cap] * k).accepted, (lams, cap, k)
        checked += 1
    while checked < 10000:         # ellipsoid targets
        a = 1 + F(rng.randint(1, 12), rng.randint(4, 12))
        target = toric.Ellipsoid(1, a)
        thr = lambda_bound(target, CONSERVATIVE, 64)
        k = rng.randint(1, 12)
        cap = rational_below(thr * F(rng.randint(1, 9), 10), 10 ** 6)
        if cap <= 0:
            continue
        cert = certify_packing(target, [cap] * k, CONSERVATIVE, 64)
        if not cert.certified:
            continue
        assert decide_balls_into_ellipsoid(a, [cap] * k).accepted, (a, cap, k)
        checked += 1
    report(4, "10^4 CERTIFIED instances all accepted by the Cremona oracle",
           started, 120.0)


def test_criterion_4b_ball_and_pseudo_ball_soundness():
    # criterion 4's draws on the targets it leaves out, against the exact
    # decision of balls into each target's complement
    started = time.perf_counter()
    rng = random.Random(4044)
    checked = 0
    while checked < 5000:
        if checked < 3000:
            target = rand_pseudo_ball(rng)
            assert decide_packing(target, [min(target.a, target.b)]).accepted
            over = (target.alpha + target.beta) * F(101, 100)
            assert not decide_packing(target, [over]).accepted
        else:
            target = toric.Ball(rand_fraction(rng, F(1, 100), F(5)))
        thr = lambda_bound(target, CONSERVATIVE, 64)
        k = rng.randint(1, 12)
        cap = rational_below(thr * F(rng.randint(1, 9), 10), 10 ** 6)
        if cap <= 0:
            continue
        cert = certify_packing(target, [cap] * k, CONSERVATIVE, 64)
        if not cert.certified:
            continue
        assert decide_packing(target, [cap] * k).accepted, (target, cap, k)
        checked += 1
    report("4b", "3,000 pseudo-ball and 2,000 ball CERTIFIED instances all "
                 "accepted by the Cremona decision", started, 60.0)


def test_criterion_5_full_filling_regressions():
    started = time.perf_counter()
    trace = decide_balls_into_ellipsoid(2, [1, 1])
    assert trace.accepted
    start = trace.steps[0].before
    assert sum(l * l for l in start.lambdas) == start.mu ** 2

    trace = decide_balls_into_ellipsoid(F(5, 2), [1, 1, F(1, 2), F(1, 2)])
    assert trace.accepted
    start = trace.steps[0].before
    assert sorted(start.lambdas, reverse=True) == [
        F(3, 5), F(2, 5), F(2, 5), F(2, 5),
        F(1, 5), F(1, 5), F(1, 5), F(1, 5)]
    assert sum(l * l for l in start.lambdas) == 1
    assert len(trace.steps) == 4
    report(5, "full fillings of E(1,2) and E(1,5/2) accepted with exact "
              "volume equality and the expected 4-step trace", started, 5.0)


def test_criterion_6_decomposition_exactness():
    from helpers import rand_polarization
    started = time.perf_counter()
    rng = random.Random(6006)
    for _ in range(1000):
        pol = rand_polarization(rng)
        alloc = planner.plan_discs(pol)
        pieces = planner.build_pieces(pol, alloc)
        nominal = [p.volume for p in pieces]
        assert sum(nominal) == pol.implied_volume
        assert planner.perturb_allocation(pol, alloc, nominal) == alloc
        delta = planner.compute_delta(pol, alloc)
        eps = delta * F(rng.randint(0, 100), 201)
        targets = list(nominal)
        for j in range(0, len(targets), 2):
            targets[j] += eps
            targets[j + 1] -= eps
        out = planner.perturb_allocation(pol, alloc, targets)
        assert [p.volume for p in planner.build_pieces(pol, out)] == targets

    pol = planner.Polarization(tuple(planner.Curve(1, F(1, 10))
                                     for _ in range(3)))
    alloc = planner.plan_discs(pol)
    targets = [F(9, 250), F(3, 200), F(7, 200), F(3, 200), F(7, 200),
               F(7, 500)]
    out = planner.perturb_allocation(pol, alloc, targets)
    assert out.main == (F(18, 25), F(7, 10), F(7, 10))
    assert out.next == (F(13, 100), F(13, 100), F(13, 100))
    assert out.prev == (F(3, 20), F(17, 100), F(17, 100))
    report(6, "10^3 polarizations close exactly; perturbation identity and "
              "worked cascade reproduced exactly", started, 60.0)


def _check_basin(fixed, domain, disc_r1, disc_r2, rng):
    vertices = moment_vertices(domain)
    xmax = max(float(v[0]) for v in vertices)
    ymax = max(float(v[1]) for v in vertices)
    den = 997
    checked = 0
    while checked < 1000:
        x = F(rng.randint(0, int(1.2 * xmax * den)), den)
        y = F(rng.randint(0, int(1.2 * ymax * den)), den)
        if point_polygon_distance((x, y), vertices) <= 1e-6:
            continue
        inside = polygon_contains(vertices, x, y)
        flowed = classify_by_flow(fixed, (x, y), disc_r1, disc_r2)
        assert inside == flowed, (fixed, x, y, inside, flowed)
        checked += 1


def test_criterion_7_flow_polytope_consistency():
    started = time.perf_counter()
    rng = random.Random(7007)
    # disc basin E(a, alpha): fixed point (0, alpha), disc of extent a
    disc = planner.basin_of_disc(F(7, 10), F(1, 10))
    _check_basin((F(0), F(1, 10)), disc,
                 disc_r1=float(disc.a), disc_r2=None, rng=rng)
    # symmetric cross basin
    cross = planner.basin_of_cross(F(3, 20), F(1, 10), F(3, 20), F(1, 10))
    _check_basin((F(1, 10), F(1, 10)), cross,
                 disc_r1=float(cross.b), disc_r2=float(cross.a), rng=rng)
    # asymmetric cross basin
    cross = planner.basin_of_cross(F(3, 20), F(1, 10), F(7, 40), F(3, 20))
    _check_basin((F(3, 20), F(1, 10)), cross,
                 disc_r1=float(cross.b), disc_r2=float(cross.a), rng=rng)
    report(7, "flow classification matches polytope membership on 10^3 "
              "points per basin outside a 1e-6 band", started, 60.0)


def test_criterion_8_atlas_sanity():
    started = time.perf_counter()
    a = F(11, 10)
    rows = {}
    while a <= 10:
        opt = lambda_bound(toric.Ellipsoid(1, a), certifier.OPTIMISTIC)
        cons = lambda_bound(toric.Ellipsoid(1, a), CONSERVATIVE)
        assert 0 < cons < opt < 1
        rows[a] = opt
        a += F(1, 10)
    assert abs(float(rows[F(2)]) - 0.1327) < 5e-5
    assert abs(float(rows[F(7)]) - 0.0920) < 5e-5
    report(8, "atlas grid bounds positive and finite; a=2 and a=7 values "
              "match to 4 significant figures", started, 10.0)

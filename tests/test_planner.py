import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympack import certifier, planner, toric
from sympack.planner import (AllocationError, ClosureError, Curve,
                             DiscAllocation, PartitionError, Polarization,
                             PolarizationError, basin_of_cross, basin_of_disc,
                             build_pieces, build_plan, compute_delta,
                             liouville_flow, partition_balls,
                             perturb_allocation, plan_discs,
                             validate_allocation, validate_polarization)

from sympack.toric import complement_of

from helpers import (outcome, rand_polarization, reference_build_pieces,
                     reference_compute_delta, reference_partition,
                     reference_perturb, reference_validate_allocation)

F = Fraction


def symmetric3():
    return Polarization(tuple(Curve(1, F(1, 10)) for _ in range(3)))


def test_validate_polarization_ok():
    pol = symmetric3()
    assert validate_polarization(pol) == []
    assert pol.implied_volume == F(3, 20)


def test_validate_line_polarization():
    # the line polarization of the plane: implied volume matches P2(1)
    pol = Polarization((Curve(1, 1),))
    assert pol.implied_volume == F(1, 2)
    assert pol.implied_volume == toric.volume(toric.ProjectivePlane(1))
    # it still trips the 10x area precondition of the planner
    assert any("10" in e for e in validate_polarization(pol))


def test_validate_volume_mismatch():
    pol = Polarization(tuple(Curve(1, F(1, 10)) for _ in range(3)), F(1, 7))
    errors = validate_polarization(pol)
    assert len(errors) == 1 and "1/7" in errors[0]


def test_validate_area_precondition():
    pol = Polarization((Curve(F(1, 4), F(1, 10)), Curve(1, F(1, 10))))
    errors = validate_polarization(pol)
    assert any("10" in e for e in errors)


def test_flow_identity_and_fixed_point():
    state = (F(3, 2), 0, F(1, 4), 1)
    assert liouville_flow((F(1, 10), F(1, 5)), state, 0) == state
    fixed = (F(1, 10), F(1, 5))
    st = (fixed[0], 0, fixed[1], 0)
    out = liouville_flow(fixed, st, 3.7)
    assert abs(out[0] - fixed[0]) < 1e-15 and abs(out[2] - fixed[1]) < 1e-15


def test_flow_halving_step():
    import math
    fixed = (F(1, 10), F(1, 5))
    st = (fixed[0] + 1, 0, fixed[1], 0)
    out = liouville_flow(fixed, st, math.log(2))
    assert abs(out[0] - (float(fixed[0]) + 0.5)) < 1e-12
    assert abs(out[2] - float(fixed[1])) < 1e-12


def test_basin_of_disc():
    e = basin_of_disc(1, F(1, 2))
    assert e == toric.Ellipsoid(1, F(1, 2))
    assert toric.volume(e) == F(1, 4)
    b = basin_of_disc(F(1, 2), F(1, 2))
    assert b.a == b.b


def test_basin_of_cross():
    t = basin_of_cross(F(3, 20), F(1, 10), F(3, 20), F(1, 10))
    assert toric.volume(t) == F(3, 200)
    asym = basin_of_cross(F(3, 20), F(1, 10), F(7, 40), F(3, 20))
    swapped = basin_of_cross(F(7, 40), F(3, 20), F(3, 20), F(1, 10))
    assert toric.volume(swapped) == toric.volume(asym)
    with pytest.raises(toric.PseudoBallViolation):
        basin_of_cross(F(9, 100), F(1, 10), F(3, 20), F(1, 10))


def test_basin_of_cross_asymmetric_volume():
    a_i, al_i = F(3, 20), F(1, 10)
    a_j, al_j = F(7, 40), F(3, 20)
    t = basin_of_cross(a_i, al_i, a_j, al_j)
    assert toric.volume(t) == (a_i * al_i + a_j * al_j) / 2


def test_plan_discs_symmetric():
    alloc = plan_discs(symmetric3())
    assert alloc.main == (F(7, 10),) * 3
    assert alloc.next == (F(3, 20),) * 3
    assert alloc.prev == (F(3, 20),) * 3
    pieces = build_pieces(symmetric3(), alloc)
    vols = [p.volume for p in pieces]
    assert vols == [F(7, 200), F(3, 200)] * 3
    assert sum(vols) == F(3, 20)


def test_plan_discs_two_curves():
    pol = Polarization((Curve(2, F(1, 8)), Curve(3, F(1, 5))))
    alloc = plan_discs(pol)
    assert validate_allocation(pol, alloc) == []
    pieces = build_pieces(pol, alloc)
    assert sum(p.volume for p in pieces) == pol.implied_volume


def test_plan_discs_needs_two_curves():
    with pytest.raises(PolarizationError):
        plan_discs(Polarization((Curve(1, 1),)))


@pytest.mark.parametrize("curves, message", [
    ((Curve(0, F(1, 10)), Curve(1, F(1, 10))), "curve 0: area 0 not > 0"),
    ((Curve(1, F(1, 10)), Curve(1, -F(1, 10))), "curve 1: residue -1/10 not > 0"),
    # valid as a polarization, but the disc cycle needs a second curve
    ((Curve(1, F(1, 10)),), "at least 2 curves"),
])
def test_build_plan_refuses_the_polarization(curves, message):
    with pytest.raises(PolarizationError, match=message):
        build_plan(Polarization(curves))


def test_allocation_arrays_of_unequal_length():
    with pytest.raises(AllocationError, match="equal length"):
        DiscAllocation((1, 1), (F(1, 5),), (F(1, 5), F(1, 5)))


@pytest.mark.parametrize("residue", [F(0), -F(1, 10)])
@pytest.mark.parametrize("call", [
    compute_delta,
    lambda pol, alloc: perturb_allocation(pol, alloc, [F(1, 100)] * 6)])
def test_non_positive_residue_is_no_admissible_allocation(call, residue):
    # the next curve's prev disc has the empty interval ]1/10, 1/10 + residue[
    pol = symmetric3()
    alloc = plan_discs(pol)
    curves = (Curve(1, residue),) + pol.curves[1:]
    with pytest.raises(AllocationError, match="curve 1: prev disc"):
        call(Polarization(curves), alloc)


def test_plan_discs_area_too_small():
    pol = Polarization((Curve(F(1, 4), F(1, 10)), Curve(F(1, 4), F(1, 10)),
                        Curve(F(1, 4), F(1, 10))))
    with pytest.raises(PolarizationError):
        plan_discs(pol)


def test_closure_randomized():
    rng = random.Random(77)
    for _ in range(200):
        pol = rand_polarization(rng)
        alloc = plan_discs(pol)
        pieces = build_pieces(pol, alloc)
        assert sum(p.volume for p in pieces) == pol.implied_volume


def test_perturb_identity():
    pol = symmetric3()
    alloc = plan_discs(pol)
    nominal = [p.volume for p in build_pieces(pol, alloc)]
    assert perturb_allocation(pol, alloc, nominal) == alloc


def test_perturb_worked_example():
    pol = symmetric3()
    alloc = plan_discs(pol)
    targets = [F(9, 250), F(3, 200), F(7, 200), F(3, 200), F(7, 200), F(7, 500)]
    out = perturb_allocation(pol, alloc, targets)
    assert out.main == (F(18, 25), F(7, 10), F(7, 10))
    assert out.next == (F(13, 100), F(13, 100), F(13, 100))
    assert out.prev == (F(3, 20), F(17, 100), F(17, 100))
    # the perturbed pieces hit the targets exactly
    vols = [p.volume for p in build_pieces(pol, out)]
    assert vols == targets


def test_perturb_closure_violation():
    pol = symmetric3()
    alloc = plan_discs(pol)
    nominal = [p.volume for p in build_pieces(pol, alloc)]
    nominal[0] += F(1, 1000)
    with pytest.raises(ClosureError):
        perturb_allocation(pol, alloc, nominal)


def test_perturb_constraint_exit():
    pol = symmetric3()
    alloc = plan_discs(pol)
    nominal = [p.volume for p in build_pieces(pol, alloc)]
    # push the first cross far outside its admissible window
    targets = list(nominal)
    targets[1] += F(1, 10)
    targets[2] -= F(1, 10)
    with pytest.raises(AllocationError):
        perturb_allocation(pol, alloc, targets)


def test_compute_delta_symmetric():
    pol = symmetric3()
    alloc = plan_discs(pol)
    assert compute_delta(pol, alloc) == F(1, 2000)


def test_compute_delta_needs_curves():
    with pytest.raises(AllocationError):
        compute_delta(Polarization(()), DiscAllocation((), (), ()))


def test_delta_absorbs_retargets():
    rng = random.Random(99)
    pol = symmetric3()
    alloc = plan_discs(pol)
    delta = compute_delta(pol, alloc)
    nominal = [p.volume for p in build_pieces(pol, alloc)]
    for _ in range(50):
        eps = delta * F(rng.randint(0, 100), 201)    # at most delta/2
        targets = list(nominal)
        for j in range(0, len(targets), 2):
            targets[j] += eps
            targets[j + 1] -= eps
        out = perturb_allocation(pol, alloc, targets)
        assert [p.volume for p in build_pieces(pol, out)] == targets


def test_build_plan_symmetric():
    pol = symmetric3()
    plan = build_plan(pol, mode=certifier.OPTIMISTIC)
    assert abs(float(plan.lambda_prime) - 0.0092) < 2e-4
    plan_con = build_plan(pol, mode=certifier.CONSERVATIVE)
    assert abs(float(plan_con.lambda_prime) - 0.0046) < 1e-4
    assert plan.delta == F(1, 2000)
    assert len(plan.pieces) == 6
    assert "T(a_j, a_i" in plan.convention


@pytest.mark.parametrize("given_alloc", [False, True])
def test_build_plan_validates_the_polarization_once(monkeypatch, given_alloc):
    pol = symmetric3()
    alloc = plan_discs(pol) if given_alloc else None
    calls = []

    def counted(p):
        calls.append(p)
        return validate_polarization(p)

    monkeypatch.setattr(planner, "validate_polarization", counted)
    build_plan(pol, alloc)
    assert calls == [pol]


def test_plan_and_certificates_build_each_complement_once(monkeypatch):
    # build_plan takes every piece's threshold, and certifying each piece
    # afterwards reads the complement the piece object already holds
    pol = rand_polarization(random.Random(8), 4, 4)
    built = []

    def counted(d, mu, runs):
        built.append((d, mu))
        return complement_of(d, mu, runs)

    monkeypatch.setattr(toric, "complement_of", counted)
    plan = build_plan(pol)
    assert len(built) == len(plan.pieces) == 8
    for piece in plan.pieces:
        certifier.certify_packing(piece.domain, [piece.volume / 1000])
        certifier.lambda_bound(piece.domain, certifier.OPTIMISTIC)
    assert len(built) == len(plan.pieces)


def test_lambda_prime_min_semantics():
    pol = symmetric3()
    plan = build_plan(pol, mode=certifier.OPTIMISTIC)
    assert plan.lambda_prime == min(plan.lambda_pieces, plan.lambda_prime)
    assert float(plan.lambda_prime) <= (2 * float(plan.delta)) ** 0.5 + 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "enlarging every curve area stretches the ellipsoid pieces, and the "
    "certified ellipsoid bound a(1-kappa)/(3+sqrt(p)) decreases with the "
    "aspect ratio, so the planner constant can drop; the stated monotonicity "
    "does not hold for the certified bounds"))
def test_lambda_prime_monotone_in_areas():
    small = symmetric3()
    big = Polarization(tuple(Curve(2, F(1, 10)) for _ in range(3)))
    assert build_plan(big).lambda_prime >= build_plan(small).lambda_prime


def test_partition_uniform():
    res = partition_balls([F(1, 5)] * 15, [F(1, 10)] * 3, F(1, 100))
    assert sorted(len(s) for s in res.subsets) == [5, 5, 5]
    assert res.subset_volumes == [F(1, 10)] * 3
    assert res.fillers == []


def test_partition_single_piece():
    res = partition_balls([F(1, 5), F(1, 10)], [F(1, 10)], F(1, 10))
    assert res.subsets == [[0, 1]]


def test_partition_greedy_uneven():
    # ten equal balls into three equal pieces: greedy lands 4/3/3
    res = partition_balls([F(1, 6)] * 10, [F(1, 20)] * 3, F(1, 100))
    assert sorted(len(s) for s in res.subsets) == [3, 3, 4]
    assert sorted(res.subset_volumes) == [F(1, 24), F(1, 24), F(1, 18)]


def test_partition_within_delta():
    rng = random.Random(55)
    for _ in range(100):
        pieces = [F(rng.randint(5, 20), 100) for _ in range(rng.randint(1, 4))]
        delta = F(1, 100)
        balls = []
        budget = sum(pieces)
        while budget > delta:
            c = F(rng.randint(2, 12), 100)
            if c * c / 2 > budget:
                continue
            balls.append(c)
            budget -= c * c / 2
        try:
            res = partition_balls(balls, pieces, delta, pad=True)
        except PartitionError:
            continue
        assert all(abs(t - f) <= delta
                   for t, f in zip(pieces, res.subset_volumes))
        assert all(f.volume <= delta for f in res.fillers)


def test_partition_pad_exact():
    res = partition_balls([F(1, 5)] * 3, [F(1, 10), F(1, 10)], F(1, 10),
                          pad=True)
    assert res.subset_volumes == [F(1, 10), F(1, 10)]
    assert sum(f.volume for f in res.fillers) == F(1, 5) - 3 * F(1, 50)
    assert all(f.volume <= F(1, 10) for f in res.fillers)


@pytest.mark.xfail(strict=True, reason=(
    "a deficit of exactly delta is padded by one filler of volume delta, "
    "not below it; the fix changes decompose's fillers on the cli-mix "
    "corpus, so it waits for the benchmark digests to be recorded again"))
def test_partition_pad_fillers_below_delta():
    res = partition_balls([], [F(1, 10)], F(1, 10), pad=True)
    assert all(f.volume < F(1, 10) for f in res.fillers)


def test_partition_pad_filler_limit(monkeypatch):
    # deficits 1 and 3/10 at delta 1/10 take 19 and 5 fillers
    args = ([], [F(1), F(3, 10)], F(1, 10))
    assert len(partition_balls(*args, pad=True).fillers) == 24
    monkeypatch.setattr(planner, "MAX_FILLERS", 24)
    assert len(partition_balls(*args, pad=True).fillers) == 24
    monkeypatch.setattr(planner, "MAX_FILLERS", 23)
    kind, message = outcome(partition_balls, *args, pad=True)
    assert kind is PartitionError and "needs 24 filler balls" in message
    assert (kind, message) == outcome(reference_partition, *args, pad=True)


def test_partition_oversized_ball():
    with pytest.raises(PartitionError):
        partition_balls([1], [F(1, 10)], F(1, 100))


def test_partition_overfull():
    with pytest.raises(PartitionError):
        partition_balls([F(1, 2)] * 10, [F(1, 10)], F(1, 10))


# --- the grid planner against the Fraction reference ----------------------

def _fractions(max_num, max_den):
    return st.builds(F, st.integers(1, max_num), st.integers(1, max_den))


@st.composite
def polarizations(draw):
    """Valid polarizations of 2-6 curves."""
    residues = draw(st.lists(_fractions(9, 40), min_size=2, max_size=6))
    top = max(residues)
    return Polarization(tuple(Curve(10 * top + draw(_fractions(40, 12)), r)
                              for r in residues))


# where a cross disc sits in its interval: inside, on an end, or outside
_positions = st.one_of(st.builds(F, st.integers(1, 29), st.just(30)),
                       st.sampled_from((F(0), F(1), F(-1, 7), F(8, 7))))


_inside = st.builds(F, st.integers(1, 29), st.just(30))


@st.composite
def allocations(draw, pol):
    """Allocations of ``pol``: valid ones, and ones where checks fail."""
    l = len(pol)
    alphas = [c.residue for c in pol.curves]
    broken = draw(st.booleans())
    # where a cross disc sits in its interval: inside, on an end, or outside
    positions = (st.one_of(_inside, st.sampled_from((F(0), F(1), F(-1, 7), F(8, 7))))
                 if broken else _inside)
    misses = st.sampled_from((0, 0, 0, F(1, 997), -1)) if broken else st.just(0)
    main, prev, nxt = [], [], []
    for i, curve in enumerate(pol.curves):
        a = alphas[i]
        n = a + draw(positions) * alphas[(i + 1) % l]
        p = a + draw(positions) * alphas[i - 1]
        main.append(curve.area - p - n + draw(misses) * curve.area)
        prev.append(p)
        nxt.append(n)
    cut = draw(st.sampled_from((0,) * 6 + (1,))) if broken else 0
    return DiscAllocation(tuple(main[cut:]), tuple(prev[cut:]), tuple(nxt[cut:]))


@st.composite
def pol_and_alloc(draw):
    pol = draw(polarizations())
    return pol, draw(allocations(pol))


@settings(max_examples=400, deadline=None)
@given(pol_and_alloc())
def test_allocation_checks_match_reference(case):
    pol, alloc = case
    assert validate_allocation(pol, alloc) == reference_validate_allocation(pol, alloc)
    assert outcome(build_pieces, pol, alloc) == outcome(reference_build_pieces,
                                                        pol, alloc)
    assert outcome(compute_delta, pol, alloc) == outcome(reference_compute_delta,
                                                         pol, alloc)


@settings(max_examples=400, deadline=None)
@given(pol_and_alloc(), st.data())
def test_perturb_matches_reference(case, data):
    pol, alloc = case
    kind = data.draw(st.sampled_from(("shift", "shift", "off_total", "short")))
    ok, pieces = outcome(reference_build_pieces, pol, alloc)
    volumes = ([p.volume for p in pieces] if ok == "ok"
               else [F(1, 10)] * (2 * len(pol)))
    targets = list(volumes)
    # move volume between neighbouring pieces: up to delta/2 is absorbed,
    # a larger move may leave the intervals
    ok, delta = outcome(reference_compute_delta, pol, alloc)
    unit = delta if ok == "ok" else F(1, 1000)
    for k in range(0, len(targets) - 1):
        eps = unit * data.draw(st.sampled_from((0, F(1, 2), F(-3, 7), F(40))))
        targets[k] += eps
        targets[k + 1] -= eps
    if kind == "off_total":
        targets[-1] += F(1, 1000)
    elif kind == "short":
        targets.pop()
    assert outcome(perturb_allocation, pol, alloc, targets) == outcome(
        reference_perturb, pol, alloc, targets)


@settings(max_examples=300, deadline=None)
@given(polarizations())
def test_plan_matches_reference_pieces(pol):
    alloc = plan_discs(pol)
    plan = build_plan(pol, alloc)
    assert list(plan.pieces) == reference_build_pieces(pol, alloc)
    assert plan.delta == reference_compute_delta(pol, alloc)
    assert build_plan(pol) == plan
    assert sum(p.volume for p in plan.pieces) == pol.implied_volume


# few distinct capacities and piece volumes, so that ties are common
_caps = st.sampled_from((F(0), F(1, 10), F(1, 10), F(1, 5), F(1, 4), F(1, 3),
                         F(2, 5), F(3, 7), F(1, 2), F(9, 10)))
_volumes = st.sampled_from((F(1, 50), F(1, 20), F(1, 20), F(1, 10), F(1, 10),
                            F(3, 20), F(1, 5), F(2, 7)))
_deltas = st.sampled_from((F(-1, 10), F(0), F(1, 100), F(1, 40), F(1, 10),
                           F(1, 3)))


@settings(max_examples=500, deadline=None)
@given(st.lists(_caps, max_size=12), st.lists(_volumes, max_size=6), _deltas,
       st.booleans())
def test_partition_matches_reference(balls, volumes, delta, pad):
    assert outcome(partition_balls, balls, volumes, delta, pad=pad) == outcome(
        reference_partition, balls, volumes, delta, pad=pad)


# large pairwise coprime denominators, so the grid of a partition is large
_big_dens = st.sampled_from((999_983, 1_000_003, 2 ** 31 - 1, 3 ** 19, 5 ** 13))


@st.composite
def plan_partitions(draw):
    """(balls, piece volumes, delta) as a plan of 2-5 curves gives them.

    Each piece gets a ball a few delta/4 short of its volume, or none, and
    a few more balls take a few delta/4, or a little or much more than the
    largest piece; capacities are cut down to large coprime denominators.
    """
    residues = draw(st.lists(_fractions(9, 40), min_size=2, max_size=5))
    top = max(residues)
    pol = Polarization(tuple(Curve(10 * top + draw(_fractions(40, 12)), r)
                             for r in residues))
    plan = build_plan(pol)
    volumes = [p.volume for p in plan.pieces]
    quarter = plan.delta / 4
    shorts = st.sampled_from((0, 1, 2, 3, 4, 5, 7, None))
    wanted = [v - short * quarter for v in volumes
              if (short := draw(shorts)) is not None]
    extras = st.sampled_from([k * quarter for k in (1, 2, 3, 5, 9) * 4]
                             + [max(volumes) + k * quarter for k in (3, 5)]
                             + [max(volumes) * F(11, 10), max(volumes) * 3])
    wanted += draw(st.lists(extras, max_size=3))
    balls = []
    for v in draw(st.permutations(wanted)):
        q = draw(_big_dens)
        balls.append(F(isqrt(2 * v.numerator * q * q // v.denominator), q))
    return balls, volumes, plan.delta


@settings(max_examples=200, deadline=None)
@given(plan_partitions(), st.booleans())
def test_partition_matches_reference_on_plans(args, pad):
    assert outcome(partition_balls, *args, pad=pad) == outcome(
        reference_partition, *args, pad=pad)


def test_partition_reference_cases_cover_every_error():
    # each error of partition_balls, with the reference's type and message
    for args in (([F(1, 10)], [F(1, 10)], 0),
                 ([F(1, 10)], [], F(1, 10)),
                 ([F(9, 10)], [F(1, 50)], F(1, 100)),
                 ([F(1, 2)] * 4, [F(1, 5), F(1, 5)], F(1, 3)),
                 ([F(1, 10)], [F(1, 5)], F(1, 100))):
        kind, message = outcome(partition_balls, *args)
        assert kind is PartitionError
        assert (kind, message) == outcome(reference_partition, *args)

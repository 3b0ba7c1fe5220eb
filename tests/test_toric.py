import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympack import planner, toric
from sympack.lattice import BlowupForm
from sympack.toric import (Ball, Complement, DomainError, Ellipsoid,
                           InvalidParameterError, ProjectivePlane, PseudoBall,
                           PseudoBallViolation, parse_domain,
                           validate_pseudo_ball, volume)

from helpers import (moment_vertices, polygon_area, polygon_contains,
                     rand_fraction, rand_pseudo_ball, reference_blowup_bound,
                     reference_volume)

F = Fraction


def poly(*pts):
    return tuple((F(x), F(y)) for x, y in pts)


def test_area_unit_simplex():
    assert polygon_area(poly((0, 0), (1, 0), (0, 1))) == F(1, 2)


def test_area_pseudo_ball_quadrilateral():
    q = poly((0, 0), (F(3, 2), 0), (1, 1), (0, F(3, 2)))
    assert polygon_area(q) == F(3, 2)


def test_area_degenerate():
    assert polygon_area(poly((0, 0), (1, 0), (2, 0))) == 0
    assert polygon_area(poly((0, 0), (1, 0))) == 0
    assert polygon_area(poly((0, 0))) == 0


def test_area_rotation_and_orientation():
    rng = random.Random(7)
    for _ in range(50):
        # random convex polygon from sorted quadrant angles
        import math
        n = rng.randint(3, 7)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        pts = [(F(int(50 + 40 * math.cos(t))), F(int(50 + 40 * math.sin(t))))
               for t in angles]
        base = polygon_area(tuple(pts))
        for shift in range(1, n):
            rotated = tuple(pts[shift:] + pts[:shift])
            assert polygon_area(rotated) == base
        reversed_ = tuple(reversed(pts))
        assert polygon_area(reversed_) == -base
        assert abs(polygon_area(reversed_)) == abs(base)


def test_volume_examples():
    assert volume(Ellipsoid(1, 2)) == 1
    assert volume(PseudoBall(F(3, 2), F(3, 2), 1, 1)) == F(3, 2)
    assert volume(ProjectivePlane(2)) == 2
    assert volume(Ball(F(1, 2))) == F(1, 8)


def _rand_target(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rand_pseudo_ball(rng)
    if kind == 1:
        return Ellipsoid(rand_fraction(rng, F(1, 10), F(5)),
                         rand_fraction(rng, F(1, 10), F(5)))
    if kind == 2:
        return Ball(rand_fraction(rng, F(1, 10), F(5)))
    if kind == 3:
        return ProjectivePlane(rand_fraction(rng, F(1, 10), F(5)))
    return BlowupForm(tuple(rand_fraction(rng, F(0), F(1, 2))
                            for _ in range(rng.randint(0, 3))))


def test_volume_is_polytope_area():
    rng = random.Random(11)
    for _ in range(500):
        t = _rand_target(rng)
        assert t.complement.volume == reference_volume(t)
        if not isinstance(t, BlowupForm):
            assert volume(t) == polygon_area(moment_vertices(t))
    e = Ellipsoid(F(5, 3), F(7, 2))
    assert volume(e) == polygon_area(moment_vertices(e))


def test_volume_symmetry():
    assert volume(Ellipsoid(F(2, 3), 5)) == volume(Ellipsoid(5, F(2, 3)))
    t = PseudoBall(F(5, 4), F(6, 5), 1, F(1, 2))
    s = PseudoBall(F(6, 5), F(5, 4), F(1, 2), 1)
    assert volume(t) == volume(s)


def test_validate_pseudo_ball():
    assert validate_pseudo_ball(F(3, 2), F(3, 2), 1, 1) == []
    bad = validate_pseudo_ball(2, 2, 1, 1)
    assert len(bad) == 2 and all("alpha+beta" in v for v in bad)
    bad = validate_pseudo_ball(1, F(3, 2), 1, 1)
    assert len(bad) == 1 and "a > alpha" in bad[0]


def test_validate_nonpositive_is_input_error():
    with pytest.raises(InvalidParameterError):
        validate_pseudo_ball(0, 1, 1, 1)
    with pytest.raises(InvalidParameterError):
        PseudoBall(F(3, 2), F(3, 2), -1, 1)


def test_degenerate_pseudo_ball_rejected():
    with pytest.raises(PseudoBallViolation):
        PseudoBall(2, 2, 1, 1)       # a = alpha + beta, boundary case


def test_complement_symmetric_example():
    # P^2(2) minus E(1/2,1) twice, that is minus four balls of capacity 1/2
    d, mu, runs, _, _ = PseudoBall(F(3, 2), F(3, 2), 1, 1).complement
    assert (d, mu, runs) == (2, 4, ((2, 1), (2, 1)))


def test_complement_asymmetric_example():
    # P^2(3/2) minus E(1/4,1) and E(3/10,1/2), over d = 20
    t = PseudoBall(F(5, 4), F(6, 5), 1, F(1, 2))
    d, mu, runs, _, _ = t.complement
    assert (d, mu) == (20, 30)
    assert runs == ((4, 5), (1, 6), (1, 4), (2, 2))
    assert F(mu * mu - sum(c * w * w for c, w in runs), 2 * d * d) == F(37, 40)
    assert volume(t) == F(37, 40)


def test_complement_volume_identity_randomized():
    rng = random.Random(3)
    for _ in range(1000):
        t = _rand_target(rng)
        d, mu, runs, _, _ = t.complement
        assert all(count > 0 and w > 0 for count, w in runs)
        assert (F(mu * mu - sum(c * w * w for c, w in runs), 2 * d * d)
                == reference_volume(t))


def test_room_takes_the_balls_out():
    rng = random.Random(5)
    for _ in range(200):
        cut = _rand_target(rng).complement
        scale = rng.randint(1, 50)
        xs = [rng.randint(1, 50) for _ in range(rng.randint(0, 4))]
        assert cut.room(scale, sum(x * x for x in xs)) == cut.volume - sum(
            (F(x, scale) ** 2 for x in xs), F(0)) / 2
    assert cut.room() == cut.volume


@settings(max_examples=300)
@given(st.fractions(0, 1).filter(lambda x: x < 1), st.integers(0, 200),
       st.sampled_from((None, 4, 17, 64)))
def test_blowup_bound_matches_reference(kappa_sq, p, precision):
    # P^2(e) minus balls with squares n e, so kappa^2 = n/e and mu/d = e
    n, e = kappa_sq.numerator, kappa_sq.denominator
    cut = Complement(1, e, (), n * e, p)
    assert F(*cut.blowup_terms(precision)) == e * reference_blowup_bound(
        kappa_sq, p, precision)


def test_moment_polytope_shapes():
    mp = moment_vertices(PseudoBall(F(3, 2), F(3, 2), 1, 1))
    assert mp == ((0, 0), (F(3, 2), 0), (1, 1), (0, F(3, 2)))
    assert moment_vertices(Ball(2)) == ((0, 0), (2, 0), (0, 2))
    assert moment_vertices(ProjectivePlane(2)) == ((0, 0), (2, 0), (0, 2))


def test_contains():
    mp = moment_vertices(Ellipsoid(2, 1))
    assert polygon_contains(mp, F(1, 2), F(1, 2))
    assert polygon_contains(mp, 2, 0)         # boundary counts as inside
    assert not polygon_contains(mp, 2, 1)


def test_parse_domain():
    assert parse_domain("B(3/2)") == Ball(F(3, 2))
    assert parse_domain("E(1,5/2)") == Ellipsoid(1, F(5, 2))
    assert parse_domain("T(3/2,3/2,1,1)") == PseudoBall(F(3, 2), F(3, 2), 1, 1)
    assert parse_domain("P2(2)") == ProjectivePlane(2)
    assert parse_domain(" E( 1 , 2 ) ") == Ellipsoid(1, 2)


def test_parse_domain_errors():
    from sympack.rationals import RationalParseError
    for bad in ("E(1)", "Q(1,2)", "E(1,0.5)", "B()", "T(1,1,1)"):
        with pytest.raises((DomainError, RationalParseError)):
            parse_domain(bad)


def test_str_round_trip():
    for d in (Ball(F(3, 2)), Ellipsoid(1, F(5, 2)),
              PseudoBall(F(3, 2), F(3, 2), 1, 1), ProjectivePlane(2)):
        assert parse_domain(str(d)) == d


def test_domains_keep_fraction_entries():
    class Sub(F):
        pass

    half, third = F(1, 2), F(1, 3)
    # entries that are Fractions already are kept, not copied
    assert Ball(half).capacity is half
    e = Ellipsoid(half, third)
    assert e.a is half and e.b is third
    t = PseudoBall(F(3, 2), F(3, 2), F(1), F(1))
    assert validate_pseudo_ball(t.a, t.b, t.alpha, t.beta) == []
    assert ProjectivePlane(half).scale is half
    curve = planner.Curve(half, third)
    assert curve.area is half and curve.residue is third
    mains = (half, third)
    assert planner.DiscAllocation(mains, mains, mains).main is mains
    # anything else becomes an exact Fraction
    for domain in (Ball("3/2"), Ellipsoid(1, Sub(5, 2)), ProjectivePlane(2),
                   PseudoBall("3/2", 1.5, 1, True)):
        values = vars(domain).values()
        assert all(type(x) is F for x in values)
    alloc = planner.DiscAllocation([1, "1/2"], (Sub(1, 3), half), (1, 2))
    assert all(type(x) is F and type(xs) is tuple
               for xs in (alloc.main, alloc.prev, alloc.next) for x in xs)
    assert alloc.main == (1, half)


def test_nonpositive_fraction_entries_rejected():
    for make in (lambda: Ball(F(0)), lambda: Ellipsoid(F(1), F(-1, 2)),
                 lambda: ProjectivePlane(F(-2)),
                 lambda: PseudoBall(F(3, 2), F(0), F(1), F(1))):
        with pytest.raises(InvalidParameterError, match="must be > 0"):
            make()
    with pytest.raises(InvalidParameterError, match="parameter b = -1/2"):
        Ellipsoid(F(1), F(-1, 2))

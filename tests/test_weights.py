import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympack.weights import (WeightError, continued_fraction, ellipsoid_weights,
                             weight_count, weight_sequence)

from helpers import reference_weight_sequence

F = Fraction


def test_weight_of_one():
    ws = weight_sequence(1)
    assert ws.weights == (F(1),)
    assert ws.sum_squares == 1


def test_weight_five_halves():
    ws = weight_sequence(F(5, 2))
    assert ws.weights == (1, 1, F(1, 2), F(1, 2))
    assert ws.sum_squares == F(5, 2)
    assert continued_fraction(F(5, 2)) == [2, 2]
    assert weight_count(F(5, 2)) == 4


def test_weight_201_over_100():
    ws = weight_sequence(F(201, 100))
    assert ws.weights == (1, 1) + (F(1, 100),) * 100
    assert len(ws) == 102
    assert weight_count(F(201, 100)) == 102
    assert ws.sum_squares == F(201, 100)


def test_weight_five_thirds():
    assert weight_sequence(F(5, 3)).weights == (1, F(2, 3), F(1, 3), F(1, 3))


def test_rejects_small_and_inexact():
    with pytest.raises(WeightError):
        weight_sequence(F(1, 2))
    with pytest.raises(WeightError):
        weight_sequence(2.5)
    with pytest.raises(WeightError):
        weight_count("not a number")


def test_identities_randomized():
    rng = random.Random(42)
    for _ in range(300):
        q = rng.randint(1, 40)
        a = F(rng.randint(q + 1, 100 * q), q)
        ws = weight_sequence(a)
        assert ws.sum_squares == a
        assert sum(ws.weights) == a + 1 - F(1, a.denominator)
        assert len(ws) == sum(continued_fraction(a)) == weight_count(a)
        assert all(w > 0 for w in ws.weights)
        # non-increasing
        assert all(x >= y for x, y in zip(ws.weights, ws.weights[1:]))


def test_continuity_from_above():
    # a = 2 perturbed to 201/100: first p(2) weights unchanged, tail < eps
    eps = F(1, 50)
    base = weight_sequence(2).weights
    near = weight_sequence(F(201, 100)).weights
    p = weight_count(2)
    assert all(abs(x - y) < eps for x, y in zip(base, near[:p]))
    assert all(w < eps for w in near[p:])


def test_continuity_from_below():
    eps = F(1, 50)
    base = weight_sequence(2).weights
    near = weight_sequence(F(199, 100)).weights
    p = weight_count(2)
    assert all(abs(x - y) < eps for x, y in zip(base, near[:p]))
    assert all(w < eps for w in near[p:])


def test_deterministic():
    a = F(355, 113)
    assert weight_sequence(a) == weight_sequence(a)
    assert weight_sequence(a).weights == weight_sequence(a).weights


def test_ellipsoid_weights():
    assert ellipsoid_weights(1, 2) == (1, 1)
    assert ellipsoid_weights(2, 5) == (2, 2, 1, 1)
    assert ellipsoid_weights(3, 3) == (3,)
    assert ellipsoid_weights(5, 2) == (2, 2, 1, 1)   # order-insensitive
    assert ellipsoid_weights(F(3, 2), F(5, 2)) == (F(3, 2), 1, F(1, 2), F(1, 2))


def test_ellipsoid_weights_square_sum():
    rng = random.Random(5)
    for _ in range(100):
        a = F(rng.randint(1, 30), rng.randint(1, 10))
        b = F(rng.randint(1, 30), rng.randint(1, 10))
        ws = ellipsoid_weights(a, b)
        assert sum(w * w for w in ws) == a * b


def test_ellipsoid_weights_rejects_nonpositive():
    with pytest.raises(WeightError):
        ellipsoid_weights(0, 1)


# a >= 1 with long quotient runs as well as short ones
at_least_one = st.builds(lambda q, extra: F(q + extra, q),
                         st.integers(1, 400), st.integers(0, 3000))
positive = st.builds(F, st.integers(1, 500), st.integers(1, 60))


@settings(deadline=None)
@given(at_least_one)
def test_weight_sequence_matches_subtraction(a):
    ws = weight_sequence(a)
    assert ws.weights == reference_weight_sequence(a)
    assert weight_count(a) == len(ws) == sum(continued_fraction(a))


@settings(deadline=None)
@given(positive, positive)
def test_ellipsoid_weights_match_subtraction(a, b):
    small, big = min(a, b), max(a, b)
    assert ellipsoid_weights(a, b) == tuple(
        small * w for w in reference_weight_sequence(big / small))


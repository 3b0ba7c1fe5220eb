import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympack import lattice
from sympack.lattice import (ROW_LIMIT, AreaExcessError, BlowupForm,
                             HomologyClass, InfeasibleFormError,
                             TableSizeError, class_invariants,
                             d_omega_bound, d_omega_search)

from helpers import reference_blowup_bound

F = Fraction


def brute_force_min(lams, k_max):
    """Independent reference: direct product enumeration, pure Fractions."""
    lams = tuple(F(l) for l in lams)
    p = len(lams)
    best = None
    for k in range(1, k_max + 1):
        r = math.isqrt(k * k)
        for m in itertools.product(range(-r, r + 1), repeat=p):
            if sum(x * x for x in m) > k * k:
                continue
            area = k - sum(x * l for x, l in zip(m, lams))
            chern = 3 * k - sum(m)
            if area > 0 and chern >= 2:
                val = F(area) / chern
                if best is None or val < best:
                    best = val
    return best


def test_class_invariants_examples():
    form = BlowupForm((F(1, 2), F(1, 2)))
    assert class_invariants(HomologyClass(1, (1, 1)), form) == (-1, 1, 0)
    assert class_invariants(HomologyClass(0, (0, 0)), form) == (0, 0, 0)
    form1 = BlowupForm((F(1, 2),))
    assert class_invariants(HomologyClass(1, (1,)), form1) == (0, 2, F(1, 2))


def test_form_normalizes_entries_to_fractions():
    for lams in ([F(1, 2), F(1, 4)], (F(1, 2), "1/4"), ["1/2", "1/4"]):
        form = BlowupForm(lams)
        assert type(form.lambdas) is tuple
        assert all(type(l) is Fraction for l in form.lambdas)
        assert form.lambdas == (F(1, 2), F(1, 4))
    lams = (F(1, 3), F(1, 3))
    assert BlowupForm(lams).lambdas is lams


def test_form_rejects_sizes_outside_unit_interval():
    for bad in (0, 1, -1, F(-1, 2), "0", F(3, 2)):
        with pytest.raises(InfeasibleFormError):
            BlowupForm((F(1, 2), bad))


def test_form_many_entries_within_budget():
    lams = (F(1, 1000),) * 10 ** 5
    started = time.perf_counter()
    form = BlowupForm(lams)
    assert time.perf_counter() - started < 0.15
    assert form.complement.kappa_sq == F(1, 10)


def test_form_complement_is_in_runs():
    # equal consecutive sizes make one run (count, w) over d = 6
    assert BlowupForm((F(1, 2), F(1, 2), F(1, 3))).complement == (
        6, 6, ((2, 3), (1, 2)), 22, 3)


def test_class_invariants_length_mismatch():
    with pytest.raises(ValueError):
        class_invariants(HomologyClass(1, (1,)), BlowupForm(()))


def test_bound_examples():
    assert d_omega_bound(BlowupForm(())) == F(1, 3)
    assert d_omega_bound(BlowupForm((F(1, 2),))) == F(1, 8)
    with pytest.raises(InfeasibleFormError):
        BlowupForm((F(3, 5), F(4, 5)))


def test_bound_is_certified_lower():
    # returned rational never exceeds the float evaluation
    rng = random.Random(17)
    for _ in range(50):
        p = rng.randint(1, 5)
        lams = tuple(F(rng.randint(1, 20), 40) for _ in range(p))
        if sum(l * l for l in lams) >= 1:
            continue
        form = BlowupForm(lams)
        b = d_omega_bound(form)
        truth = ((1 - math.sqrt(float(form.complement.kappa_sq)))
                 / (3 + math.sqrt(p)))
        assert float(b) <= truth + 1e-15
        assert truth - float(b) < 1e-12


def test_search_examples():
    for k_max in (1, 2, 4):
        res = d_omega_search(BlowupForm((F(1, 2),)), k_max)
        assert res.value == F(1, 4)
    res = d_omega_search(BlowupForm(()), 3)
    assert res.value == F(1, 3)
    res = d_omega_search(BlowupForm((F(1, 2), F(1, 2))), 5)
    assert res.value == F(3, 16)
    # the witness attains the value
    w = res.witness
    area = w.k - sum(m * F(1, 2) for m in w.m)
    chern = 3 * w.k - sum(w.m)
    assert area / chern == F(3, 16)
    assert w.k * w.k >= sum(m * m for m in w.m) and chern >= 2


def test_search_matches_brute_force():
    rng = random.Random(31)
    for _ in range(20):
        p = rng.randint(0, 3)
        lams = tuple(F(rng.randint(1, 9), 20) for _ in range(p))
        if sum(l * l for l in lams) >= F(9, 10):
            continue
        k_max = rng.randint(1, 4)
        res = d_omega_search(BlowupForm(lams), k_max)
        assert res.value == brute_force_min(lams, k_max)


def test_search_monotone_in_kmax():
    form = BlowupForm((F(1, 3), F(1, 4), F(2, 5)))
    prev = None
    for k_max in range(1, 7):
        val = d_omega_search(form, k_max).value
        if prev is not None:
            assert val <= prev
        prev = val


def test_search_dominates_bound():
    rng = random.Random(37)
    for _ in range(25):
        p = rng.randint(1, 4)
        lams = tuple(F(rng.randint(1, 12), 30) for _ in range(p))
        if sum(l * l for l in lams) >= F(9, 10):
            continue
        form = BlowupForm(lams)
        res = d_omega_search(form, 6, check_area_excess=True)
        assert res.value >= d_omega_bound(form)


def test_search_bad_range():
    with pytest.raises(ValueError):
        d_omega_search(BlowupForm((F(1, 2),)), 0)


sizes = st.builds(lambda num, den: F(min(num, den - 1), den),
                  st.integers(1, 23), st.integers(2, 24))


def forms(max_p):
    """Forms of rank <= max_p <= 8; sizes with kappa^2 >= 1 are cut by 3."""
    def form(lams):
        if sum(l * l for l in lams) >= 1:
            lams = [l / 3 for l in lams]
        return BlowupForm(tuple(lams))

    return st.lists(sizes, max_size=max_p).map(form)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_search_matches_brute_force_on_k_ranges(k_max, data):
    # ranks p > 2 k_max^2 search the k_max^2 largest and smallest sizes only
    form = data.draw(forms(7 if k_max == 1 else 4))
    assert (d_omega_search(form, k_max).value
            == brute_force_min(form.lambdas, k_max))


@settings(max_examples=60, deadline=None)
@given(forms(6), st.integers(1, 8), st.data())
def test_search_value_ignores_order(form, k_max, data):
    shuffled = BlowupForm(tuple(data.draw(st.permutations(form.lambdas))))
    assert (d_omega_search(shuffled, k_max).value
            == d_omega_search(form, k_max).value)


@settings(max_examples=100, deadline=None)
@given(forms(6), st.integers(1, 8))
def test_search_witness_attains_value(form, k_max):
    res = d_omega_search(form, k_max, check_area_excess=True)
    self_int, chern, area = class_invariants(res.witness, form)
    assert 1 <= res.witness.k <= k_max
    assert self_int >= 0 and chern >= 2
    assert area / chern == res.value


def test_search_rank_eight_within_budget():
    # the first call builds the table of p = 8, k = 8 (5,023 rows)
    form = BlowupForm(tuple(F(1, 3) for _ in range(8)))
    started = time.perf_counter()
    res = d_omega_search(form, 8, check_area_excess=True)
    assert time.perf_counter() - started < 5.0
    assert res.value == F(1, 3)


precisions = st.sampled_from((None, 4, 17, 64))


@given(forms(8), precisions)
def test_d_omega_bound_matches_reference(form, precision):
    kappa_sq = sum((l * l for l in form.lambdas), F(0))
    assert form.complement.kappa_sq == kappa_sq
    assert d_omega_bound(form, precision) == reference_blowup_bound(
        kappa_sq, form.p, precision)


def test_row_count_matches_enumeration():
    for p in range(5):
        for k_max in range(1, 8):
            rows = sum(1 for _ in lattice._sorted_rows(p, k_max))
            assert lattice._row_count(p, k_max, 10 ** 6) == rows
            assert lattice._row_count(p, k_max, rows) == rows
            assert lattice._row_count(p, k_max, rows - 1) == rows
    assert lattice._row_count(8, 8, ROW_LIMIT) == 17631
    assert lattice._row_count(6, 12, ROW_LIMIT) == 48796


@pytest.mark.parametrize("p, k_max", [(6, 13), (6, 20), (2, 200), (600, 8),
                                      (3, 10 ** 9)])
def test_search_table_above_row_limit(p, k_max):
    form = BlowupForm(tuple(F(1, 30) for _ in range(p)))
    started = time.perf_counter()
    with pytest.raises(TableSizeError, match="more than 50000"):
        d_omega_search(form, k_max)
    assert time.perf_counter() - started < 1.0


def test_area_excess_failure_is_named(monkeypatch):
    # one group whose largest D = 2 fails D^2 < k_c^2 * |n|^2 = 1
    rows = ((2,),)
    forged = lattice._Table(((0, 1, 2, 1, 1),), rows,
                            (lattice._pack([2 + 8]),), lattice._pack([1]))
    monkeypatch.setattr(lattice, "_table", lambda p, k_max: forged)
    with pytest.raises(AreaExcessError) as failure:
        d_omega_search(BlowupForm((F(1, 2),)), 8, check_area_excess=True)
    assert not isinstance(failure.value, AssertionError)
    d_omega_search(BlowupForm((F(1, 2),)), 8)

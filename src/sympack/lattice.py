"""Stability constants of blow-ups of the projective plane.

Two routes to the same quantity: a closed-form certified lower bound
(1-kappa)/(3+sqrt(p)) with kappa^2 the total blown-up volume, and an
exhaustive lattice minimization of area/Chern ratios over homology classes
k L - sum m_i E_i with bounded k.  The search value is an exact rational
upper approximation of the infimum; the bound is rounded downward, so
[bound, search] always brackets the true constant.  The bound is not
computed here: ``d_omega_bound`` reads ``toric.Complement.blowup_terms``
of the form's complement, the same bound every certified threshold of
``certifier.lambda_bound`` reads.

The search works on Python ints with no float step.  With d the common
denominator of the lambda_i and n_i = lambda_i * d, as the runs of the
form's ``complement`` hold them, a class (k; m) has
D = m.n, area (k d - D)/d, Chern number c = 3k - S with S = sum m_i, and
ratio (k d - D)/(d c).  Five facts cut the classes it has to look at:

1. Sorted classes only.  Sort lambda in descending order; only
   non-increasing m need be enumerated (the reduced form of Karshon and
   Kessler, arXiv:1407.5312).  Permuting m changes neither its norm
   sum m_i^2 nor c, and by the rearrangement inequality m.lambda is largest,
   so the area smallest, when m is ordered like lambda.  The area stays
   positive: m.lambda <= |m| kappa <= k kappa < k.  The witness is mapped
   back to the caller's order of lambda.
2. One value of k per class.  For fixed m the ratio (k d - D)/(d(3k - S))
   has a k-derivative of the sign of 3D - dS, so it is monotone in k, and
   ratio - 1/3 = (dS - 3D)/(3 d c).  A class with 3D <= dS thus never
   goes below 1/3, the ratio of L, which is admissible at k = 1; the
   search starts from L and skips such classes.  Every other class has
   its smallest ratio at its lowest admissible k, max(ceil sqrt(norm),
   ceil((S+2)/3)), as long as that is <= k_max.  Ratios are compared by
   integer cross-multiplication.
3. Dominance pruning.  Let m, m' be non-increasing with the same sum and
   partial sums P_j >= P'_j.  By Abel summation D = sum_j P_j (n_j - n_j+1)
   with n_p+1 = 0, and every n_j - n_j+1 >= 0 for descending positive n,
   so D >= D' for every such lambda.  Then m is admissible wherever m' is
   when ceil sqrt(norm) is no larger, has the same c and no larger ratio,
   and covers the check of fact 4 when floor sqrt(norm) is no larger: m' is
   dropped.  Abel summation also gives m.m' - m'.m' = sum_j (P_j - P'_j)
   (m'_j - m'_j+1) >= 0, so |m|^2 >= |m'|^2 and both roots are in fact
   equal.  Rows therefore fall into groups of equal (ceil sqrt(norm),
   floor sqrt(norm), S), pruning runs within each group, and a group needs
   only its largest D.  The table is built once per (p, k_max): for p = 6,
   k_max = 8 it keeps 1,729 of 6,133 sorted rows in 254 groups.
4. Integer area-excess check.  For a class with k^2 > norm, area >
   k(1 - kappa) says D < k d kappa, that is D <= 0 or D^2 < k^2 sum n_i^2.
   The smallest such k, k_c = floor sqrt(norm) + 1, gives the strongest
   instance, and the sorted order gives the largest D (fact 1), so testing
   each group's largest D at its k_c covers every class with positive
   square in range.  Rows with no admissible k stay in the table for it.
5. Long forms.  A row has at most k_max^2 non-zero entries, the positive
   ones first and the negative ones last.  So for p > 2 k_max^2 they lie
   among the k_max^2 largest and the k_max^2 smallest sizes, and the
   search runs the table of (2 k_max^2, k_max) on those sizes alone.  Its
   rows are the rows of p with the middle zeros left out: the same D,
   sums, norms, partial-sum order and dominance, so the same value and
   witness, with the witness zero elsewhere.  sum n_i^2 of fact 4 stays
   the sum over all p sizes.

The table is bounded before it is built: a memoized count over the same
recursion as its enumeration gives its number of sorted rows, and more
than ``ROW_LIMIT`` raises ``TableSizeError``.

The values D of all rows come from one packed product: coordinate i of
every row is packed into one integer with a 64-bit lane per row, so that
sum_i n_i * column_i holds each D, offset by 2^63, in its own lane.  The
lanes never carry, because |D| <= |m| |n| < k_max d, and the search
requires k_max d < 2^63 (``SEARCH_LIMIT``).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import isqrt
from typing import NamedTuple

from .rationals import exact_tuple, runs, to_grid
from .toric import Complement, complement_of


class InfeasibleFormError(ValueError):
    """Blow-up sizes with total volume >= the plane's volume."""


@dataclass(frozen=True)
class HomologyClass:
    """k L - sum m_i E_i in the standard basis of a p-fold blow-up."""

    k: int
    m: tuple[int, ...]

    def __str__(self):
        return f"({self.k}; {', '.join(map(str, self.m))})"


@dataclass(frozen=True)
class BlowupForm:
    """Cohomology data of blowing up balls of sizes lambdas (line area 1)."""

    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", exact_tuple(self.lambdas))
        cut = self.complement           # checks each size
        if cut.squares >= cut.d * cut.d:
            raise InfeasibleFormError(
                f"sum of squared sizes {cut.kappa_sq} >= 1: cannot blow up")

    @property
    def p(self) -> int:
        return len(self.lambdas)

    @cached_property
    def complement(self) -> Complement:
        """P^2(1) minus the balls, in runs: over the lcm d of the
        denominators, a run of count equal consecutive sizes w/d is the run
        (count, w).  Each run is checked and put on the grid once
        (``rationals.runs``)."""
        sizes = runs(self.lambdas)
        d, [ws] = to_grid([l for l, _ in sizes])
        for w, (l, _) in zip(ws, sizes):
            if not 0 < w < d:
                raise InfeasibleFormError(f"blow-up size {l} outside (0,1)")
        return complement_of(d, d, zip((count for _, count in sizes), ws))

    def __str__(self):
        return "Blowup({})".format(",".join(str(l) for l in self.lambdas))


def class_invariants(b: HomologyClass, form: BlowupForm):
    """(self-intersection, first Chern number, symplectic area), all exact."""
    if len(b.m) != form.p:
        raise ValueError(
            f"class has {len(b.m)} exceptional coefficients, form has {form.p}")
    self_int = b.k * b.k - sum(m * m for m in b.m)
    chern = 3 * b.k - sum(b.m)
    area = b.k - sum((m * l for m, l in zip(b.m, form.lambdas)), Fraction(0))
    return self_int, chern, area


def d_omega_bound(form: BlowupForm, precision: int | None = None) -> Fraction:
    """The blow-up bound of the form; 1/3 exactly for the empty form."""
    return Fraction(*form.complement.blowup_terms(precision))


@dataclass(frozen=True)
class SearchResult:
    value: Fraction
    witness: HomologyClass


SEARCH_LIMIT = 1 << 63          # lcm(denominators) * k_max must stay below
ROW_LIMIT = 50_000              # sorted rows a search table may hold


class TableSizeError(ValueError):
    """A search table of (p, k_max) with more than ROW_LIMIT sorted rows."""


class AreaExcessError(RuntimeError):
    """A class that fails the area-excess check of ``d_omega_search``."""


class _Table(NamedTuple):
    """Sorted rows m of Z^p with |m|^2 <= k_max^2, in groups, with lanes.

    A group holds the rows kept for one (ceil sqrt|m|^2, floor sqrt|m|^2,
    sum m); ``groups`` lists (start, stop, sum, lowest k, k_c^2) with
    rows[start:stop] its rows.  ``columns[i]`` packs m_i + k_max of every
    row into 64-bit lanes, and ``ones`` packs a 1 into every lane.
    """

    groups: tuple[tuple[int, int, int, int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[int, ...]
    ones: int


def _pack(lanes) -> int:
    """One integer holding each value as a 64-bit lane, first lane lowest."""
    return int.from_bytes(array("Q", lanes).tobytes(), sys.byteorder)


def _sorted_rows(p: int, k_max: int):
    """Non-increasing m in Z^p with |m|^2 <= k_max^2, largest first."""
    def extend(prefix, top, budget):
        if len(prefix) == p:
            yield prefix
            return
        left = p - len(prefix)
        for v in range(min(top, isqrt(budget)), -isqrt(budget) - 1, -1):
            if v < 0 and v * v * left > budget:
                return          # the rest, all <= v, cannot fit either
            yield from extend(prefix + (v,), v, budget - v * v)

    return extend((), k_max, k_max * k_max)


def _row_count(p: int, k_max: int, cap: int) -> int:
    """Number of rows ``_sorted_rows(p, k_max)`` yields, or cap + 1 if above cap.

    Counts the same recursion without listing it: the rows below a prefix
    depend only on its remaining length, last entry and remaining norm.  A
    row has at most k_max^2 non-zero entries, so entries beyond that add no
    rows; and the (n+1)(n+2)/2 rows of n entries in {1, 0, -1} alone settle
    a long row at once, which keeps the recursion shallow.
    """
    n = min(p, k_max * k_max)
    if (n + 1) * (n + 2) // 2 > cap:
        return cap + 1

    @lru_cache(maxsize=None)
    def count(left, top, budget):
        if left == 0:
            return 1
        total = 0
        for v in range(min(top, isqrt(budget)), -isqrt(budget) - 1, -1):
            if v < 0 and v * v * left > budget:
                break
            total += count(left - 1, v, budget - v * v)
            if total > cap:
                return cap + 1
        return total

    return count(n, k_max, k_max * k_max)


@lru_cache(maxsize=32)
def _table(p: int, k_max: int) -> _Table:
    """The search table of (p, k_max): fact 3 applied to every sorted row."""
    if _row_count(p, k_max, ROW_LIMIT) > ROW_LIMIT:
        raise TableSizeError(
            f"the search table of p = {p}, k_max = {k_max} has more than "
            f"{ROW_LIMIT} sorted rows; lower k_max")
    groups: dict[tuple[int, int, int], list] = {}
    for m in _sorted_rows(p, k_max):
        norm = sum(v * v for v in m)
        root = isqrt(norm)
        ceil = root if root * root == norm else root + 1
        groups.setdefault((ceil, root, sum(m)), []).append(
            (tuple(accumulate(m)), m))
    spans, rows = [], []
    for (ceil, root, s), members in sorted(groups.items()):
        members.sort(reverse=True)      # a dominating row sorts first
        kept: list = []
        for partial, m in members:
            if not any(all(a >= b for a, b in zip(top, partial))
                       for top, _ in kept):
                kept.append((partial, m))
        spans.append((len(rows), len(rows) + len(kept), s,
                      max(ceil, -(-(s + 2) // 3)), (root + 1) ** 2))
        rows.extend(m for _, m in kept)
    columns = tuple(_pack([m[i] + k_max for m in rows]) for i in range(p))
    return _Table(tuple(spans), tuple(rows), columns, _pack([1] * len(rows)))


def d_omega_search(form: BlowupForm, k_max: int,
                   check_area_excess: bool = False) -> SearchResult:
    """Exact minimum of area/Chern over classes with k in [1, k_max].

    The minimum runs over every (k; m_1..m_p) with sum m_i^2 <= k^2
    (negative m_i included), area > 0 and Chern >= 2; the module docstring
    shows why the sorted, pruned table of ``_table`` reaches it.  With
    ``check_area_excess`` every class with positive square is additionally
    verified to satisfy area > k(1-kappa).
    Raises ``OverflowError`` when lcm(denominators) * k_max >= 2^63,
    ``TableSizeError`` when the table of (p, k_max) would exceed
    ``ROW_LIMIT`` rows, and ``AreaExcessError`` when the check fails.
    """
    if k_max < 1:
        raise ValueError(f"bad k range [1, {k_max}]")
    cut = form.complement
    d = cut.d
    if d * k_max >= SEARCH_LIMIT:
        raise OverflowError(
            f"lcm(denominators) * k_max = {d * k_max} is not below 2^63, "
            "the limit of the lattice search")
    sizes = [w for count, w in cut.runs for _ in range(count)]
    # equal sizes take the coefficients of the witness in ascending order
    order = sorted(range(cut.p), key=lambda i: (sizes[i], i), reverse=True)
    half = k_max * k_max
    if cut.p > 2 * half:                # fact 5: the rest of m is zero
        order = order[:half] + order[-half:]
    n = [sizes[i] for i in order]
    table = _table(len(n), k_max)
    # lane of row m: sum_i n_i (m_i + k_max) - k_max sum_i n_i + 2^63
    packed = (SEARCH_LIMIT - k_max * sum(n)) * table.ones
    for x, column in zip(n, table.columns):
        packed += x * column
    dots = array("Q", packed.to_bytes(8 * len(table.rows), sys.byteorder))

    best_area, best_chern, best = d, 3, None        # L: 1/3
    for start, stop, s, lowest, kc_sq in table.groups:
        top = dots[start] if stop - start == 1 else max(dots[start:stop])
        dot = top - SEARCH_LIMIT
        if check_area_excess and dot > 0 and dot * dot >= kc_sq * cut.squares:
            raise AreaExcessError(
                f"area excess inequality fails at k={isqrt(kc_sq)}, dot={dot}")
        if 3 * dot <= d * s or lowest > k_max:
            continue
        area, chern = lowest * d - dot, 3 * lowest - s
        if area * best_chern < best_area * chern:
            best_area, best_chern = area, chern
            best = (lowest, dots.index(top, start, stop))

    k, witness = 1, [0] * cut.p
    if best is not None:
        k, row = best
        for i, m in zip(order, table.rows[row]):
            witness[i] = m
    return SearchResult(Fraction(best_area, d * best_chern),
                        HomologyClass(k, tuple(witness)))

"""Stability constants of blow-ups of the projective plane.

Two routes to the same quantity: a closed-form certified lower bound
(1-kappa)/(3+sqrt(p)) with kappa^2 the total blown-up volume, and an
exhaustive lattice minimization of area/Chern ratios over homology classes
k L - sum m_i E_i with bounded k.  The search value is an exact rational
upper approximation of the infimum; the bound is rounded downward, so
[bound, search] always brackets the true constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .rationals import sqrt_upper


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
        lams = tuple(Fraction(l) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        for l in lams:
            if not 0 < l < 1:
                raise InfeasibleFormError(f"blow-up size {l} outside (0,1)")
        if self.kappa_sq >= 1:
            raise InfeasibleFormError(
                f"sum of squared sizes {self.kappa_sq} >= 1: cannot blow up")

    @property
    def p(self) -> int:
        return len(self.lambdas)

    @property
    def kappa_sq(self) -> Fraction:
        return sum((l * l for l in self.lambdas), Fraction(0))

    @property
    def volume(self) -> Fraction:
        return (1 - self.kappa_sq) / 2

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


def blowup_bound(kappa_sq, p: int, precision: int | None = None) -> Fraction:
    """Certified lower bound (1-kappa)/(3+sqrt(p)) for kappa^2 = kappa_sq.

    kappa and sqrt(p) are replaced by rational upper bounds, so the
    returned Fraction never exceeds the true value.  Square roots of 0 are
    exact, so kappa^2 = p = 0 (no blow-up) gives 1/3.
    """
    return ((1 - sqrt_upper(kappa_sq, precision))
            / (3 + sqrt_upper(p, precision)))


def d_omega_bound(form: BlowupForm, precision: int | None = None) -> Fraction:
    """The blow-up bound of the form; 1/3 exactly for the empty form."""
    return blowup_bound(form.kappa_sq, form.p, precision)


@dataclass(frozen=True)
class SearchResult:
    value: Fraction
    witness: HomologyClass


_BALL_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _lattice_ball(p: int, radius_sq: int):
    """Integer vectors of Z^p with squared norm <= radius_sq, sorted by norm.

    Returns (points, norms, coordinate sums); cached per (p, radius_sq).
    """
    key = (p, radius_sq)
    cached = _BALL_CACHE.get(key)
    if cached is not None:
        return cached
    pts = np.zeros((1, 0), dtype=np.int64)
    norms = np.zeros(1, dtype=np.int64)
    r = isqrt(radius_sq)
    vals = np.arange(-r, r + 1, dtype=np.int64)
    for _ in range(p):
        n_pts, n_vals = len(pts), len(vals)
        ext = np.repeat(pts, n_vals, axis=0)
        col = np.tile(vals, n_pts)
        new_norms = np.repeat(norms, n_vals) + col * col
        keep = new_norms <= radius_sq
        pts = np.concatenate([ext[keep], col[keep, None]], axis=1)
        norms = new_norms[keep]
    order = np.argsort(norms, kind="stable")
    pts, norms = pts[order], norms[order]
    sums = pts.sum(axis=1)
    result = (pts, norms, sums)
    _BALL_CACHE[key] = result
    return result


def _check_area_excess(form, k, d, dots, norms, kappa_sq):
    """Verify area > k(1-kappa) for every class with B^2 > 0, area > 0.

    Strictness needs B^2 > 0: at B^2 = 0 with m parallel to lambda the
    Cauchy-Schwarz step is an equality.  Exact: dot < k*d*kappa is
    equivalent to dot <= 0 or dot^2 < k^2 d^2 kappa^2.
    """
    positive = dots[(dots > 0) & (dots < k * d) & (norms < k * k)]
    if positive.size == 0:
        return
    # float prescreen, exact confirmation on anything near the boundary
    rhs = float(k * k * d * d) * float(kappa_sq)
    suspect = positive[positive.astype(float) ** 2 >= rhs * (1 - 1e-9)]
    for dot in suspect:
        if Fraction(int(dot)) ** 2 >= Fraction(k * k * d * d) * kappa_sq:
            raise AssertionError(
                f"area excess inequality fails at k={k}, dot={int(dot)}")


def d_omega_search(form: BlowupForm, k_max: int,
                   k_min: int = 1,
                   check_area_excess: bool = False) -> SearchResult:
    """Exact minimum of area/Chern over classes with k in [k_min, k_max].

    Enumerates every (k; m_1..m_p) with sum m_i^2 <= k^2 (negative m_i
    included), area > 0 and Chern >= 2, comparing ratios exactly.  The
    k-range may be partitioned across workers and the results combined by
    taking the minimum.  With ``check_area_excess`` every admissible class
    is additionally verified to satisfy area > k(1-kappa).
    """
    if k_max < k_min or k_min < 1:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    p = form.p
    if p == 0:
        # only multiples of the line: ratio constant 1/3
        return SearchResult(Fraction(1, 3), HomologyClass(k_min, ()))

    d = lcm(*(l.denominator for l in form.lambdas))
    numer = np.array([int(l * d) for l in form.lambdas], dtype=np.int64)
    pts, norms, sums = _lattice_ball(p, k_max * k_max)
    dots = pts @ numer
    kappa_sq = form.kappa_sq

    best_float = np.inf
    candidates: list[tuple[int, int]] = []  # (k, row index)
    for k in range(k_min, k_max + 1):
        cnt = int(np.searchsorted(norms, k * k, side="right"))
        dk = dots[:cnt]
        if check_area_excess:
            _check_area_excess(form, k, d, dk, norms[:cnt], kappa_sq)
        area_num = k * d - dk                  # area * d
        chern = 3 * k - sums[:cnt]
        ok = (area_num > 0) & (chern >= 2)
        if not ok.any():
            continue
        idx = np.nonzero(ok)[0]
        ratios = area_num[idx] / (chern[idx] * float(d))
        lo = ratios.min()
        if lo <= best_float * (1 + 1e-12):
            best_float = min(best_float, lo)
            near = idx[ratios <= lo * (1 + 1e-9)]
            candidates.extend((k, int(i)) for i in near[:64])

    best_val = None
    best_witness = None
    for k, i in candidates:
        area = Fraction(int(k * d - dots[i]), d)
        chern = int(3 * k - sums[i])
        val = area / chern
        if best_val is None or val < best_val:
            best_val = val
            best_witness = HomologyClass(k, tuple(int(x) for x in pts[i]))
    return SearchResult(best_val, best_witness)

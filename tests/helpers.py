"""Shared generators and geometry helpers for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sympack import certifier, planner, toric
from sympack.cremona import REASON_MU_EXHAUSTED, REASON_NEGATIVE, REASON_VOLUME
from sympack.lattice import BlowupForm
from sympack.rationals import sqrt_upper
from sympack.weights import ellipsoid_weights


def rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction,
                  max_den: int = 60) -> Fraction:
    """Uniform-ish rational strictly inside (lo, hi) with bounded denominator."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(2, max_den)
    lo_num = int(lo * den) + 1
    hi_num = -int(-hi * den) - 1          # ceil - 1
    if hi_num < lo_num:
        return (lo + hi) / 2
    return Fraction(rng.randint(lo_num, hi_num), den)


def reference_reduce(mu, lambdas, strict_volume: bool = False):
    """The Cremona reduction written plainly on Fractions, as a test oracle.

    Returns (verdict, reason, volume_ok, steps) with each step a tuple
    (before_mu, before_lambdas, defect, after_mu, after_lambdas); ``before``
    is sorted and zero-padded to three entries, ``after`` is the moved
    vector before re-sorting.
    """
    mu, lams = Fraction(mu), [Fraction(l) for l in lambdas]
    total, top = sum(l * l for l in lams), mu * mu
    vol_ok = total < top if strict_volume else total <= top
    lams = sorted(lams, reverse=True)
    steps = []
    if any(l < 0 for l in lams):
        return "rejected", REASON_NEGATIVE, vol_ok, steps
    lams += [Fraction(0)] * (3 - len(lams))
    while True:
        delta = mu - sum(lams[:3])
        if delta >= 0:
            steps.append((mu, tuple(lams), delta, mu, tuple(lams)))
            if vol_ok:
                return "accepted", None, vol_ok, steps
            return "rejected", REASON_VOLUME, vol_ok, steps
        after = [l + delta for l in lams[:3]] + lams[3:]
        steps.append((mu, tuple(lams), delta, mu + delta, tuple(after)))
        mu += delta
        if any(l < 0 for l in after):
            return "rejected", REASON_NEGATIVE, vol_ok, steps
        if mu <= 0 and any(l > 0 for l in after):
            return "rejected", REASON_MU_EXHAUSTED, vol_ok, steps
        lams = sorted(after, reverse=True)


def reference_decide(t, balls):
    """``certifier.decide_packing`` written plainly on Fractions.

    The target is P^2(mu) minus the balls of its complement: the weights of
    one or two ellipsoids from ``ellipsoid_weights``, or the blown-up balls.
    Those and the positive balls, each divided by mu, are reduced by
    ``reference_reduce``, whose tuple is returned.
    """
    if isinstance(t, BlowupForm):
        mu, cut = Fraction(1), t.lambdas
    elif isinstance(t, toric.Ball):
        mu, cut = t.capacity, ()
    elif isinstance(t, toric.Ellipsoid):
        mu, small = max(t.a, t.b), min(t.a, t.b)
        cut = ellipsoid_weights(mu - small, mu) if small < mu else ()
    else:
        mu = t.alpha + t.beta
        cut = (ellipsoid_weights(mu - t.a, t.alpha)
               + ellipsoid_weights(mu - t.b, t.beta))
    capacities = [Fraction(b) for b in balls]
    entries = [w / mu for w in cut] + [b / mu for b in capacities if b > 0]
    return reference_reduce(1, entries)


def reference_decide_ellipsoid(a, balls):
    """``certifier.decide_balls_into_ellipsoid``: the decision for E(1, a)."""
    return reference_decide(toric.Ellipsoid(1, a), balls)


def reference_blowup_bound(kappa_sq, p, precision=None) -> Fraction:
    """(1-kappa)/(3+sqrt(p)) from the two rounded-up roots of ``sqrt_upper``."""
    return ((1 - sqrt_upper(Fraction(kappa_sq), precision))
            / (3 + sqrt_upper(p, precision)))


def reference_weight_sequence(a) -> tuple[Fraction, ...]:
    """Weights of E(1,a) by one Fraction subtraction per weight."""
    x, y = Fraction(a), Fraction(1)
    weights = []
    while x > 0:
        if x < y:
            x, y = y, x
        weights.append(y)
        x -= y
    return tuple(weights)


def reference_lambda_bound(t, mode, precision=None) -> Fraction:
    """The threshold of ``certifier.lambda_bound`` computed on Fractions."""
    if isinstance(t, BlowupForm):
        bound = reference_blowup_bound(sum(l * l for l in t.lambdas),
                                       len(t.lambdas), precision)
    elif isinstance(t, toric.Ball):
        bound = t.capacity / 3
    elif isinstance(t, toric.Ellipsoid):
        small, big = min(t.a, t.b), max(t.a, t.b)
        c = big / small
        bound = small / 3 if c == 1 else big * reference_blowup_bound(
            (c - 1) / c, len(reference_weight_sequence(c / (c - 1))), precision)
    else:
        mu = t.alpha + t.beta
        e1, e2 = (mu - t.a, t.alpha), (mu - t.b, t.beta)
        p = sum(len(reference_weight_sequence(max(e) / min(e))) for e in (e1, e2))
        bound = mu * reference_blowup_bound(
            (e1[0] * e1[1] + e2[0] * e2[1]) / mu ** 2, p, precision)
    return bound / 2 if mode == certifier.CONSERVATIVE else bound


def reference_certify_packing(t, balls, mode, precision=None):
    """The certificate of ``certifier.certify_packing``, one ball at a time."""
    capacities = tuple(Fraction(b) for b in balls)
    if any(b <= 0 for b in capacities):
        raise ValueError("ball capacities must be > 0")
    threshold = reference_lambda_bound(t, mode, precision)
    checks = tuple(certifier.BallCheck(b, b < threshold) for b in capacities)
    slack = certifier.target_volume(t) - sum((b * b for b in capacities),
                                             Fraction(0)) / 2
    reasons = [f"capacity {chk.capacity} >= threshold {threshold}"
               for chk in checks if not chk.below_threshold]
    if slack < 0:
        reasons.append(f"volume obstruction fails by {-slack}")
    return certifier.Certificate(
        t, threshold, mode, capacities, checks, slack,
        "NOT_CERTIFIED" if reasons else "CERTIFIED", tuple(reasons))


def rand_pseudo_ball(rng: random.Random) -> toric.PseudoBall:
    alpha = rand_fraction(rng, Fraction(1, 100), Fraction(2))
    beta = rand_fraction(rng, Fraction(1, 100), Fraction(2))
    a = rand_fraction(rng, alpha, alpha + beta, max_den=200)
    b = rand_fraction(rng, beta, alpha + beta, max_den=200)
    return toric.PseudoBall(a, b, alpha, beta)


def rand_polarization(rng: random.Random, min_curves: int = 2,
                      max_curves: int = 5) -> planner.Polarization:
    l = rng.randint(min_curves, max_curves)
    residues = [Fraction(rng.randint(1, 8), 40) for _ in range(l)]
    top = max(residues)
    curves = []
    for i in range(l):
        area = 10 * top + Fraction(rng.randint(1, 80), 8)
        curves.append(planner.Curve(area, residues[i]))
    return planner.Polarization(tuple(curves))


def point_polygon_distance(pt, vertices) -> float:
    """Euclidean distance from pt to the boundary of the polygon."""
    px, py = float(pt[0]), float(pt[1])
    best = math.inf
    n = len(vertices)
    for i in range(n):
        ax, ay = map(float, vertices[i])
        bx, by = map(float, vertices[(i + 1) % n])
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
        qx, qy = ax + t * dx, ay + t * dy
        best = min(best, math.hypot(px - qx, py - qy))
    return best


def classify_by_flow(fixed, point, disc_r1, disc_r2, tol: float = 1e-9) -> bool:
    """Backward-iterate ``planner.liouville_flow`` from ``point`` to an axis exit.

    ``disc_r1`` is the extent of the target disc on the R2 = 0 axis (None if
    no disc lies there), ``disc_r2`` likewise on R1 = 0.  Returns True when
    the backward ray leaves the quadrant through one of the discs, i.e. the
    point lies in the basin.
    """
    f1, f2 = float(fixed[0]), float(fixed[1])
    r1, r2 = float(point[0]), float(point[1])
    scale = max(1.0, abs(r1), abs(r2), f1, f2)

    def backward(t):
        q1, _, q2, _ = planner.liouville_flow((f1, f2), (r1, 0.0, r2, 0.0), -t)
        return q1, q2

    t = 0.0
    step = 0.05
    limit = 1e6
    for _ in range(10000):
        nt = t + step
        n1, n2 = backward(nt)
        if n1 < 0 or n2 < 0:
            # bisect the crossing time of whichever axis is hit first
            lo, hi = t, nt
            while hi - lo > 1e-15:
                mid = (lo + hi) / 2
                m1, m2 = backward(mid)
                if m1 < 0 or m2 < 0:
                    hi = mid
                else:
                    lo = mid
            e1, e2 = backward(lo)
            if e1 <= tol * scale:
                return disc_r2 is not None and e2 < disc_r2
            if e2 <= tol * scale:
                return disc_r1 is not None and e1 < disc_r1
            return False
        if abs(n1) > limit or abs(n2) > limit:
            return False
        t = nt
    return False

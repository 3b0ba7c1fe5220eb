"""Shared generators and geometry helpers for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sympack import certifier, planner, toric
from sympack.cremona import REASON_NEGATIVE, REASON_VOLUME
from sympack.lattice import BlowupForm
from sympack.rationals import sqrt_bounds
from sympack.weights import ellipsoid_weights

# the oracle's own reason; the integer kernel can never reach it
REASON_MU_EXHAUSTED = "mu exhausted"


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


def reference_reduce(mu, lambdas):
    """The Cremona reduction written plainly on Fractions, as a test oracle.

    Returns (verdict, reason, volume_ok, steps) with each step a tuple
    (before_mu, before_lambdas, defect, after_mu, after_lambdas); ``before``
    is sorted and zero-padded to three entries, ``after`` is the moved
    vector before re-sorting.
    """
    mu, lams = Fraction(mu), [Fraction(l) for l in lambdas]
    vol_ok = sum(l * l for l in lams) <= mu * mu
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
    """(1-kappa)/(3+sqrt(p)) from the two rounded-up roots of ``sqrt_bounds``."""
    return ((1 - sqrt_bounds(Fraction(kappa_sq), precision)[1])
            / (3 + sqrt_bounds(p, precision)[1]))


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


# --- moment polygons, as the oracle for volumes and for basins -----------

def moment_vertices(d) -> tuple:
    """Counter-clockwise vertices of the image of ``d`` under
    (pi|z|^2, pi|w|^2)."""
    zero = Fraction(0)
    if isinstance(d, toric.PseudoBall):
        # Conv<(0,0),(b,0),(alpha,beta),(0,a)>
        return ((zero, zero), (d.b, zero), (d.alpha, d.beta), (zero, d.a))
    if isinstance(d, toric.Ellipsoid):
        a, b = d.a, d.b
    else:
        a = b = d.capacity if isinstance(d, toric.Ball) else d.scale
    return ((zero, zero), (a, zero), (zero, b))


def polygon_area(vertices) -> Fraction:
    """Signed shoelace area, positive for counter-clockwise order; 0 for
    fewer than three vertices."""
    n = len(vertices)
    twice = Fraction(0)
    for i in range(n if n >= 3 else 0):
        (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return twice / 2


def polygon_contains(vertices, x, y) -> bool:
    """Point in a counter-clockwise convex polygon, boundary included."""
    n = len(vertices)
    return n >= 3 and all(
        (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0
        for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]))


def reference_volume(t) -> Fraction:
    """vol(t) from the blown-up sizes or the moment polygon, not the
    complement."""
    if isinstance(t, BlowupForm):
        return (1 - sum((l * l for l in t.lambdas), Fraction(0))) / 2
    return polygon_area(moment_vertices(t))


def reference_certify_packing(t, balls, mode, precision=None):
    """The certificate of ``certifier.certify_packing``, one ball at a time."""
    capacities = tuple(Fraction(b) for b in balls)
    if any(b <= 0 for b in capacities):
        raise ValueError("ball capacities must be > 0")
    threshold = reference_lambda_bound(t, mode, precision)
    checks = tuple(certifier.BallCheck(b, b < threshold) for b in capacities)
    slack = reference_volume(t) - sum((b * b for b in capacities),
                                      Fraction(0)) / 2
    reasons = [f"capacity {chk.capacity} >= threshold {threshold}"
               for chk in checks if not chk.below_threshold]
    if slack < 0:
        reasons.append(f"volume obstruction fails by {-slack}")
    return certifier.Certificate(
        t, threshold, mode, checks, slack,
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


# --- the planner written plainly on Fractions, as a test oracle ------------

def reference_validate_allocation(pol, alloc) -> list[str]:
    """``planner.validate_allocation``: one Fraction comparison per check."""
    errors = []
    l = len(pol)
    if len(alloc.main) != l:
        return [f"allocation for {len(alloc.main)} curves, polarization has {l}"]
    for i, curve in enumerate(pol.curves):
        a_i = curve.residue
        a_next = pol.curves[(i + 1) % l].residue
        a_prev = pol.curves[(i - 1) % l].residue
        if alloc.main[i] <= 0:
            errors.append(f"curve {i}: main disc area {alloc.main[i]} not > 0")
        if not a_i < alloc.next[i] < a_i + a_next:
            errors.append(
                f"curve {i}: next disc {alloc.next[i]} outside "
                f"]{a_i}, {a_i + a_next}[")
        if not a_i < alloc.prev[i] < a_i + a_prev:
            errors.append(
                f"curve {i}: prev disc {alloc.prev[i]} outside "
                f"]{a_i}, {a_i + a_prev}[")
        if alloc.main[i] + alloc.prev[i] + alloc.next[i] != curve.area:
            errors.append(
                f"curve {i}: disc areas sum to "
                f"{alloc.main[i] + alloc.prev[i] + alloc.next[i]}, "
                f"area is {curve.area}")
    return errors


def _reference_require_allocation(pol, alloc):
    errors = reference_validate_allocation(pol, alloc)
    if errors:
        raise planner.AllocationError("; ".join(errors))


def reference_build_pieces(pol, alloc) -> list:
    """``planner.build_pieces``: each volume is the moment polygon's area."""
    _reference_require_allocation(pol, alloc)
    l = len(pol)
    pieces = []
    for i, curve in enumerate(pol.curves):
        e = toric.Ellipsoid(alloc.main[i], curve.residue)
        pieces.append(planner.Piece("ellipsoid", e, reference_volume(e),
                                    f"E{i + 1}"))
        j = (i + 1) % l
        t = toric.PseudoBall(alloc.prev[j], alloc.next[i],
                             pol.curves[j].residue, curve.residue)
        pieces.append(planner.Piece("cross", t, reference_volume(t),
                                    f"T{i + 1},{j + 1}"))
    return pieces


def reference_perturb(pol, alloc, targets):
    """``planner.perturb_allocation``: the cascade on Fractions, with the
    plan volume summed over freshly built pieces."""
    targets = [Fraction(t) for t in targets]
    l = len(pol)
    pieces = reference_build_pieces(pol, alloc)
    if len(targets) != len(pieces):
        raise planner.AllocationError(
            f"{len(pieces)} pieces but {len(targets)} targets")
    total = sum((p.volume for p in pieces), Fraction(0))
    if sum(targets, Fraction(0)) != total:
        raise planner.ClosureError(
            f"targets sum to {sum(targets, Fraction(0))}, plan volume is {total}")
    alphas = [c.residue for c in pol.curves]
    new_main = [Fraction(0)] * l
    new_prev = list(alloc.prev)
    new_next = [Fraction(0)] * l
    new_main[0] = 2 * targets[0] / alphas[0]
    new_next[0] = pol.curves[0].area - new_prev[0] - new_main[0]
    for j in range(1, l):
        new_prev[j] = (2 * targets[2 * j - 1]
                       - new_next[j - 1] * alphas[j - 1]) / alphas[j]
        new_main[j] = 2 * targets[2 * j] / alphas[j]
        new_next[j] = pol.curves[j].area - new_prev[j] - new_main[j]
    closing = (new_next[l - 1] * alphas[l - 1] + new_prev[0] * alphas[0]) / 2
    if closing != targets[2 * l - 1]:
        raise planner.ClosureError(f"cascade closes at {closing}, "
                                   f"last cross target is {targets[2 * l - 1]}")
    perturbed = planner.DiscAllocation(tuple(new_main), tuple(new_prev),
                                       tuple(new_next))
    errors = reference_validate_allocation(pol, perturbed)
    if errors:
        raise planner.AllocationError(
            "perturbed allocation invalid: " + "; ".join(errors))
    return perturbed


def reference_compute_delta(pol, alloc) -> Fraction:
    """``planner.compute_delta``: each candidate slack / (c_j / alpha_j)."""
    _reference_require_allocation(pol, alloc)
    l = len(pol)
    alphas = [c.residue for c in pol.curves]
    cands = []
    for j in range(l):
        a_j, a_next, a_prev = alphas[j], alphas[(j + 1) % l], alphas[(j - 1) % l]
        cands.append(alloc.main[j] / (Fraction(2) / a_j))
        next_slack = min(alloc.next[j] - a_j, a_j + a_next - alloc.next[j])
        cands.append(next_slack / (Fraction(4 * j + 2) / a_j))
        if j >= 1:
            prev_slack = min(alloc.prev[j] - a_j, a_j + a_prev - alloc.prev[j])
            cands.append(prev_slack / (Fraction(4 * j) / a_j))
    if not cands:
        raise planner.AllocationError(
            "allocation has no curves: delta is unconstrained")
    return min(cands)


def reference_partition(balls, piece_volumes, delta, pad=False):
    """``planner.partition_balls`` on Fractions, one deficit list per ball;
    the padding is counted by emitting it."""
    delta = Fraction(delta)
    if delta <= 0:
        raise planner.PartitionError("delta must be > 0")
    caps = [Fraction(b) for b in balls]
    vols = [c * c / 2 for c in caps]
    targets = [Fraction(v) for v in piece_volumes]
    if not targets:
        raise planner.PartitionError("no pieces to fill")
    for i, v in enumerate(vols):
        if all(v > t + delta for t in targets):
            raise planner.PartitionError(
                f"ball {i} (volume {v}) exceeds every piece volume + delta")
    if sum(vols, Fraction(0)) > sum(targets, Fraction(0)):
        raise planner.PartitionError("total ball volume exceeds total piece volume")
    order = sorted(range(len(caps)), key=lambda i: vols[i], reverse=True)
    subsets = [[] for _ in targets]
    filled = [Fraction(0)] * len(targets)
    for i in order:
        deficits = [t - f for t, f in zip(targets, filled)]
        j = max(range(len(targets)), key=lambda k: (deficits[k], -k))
        subsets[j].append(i)
        filled[j] += vols[i]
    fillers = []
    if pad:
        for j, (t, f) in enumerate(zip(targets, filled)):
            deficit = t - f
            while deficit > 0:
                chunk = min(deficit, delta / 2) if deficit > delta else deficit
                fillers.append(planner.Filler(j, chunk))
                filled[j] += chunk
                deficit -= chunk
        if len(fillers) > planner.MAX_FILLERS:
            raise planner.PartitionError(
                f"padding needs {len(fillers)} filler balls, more than "
                f"{planner.MAX_FILLERS}; add balls to fill the pieces")
    for j, (t, f) in enumerate(zip(targets, filled)):
        if abs(t - f) > delta:
            raise planner.PartitionError(
                f"piece {j}: subset volume {f} misses target {t} by more "
                f"than delta = {delta}; pass pad=True or add balls")
    return planner.PartitionResult(subsets, filled, fillers)


def outcome(fn, *args, **kwargs):
    """("ok", value) of a call, or (exception type, message) when it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:           # the type and message are compared
        return type(exc), str(exc)

"""Decomposition of a polarized closed 4-manifold into toric pieces.

A singular polarization (curves with areas and residues, cyclically
intersecting) is cut into attracting basins of discs and crosses: the
basin of a disc of area A on a curve of residue alpha is the ellipsoid
E(A, alpha); the basin of a cross at an intersection point is a
pseudo-ball.  Piece volumes add up to the manifold volume exactly.  A
cascade perturbation retargets piece volumes while keeping the disc areas
admissible, and the planner's stability constant is the minimum of the
per-piece certified bounds and the ball size sqrt(2*delta) that the
retargeting slack delta absorbs.

Argument-order convention for crosses: the basin of a cross of discs
(a_i on a curve of residue alpha_i, a_j on residue alpha_j) is the
pseudo-ball over Conv<(0,0),(a_i,0),(0,a_j),(alpha_j,alpha_i)>, i.e.
T(a_j, a_i, alpha_j, alpha_i), each disc paired with its own curve's
residue.  Only this pairing makes the total-volume identity exact; every
plan reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import certifier, toric
from .rationals import sqrt_lower

CROSS_CONVENTION = ("cross basin T(a_j, a_i, alpha_j, alpha_i); "
                    "disc areas admissible in ]alpha_own, alpha_own+alpha_other[")


class PolarizationError(ValueError):
    pass


class AllocationError(ValueError):
    pass


class ClosureError(AllocationError):
    """Perturbation targets whose total differs from the plan's volume."""


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    area: Fraction
    residue: Fraction

    def __post_init__(self):
        object.__setattr__(self, "area", Fraction(self.area))
        object.__setattr__(self, "residue", Fraction(self.residue))


@dataclass(frozen=True)
class Polarization:
    """Curves in cyclic order; x_i is the chosen point of curve i ∩ curve i+1."""

    curves: tuple[Curve, ...]
    total_volume: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.total_volume is not None:
            object.__setattr__(self, "total_volume", Fraction(self.total_volume))

    def __len__(self):
        return len(self.curves)

    @property
    def implied_volume(self) -> Fraction:
        return sum((c.residue * c.area for c in self.curves), Fraction(0)) / 2


def validate_polarization(p: Polarization) -> list[str]:
    """List of violated conditions (empty means valid)."""
    errors = []
    if not p.curves:
        errors.append("polarization has no curves")
        return errors
    for i, c in enumerate(p.curves):
        if c.area <= 0:
            errors.append(f"curve {i}: area {c.area} not > 0")
        if c.residue <= 0:
            errors.append(f"curve {i}: residue {c.residue} not > 0")
    max_residue = max(c.residue for c in p.curves)
    for i, c in enumerate(p.curves):
        if c.area < 10 * max_residue:
            errors.append(
                f"curve {i}: area {c.area} < 10 * max residue {max_residue}")
    if p.total_volume is not None and p.total_volume != p.implied_volume:
        errors.append(
            f"declared volume {p.total_volume} != implied {p.implied_volume}")
    return errors


def liouville_flow(fixed, state, t):
    """Explicit trajectory of the contracting Liouville field.

    fixed = (R1*, R2*) is the stationary point; state = (R1, th1, R2, th2).
    Time t may be any real; t = 0 is the identity.
    """
    f1, f2 = fixed
    r1, th1, r2, th2 = state
    if t == 0:
        return (r1, th1, r2, th2)
    s = math.exp(-t)
    return (f1 + (r1 - f1) * s, th1, f2 + (r2 - f2) * s, th2)


def basin_of_disc(a, alpha) -> toric.Ellipsoid:
    """Basin of a disc of area a on a curve of residue alpha."""
    return toric.Ellipsoid(a, alpha)


def basin_of_cross(a_i, alpha_i, a_j, alpha_j) -> toric.PseudoBall:
    """Basin of a cross of discs a_i, a_j on curves of residues alpha_i, alpha_j.

    Requires a_i in ]alpha_i, alpha_i+alpha_j[ and a_j in
    ]alpha_j, alpha_j+alpha_i[; volume (a_i alpha_i + a_j alpha_j)/2.
    """
    return toric.PseudoBall(Fraction(a_j), Fraction(a_i),
                            Fraction(alpha_j), Fraction(alpha_i))


@dataclass(frozen=True)
class DiscAllocation:
    """Per curve i: main disc, disc at x_{i-1} (prev), disc at x_i (next)."""

    main: tuple[Fraction, ...]
    prev: tuple[Fraction, ...]
    next: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("main", "prev", "next"):
            object.__setattr__(self, name,
                               tuple(Fraction(x) for x in getattr(self, name)))
        if not len(self.main) == len(self.prev) == len(self.next):
            raise AllocationError("allocation arrays must have equal length")


def _require_valid(pol: Polarization):
    errors = validate_polarization(pol)
    if errors:
        raise PolarizationError("; ".join(errors))
    if len(pol) < 2:
        raise PolarizationError(
            "cyclic disc planning needs at least 2 curves")


def validate_allocation(pol: Polarization, alloc: DiscAllocation) -> list[str]:
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


def plan_discs(pol: Polarization) -> DiscAllocation:
    """Default heuristic: every cross disc at the midpoint of its interval."""
    _require_valid(pol)
    l = len(pol)
    nxt, prv, main = [], [], []
    for i, curve in enumerate(pol.curves):
        a_i = curve.residue
        nxt.append(a_i + pol.curves[(i + 1) % l].residue / 2)
        prv.append(a_i + pol.curves[(i - 1) % l].residue / 2)
    for i, curve in enumerate(pol.curves):
        m = curve.area - prv[i] - nxt[i]
        if m <= 0:
            raise AllocationError(
                f"curve {i}: cross discs already exceed area {curve.area}")
        main.append(m)
    alloc = DiscAllocation(tuple(main), tuple(prv), tuple(nxt))
    errors = validate_allocation(pol, alloc)
    if errors:
        raise AllocationError("; ".join(errors))
    return alloc


@dataclass(frozen=True)
class Piece:
    kind: str                      # "ellipsoid" | "cross"
    domain: toric.Ellipsoid | toric.PseudoBall
    volume: Fraction
    label: str


def build_pieces(pol: Polarization, alloc: DiscAllocation) -> list[Piece]:
    """Pieces in cascade order E_1, T_1, E_2, T_2, ..., E_l, T_l."""
    errors = validate_allocation(pol, alloc)
    if errors:
        raise AllocationError("; ".join(errors))
    l = len(pol)
    pieces = []
    for i, curve in enumerate(pol.curves):
        e = basin_of_disc(alloc.main[i], curve.residue)
        pieces.append(Piece("ellipsoid", e, toric.volume(e), f"E{i + 1}"))
        j = (i + 1) % l
        t = basin_of_cross(alloc.next[i], curve.residue,
                           alloc.prev[j], pol.curves[j].residue)
        pieces.append(Piece("cross", t, toric.volume(t),
                            f"T{i + 1},{j + 1}"))
    return pieces


def perturb_allocation(pol: Polarization, alloc: DiscAllocation,
                       targets) -> DiscAllocation:
    """Retarget piece volumes exactly by cascading disc-area adjustments.

    ``targets`` lists the desired piece volumes in cascade order
    (E_1, T_1, E_2, T_2, ...); their total must equal the current total
    exactly, which makes the final cross close by itself.  Raises if any
    adjusted disc leaves its admissible interval.
    """
    targets = [Fraction(t) for t in targets]
    l = len(pol)
    pieces = build_pieces(pol, alloc)
    if len(targets) != len(pieces):
        raise AllocationError(
            f"{len(pieces)} pieces but {len(targets)} targets")
    total = sum((p.volume for p in pieces), Fraction(0))
    if sum(targets, Fraction(0)) != total:
        raise ClosureError(
            f"targets sum to {sum(targets, Fraction(0))}, plan volume is {total}")

    alphas = [c.residue for c in pol.curves]
    new_main = [Fraction(0)] * l
    new_prev = list(alloc.prev)        # prev[0] stays fixed
    new_next = [Fraction(0)] * l
    new_main[0] = 2 * targets[0] / alphas[0]
    new_next[0] = pol.curves[0].area - new_prev[0] - new_main[0]
    for j in range(1, l):
        cross_target = targets[2 * j - 1]
        new_prev[j] = (2 * cross_target
                       - new_next[j - 1] * alphas[j - 1]) / alphas[j]
        new_main[j] = 2 * targets[2 * j] / alphas[j]
        new_next[j] = pol.curves[j].area - new_prev[j] - new_main[j]
    closing = (new_next[l - 1] * alphas[l - 1] + new_prev[0] * alphas[0]) / 2
    if closing != targets[2 * l - 1]:
        raise ClosureError(f"cascade closes at {closing}, "
                           f"last cross target is {targets[2 * l - 1]}")

    perturbed = DiscAllocation(tuple(new_main), tuple(new_prev), tuple(new_next))
    errors = validate_allocation(pol, perturbed)
    if errors:
        raise AllocationError("perturbed allocation invalid: " + "; ".join(errors))
    return perturbed


def compute_delta(pol: Polarization, alloc: DiscAllocation) -> Fraction:
    """Largest uniform volume retarget every piece can absorb.

    Worst-case linear propagation of the cascade: retargeting piece
    volumes by up to +-delta shifts the disc at curve j by at most
    coef_j * delta; delta is the minimum constraint slack over these
    sensitivities.  This slack definition is this artifact's own.
    """
    errors = validate_allocation(pol, alloc)
    if errors:
        raise AllocationError("; ".join(errors))
    l = len(pol)
    alphas = [c.residue for c in pol.curves]
    best = None

    def consider(slack: Fraction, coef: Fraction):
        nonlocal best
        cand = slack / coef
        if best is None or cand < best:
            best = cand

    for j in range(l):
        a_j = alphas[j]
        a_next = alphas[(j + 1) % l]
        a_prev = alphas[(j - 1) % l]
        consider(alloc.main[j], Fraction(2) / a_j)
        next_slack = min(alloc.next[j] - a_j, a_j + a_next - alloc.next[j])
        consider(next_slack, Fraction(4 * j + 2) / a_j)
        if j >= 1:
            prev_slack = min(alloc.prev[j] - a_j, a_j + a_prev - alloc.prev[j])
            consider(prev_slack, Fraction(4 * j) / a_j)
    if best is None:
        raise AllocationError("allocation has no curves: delta is unconstrained")
    return best


@dataclass(frozen=True)
class DecompositionPlan:
    pieces: tuple[Piece, ...]
    delta: Fraction | None             # None means unconstrained (infinite)
    lambda_pieces: Fraction
    lambda_prime: Fraction
    mode: str
    convention: str = CROSS_CONVENTION


def build_plan(pol: Polarization, alloc: DiscAllocation | None = None,
               mode: str = certifier.CONSERVATIVE,
               precision: int | None = None) -> DecompositionPlan:
    _require_valid(pol)
    if alloc is None:
        alloc = plan_discs(pol)
    pieces = build_pieces(pol, alloc)
    lam_pieces = min(certifier.lambda_bound(p.domain, mode, precision)
                     for p in pieces)
    delta = compute_delta(pol, alloc)
    lam_prime = min(lam_pieces, sqrt_lower(2 * delta, precision))
    return DecompositionPlan(tuple(pieces), delta, lam_pieces, lam_prime, mode)


@dataclass(frozen=True)
class Filler:
    piece: int
    volume: Fraction

    @property
    def capacity_sq(self) -> Fraction:
        return 2 * self.volume


@dataclass
class PartitionResult:
    subsets: list[list[int]]           # ball indices per piece
    subset_volumes: list[Fraction]
    fillers: list[Filler] = field(default_factory=list)


def partition_balls(balls, piece_volumes, delta, pad: bool = False) -> PartitionResult:
    """Greedy largest-ball-first partition into the most deficient piece.

    ``balls`` are capacities; a ball of capacity c has volume c^2/2.  With
    ``pad`` the remaining deficits are filled exactly by synthetic balls of
    volume < delta each.  Raises if any subset ends further than delta from
    its piece volume.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise PartitionError("delta must be > 0")
    caps = [Fraction(b) for b in balls]
    vols = [c * c / 2 for c in caps]
    targets = [Fraction(v) for v in piece_volumes]
    if not targets:
        raise PartitionError("no pieces to fill")
    for i, v in enumerate(vols):
        if all(v > t + delta for t in targets):
            raise PartitionError(
                f"ball {i} (volume {v}) exceeds every piece volume + delta")
    if sum(vols, Fraction(0)) > sum(targets, Fraction(0)):
        raise PartitionError("total ball volume exceeds total piece volume")

    order = sorted(range(len(caps)), key=lambda i: vols[i], reverse=True)
    subsets: list[list[int]] = [[] for _ in targets]
    filled = [Fraction(0)] * len(targets)
    for i in order:
        deficits = [t - f for t, f in zip(targets, filled)]
        j = max(range(len(targets)), key=lambda k: (deficits[k], -k))
        subsets[j].append(i)
        filled[j] += vols[i]

    fillers: list[Filler] = []
    if pad:
        for j, (t, f) in enumerate(zip(targets, filled)):
            deficit = t - f
            while deficit > 0:
                chunk = min(deficit, delta / 2) if deficit > delta else deficit
                fillers.append(Filler(j, chunk))
                filled[j] += chunk
                deficit -= chunk

    for j, (t, f) in enumerate(zip(targets, filled)):
        if abs(t - f) > delta:
            raise PartitionError(
                f"piece {j}: subset volume {f} misses target {t} by more "
                f"than delta = {delta}; pass pad=True or add balls")
    return PartitionResult(subsets, filled, fillers)

"""Decomposition of a polarized closed 4-manifold into toric pieces.

A singular polarization (curves with areas and residues, cyclically
intersecting) is cut into attracting basins of discs and crosses: the
basin of a disc of area A on a curve of residue alpha is the ellipsoid
E(A, alpha) (Buse-Hind, arXiv:1112.1149); the basin of a cross at an
intersection point is a pseudo-ball (Cristofaro-Gardiner,
arXiv:1409.4378).  A disc allocation gives curve i a main disc and one
cross disc at each of its two intersection points, prev_i at x_{i-1} and
next_i at x_i, with main_i + prev_i + next_i = area_i.

One integer grid.  The areas, residues and disc areas of a polarization
and its allocation are scaled once by d, the lcm of their denominators,
by ``rationals.to_grid``, as for a packing vector.  Every allocation
check and piece formula below compares or combines those integers, a
message is built only for a check that fails, and each public call builds
its Fractions once, at the end.

One piece-volume formula.  With alpha_i the residue of curve i, the
ellipsoid E_i has volume main_i alpha_i / 2 and the cross T_i between
curves i and i+1 has volume (next_i alpha_i + prev_{i+1} alpha_{i+1}) / 2.

Implied volume.  Summed over the cascade E_1, T_1, ..., E_l, T_l these
are sum_i alpha_i (main_i + prev_i + next_i) / 2 = sum_i alpha_i area_i / 2,
the polarization's implied volume, for every valid allocation.  A cascade
perturbation retargets piece volumes while keeping the disc areas
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
from .rationals import exact, exact_fields, exact_tuple, sqrt_bounds, to_grid

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


MAX_FILLERS = 10 ** 5           # filler balls one padded partition may emit


@dataclass(frozen=True)
class Curve:
    area: Fraction
    residue: Fraction

    def __post_init__(self):
        exact_fields(self, "area", "residue")


@dataclass(frozen=True)
class Polarization:
    """Curves in cyclic order; x_i is the chosen point of curve i ∩ curve i+1."""

    curves: tuple[Curve, ...]
    total_volume: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.total_volume is not None:
            exact_fields(self, "total_volume")

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
    return toric.PseudoBall(a_j, a_i, alpha_j, alpha_i)


@dataclass(frozen=True)
class DiscAllocation:
    """Per curve i: main disc, disc at x_{i-1} (prev), disc at x_i (next)."""

    main: tuple[Fraction, ...]
    prev: tuple[Fraction, ...]
    next: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("main", "prev", "next"):
            object.__setattr__(self, name, exact_tuple(getattr(self, name)))
        if not len(self.main) == len(self.prev) == len(self.next):
            raise AllocationError("allocation arrays must have equal length")


def _require_valid(pol: Polarization):
    errors = validate_polarization(pol)
    if errors:
        raise PolarizationError("; ".join(errors))
    if len(pol) < 2:
        raise PolarizationError(
            "cyclic disc planning needs at least 2 curves")


class _Grid:
    """A polarization and its allocation as integers over one denominator d.

    ``extra`` values, if any, join the grid; they come back as
    ``self.extra``.
    """

    def __init__(self, pol: Polarization, alloc: DiscAllocation, extra=()):
        self.pol, self.alloc = pol, alloc
        self.d, (self.area, self.alpha, self.main, self.prev, self.next,
                 self.extra) = to_grid(
            [c.area for c in pol.curves], [c.residue for c in pol.curves],
            alloc.main, alloc.prev, alloc.next, extra)

    def errors(self) -> list[str]:
        """The violated admissibility conditions of the allocation."""
        pol, alloc, d = self.pol, self.alloc, self.d
        alpha = self.alpha
        l = len(alpha)
        if len(alloc.main) != l:
            return [f"allocation for {len(alloc.main)} curves, polarization has {l}"]
        errors = []
        for i, (m, p, n) in enumerate(zip(self.main, self.prev, self.next)):
            a_i, a_next, a_prev = alpha[i], alpha[(i + 1) % l], alpha[i - 1]
            if m <= 0:
                errors.append(f"curve {i}: main disc area {alloc.main[i]} not > 0")
            if not a_i < n < a_i + a_next:
                errors.append(
                    f"curve {i}: next disc {alloc.next[i]} outside "
                    f"]{pol.curves[i].residue}, {Fraction(a_i + a_next, d)}[")
            if not a_i < p < a_i + a_prev:
                errors.append(
                    f"curve {i}: prev disc {alloc.prev[i]} outside "
                    f"]{pol.curves[i].residue}, {Fraction(a_i + a_prev, d)}[")
            if m + p + n != self.area[i]:
                errors.append(
                    f"curve {i}: disc areas sum to {Fraction(m + p + n, d)}, "
                    f"area is {pol.curves[i].area}")
        return errors

    def pieces(self) -> list[Piece]:
        """Pieces in cascade order E_1, T_1, E_2, T_2, ..., E_l, T_l.

        E_i has volume main_i alpha_i / 2 and T_i has volume
        (next_i alpha_i + prev_{i+1} alpha_{i+1}) / 2, both taken on the
        grid.
        """
        pol, alloc = self.pol, self.alloc
        alpha, den = self.alpha, 2 * self.d * self.d
        l = len(alpha)
        pieces = []
        for i, curve in enumerate(pol.curves):
            j = (i + 1) % l
            pieces.append(Piece(
                "ellipsoid", basin_of_disc(alloc.main[i], curve.residue),
                Fraction(self.main[i] * alpha[i], den), f"E{i + 1}"))
            pieces.append(Piece(
                "cross", basin_of_cross(alloc.next[i], curve.residue,
                                        alloc.prev[j], pol.curves[j].residue),
                Fraction(self.next[i] * alpha[i] + self.prev[j] * alpha[j], den),
                f"T{i + 1},{j + 1}"))
        return pieces

    def delta(self) -> Fraction:
        """The least candidate slack * alpha_j / c_j of ``compute_delta``.

        On the grid a candidate is slack alpha_j / (c_j d^2); candidates
        are compared by integer cross-multiplication.
        """
        alpha = self.alpha
        l = len(alpha)
        best_num = best_den = None
        for j, a_j in enumerate(alpha):
            n, p = self.next[j], self.prev[j]
            candidates = [(self.main[j], 2),
                          (min(n - a_j, a_j + alpha[(j + 1) % l] - n), 4 * j + 2)]
            if j >= 1:
                candidates.append((min(p - a_j, a_j + alpha[j - 1] - p), 4 * j))
            for slack, c in candidates:
                num = slack * a_j
                if best_num is None or num * best_den < best_num * c:
                    best_num, best_den = num, c
        if best_num is None:
            raise AllocationError("allocation has no curves: delta is unconstrained")
        return Fraction(best_num, best_den * self.d * self.d)


def _valid_grid(pol: Polarization, alloc: DiscAllocation, extra=()) -> _Grid:
    """The grid of an admissible allocation, else an AllocationError.

    Every residue of an admissible allocation is > 0: a residue
    alpha_i <= 0 leaves the prev interval ]alpha_j, alpha_j + alpha_i[ of
    the next curve j empty.
    """
    grid = _Grid(pol, alloc, extra)
    errors = grid.errors()
    if errors:
        raise AllocationError("; ".join(errors))
    return grid


def validate_allocation(pol: Polarization, alloc: DiscAllocation) -> list[str]:
    return _Grid(pol, alloc).errors()


def plan_discs(pol: Polarization) -> DiscAllocation:
    """Default heuristic: every cross disc at the midpoint of its interval.

    For a valid polarization the result is a valid allocation: each cross
    disc lies inside its interval, and the main disc area_i - 2 alpha_i -
    (alpha_{i-1} + alpha_{i+1}) / 2 is at least 7 max alpha > 0.
    """
    _require_valid(pol)
    d, (area, alpha) = to_grid([c.area for c in pol.curves],
                               [c.residue for c in pol.curves])
    l, den = len(alpha), 2 * d
    nxt = [2 * a + alpha[(i + 1) % l] for i, a in enumerate(alpha)]
    prv = [2 * a + alpha[i - 1] for i, a in enumerate(alpha)]
    return DiscAllocation(
        tuple(Fraction(2 * a - p - n, den) for a, p, n in zip(area, prv, nxt)),
        tuple(Fraction(p, den) for p in prv),
        tuple(Fraction(n, den) for n in nxt))


@dataclass(frozen=True)
class Piece:
    kind: str                      # "ellipsoid" | "cross"
    domain: toric.Ellipsoid | toric.PseudoBall
    volume: Fraction
    label: str


def build_pieces(pol: Polarization, alloc: DiscAllocation) -> list[Piece]:
    """Pieces in cascade order E_1, T_1, E_2, T_2, ..., E_l, T_l."""
    return _valid_grid(pol, alloc).pieces()


def perturb_allocation(pol: Polarization, alloc: DiscAllocation,
                       targets) -> DiscAllocation:
    """Retarget piece volumes exactly by cascading disc-area adjustments.

    ``targets`` lists the desired piece volumes in cascade order
    (E_1, T_1, E_2, T_2, ...); their total must equal the current total
    exactly, which makes the final cross close by itself.  Raises if any
    adjusted disc leaves its admissible interval.

    The current total needs no pieces: for a valid allocation it is
    sum_i main_i alpha_i/2 + sum_i (next_i alpha_i + prev_{i+1} alpha_{i+1})/2
    = sum_i alpha_i (main_i + prev_i + next_i)/2 = sum_i alpha_i area_i/2,
    which is ``pol.implied_volume``.

    On the grid area_j = A_j/d, alpha_j = R_j/d and t_k = T_k/d, and the
    cascade keeps X_j = next_j alpha_j d^2 and Y_j = prev_j alpha_j d^2 as
    integers: main_j = 2 T_2j / R_j, Y_j = 2 d T_2j-1 - X_j-1 and
    X_j = A_j R_j - Y_j - 2 d T_2j.  Summing these, X_l-1 + Y_0 = 2 d T_2l-1
    whenever the totals agree, so the final cross closes.
    """
    targets = [*map(exact, targets)]
    grid = _valid_grid(pol, alloc, targets)
    l = len(pol)
    if len(targets) != 2 * l:
        raise AllocationError(f"{2 * l} pieces but {len(targets)} targets")
    d, area, alpha, t = grid.d, grid.area, grid.alpha, grid.extra
    if 2 * d * sum(t) != sum(a * r for a, r in zip(area, alpha)):
        raise ClosureError(f"targets sum to {sum(targets, Fraction(0))}, "
                           f"plan volume is {pol.implied_volume}")

    new_main, new_prev, new_next = [], [alloc.prev[0]], []   # prev[0] stays fixed
    y = grid.prev[0] * alpha[0]
    for j, r in enumerate(alpha):
        if j:
            y = 2 * d * t[2 * j - 1] - x
            new_prev.append(Fraction(y, r * d))
        x = area[j] * r - y - 2 * d * t[2 * j]
        new_main.append(Fraction(2 * t[2 * j], r))
        new_next.append(Fraction(x, r * d))

    perturbed = DiscAllocation(tuple(new_main), tuple(new_prev), tuple(new_next))
    errors = validate_allocation(pol, perturbed)
    if errors:
        raise AllocationError("perturbed allocation invalid: " + "; ".join(errors))
    return perturbed


def compute_delta(pol: Polarization, alloc: DiscAllocation) -> Fraction:
    """Largest uniform volume retarget every piece can absorb.

    Worst-case linear propagation of the cascade: retargeting piece
    volumes by up to +-delta shifts the disc at curve j by at most
    coef_j * delta, with coef_j = c_j / alpha_j and c_j one of 2 (main),
    4j+2 (next) and 4j (prev, j >= 1); delta is the minimum constraint
    slack over these sensitivities.  This slack definition is this
    artifact's own.
    """
    return _valid_grid(pol, alloc).delta()


@dataclass(frozen=True)
class DecompositionPlan:
    pieces: tuple[Piece, ...]
    delta: Fraction
    lambda_pieces: Fraction
    lambda_prime: Fraction
    mode: str
    convention: str = CROSS_CONVENTION


def build_plan(pol: Polarization, alloc: DiscAllocation | None = None,
               mode: str = certifier.CONSERVATIVE,
               precision: int | None = None) -> DecompositionPlan:
    """The plan of a valid polarization; the midpoint allocation by default.

    The polarization and the allocation are each validated once.
    """
    if alloc is None:
        alloc = plan_discs(pol)        # validates the polarization
    else:
        _require_valid(pol)
    grid = _valid_grid(pol, alloc)
    pieces = grid.pieces()
    lam_pieces = min(certifier.lambda_bound(p.domain, mode, precision)
                     for p in pieces)
    delta = grid.delta()
    lam_prime = min(lam_pieces, sqrt_bounds(2 * delta, precision)[0])
    return DecompositionPlan(tuple(pieces), delta, lam_pieces, lam_prime, mode)


@dataclass(frozen=True)
class Filler:
    piece: int
    volume: Fraction


@dataclass
class PartitionResult:
    subsets: list[list[int]]           # ball indices per piece
    subset_volumes: list[Fraction]
    fillers: list[Filler] = field(default_factory=list)


def partition_balls(balls, piece_volumes, delta, pad: bool = False) -> PartitionResult:
    """Greedy largest-ball-first partition into the most deficient piece.

    ``balls`` are capacities; a ball of capacity c has volume c^2/2.  With
    ``pad`` the remaining deficits are filled exactly by synthetic balls of
    volume < delta each; a padding of more than MAX_FILLERS fillers is
    refused before any is built.  Raises if any subset ends further than
    delta from its piece volume.

    The capacities, piece volumes and delta go on one grid d, and every
    volume is taken as an integer over 2 d^2: a ball x/d has volume x^2, a
    piece volume t/d is 2 d t, and delta = e/d is 2 d e, so delta/2 is the
    integer d e.  Every check, the greedy choice and the padding compare
    those integers; Fractions are built for the returned volumes and for
    messages only.
    """
    delta = exact(delta)
    if delta <= 0:
        raise PartitionError("delta must be > 0")
    caps = [*map(exact, balls)]
    targets = [*map(exact, piece_volumes)]
    if not targets:
        raise PartitionError("no pieces to fill")
    d, (xs, ts, [e]) = to_grid(caps, targets, [delta])
    g, half = 2 * d * d, d * e
    vols = [x * x for x in xs]
    deficits = [2 * d * t for t in ts]
    largest = max(deficits) + 2 * half
    for i, v in enumerate(vols):
        if v > largest:
            raise PartitionError(f"ball {i} (volume {Fraction(v, g)}) "
                                 "exceeds every piece volume + delta")
    if sum(vols) > sum(deficits):
        raise PartitionError("total ball volume exceeds total piece volume")

    subsets: list[list[int]] = [[] for _ in targets]
    for i in sorted(range(len(vols)), key=vols.__getitem__, reverse=True):
        j = deficits.index(max(deficits))       # the first largest deficit
        subsets[j].append(i)
        deficits[j] -= vols[i]

    fillers: list[Filler] = []
    if pad:
        # a deficit r > 0 takes delta/2 chunks while it exceeds delta, then
        # one last filler: max(ceil(r / (delta/2)) - 2, 0) chunks
        chunks = {j: max(-(-r // half) - 2, 0)
                  for j, r in enumerate(deficits) if r > 0}
        count = sum(chunks.values()) + len(chunks)
        if count > MAX_FILLERS:
            raise PartitionError(
                f"padding needs {count} filler balls, more than {MAX_FILLERS}; "
                "add balls to fill the pieces")
        half_delta = Fraction(half, g)
        for j, n in chunks.items():
            fillers += [Filler(j, half_delta)] * n
            fillers.append(Filler(j, Fraction(deficits[j] - n * half, g)))
            deficits[j] = 0

    filled = [Fraction(2 * d * t - r, g) for t, r in zip(ts, deficits)]
    for j, (t, f, r) in enumerate(zip(targets, filled, deficits)):
        if abs(r) > 2 * half:
            raise PartitionError(
                f"piece {j}: subset volume {f} misses target {t} by more "
                f"than delta = {delta}; pass pad=True or add balls")
    return PartitionResult(subsets, filled, fillers)

"""Corpora, operations, oracle checks and digest items of the four workloads.

A workload is built from a seed by :func:`setup`, which imports sympack
(``sympack.cli`` for cli-mix) and generates the corpus: one *pass* of
operations, run in a closed loop by ``run.py``.  Every operation takes its
inputs as text, the way the CLI does.  ``Workload.run`` performs one
operation through a tracer; ``Workload.check`` verifies its result against
an oracle, adds the counts read from return values to ``stats``, and
returns the operation's digest item.  Digest items hold verdicts, reject
reasons, rational bounds and thresholds, search values, capacities, piece
volumes and delta; never witnesses, trace steps, move counts or timings.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

F = Fraction

WORKLOADS = ("decide-batch", "dstar-sweep", "plan-certify", "cli-mix")

# max_equal_ball(n) for n = 1..9 (classical packing numbers of P^2)
EQUAL_BALL = (None, F(1), F(1, 2), F(1, 2), F(1, 2), F(2, 5), F(2, 5),
              F(3, 8), F(6, 17), F(1, 3))
MEB_TOL = F(1, 10 ** 9)

# operations per pass; "smoke" is the minimal size the smoke test runs
SIZES = {
    # enough short decisions that p99 lies in their dense tail, not among
    # the nine max_equal_ball calls and a few rare heavy instances
    "decide-batch": {"full": {"blowup": 1440, "ellipsoid": 1008, "equal": 240,
                              "meb": 9},
                     "smoke": {"blowup": 6, "ellipsoid": 6, "equal": 6,
                               "meb": 8}},
    # p = 7 is left out: its dense lattice ball peaks at 2.9 GB (NOTES.md)
    "dstar-sweep": {"full": {1: 40, 2: 40, 3: 40, 4: 40, 5: 20, 6: 8},
                    "smoke": {1: 2, 2: 2, 3: 1, 4: 1}},
    "plan-certify": {"full": {"plan": 60, "weights": 200, "pseudo": 100,
                              "atlas_step": F(1, 10),
                              "lists": (10, 100, 1000, 10000)},
                     "smoke": {"plan": 3, "weights": 5, "pseudo": 3,
                               "atlas_step": F(1, 2), "lists": (10, 100)}},
    "cli-mix": {"full": {"dstar6": True}, "smoke": {"dstar6": False}},
}

CLI_TIMEOUT_S = 60


class OracleFailure(Exception):
    """An output that contradicts its oracle: a wrong answer."""


class ExitMismatch(Exception):
    """A CLI call that exited with an unexpected code or printed a traceback.

    ``item`` is the digest item the call still contributes: an invalid input
    contributes its expected exit code, so the digest does not change when
    the program's error handling is fixed.
    """

    def __init__(self, message, item=None):
        super().__init__(message)
        self.item = item


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def fmt(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rand_lams(rng, p, den, cap):
    while True:
        lams = [F(rng.randint(1, den - 1), den) for _ in range(p)]
        if sum(l * l for l in lams) <= cap:
            return lams


def _rand_fraction(rng, lo, hi, max_den=60):
    den = rng.randint(2, max_den)
    lo_num = int(lo * den) + 1
    hi_num = -int(-hi * den) - 1
    if hi_num < lo_num:
        return (lo + hi) / 2
    return F(rng.randint(lo_num, hi_num), den)


def _rand_pseudo_ball(rng):
    alpha = _rand_fraction(rng, F(1, 100), F(2))
    beta = _rand_fraction(rng, F(1, 100), F(2))
    a = _rand_fraction(rng, alpha, alpha + beta, 200)
    b = _rand_fraction(rng, beta, alpha + beta, 200)
    return "T({},{},{},{})".format(*map(fmt, (a, b, alpha, beta)))


def _rand_polarization(rng, l):
    residues = [F(rng.randint(1, 8), 40) for _ in range(l)]
    top = max(residues)
    return tuple((fmt(10 * top + F(rng.randint(1, 80), 8)), fmt(r))
                 for r in residues)


def _continued_fraction(a: Fraction) -> list[int]:
    num, den, out = a.numerator, a.denominator, []
    while den:
        q, r = divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def _count_trace(stats, trace):
    """Cremona counts read from a ReductionTrace."""
    moves = len(trace.steps)
    stats["cremona.decisions"] = stats.get("cremona.decisions", 0) + 1
    stats["cremona.moves"] = stats.get("cremona.moves", 0) + moves
    stats["cremona.max_moves"] = max(stats.get("cremona.max_moves", 0), moves)
    if trace.accepted:
        stats["cremona.accepts"] = stats.get("cremona.accepts", 0) + 1
    else:
        key = "cremona.rejects." + trace.reason.replace(" entry", "").replace(" ", "_")
        stats[key] = stats.get(key, 0) + 1


def _count_cert(stats, cert):
    stats["certifier.certificates"] = stats.get("certifier.certificates", 0) + 1
    stats["certifier.balls_checked"] = (stats.get("certifier.balls_checked", 0)
                                        + len(cert.checks))
    if cert.certified:
        stats["certifier.certified"] = stats.get("certifier.certified", 0) + 1


def _cert_item(cert):
    return [cert.verdict, fmt(cert.lambda_threshold), fmt(cert.volume_slack),
            sum(1 for c in cert.checks if not c.below_threshold)]


def _expect(cond, message):
    if not cond:
        raise OracleFailure(message)


class Workload:
    name = ""

    def __init__(self, ops):
        self.ops = ops

    def warm(self, tr):
        """Fill the program's caches; part of set-up."""

    def run(self, op, tr):
        return getattr(self, "run_" + op.kind)(tr, *op.args)

    def check(self, op, result, stats):
        return getattr(self, "check_" + op.kind)(result, stats, *op.args)

    def _parse(self, tr, text):
        """Parse one rational as the CLI does (subclasses set ``rationals``)."""
        return tr.call("rationals.parse_rational", self.rationals.parse_rational, text)


# --- decide-batch -----------------------------------------------------------

class DecideBatch(Workload):
    """Exact Cremona decisions: criterion-4-shaped soundness instances,
    many-ball vectors, the full fillings of E(1,2) and E(1,5/2), and
    max_equal_ball(n) for n = 1..9."""

    name = "decide-batch"

    def __init__(self, ops):
        super().__init__(ops)
        from sympack import certifier, cremona, rationals, toric
        self.certifier, self.cremona = certifier, cremona
        self.rationals, self.toric = rationals, toric

    @classmethod
    def build(cls, rng, size):
        # the sizes that drive the cost (rank p, ball count k, n) cycle
        # rather than being drawn, so every seed has the same mix of them
        ops = []
        for i in range(size["blowup"]):
            p, k = i % 48 // 12 + 1, i % 12 + 1
            lams = _rand_lams(rng, p, 12, F(4, 5) - F(1, 144))
            ops.append(Op("blowup", (tuple(map(fmt, lams)), k, rng.randint(1, 9))))
        for i in range(size["ellipsoid"]):
            a = 1 + F(rng.randint(1, 12), rng.randint(4, 12))
            ops.append(Op("ellipsoid", (f"E(1,{fmt(a)})", i % 12 + 1,
                                        rng.randint(1, 9))))
        for i in range(size["equal"]):
            n = i % 16 + 1
            cap = F(rng.randint(1, 29), rng.randint(2, 30))
            while cap >= 1:
                cap = F(rng.randint(1, 29), rng.randint(2, 30))
            ops.append(Op("equal", (f"{fmt(cap)}x{n}",)))
        ops.append(Op("filling", ("2", "1,1")))
        ops.append(Op("filling", ("5/2", "1,1,1/2,1/2")))
        rng.shuffle(ops)
        # spread the max_equal_ball calls, max_equal_ball(9) alone takes ~10 s,
        # so that the short decisions are sampled across the whole pass
        step = len(ops) // (size["meb"] + 1)
        for n in range(size["meb"], 0, -1):
            ops.insert(n * step, Op("meb", (n,)))
        return ops

    def _parse_list(self, tr, text):
        out = []
        for part in text.split(","):
            cap, _, count = part.partition("x")
            out.extend([self._parse(tr, cap)] * (int(count) if count else 1))
        return out

    def _cap(self, tr, thr, tenths):
        return tr.call("rationals.rational_below", self.rationals.rational_below,
                       thr * F(tenths, 10), 10 ** 6)

    def run_blowup(self, tr, lam_texts, k, tenths):
        c, cr = self.certifier, self.cremona
        lams = tuple(self._parse(tr, s) for s in lam_texts)
        exists = tr.call("cremona.reduce_vector", cr.reduce_vector,
                         cr.PackingVector(F(1), lams))
        if not exists.accepted:
            return exists, None, None, None
        target = c.BlowupTarget(lams)
        thr = tr.call("certifier.lambda_bound#blowup", c.lambda_bound, target)
        cap = self._cap(tr, thr, tenths)
        cert = tr.call("certifier.certify_packing", c.certify_packing,
                       target, [cap] * k)
        decision = tr.call("cremona.reduce_vector", cr.reduce_vector,
                           cr.PackingVector(F(1), lams + (cap,) * k))
        return exists, cap, cert, decision

    def check_blowup(self, result, stats, lam_texts, k, tenths):
        exists, cap, cert, decision = result
        _count_trace(stats, exists)
        if cert is None:
            return ["blowup", exists.verdict, exists.reason]
        _count_trace(stats, decision)
        _count_cert(stats, cert)
        _expect(not cert.certified or decision.accepted,
                f"CERTIFIED but rejected: Blowup{lam_texts} + {fmt(cap)}x{k}")
        return ["blowup", exists.verdict, fmt(cap), _cert_item(cert),
                decision.verdict, decision.reason]

    def run_ellipsoid(self, tr, target_text, k, tenths):
        c = self.certifier
        target = tr.call("toric.parse_domain", self.toric.parse_domain, target_text)
        thr = tr.call("certifier.lambda_bound#ellipsoid", c.lambda_bound, target)
        cap = self._cap(tr, thr, tenths)
        cert = tr.call("certifier.certify_packing", c.certify_packing,
                       target, [cap] * k)
        decision = tr.call("certifier.decide_balls_into_ellipsoid",
                           c.decide_balls_into_ellipsoid, target.b, [cap] * k)
        return cap, cert, decision

    def check_ellipsoid(self, result, stats, target_text, k, tenths):
        cap, cert, decision = result
        _count_trace(stats, decision)
        _count_cert(stats, cert)
        _expect(not cert.certified or decision.accepted,
                f"CERTIFIED but rejected: {target_text} + {fmt(cap)}x{k}")
        return ["ellipsoid", fmt(cap), _cert_item(cert), decision.verdict,
                decision.reason]

    def run_equal(self, tr, text):
        cr = self.cremona
        balls = self._parse_list(tr, text)
        return tr.call("cremona.reduce_vector", cr.reduce_vector,
                       cr.PackingVector(F(1), tuple(balls)))

    def check_equal(self, trace, stats, text):
        _count_trace(stats, trace)
        cap_text, n = text.split("x")
        cap, n = F(cap_text), int(n)
        # n >= 9 equal balls: the volume is the only obstruction
        fits = cap <= EQUAL_BALL[n] if n < 9 else n * cap * cap <= 1
        _expect(trace.accepted == fits, f"{text} in P2(1): got {trace.verdict}")
        return ["equal", text, trace.verdict, trace.reason]

    def run_filling(self, tr, a_text, balls_text):
        c = self.certifier
        a = self._parse(tr, a_text)
        balls = self._parse_list(tr, balls_text)
        return tr.call("certifier.decide_balls_into_ellipsoid",
                       c.decide_balls_into_ellipsoid, a, balls)

    def check_filling(self, trace, stats, a_text, balls_text):
        _count_trace(stats, trace)
        start = trace.steps[0].before if trace.steps else None
        _expect(trace.accepted and start is not None
                and sum(l * l for l in start.lambdas) == start.mu ** 2,
                f"full filling of E(1,{a_text}) by {balls_text} not accepted "
                "with volume equality")
        return ["filling", a_text, trace.verdict]

    def run_meb(self, tr, n):
        return tr.call("cremona.max_equal_ball", self.cremona.max_equal_ball,
                       n, MEB_TOL)

    def check_meb(self, value, stats, n):
        _expect(abs(value - EQUAL_BALL[n]) <= MEB_TOL,
                f"max_equal_ball({n}) = {value}, expected {EQUAL_BALL[n]}")
        return ["meb", n, fmt(value)]


# --- dstar-sweep ------------------------------------------------------------

class DstarSweep(Workload):
    """Lattice search with the area-excess self-check, plus the closed-form
    bound, over random blow-up forms of rank p = 1..6."""

    name = "dstar-sweep"
    K_MAX = 8

    def __init__(self, ops):
        super().__init__(ops)
        from sympack import lattice, rationals
        self.lattice, self.rationals = lattice, rationals

    @classmethod
    def build(cls, rng, size):
        ops = [Op("dstar", (tuple(map(fmt, _rand_lams(rng, p, 60, F(9, 10)))),))
               for p, count in size.items() for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def warm(self, tr):
        """First search per rank: builds and caches the lattice ball."""
        done = set()
        for op in self.ops:
            p = len(op.args[0])
            if p not in done:
                done.add(p)
                form = self.lattice.BlowupForm(tuple(map(F, op.args[0])))
                tr.call(f"lattice.first_call#p{p}", self.lattice.d_omega_search,
                        form, self.K_MAX, check_area_excess=True)

    def run_dstar(self, tr, lam_texts):
        lat = self.lattice
        lams = tuple(self._parse(tr, s) for s in lam_texts)
        form = lat.BlowupForm(lams)
        search = tr.call(f"lattice.d_omega_search#p{form.p}", lat.d_omega_search,
                         form, self.K_MAX, check_area_excess=True)
        bound = tr.call("lattice.d_omega_bound", lat.d_omega_bound, form)
        return search, bound

    def check_dstar(self, result, stats, lam_texts):
        search, bound = result
        _expect(search.value >= bound,
                f"search {search.value} below bound {bound} for {lam_texts}")
        ratio = search.value / bound
        best = stats.get("lattice.search_over_bound")
        stats["lattice.search_over_bound"] = ratio if best is None else min(best, ratio)
        return ["dstar", list(lam_texts), fmt(search.value), fmt(bound)]


# --- plan-certify -----------------------------------------------------------

def caps_under(volumes, delta):
    """One capacity per piece whose ball volume c^2/2 lies in (v - delta, v].

    Keeps the padded partition to at most one filler per piece.
    """
    den = 8 * (delta.denominator // delta.numerator + 1)
    caps = []
    for v in volumes:
        t = v - delta / 2
        caps.append(F(isqrt(2 * t.numerator * den * den // t.denominator), den))
    return caps


class PlanCertify(Workload):
    """Planner and certifier path: decomposition plans with a perturbation
    round trip, padded partitions and per-piece certificates; weight
    expansions; the atlas grid in both modes; pseudo-ball thresholds; and
    certificates on long repeated ball lists."""

    name = "plan-certify"
    LIST_TARGET = "E(1,2)"
    LIST_CAP = "13/100"

    def __init__(self, ops):
        super().__init__(ops)
        from sympack import certifier, planner, rationals, toric, weights
        self.certifier, self.planner = certifier, planner
        self.rationals, self.toric, self.weights = rationals, toric, weights

    @classmethod
    def build(cls, rng, size):
        ops = [Op("plan", (_rand_polarization(rng, 2 + i % 4),))
               for i in range(size["plan"])]
        for _ in range(size["weights"]):
            q = rng.randint(1, 60)
            ops.append(Op("weights", (fmt(F(rng.randint(q + 1, 100 * q), q)),)))
        a = F(11, 10)
        while a <= 10:
            ops.append(Op("atlas", (f"E(1,{fmt(a)})",)))
            a += size["atlas_step"]
        ops.extend(Op("pseudo", (_rand_pseudo_ball(rng),))
                   for _ in range(size["pseudo"]))
        ops.extend(Op("list", (n,)) for n in size["lists"])
        rng.shuffle(ops)
        return ops

    def run_plan(self, tr, curves):
        pl, c = self.planner, self.certifier
        pol = pl.Polarization(tuple(pl.Curve(self._parse(tr, area), self._parse(tr, res))
                                    for area, res in curves))
        alloc = tr.call("planner.plan_discs", pl.plan_discs, pol)
        plan = tr.call("planner.build_plan", pl.build_plan, pol, alloc)
        volumes = [p.volume for p in plan.pieces]
        back = tr.call("planner.perturb_allocation", pl.perturb_allocation,
                       pol, alloc, volumes)
        caps = caps_under(volumes, plan.delta)
        part = tr.call("planner.partition_balls", pl.partition_balls,
                       caps, volumes, plan.delta, pad=True)
        certs = [tr.call("certifier.certify_packing", c.certify_packing,
                         plan.pieces[j].domain, [caps[i] for i in subset])
                 for j, subset in enumerate(part.subsets) if subset]
        return pol, alloc, plan, back, part, certs

    def check_plan(self, result, stats, curves):
        pol, alloc, plan, back, part, certs = result
        volumes = [p.volume for p in plan.pieces]
        _expect(sum(volumes) == pol.implied_volume,
                f"piece volumes sum to {sum(volumes)}, implied {pol.implied_volume}")
        _expect(back == alloc, f"perturb_allocation round trip changed {curves}")
        _expect(all(abs(t - f) <= plan.delta
                    for t, f in zip(volumes, part.subset_volumes)),
                f"partition misses a piece volume by more than delta: {curves}")
        _expect(all(f.volume < plan.delta for f in part.fillers),
                f"filler volume not below delta: {curves}")
        stats["planner.fillers"] = stats.get("planner.fillers", 0) + len(part.fillers)
        for cert in certs:
            _count_cert(stats, cert)
        return ["plan", list(map(fmt, volumes)), fmt(plan.delta),
                fmt(plan.lambda_pieces), fmt(plan.lambda_prime),
                [(f.piece, fmt(f.volume)) for f in part.fillers],
                [_cert_item(cert) for cert in certs]]

    def run_weights(self, tr, a_text):
        a = self._parse(tr, a_text)
        return a, tr.call("weights.weight_sequence", self.weights.weight_sequence, a)

    def check_weights(self, result, stats, a_text):
        a, ws = result
        _expect(sum(w * w for w in ws.weights) == a
                and sum(ws.weights) == a + 1 - F(1, a.denominator)
                and len(ws) == sum(_continued_fraction(a)),
                f"weight identities fail for {a_text}")
        stats["weights.entries"] = stats.get("weights.entries", 0) + len(ws)
        return ["weights", a_text, list(map(fmt, ws.weights))]

    def _both_modes(self, tr, text, tag):
        c = self.certifier
        target = tr.call("toric.parse_domain", self.toric.parse_domain, text)
        cons = tr.call(f"certifier.lambda_bound#{tag}", c.lambda_bound,
                       target, c.CONSERVATIVE)
        opt = tr.call(f"certifier.lambda_bound#{tag}", c.lambda_bound,
                      target, c.OPTIMISTIC)
        return cons, opt

    def run_atlas(self, tr, text):
        return self._both_modes(tr, text, "ellipsoid")

    def check_atlas(self, result, stats, text):
        cons, opt = result
        _expect(0 < cons < opt < 1 and cons == opt / 2, f"atlas bounds at {text}")
        pinned = {"E(1,2)": 0.1327, "E(1,7)": 0.0920}.get(text)
        _expect(pinned is None or abs(float(opt) - pinned) < 5e-5,
                f"atlas value at {text} is {float(opt)}, expected {pinned}")
        return ["atlas", text, fmt(cons), fmt(opt)]

    def run_pseudo(self, tr, text):
        return self._both_modes(tr, text, "pseudoball")

    def check_pseudo(self, result, stats, text):
        cons, opt = result
        _expect(0 < cons < opt and cons == opt / 2, f"pseudo-ball bounds at {text}")
        return ["pseudo", text, fmt(cons), fmt(opt)]

    def run_list(self, tr, n):
        c = self.certifier
        target = tr.call("toric.parse_domain", self.toric.parse_domain, self.LIST_TARGET)
        balls = [self._parse(tr, self.LIST_CAP)] * n
        return target, tr.call("certifier.certify_packing", c.certify_packing,
                               target, balls, c.OPTIMISTIC)

    def check_list(self, result, stats, n):
        target, cert = result
        cap = F(self.LIST_CAP)
        slack = target.a * target.b / 2 - n * cap * cap / 2
        _expect(cert.volume_slack == slack
                and cert.certified == (cap < cert.lambda_threshold and slack >= 0),
                f"certificate for {self.LIST_CAP}x{n} in {self.LIST_TARGET}")
        _count_cert(stats, cert)
        return ["list", n, _cert_item(cert)]


# --- cli-mix ----------------------------------------------------------------

def spawn(argv, env, cwd, out_path, err_path, timeout):
    """Run one child to completion; (exit code, stdout, stderr, ru_maxrss KiB).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

    def _expired(signum, frame):
        raise TimeoutError(f"{argv[3:]} ran over {timeout}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, Path(out_path).read_text(), Path(err_path).read_text(),
            usage.ru_maxrss)


class CliMix(Workload):
    """The README commands plus invalid inputs that must exit 2, each as one
    ``python -m sympack.cli`` process with PYTHONPATH=src."""

    name = "cli-mix"
    OVERFLOW_LAMBDAS = "1/1103,1/1109,1/1117,1/1123,1/1129,1/1151"

    def __init__(self, ops, root, workdir):
        super().__init__(ops)
        import sympack.cli  # noqa: F401  (set-up covers importing the CLI)
        self.root, self.workdir = root, workdir
        self._expected: dict[tuple, tuple] = {}
        env = {k: v for k, v in os.environ.items() if k != "SYMPACK_PRECISION"}
        env["PYTHONPATH"] = "src"
        self.env = env

    @classmethod
    def build(cls, rng, size, workdir):
        q = rng.randint(2, 12)
        weights_a = fmt(F(rng.randint(q + 1, 6 * q), q))
        domain = rng.choice([
            lambda: f"B({fmt(_rand_fraction(rng, F(1, 10), F(3)))})",
            lambda: "E({},{})".format(fmt(_rand_fraction(rng, F(1, 10), F(3))),
                                      fmt(_rand_fraction(rng, F(1, 10), F(3)))),
            lambda: _rand_pseudo_ball(rng),
            lambda: f"P2({fmt(_rand_fraction(rng, F(1, 10), F(3)))})"])()
        n = rng.randint(2, 12)
        balls = f"{fmt(F(rng.randint(1, 29), rng.randint(30, 60)))}x{n}"
        lams2 = ",".join(map(fmt, _rand_lams(rng, 2, 60, F(9, 10))))
        lams6 = ",".join(map(fmt, _rand_lams(rng, 6, 60, F(9, 10))))
        instance = {
            "components": [fmt(F(rng.randint(20, 60), 10)) for _ in range(3)],
            "assignments": [
                {"kind": "first_axis", "component": rng.randint(0, 2),
                 "ellipsoid": [fmt(F(rng.randint(1, 20), 10)), "1"]},
                {"kind": "second_axis", "component": rng.randint(0, 2),
                 "ellipsoid": ["1", fmt(F(rng.randint(1, 20), 10))]},
                {"kind": "cross", "ellipsoid": [fmt(F(rng.randint(1, 20), 10)),
                                                fmt(F(rng.randint(1, 20), 10))],
                 "first_component": 0, "first_branch": "a",
                 "second_component": 1, "second_branch": "b"},
                {"kind": "free", "ellipsoid": ["1", "2"]}]}
        curves = _rand_polarization(rng, rng.randint(2, 5))
        implied = sum((F(a) * F(r) for a, r in curves), F(0)) / 2
        pol = {"curves": [{"area": a, "residue": r} for a, r in curves],
               "volume": fmt(implied)}
        caps = [fmt(F(rng.randint(1, 30), 1000)) for _ in range(rng.randint(3, 10))]
        workdir.mkdir(parents=True, exist_ok=True)
        files = {"inst.json": instance, "pol.json": pol, "balls.json": {"balls": caps}}
        for name, data in files.items():
            (workdir / name).write_text(json.dumps(data))

        def cli(label, *argv, env=None, invalid=False):
            return Op("cli", (label, argv[0], tuple(argv), env, invalid))

        ops = [
            cli("weights", "weights", weights_a),
            cli("volume", "volume", domain),
            cli("decide", "decide", "--mu", "1", "--balls", balls, "--trace"),
            cli("max-equal-ball", "max-equal-ball", "--n", "8"),
            cli("certify", "certify", "--target", "E(1,2)", "--balls", "13/100x100",
                "--mode", "optimistic"),
            cli("ellipsoid-decide", "ellipsoid-decide", "-a", "5/2",
                "--balls", "1,1,1/2,1/2", "--trace"),
            cli("dstar-p2", "dstar", "--lambdas", lams2, "--search-kmax", "8"),
            cli("directed-check", "directed-check", "--file",
                str(workdir / "inst.json")),
            cli("decompose", "decompose", "--polarization", str(workdir / "pol.json"),
                "--balls", str(workdir / "balls.json"), "--pad"),
            cli("atlas", "atlas", "--amin", "11/10", "--amax", "10",
                "--step", "1/10", "--json"),
            cli("weights-decimal", "weights", "0.13", invalid=True),
            cli("volume-not-pseudo-ball", "volume", "T(1,1,1,1)", invalid=True),
            cli("precision-env", "weights", "5/2", env=("SYMPACK_PRECISION", "abc"),
                invalid=True),
        ]
        if size["dstar6"]:
            ops.append(cli("dstar-p6", "dstar", "--lambdas", lams6,
                           "--search-kmax", "8"))
            ops.append(cli("dstar-overflow", "dstar", "--lambdas",
                           cls.OVERFLOW_LAMBDAS, "--search-kmax", "8", invalid=True))
        rng.shuffle(ops)
        return ops

    def run_cli(self, tr, label, sub, argv, env_extra, invalid):
        env = self.env
        if env_extra:
            env = dict(env)
            env[env_extra[0]] = env_extra[1]
        return tr.call(f"cli.{sub}", spawn,
                       [sys.executable, "-m", "sympack.cli", *argv], env, self.root,
                       self.workdir / "stdout.txt", self.workdir / "stderr.txt",
                       CLI_TIMEOUT_S)

    def check_cli(self, result, stats, label, sub, argv, env_extra, invalid):
        code, out, err, maxrss = result
        stats["cli.peak_rss_kb"] = max(stats.get("cli.peak_rss_kb", 0), maxrss)
        traceback = "Traceback (most recent call last)" in err
        if invalid:
            if code != 2 or traceback:
                stats["cli.exit_mismatch"] = stats.get("cli.exit_mismatch", 0) + 1
                raise ExitMismatch(f"{label}: exit {code}, expected 2"
                                   + (", traceback" if traceback else ""),
                                   item=["cli", label, 2])
            return ["cli", label, 2]
        key = (label, argv)
        if key not in self._expected:
            self._expected[key] = getattr(self, "_expect_" + sub.replace("-", "_"))(argv)
        want_code, item = self._expected[key]
        if code != want_code or traceback:
            stats["cli.exit_mismatch"] = stats.get("cli.exit_mismatch", 0) + 1
            raise ExitMismatch(f"{label}: exit {code}, expected {want_code}"
                               + (", traceback" if traceback else ""))
        if sub == "atlas":
            got = self._atlas_output(out, err)
        else:
            try:
                got = self._digest_fields(sub, json.loads(out))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise OracleFailure(f"{label}: output is not the expected JSON: {exc}")
        _expect(got == item, f"{label}: output {got} differs from the library's {item}")
        return ["cli", label, code, item]

    @staticmethod
    def _digest_fields(sub, data):
        if sub == "weights":
            return [data["a"], data["weights"], data["sum_sq"]]
        if sub == "volume":
            return [data["domain"], data["volume"]]
        if sub in ("decide", "ellipsoid-decide"):
            _expect(isinstance(data["trace"]["steps"], list), f"{sub}: no trace")
            return [data["verdict"], data["reason"]]
        if sub == "max-equal-ball":
            return [data["capacity"]]
        if sub == "certify":
            return [data["verdict"], data["lambda_threshold"]["rational"],
                    data["volume_slack"], data["ball_checks"].count(False)]
        if sub == "dstar":
            return [data["search_value"], data["bound"]["rational"]]
        if sub == "directed-check":
            return [data["ok"], data["slacks"]]
        if sub == "decompose":
            return [[p["volume"] for p in data["pieces"]], data["delta"],
                    data["lambda_prime"]["rational"],
                    [f["volume"] for f in data["partition"]["fillers"]],
                    [c["verdict"] for c in data["certificates"]]]
        raise KeyError(sub)

    @staticmethod
    def _atlas_output(out, err):
        lines = out.strip().splitlines()
        report = None
        for text in (lines[-1] if lines else "", err.strip()):
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                continue
        _expect(isinstance(report, dict), "atlas --json printed no JSON report")
        rows = [line.split(",") for line in lines if not line.startswith("{")]
        _expect(rows and rows[0][0] == "a", "atlas printed no CSV header")
        return [row[:4] for row in rows[1:]]

    # the library's own answer for each valid command: (exit code, fields)

    def _expect_weights(self, argv):
        from sympack.weights import weight_sequence
        a = F(argv[1])
        ws = weight_sequence(a)
        return 0, [fmt(a), list(map(fmt, ws.weights)), fmt(ws.sum_squares)]

    def _expect_volume(self, argv):
        from sympack import toric
        d = toric.parse_domain(argv[1])
        return 0, [str(d), fmt(toric.volume(d))]

    def _expect_decide(self, argv):
        from sympack.cremona import PackingVector, reduce_vector
        cap, n = argv[4].split("x")
        trace = reduce_vector(PackingVector(F(argv[2]), (F(cap),) * int(n)))
        fits = F(cap) <= EQUAL_BALL[int(n)] if int(n) < 9 else int(n) * F(cap) ** 2 <= 1
        _expect(trace.accepted == fits, f"decide {argv[4]}: library gives {trace.verdict}")
        return (0 if trace.accepted else 1), [trace.verdict, trace.reason]

    def _expect_max_equal_ball(self, argv):
        n = int(argv[2])
        # the CLI's bisection returns the largest grid point below the threshold
        return 0, [fmt(self._bisect_equal_ball(EQUAL_BALL[n]))]

    @staticmethod
    def _bisect_equal_ball(threshold):
        lo, hi = F(0), F(2)
        while hi - lo > MEB_TOL:
            mid = (lo + hi) / 2
            if mid <= threshold:
                lo = mid
            else:
                hi = mid
        return lo

    def _expect_certify(self, argv):
        from sympack import certifier, toric
        target = toric.parse_domain(argv[2])
        cap, n = argv[4].split("x")
        cert = certifier.certify_packing(target, [F(cap)] * int(n), argv[6])
        return (0 if cert.certified else 1), [
            cert.verdict, fmt(cert.lambda_threshold), fmt(cert.volume_slack),
            sum(1 for c in cert.checks if not c.below_threshold)]

    def _expect_ellipsoid_decide(self, argv):
        from sympack.certifier import decide_balls_into_ellipsoid
        trace = decide_balls_into_ellipsoid(F(argv[2]), [F(b) for b in argv[4].split(",")])
        _expect(trace.accepted, "the full filling of E(1,5/2) is rejected by the library")
        return 0, [trace.verdict, trace.reason]

    def _expect_dstar(self, argv):
        from sympack import lattice
        form = lattice.BlowupForm(tuple(F(x) for x in argv[2].split(",")))
        value = lattice.d_omega_search(form, int(argv[4])).value
        bound = lattice.d_omega_bound(form)
        _expect(value >= bound, f"dstar {argv[2]}: search below bound")
        return 0, [fmt(value), fmt(bound)]

    def _expect_directed_check(self, argv):
        from sympack.cli import _load_assignment
        from sympack.certifier import check_directed_hypotheses
        data = json.loads(Path(argv[2]).read_text())
        ok, slacks = check_directed_hypotheses(
            [F(x) for x in data["components"]],
            [_load_assignment(e) for e in data["assignments"]])
        return (0 if ok else 1), [ok, list(map(fmt, slacks))]

    def _expect_decompose(self, argv):
        from sympack import certifier, planner
        from sympack.cli import load_polarization
        pol = load_polarization(json.loads(Path(argv[2]).read_text()))
        plan = planner.build_plan(pol)
        volumes = [p.volume for p in plan.pieces]
        _expect(sum(volumes) == pol.implied_volume, "decompose: volumes do not close")
        caps = [F(x) for x in json.loads(Path(argv[4]).read_text())["balls"]]
        part = planner.partition_balls(caps, volumes, plan.delta, pad=True)
        verdicts = [certifier.certify_packing(plan.pieces[j].domain,
                                              [caps[i] for i in s]).verdict
                    if s else "CERTIFIED" for j, s in enumerate(part.subsets)]
        return 0, [list(map(fmt, volumes)), fmt(plan.delta), fmt(plan.lambda_prime),
                   [fmt(f.volume) for f in part.fillers], verdicts]

    def _expect_atlas(self, argv):
        from sympack import certifier, toric
        from sympack.rationals import decimal_lower
        rows, a = [], F(argv[2])
        while a <= F(argv[4]):
            cons = certifier.lambda_bound(toric.Ellipsoid(1, a), certifier.CONSERVATIVE)
            opt = certifier.lambda_bound(toric.Ellipsoid(1, a), certifier.OPTIMISTIC)
            if a in (2, 7):
                _expect(abs(float(opt) - {2: 0.1327, 7: 0.0920}[a]) < 5e-5,
                        f"atlas value at a = {a}")
            rows.append([fmt(a), decimal_lower(cons, 12), decimal_lower(opt, 12),
                         str(certifier.ellipsoid_bound_parts(a)[1])])
            a += F(argv[6])
        return 0, rows


def setup(name: str, seed: int, root: Path, workdir: Path, size: str = "full") -> Workload:
    """Import the program and build the workload's corpus from the seed."""
    rng = random.Random(f"{name}:{seed}")
    sizes = SIZES[name][size]
    if name == "decide-batch":
        return DecideBatch(DecideBatch.build(rng, sizes))
    if name == "dstar-sweep":
        return DstarSweep(DstarSweep.build(rng, sizes))
    if name == "plan-certify":
        return PlanCertify(PlanCertify.build(rng, sizes))
    if name == "cli-mix":
        return CliMix(CliMix.build(rng, sizes, workdir), root, workdir)
    raise ValueError(f"unknown workload {name!r}")


def probe_setup(argv):
    """Set-up probe run in a fresh interpreter: set up, warm, exit."""
    name, seed, root, workdir = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    sys.path.insert(0, str(root / "src"))
    from tracing import NullTracer
    setup(name, seed, root, workdir).warm(NullTracer())


if __name__ == "__main__":
    probe_setup(sys.argv[1:])

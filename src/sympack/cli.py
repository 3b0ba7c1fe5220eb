"""sympack command-line front end.

All rational I/O is exact 'p/q' text; bounds involving square roots are
reported as downward-rounded decimal strings with explicit precision and
rounding metadata.  Exit codes: 0 success/accept/certified, 1
reject/not-certified, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__, certifier, cremona, lattice, planner, toric, weights
from .rationals import (RationalParseError, check_precision, decimal_lower,
                        default_precision, format_rational, parse_rational)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INVALID = 2

DECIMAL_DIGITS = 12


def _fmt(x) -> str:
    return format_rational(Fraction(x))


def _bound_json(value: Fraction, precision: int) -> dict:
    return {
        "decimal": decimal_lower(value, DECIMAL_DIGITS),
        "rational": _fmt(value),
        "precision_bits": precision,
        "rounding": "down",
    }


def parse_ball_list(text: str) -> list[Fraction]:
    """Comma-separated capacities, each 'p/q' or with 'xN' repetition."""
    balls: list[Fraction] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "x" in part:
            cap_text, count_text = part.rsplit("x", 1)
            count = int(count_text)
            if count < 0:
                raise RationalParseError(f"negative repetition in {part!r}")
            balls.extend([parse_rational(cap_text)] * count)
        else:
            balls.append(parse_rational(part))
    return balls


def _trace_json(trace: cremona.ReductionTrace) -> dict:
    def vec(v):
        return {"mu": _fmt(v.mu),
                "lambdas": [_fmt(l) for l in v.lambdas if l != 0]}

    return {
        "verdict": trace.verdict,
        "reason": trace.reason,
        "volume_ok": trace.volume_ok,
        "steps": [{"before": vec(s.before), "defect": _fmt(s.defect),
                   "after": vec(s.after)} for s in trace.steps],
    }


def _emit(args, payload: dict, command: str, inputs: dict, started: float):
    if args.json:
        report = {
            "command": command,
            "inputs": inputs,
            "outputs": payload,
            "elapsed_s": round(time.monotonic() - started, 6),
            "version": __version__,
            "precision_bits": args.precision,
        }
        print(json.dumps(report, indent=2))
    else:
        print(json.dumps(payload, indent=2))


def cmd_weights(args) -> int:
    started = time.monotonic()
    a = parse_rational(args.a)
    ws = weights.weight_sequence(a)
    payload = {
        "a": _fmt(a),
        "weights": [_fmt(w) for w in ws.weights],
        "p": len(ws),
        "sum_sq": _fmt(ws.sum_squares),
    }
    _emit(args, payload, "weights", {"a": args.a}, started)
    return EXIT_OK


def cmd_volume(args) -> int:
    started = time.monotonic()
    domain = toric.parse_domain(args.domain)
    payload = {"domain": str(domain), "volume": _fmt(toric.volume(domain))}
    _emit(args, payload, "volume", {"domain": args.domain}, started)
    return EXIT_OK


def cmd_dstar(args) -> int:
    started = time.monotonic()
    lams = tuple(parse_ball_list(args.lambdas)) if args.lambdas else ()
    form = lattice.BlowupForm(lams)
    bound = lattice.d_omega_bound(form, args.precision)
    result = lattice.d_omega_search(form, args.search_kmax)
    payload = {
        "lambdas": [_fmt(l) for l in lams],
        "bound": _bound_json(bound, args.precision),
        "search_kmax": args.search_kmax,
        "search_value": _fmt(result.value),
        "witness": {"k": result.witness.k, "m": list(result.witness.m)},
    }
    _emit(args, payload, "dstar", {"lambdas": args.lambdas}, started)
    return EXIT_OK


def cmd_decide(args) -> int:
    started = time.monotonic()
    mu = parse_rational(args.mu)
    balls = parse_ball_list(args.balls)
    vec = cremona.PackingVector(mu, tuple(b for b in balls if b > 0))
    trace = cremona.reduce_vector(vec)
    payload = {"mu": _fmt(mu), "balls": [_fmt(b) for b in balls],
               "verdict": trace.verdict, "reason": trace.reason}
    if args.trace:
        payload["trace"] = _trace_json(trace)
    _emit(args, payload, "decide", {"mu": args.mu, "balls": args.balls}, started)
    return EXIT_OK if trace.accepted else EXIT_REJECT


def cmd_max_equal_ball(args) -> int:
    started = time.monotonic()
    tol = parse_rational(args.tol)
    value = cremona.max_equal_ball(args.n, tol)
    payload = {"n": args.n, "tol": _fmt(tol), "capacity": _fmt(value),
               "capacity_decimal": decimal_lower(value, DECIMAL_DIGITS)}
    _emit(args, payload, "max-equal-ball", {"n": args.n, "tol": args.tol},
          started)
    return EXIT_OK


def _parse_target(text: str) -> certifier.Target:
    text = text.strip()
    if text.lower().startswith("blowup"):
        inner = text[text.index("(") + 1:text.rindex(")")]
        return certifier.BlowupTarget(tuple(parse_ball_list(inner)))
    domain = toric.parse_domain(text)
    if isinstance(domain, toric.ProjectivePlane):
        raise toric.DomainError(
            "P2(mu) is not a certification target; use Blowup(...) or a domain")
    return domain


def cmd_certify(args) -> int:
    started = time.monotonic()
    target = _parse_target(args.target)
    balls = parse_ball_list(args.balls)
    cert = certifier.certify_packing(target, balls, args.mode, args.precision)
    payload = {
        "target": str(cert.target),
        "mode": cert.mode,
        "lambda_threshold": _bound_json(cert.lambda_threshold, args.precision),
        "balls": [_fmt(b) for b in cert.balls],
        "ball_checks": [chk.below_threshold for chk in cert.checks],
        "volume_slack": _fmt(cert.volume_slack),
        "verdict": cert.verdict,
        "reasons": list(cert.reasons),
    }
    _emit(args, payload, "certify",
          {"target": args.target, "balls": args.balls, "mode": args.mode},
          started)
    return EXIT_OK if cert.certified else EXIT_REJECT


def cmd_ellipsoid_decide(args) -> int:
    started = time.monotonic()
    a = parse_rational(args.a)
    balls = parse_ball_list(args.balls)
    trace = certifier.decide_balls_into_ellipsoid(a, balls)
    payload = {"a": _fmt(a), "balls": [_fmt(b) for b in balls],
               "verdict": trace.verdict, "reason": trace.reason}
    if args.trace:
        payload["trace"] = _trace_json(trace)
    _emit(args, payload, "ellipsoid-decide",
          {"a": args.a, "balls": args.balls}, started)
    return EXIT_OK if trace.accepted else EXIT_REJECT


def _load_assignment(entry: dict) -> certifier.Assignment:
    kind = entry.get("kind")
    a, b = (parse_rational(x) for x in entry["ellipsoid"])
    if kind == "first_axis":
        return certifier.FirstAxisAssignment(a, b, int(entry["component"]))
    if kind == "second_axis":
        return certifier.SecondAxisAssignment(a, b, int(entry["component"]))
    if kind == "cross":
        return certifier.CrossAssignment(
            a, b,
            int(entry["first_component"]), str(entry["first_branch"]),
            int(entry["second_component"]), str(entry["second_branch"]))
    if kind == "free":
        return certifier.FreeEllipsoid(a, b)
    raise certifier.InvalidAssignmentError(f"unknown assignment kind {kind!r}")


def cmd_directed_check(args) -> int:
    started = time.monotonic()
    with open(args.file) as fh:
        data = json.load(fh)
    areas = [parse_rational(x) for x in data["components"]]
    assignments = [_load_assignment(e) for e in data.get("assignments", [])]
    ok, slacks = certifier.check_directed_hypotheses(areas, assignments)
    payload = {"ok": ok, "slacks": [_fmt(s) for s in slacks]}
    _emit(args, payload, "directed-check", {"file": args.file}, started)
    return EXIT_OK if ok else EXIT_REJECT


def load_polarization(data: dict) -> planner.Polarization:
    curves = tuple(planner.Curve(parse_rational(c["area"]),
                                 parse_rational(c["residue"]))
                   for c in data["curves"])
    vol = parse_rational(data["volume"]) if "volume" in data else None
    return planner.Polarization(curves, vol)


def cmd_decompose(args) -> int:
    started = time.monotonic()
    with open(args.polarization) as fh:
        pol = load_polarization(json.load(fh))
    errors = planner.validate_polarization(pol)
    if errors:
        raise planner.PolarizationError("; ".join(errors))
    plan = planner.build_plan(pol, mode=args.mode, precision=args.precision)
    payload = {
        "mode": plan.mode,
        "convention": plan.convention,
        "pieces": [{"label": p.label, "kind": p.kind, "domain": str(p.domain),
                    "volume": _fmt(p.volume)} for p in plan.pieces],
        "total_volume": _fmt(sum((p.volume for p in plan.pieces), Fraction(0))),
        "delta": _fmt(plan.delta),
        "lambda_pieces": _bound_json(plan.lambda_pieces, args.precision),
        "lambda_prime": _bound_json(plan.lambda_prime, args.precision),
    }
    if args.balls:
        with open(args.balls) as fh:
            data = json.load(fh)
        caps = [parse_rational(x)
                for x in (data["balls"] if isinstance(data, dict) else data)]
        part = planner.partition_balls(caps, [p.volume for p in plan.pieces],
                                       plan.delta, pad=args.pad)
        payload["partition"] = {
            "subsets": part.subsets,
            "subset_volumes": [_fmt(v) for v in part.subset_volumes],
            "fillers": [{"piece": f.piece, "volume": _fmt(f.volume)}
                        for f in part.fillers],
        }
        payload["certificates"] = [
            {"piece": plan.pieces[j].label,
             "verdict": certifier.certify_packing(
                 plan.pieces[j].domain, [caps[i] for i in subset],
                 args.mode, args.precision).verdict if subset else "CERTIFIED"}
            for j, subset in enumerate(part.subsets)]
    _emit(args, payload, "decompose",
          {"polarization": args.polarization, "balls": args.balls}, started)
    return EXIT_OK


def cmd_atlas(args) -> int:
    started = time.monotonic()
    amin = parse_rational(args.amin)
    amax = parse_rational(args.amax)
    step = parse_rational(args.step)
    if amin <= 1:
        raise RationalParseError("amin must be > 1")
    if step <= 0 or amax < amin:
        raise RationalParseError("empty grid")
    rows = []
    a = amin
    while a <= amax:
        cons = certifier.lambda_bound(toric.Ellipsoid(1, a),
                                      certifier.CONSERVATIVE, args.precision)
        opt = certifier.lambda_bound(toric.Ellipsoid(1, a),
                                     certifier.OPTIMISTIC, args.precision)
        kappa_sq, p = certifier.ellipsoid_bound_parts(a)
        rows.append((a, cons, opt, p, kappa_sq))
        a += step
    print("a,conservative,optimistic,p,kappa_sq")
    for a, cons, opt, p, kappa_sq in rows:
        print(f"{_fmt(a)},{decimal_lower(cons, DECIMAL_DIGITS)},"
              f"{decimal_lower(opt, DECIMAL_DIGITS)},{p},{_fmt(kappa_sq)}")
    if args.json:
        sys.stderr.write(json.dumps({
            "command": "atlas", "rows": len(rows),
            "elapsed_s": round(time.monotonic() - started, 6),
            "precision_bits": args.precision, "rounding": "down",
        }) + "\n")
    return EXIT_OK


def _add_global_flags(parser, suppress: bool = False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--precision", type=int,
                        default=d,
                        help="bits for directed-rounded bounds "
                             "(default 128, env SYMPACK_PRECISION)")
    parser.add_argument("--mode", choices=[certifier.CONSERVATIVE,
                                           certifier.OPTIMISTIC],
                        default=d if suppress else certifier.CONSERVATIVE)
    parser.add_argument("--json", action="store_true",
                        default=d if suppress else False,
                        help="wrap output in a full run report")
    parser.add_argument("--trace", action="store_true",
                        default=d if suppress else False,
                        help="include reduction traces where applicable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympack",
        description="Exact symplectic ball-packing toolkit")
    _add_global_flags(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", parents=[common], help="weight expansion of a rational a >= 1")
    p.add_argument("a")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("volume", parents=[common], help="exact volume of a toric domain")
    p.add_argument("domain", help="B(3/2) | E(1,5/2) | T(3/2,3/2,1,1) | P2(2)")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("dstar", parents=[common], help="stability-constant bound and search")
    p.add_argument("--lambdas", default="", help="blow-up sizes, e.g. 1/2,1/2")
    p.add_argument("--search-kmax", type=int, default=8)
    p.set_defaults(func=cmd_dstar)

    p = sub.add_parser("decide", parents=[common], help="Cremona decision for balls in P2(mu)")
    p.add_argument("--mu", required=True)
    p.add_argument("--balls", required=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("max-equal-ball", parents=[common],
                       help="largest capacity of N equal balls in P2(1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", default="1/1000000000")
    p.set_defaults(func=cmd_max_equal_ball)

    p = sub.add_parser("certify", parents=[common], help="packing certificate for a target")
    p.add_argument("--target", required=True,
                   help='e.g. "E(1,2)", "T(3/2,3/2,1,1)", "Blowup(1/2,1/2)"')
    p.add_argument("--balls", required=True, help="e.g. 13/100x100")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ellipsoid-decide", parents=[common],
                       help="exact decision for balls into E(1,a)")
    p.add_argument("-a", "--a", dest="a", required=True)
    p.add_argument("--balls", required=True)
    p.set_defaults(func=cmd_ellipsoid_decide)

    p = sub.add_parser("directed-check", parents=[common],
                       help="area hypotheses for curve-directed packings")
    p.add_argument("--file", required=True, help="JSON instance description")
    p.set_defaults(func=cmd_directed_check)

    p = sub.add_parser("decompose", parents=[common],
                       help="toric decomposition plan for a polarization")
    p.add_argument("--polarization", required=True, help="pol.json")
    p.add_argument("--balls", default=None, help="balls.json")
    p.add_argument("--pad", action="store_true",
                   help="pad the partition with filler balls")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("atlas", parents=[common],
                       help="CSV sweep of ellipsoid stability bounds")
    p.add_argument("--amin", required=True)
    p.add_argument("--amax", required=True)
    p.add_argument("--step", default="1/10")
    p.set_defaults(func=cmd_atlas)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.precision = (default_precision() if args.precision is None
                          else check_precision(args.precision, "--precision"))
        return args.func(args)
    except (RationalParseError, toric.DomainError, ValueError, OSError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"sympack: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError as exc:
        print(f"sympack: error: {exc}: the lattice search works in int64, so "
              "lcm(denominators) * search-kmax must stay below 2^63",
              file=sys.stderr)
        return EXIT_INVALID


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""sympack command-line front end.

All rational I/O is exact 'p/q' text; bounds involving square roots are
reported as downward-rounded decimal strings with explicit precision and
rounding metadata, at the precision ``run`` resolves once and passes on.
Exit codes: 0 success/accept/certified, 1 reject/not-certified, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple

from . import __version__, certifier, cremona, lattice, planner, toric, weights
from .rationals import (DEFAULT_PRECISION_BITS, RationalParseError,
                        decimal_lower, format_rational, parse_integer,
                        parse_rational, runs)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INVALID = 2

DECIMAL_DIGITS = 12
MAX_BALLS = 10 ** 6             # balls of a ball list, or weights of `weights`
MAX_ROWS = 10 ** 5              # rows an atlas grid may have
MIN_PRECISION_BITS = 4
MAX_PRECISION_BITS = 2 ** 14    # a bound at it takes well under a second
PRECISION_ENV_VAR = "SYMPACK_PRECISION"     # read by the CLI alone


_fmt = format_rational


def _fmt_all(xs) -> list[str]:
    """``_fmt`` of each entry, formatting a run of equal entries only once."""
    texts: list[str] = []
    for x, count in runs(xs):
        texts += [_fmt(x)] * count
    return texts


def check_precision(bits: int, source: str) -> int:
    """``bits`` if it is a usable precision, else a parse error naming ``source``."""
    if bits < MIN_PRECISION_BITS:
        raise RationalParseError(
            f"{source} too small: {bits} (need >= {MIN_PRECISION_BITS})")
    if bits > MAX_PRECISION_BITS:
        raise RationalParseError(
            f"{source} too large: {bits} (need <= {MAX_PRECISION_BITS})")
    return bits


def default_precision() -> int:
    """``SYMPACK_PRECISION``, else the library's ``DEFAULT_PRECISION_BITS``."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    return check_precision(parse_integer(raw, PRECISION_ENV_VAR),
                           PRECISION_ENV_VAR)


def _bound_json(value: Fraction, precision: int) -> dict:
    return {
        "decimal": decimal_lower(value, DECIMAL_DIGITS),
        "rational": _fmt(value),
        "precision_bits": precision,
        "rounding": "down",
    }


def parse_ball_list(text: str) -> list[Fraction]:
    """Comma-separated capacities, each 'p/q' or with 'xN' repetition.

    A negative capacity, or a list of more than MAX_BALLS balls, is a parse
    error.
    """
    balls: list[Fraction] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        count = 1
        cap_text = part
        if "x" in part:
            cap_text, count_text = part.rsplit("x", 1)
            count = parse_integer(count_text, "the repetition N of xN")
            if count < 0:
                raise RationalParseError(f"negative repetition in {part!r}")
        cap = parse_rational(cap_text)
        if cap < 0:
            raise RationalParseError(f"negative ball capacity in {part!r}")
        if len(balls) + count > MAX_BALLS:
            raise RationalParseError(
                f"ball list holds more than {MAX_BALLS} balls (at {part!r})")
        balls.extend([cap] * count)
    return balls


def _trace_json(trace: cremona.ReductionTrace) -> dict:
    def vec(v):
        return {"mu": _fmt(v.mu),
                "lambdas": _fmt_all(l for l in v.lambdas if l)}

    return {
        "verdict": trace.verdict,
        "reason": trace.reason,
        "volume_ok": trace.volume_ok,
        "steps": [{"before": vec(s.before), "defect": _fmt(s.defect),
                   "after": vec(s.after)} for s in trace.steps],
    }


def cmd_weights(args):
    a = parse_rational(args.a)
    if weights.weight_count(a) > MAX_BALLS:
        raise ValueError(f"{_fmt(a)} has more than {MAX_BALLS} weights")
    ws = weights.weight_sequence(a)
    return {
        "a": _fmt(a),
        "weights": [_fmt(w) for w in ws.weights],
        "p": len(ws),
        "sum_sq": _fmt(ws.sum_squares),
    }, EXIT_OK


def cmd_volume(args):
    domain = toric.parse_domain(args.domain)
    return {"domain": str(domain), "volume": _fmt(toric.volume(domain))}, EXIT_OK


def cmd_dstar(args):
    lams = tuple(parse_ball_list(args.lambdas)) if args.lambdas else ()
    form = lattice.BlowupForm(lams)
    bound = lattice.d_omega_bound(form, args.precision)
    result = lattice.d_omega_search(form, args.search_kmax)
    return {
        "lambdas": [_fmt(l) for l in lams],
        "bound": _bound_json(bound, args.precision),
        "search_kmax": args.search_kmax,
        "search_value": _fmt(result.value),
        "witness": {"k": result.witness.k, "m": list(result.witness.m)},
    }, EXIT_OK


def _decision(args, key: str, value: Fraction, balls,
              trace: cremona.ReductionTrace):
    """Payload and exit code shared by the two Cremona decisions."""
    payload = {key: _fmt(value), "balls": _fmt_all(balls),
               "verdict": trace.verdict, "reason": trace.reason}
    if args.trace:
        payload["trace"] = _trace_json(trace)
    return payload, EXIT_OK if trace.accepted else EXIT_REJECT


def cmd_decide(args):
    mu = parse_rational(args.mu)
    if mu <= 0:
        raise RationalParseError(f"--mu must be > 0, got {_fmt(mu)}")
    balls = parse_ball_list(args.balls)
    vec = cremona.PackingVector(mu, tuple(filter(None, balls)))
    return _decision(args, "mu", mu, balls, cremona.reduce_vector(vec))


def cmd_ellipsoid_decide(args):
    a = parse_rational(args.a)
    balls = parse_ball_list(args.balls)
    return _decision(args, "a", a, balls,
                     certifier.decide_balls_into_ellipsoid(a, balls))


def cmd_max_equal_ball(args):
    if args.n > MAX_BALLS:
        raise ValueError(f"--n must be at most {MAX_BALLS}, got {args.n}")
    tol = parse_rational(args.tol)
    value = cremona.max_equal_ball(args.n, tol)
    return {"n": args.n, "tol": _fmt(tol), "capacity": _fmt(value),
            "capacity_decimal": decimal_lower(value, DECIMAL_DIGITS)}, EXIT_OK


_BLOWUP_RE = re.compile(r"\s*blowup\s*\(([^()]*)\)\s*", re.IGNORECASE)


def _parse_target(text: str) -> certifier.Target:
    """Blowup(<ball list>), any case, or a domain that is not P2."""
    blowup = _BLOWUP_RE.fullmatch(text)
    if blowup:
        return lattice.BlowupForm(tuple(parse_ball_list(blowup.group(1))))
    domain = toric.parse_domain(text)
    if isinstance(domain, toric.ProjectivePlane):
        raise toric.DomainError(
            "P2(mu) is not a certification target; use Blowup(...) or a domain")
    return domain


def cmd_certify(args):
    target = _parse_target(args.target)
    balls = parse_ball_list(args.balls)
    cert = certifier.certify_packing(target, balls, args.mode, args.precision)
    return {
        "target": str(cert.target),
        "mode": cert.mode,
        "lambda_threshold": _bound_json(cert.lambda_threshold, args.precision),
        "balls": _fmt_all(chk.capacity for chk in cert.checks),
        "ball_checks": [chk.below_threshold for chk in cert.checks],
        "volume_slack": _fmt(cert.volume_slack),
        "verdict": cert.verdict,
        "reasons": list(cert.reasons),
    }, EXIT_OK if cert.certified else EXIT_REJECT


class JSONShapeError(ValueError):
    """A JSON input value whose type is not the one its field needs."""


_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _json(value, kind: type, what: str):
    """``value`` if it is a JSON value of type ``kind``, else a JSONShapeError."""
    if not isinstance(value, kind):
        raise JSONShapeError(
            f"{what} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _field(obj: dict, key: str, what: str):
    """``obj[key]``, else a JSONShapeError naming the missing field."""
    try:
        return obj[key]
    except KeyError:
        raise JSONShapeError(f'{what} has no "{key}" field') from None


def _json_rational(value, what: str) -> Fraction:
    return parse_rational(_json(value, str, what))


def _json_index(value, what: str) -> int:
    """An integer, or a string of one, as ``parse_integer`` reads it."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise JSONShapeError(f"{what} must be an integer, got {json.dumps(value)}")
    return parse_integer(value, what) if isinstance(value, str) else value


def _load_assignment(entry: dict) -> certifier.Assignment:
    entry = _json(entry, dict, "an assignment")
    kind = entry.get("kind")

    def field(key):
        return _field(entry, key, "an assignment")

    a, b = (_json_rational(x, "an ellipsoid size")
            for x in _json(field("ellipsoid"), list, '"ellipsoid"'))
    if kind in ("first_axis", "second_axis"):
        return certifier.AxisAssignment(
            a, b, _json_index(field("component"), '"component"'),
            kind.removesuffix("_axis"))
    if kind == "cross":
        return certifier.CrossAssignment(
            a, b,
            _json_index(field("first_component"), '"first_component"'),
            str(field("first_branch")),
            _json_index(field("second_component"), '"second_component"'),
            str(field("second_branch")))
    if kind == "free":
        return certifier.FreeEllipsoid(a, b)
    raise certifier.InvalidAssignmentError(f"unknown assignment kind {kind!r}")


def cmd_directed_check(args):
    with open(args.file) as fh:
        data = json.load(fh)
    data = _json(data, dict, "the instance")
    areas = [_json_rational(x, "a component area")
             for x in _json(_field(data, "components", "the instance"), list,
                            '"components"')]
    assignments = [_load_assignment(e)
                   for e in _json(data.get("assignments", []), list,
                                  '"assignments"')]
    ok, slacks = certifier.check_directed_hypotheses(areas, assignments)
    return ({"ok": ok, "slacks": [_fmt(s) for s in slacks]},
            EXIT_OK if ok else EXIT_REJECT)


def load_polarization(data: dict) -> planner.Polarization:
    data = _json(data, dict, "the polarization")
    curves = []
    for curve in _json(_field(data, "curves", "the polarization"), list,
                       '"curves"'):
        curve = _json(curve, dict, "a curve")
        curves.append(planner.Curve(
            _json_rational(_field(curve, "area", "a curve"), '"area"'),
            _json_rational(_field(curve, "residue", "a curve"), '"residue"')))
    vol = (_json_rational(data["volume"], '"volume"') if "volume" in data
           else None)
    return planner.Polarization(tuple(curves), vol)


def cmd_decompose(args):
    with open(args.polarization) as fh:
        pol = load_polarization(json.load(fh))
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
        caps = [_json_rational(x, "a ball capacity")
                for x in _json(_field(data, "balls", "the balls file")
                               if isinstance(data, dict) else data,
                               list, "the balls")]
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
    return payload, EXIT_OK


def cmd_atlas(args):
    """CSV lines, header first, in place of a JSON payload.

    A grid of more than MAX_ROWS rows is a parse error, raised before any
    row is built.
    """
    amin = parse_rational(args.amin)
    amax = parse_rational(args.amax)
    step = parse_rational(args.step)
    if amin <= 1:
        raise RationalParseError("amin must be > 1")
    if step <= 0 or amax < amin:
        raise RationalParseError("empty grid")
    rows = (amax - amin) // step + 1
    if rows > MAX_ROWS:
        raise RationalParseError(
            f"atlas grid has {rows} rows, more than {MAX_ROWS}; "
            "raise --step or narrow [--amin, --amax]")
    lines = ["a,conservative,optimistic,p,kappa_sq"]
    a = amin
    while a <= amax:
        target = toric.Ellipsoid(1, a)
        cons, opt = (certifier.lambda_bound(target, mode, args.precision)
                     for mode in (certifier.CONSERVATIVE, certifier.OPTIMISTIC))
        cut = target.complement        # cached by lambda_bound
        lines.append(f"{_fmt(a)},{decimal_lower(cons, DECIMAL_DIGITS)},"
                     f"{decimal_lower(opt, DECIMAL_DIGITS)},{cut.p},"
                     f"{_fmt(cut.kappa_sq)}")
        a += step
    return lines, EXIT_OK


class Command(NamedTuple):
    """A subcommand: handler, help line, argparse arguments, report inputs."""

    func: Callable[[argparse.Namespace], tuple[dict | list[str], int]]
    help: str
    arguments: tuple[tuple[tuple[str, ...], dict], ...]
    inputs: tuple[str, ...]            # arguments echoed in the --json report


def _arg(*flags, **options):
    return flags, options


def _integer_type(flag: str):
    """``parse_integer`` of ``flag`` as an argparse type."""
    def read(text: str) -> int:
        try:
            return parse_integer(text, flag)
        except RationalParseError as exc:   # argparse would echo the text
            raise argparse.ArgumentTypeError(exc) from None
    return read


COMMANDS = {
    "weights": Command(
        cmd_weights, "weight expansion of a rational a >= 1",
        (_arg("a"),), ("a",)),
    "volume": Command(
        cmd_volume, "exact volume of a toric domain",
        (_arg("domain", help="B(3/2) | E(1,5/2) | T(3/2,3/2,1,1) | P2(2)"),),
        ("domain",)),
    "dstar": Command(
        cmd_dstar, "stability-constant bound and search",
        (_arg("--lambdas", default="", help="blow-up sizes, e.g. 1/2,1/2"),
         _arg("--search-kmax", type=_integer_type("--search-kmax"), default=8)),
        ("lambdas",)),
    "decide": Command(
        cmd_decide, "Cremona decision for balls in P2(mu)",
        (_arg("--mu", required=True), _arg("--balls", required=True)),
        ("mu", "balls")),
    "max-equal-ball": Command(
        cmd_max_equal_ball, "largest capacity of N equal balls in P2(1)",
        (_arg("--n", type=_integer_type("--n"), required=True),
         _arg("--tol", default="1/1000000000")),
        ("n", "tol")),
    "certify": Command(
        cmd_certify, "packing certificate for a target",
        (_arg("--target", required=True,
              help='e.g. "E(1,2)", "T(3/2,3/2,1,1)", "Blowup(1/2,1/2)"'),
         _arg("--balls", required=True, help="e.g. 13/100x100")),
        ("target", "balls", "mode")),
    "ellipsoid-decide": Command(
        cmd_ellipsoid_decide, "exact decision for balls into E(1,a)",
        (_arg("-a", "--a", dest="a", required=True),
         _arg("--balls", required=True)),
        ("a", "balls")),
    "directed-check": Command(
        cmd_directed_check, "area hypotheses for curve-directed packings",
        (_arg("--file", required=True, help="JSON instance description"),),
        ("file",)),
    "decompose": Command(
        cmd_decompose, "toric decomposition plan for a polarization",
        (_arg("--polarization", required=True, help="pol.json"),
         _arg("--balls", default=None, help="balls.json"),
         _arg("--pad", action="store_true",
              help="pad the partition with filler balls")),
        ("polarization", "balls")),
    "atlas": Command(
        cmd_atlas, "CSV sweep of ellipsoid stability bounds",
        (_arg("--amin", required=True), _arg("--amax", required=True),
         _arg("--step", default="1/10")),
        ()),
}


def _run_command(args) -> int:
    """Run and time one command, then print its output and report.

    A JSON payload is printed as is, or with --json wrapped in the run
    report.  The CSV lines of atlas are printed as they are, and its --json
    report is one line on stderr.
    """
    command = COMMANDS[args.command]
    started = time.monotonic()
    output, code = command.func(args)
    elapsed = round(time.monotonic() - started, 6)
    if isinstance(output, list):
        print("\n".join(output))
        if args.json:
            sys.stderr.write(json.dumps({
                "command": args.command, "rows": len(output) - 1,
                "elapsed_s": elapsed, "precision_bits": args.precision,
                "rounding": "down",
            }) + "\n")
    else:
        if args.json:
            output = {
                "command": args.command,
                "inputs": {name: getattr(args, name) for name in command.inputs},
                "outputs": output,
                "elapsed_s": elapsed,
                "version": __version__,
                "precision_bits": args.precision,
            }
        # written in batches of chunks: with indent set json encodes in
        # Python, and dumps would hold every chunk and then the whole text
        chunks = json.JSONEncoder(indent=2).iterencode(output)
        while batch := "".join(islice(chunks, 1 << 14)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    return code


def _add_global_flags(parser, suppress: bool = False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--precision", type=_integer_type("--precision"),
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

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.precision = (default_precision() if args.precision is None
                          else check_precision(args.precision, "--precision"))
        return _run_command(args)
    except (RationalParseError, toric.DomainError, ValueError, OSError,
            json.JSONDecodeError, OverflowError) as exc:
        # Python's refusal to write an int as text (reading one has a ':')
        if (type(exc) is ValueError
                and "for integer string conversion;" in str(exc)):
            exc = (f"an output number has more than "
                   f"{sys.get_int_max_str_digits()} digits, the most sympack "
                   f"prints; lower --precision (now {args.precision} bits) or "
                   "shorten the input numbers")
        print(f"sympack: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

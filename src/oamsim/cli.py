"""Command-line entry point: each subcommand reproduces one headline
quantity as a file artifact and prints the single key number to stdout.

Angles are accepted in radians with pi-literal arithmetic ("pi/4", "-pi/2",
"3*pi/4"): numbers, pi, + - * / and parentheses. Exit codes: 0 success,
1 an oracle check failed, 2 invalid input (including a plate whose fringe
vanishes at a Bell setting, where S is undefined), 3 I/O failure.

The sizing flags have upper bounds, and a larger value exits 2 before any
work: --budget 1000000, --sectors 16 (also for the mask of a --plate-json or
--init file), --grid 4096, --samples 100000,
--p-max 1000, --l-halfwidth 250. farfield --extent must lie between 8 and
--grid/4 waist radii, so a grid cell spans at most half a waist, and
|--ell| at most pi*grid/(2*extent): by the sampling theorem the plate phase
ell*theta may advance by at most pi per cell at the waist radius. fringe
--verify on a spiral takes |--ell| at most sqrt(tol)*2**53/(2*pi), 1.43e11
at the oracle's tolerance tol = 1e-8: past it, rounding ell*theta to a
double moves the quadrature by more than tol, and the check exits 2.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import re
import sys
from dataclasses import replace

# lgfield and oracle import numpy, so the commands that need them import them
# themselves, and bell on a spiral or step plate runs on the standard library
from . import bell, overlap, plates

# upper bounds of the sizing flags: each keeps one run's time and memory
# bounded (a --grid of N holds one and a half N x N complex arrays and one
# block of N/64 of their rows per thread, under 400 MiB at 4096; --budget
# and --sectors set the search's mask evaluations and their size; --samples
# the rows of a fringe; --p-max and --l-halfwidth the rows of a
# decomposition)
LIMITS = {
    "budget": 1_000_000,
    "sectors": 16,
    "grid": 4096,
    "samples": 100_000,
    "p_max": 1000,
    "l_halfwidth": 250,
}

_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


class InputError(ValueError):
    pass


def _evaluate(node):
    """Value of an angle expression tree: numbers, pi, unary +/-, + - * /
    and parentheses; any other node is an InputError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_evaluate(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    raise InputError(f"{type(getattr(node, 'op', node)).__name__} is not allowed in an angle")


def parse_angle(text: str) -> float:
    """Evaluate a radian expression that may use the literal 'pi'."""
    # insert the multiplication sign in forms like '3pi'
    expr = re.sub(r"(\d)\s*pi", r"\1*pi", text.strip())
    try:
        value = float(_evaluate(ast.parse(expr, mode="eval").body))
    except (SyntaxError, ArithmeticError, RecursionError, ValueError) as exc:
        raise InputError(f"cannot parse angle {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"angle {text!r} is not finite")
    return value


def _check_limits(args):
    """InputError for a sizing flag above its documented bound."""
    for name, limit in LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and value > limit:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} {value} exceeds its limit of {limit}")


def _read_plate(path) -> plates.PhasePlate:
    """The plate a JSON file describes; every failure is an InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read plate file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid plate JSON: {exc}") from exc
    try:
        plate = plates.from_dict(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"invalid plate description: {exc}") from exc
    if isinstance(plate, plates.BinarySectors) and len(plate.sectors) > LIMITS["sectors"]:
        raise InputError(f"plate file has {len(plate.sectors)} sectors, above the limit of "
                         f"{LIMITS['sectors']}")
    return plate


def _plate_from_args(args) -> plates.PhasePlate:
    if getattr(args, "plate_json", None):
        return _read_plate(args.plate_json)
    kind = args.plate
    alpha = parse_angle(args.alpha)
    if kind == "spiral":
        if args.ell is None:
            raise InputError("--ell is required for spiral plates")
        return plates.Spiral(float(args.ell), alpha)
    if kind == "step":
        if args.phi is None:
            raise InputError("--phi is required for step plates")
        return plates.Step(parse_angle(args.phi), alpha)
    raise InputError(f"unknown plate family {kind!r}; use --plate-json for binary masks")


def _settings(name, pi_periodic) -> bell.BellSettings:
    """The analyzer angles --settings names; auto takes the polarization
    standards for a pi-periodic fringe (cos^2, the phi = pi step) and the
    spiral ones otherwise."""
    if name == "polarization" or (name == "auto" and pi_periodic):
        return bell.POLARIZATION_SETTINGS
    return bell.SPIRAL_SETTINGS


def cmd_fringe(args) -> int:
    plate = _plate_from_args(args)
    curve = overlap.sample_curve(plate, args.samples)
    if args.kind == "coincidence":
        curve = replace(curve, header=("delta_rad", "coincidence_probability"))
    if args.verify:
        from .oracle import OracleMismatch, verify_overlap

        try:
            for a, _ in curve.samples:
                verify_overlap(plate, a).require()
        except OracleMismatch as exc:
            print(f"oracle mismatch: {exc}", file=sys.stderr)
            return 1
    curve.write_csv(args.out)
    rows = curve.samples
    print(f"{len(rows)} samples, min probability {min(p for _, p in rows):.12g}")
    return 0


def cmd_bell(args) -> int:
    if args.fringe == "cos2":
        result = bell.chsh_s(lambda d: math.cos(d) ** 2, _settings(args.settings, True),
                             fringe_id="cos2")
    else:
        plate = _plate_from_args(args)
        pi_periodic = isinstance(plate, plates.Step) and abs(plate.phi - math.pi) < 1e-12
        result = bell.chsh_s(
            lambda d: overlap.closed_form_probability(plate, d),
            _settings(args.settings, pi_periodic), fringe_id=plates.to_json(plate))
    if args.out:
        result.write_json(args.out)
    print(f"{result.s:.12g}")
    return 0


def cmd_search(args) -> int:
    init = None
    if args.init:
        init = _read_plate(args.init)
        if not isinstance(init, plates.BinarySectors):
            raise InputError(f"--init must describe a binary mask, not a {type(init).__name__}")
    # a mask's fringe is not known to be pi-periodic, so auto means spiral
    settings = _settings(args.settings, False)
    phi = parse_angle(args.phi)
    try:
        result = bell.search_max_s(
            args.sectors, phi, settings=settings, budget=args.budget,
            seed=args.seed, init_mask=init)
    except bell.DegenerateFringeError:
        print("degenerate fringe: no usable mask found")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"S": None, "degenerate": True}, fh)
        return 0
    if args.out:
        result.write_json(args.out)
    print(f"{result.s:.12g}")
    return 0


def cmd_decompose(args) -> int:
    plate = plates.Spiral(float(args.ell))
    from . import lgfield

    half = args.l_halfwidth
    center = round(args.ell)
    decomposition = lgfield.decompose_plate_output(
        plate, l_window=(center - half, center + half), p_max=args.p_max,
        target_power=args.target)
    decomposition.write_csv(args.out)
    try:
        count = decomposition.count_at(args.target)
        print(count)
    except ValueError:
        print(f"incomplete: window power {decomposition.window_power:.6f}")
    return 0


def cmd_farfield(args) -> int:
    plate = plates.Spiral(float(args.ell))
    from . import lgfield

    image = lgfield.far_field(plate, n=args.grid, extent=args.extent)
    image.write_pgm(args.out)
    image.write_sidecar(args.out + ".json")
    print(f"{image.asymmetry_metric():.6g}")
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    reports = oracle.standard_sweep()
    if args.out:
        oracle.write_jsonl(reports, args.out)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} oracle checks passed")
    return 0 if not failed else 1


def _add_plate_flags(sub):
    sub.add_argument("--plate", choices=["spiral", "step"], default="spiral")
    sub.add_argument("--ell", type=float, help="spiral step index")
    sub.add_argument("--phi", default="pi", help="step/binary phase delay (radians, pi literals)")
    sub.add_argument("--alpha", default="0", help="plate orientation (radians, pi literals)")
    sub.add_argument("--plate-json", help="JSON plate description file (any family)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamsim")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fringe", help="overlap or coincidence fringe CSV")
    _add_plate_flags(p)
    p.add_argument("--kind", choices=["coincidence", "overlap"], default="coincidence")
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--verify", action="store_true", help="cross-check each sample by quadrature")
    p.add_argument("--out", default="fringe.csv")
    p.set_defaults(func=cmd_fringe)

    p = subs.add_parser("bell", help="CHSH Bell parameter JSON")
    _add_plate_flags(p)
    p.add_argument("--fringe", choices=["plate", "cos2"], default="plate")
    p.add_argument("--settings", choices=["auto", "spiral", "polarization"], default="auto")
    p.add_argument("--out", default="bell.json")
    p.set_defaults(func=cmd_bell)

    p = subs.add_parser("search", help="binary-mask search for the maximal S")
    p.add_argument("--sectors", type=int, default=3)
    p.add_argument("--phi", default="pi")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--settings", choices=["auto", "spiral", "polarization"], default="spiral")
    p.add_argument("--init", help="initial mask JSON of phi --phi (evaluated as-is at budget 0)")
    p.add_argument("--out", default="mask.json")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("decompose", help="LG decomposition CSV of a spiral-plate output")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--target", type=float, default=0.87)
    p.add_argument("--l-halfwidth", type=int, default=60)
    p.add_argument("--p-max", type=int, default=120)
    p.add_argument("--out", default="decomposition.csv")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("farfield", help="far-field PGM image plus JSON sidecar")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--extent", type=float, default=16.0)
    p.add_argument("--out", default="farfield.pgm")
    p.set_defaults(func=cmd_farfield)

    p = subs.add_parser("verify", help="run the oracle verification sweep")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except (InputError, ValueError, bell.DegenerateFringeError) as exc:
        # a fringe that vanishes at a setting leaves S undefined
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

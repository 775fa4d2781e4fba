"""Command-line entry point: each subcommand reproduces one headline
quantity as a file artifact and prints the single key number to stdout.

Angles are accepted in radians with pi-literal arithmetic ("pi/4", "-pi/2",
"3*pi/4"): numbers, pi, + - * / and parentheses. Exit codes: 0 success,
1 an oracle check failed, 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import bell, lgfield, oracle, overlap, plates, twophoton

_ANGLE_RE = re.compile(r"^[0-9pi+\-*/(). ]+$")


class InputError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Evaluate a radian expression that may use the literal 'pi'."""
    text = text.strip()
    # '**' passes the character class but is not in the grammar, and a
    # tower of powers would run for unbounded time inside eval
    if not text or not _ANGLE_RE.match(text) or "**" in text:
        raise InputError(f"cannot parse angle {text!r}")
    # insert the multiplication sign in forms like '3pi'
    expr = re.sub(r"(\d)\s*pi", r"\1*pi", text)
    try:
        return float(eval(expr, {"__builtins__": {}}, {"pi": math.pi}))
    except Exception as exc:
        raise InputError(f"cannot parse angle {text!r}: {exc}") from exc


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
        return plates.from_dict(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"invalid plate description: {exc}") from exc


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


def _settings_from_args(args, plate=None) -> bell.BellSettings:
    name = getattr(args, "settings", "auto")
    if name == "polarization":
        return bell.POLARIZATION_SETTINGS
    if name == "spiral":
        return bell.SPIRAL_SETTINGS
    # auto: pi-periodic phi=pi step fringe takes the polarization standards
    if isinstance(plate, plates.Step) and abs(plate.phi - math.pi) < 1e-12:
        return bell.POLARIZATION_SETTINGS
    return bell.SPIRAL_SETTINGS


def cmd_fringe(args) -> int:
    plate = _plate_from_args(args)
    if args.kind == "overlap":
        curve = overlap.sample_curve(plate, args.samples, verify=args.verify)
        rows = curve.samples
        curve.write_csv(args.out)
    else:
        fringe = twophoton.coincidence_fringe(
            twophoton.TwoPhotonState(q=args.pump_q), plate, args.samples)
        if args.verify:
            for d, _ in fringe.samples:
                oracle.verify_fringe_sample(plate, d).require()
        rows = fringe.samples
        fringe.write_csv(args.out)
    print(f"{len(rows)} samples, min probability {min(p for _, p in rows):.12g}")
    return 0


def cmd_bell(args) -> int:
    if args.fringe == "cos2":
        settings = (bell.POLARIZATION_SETTINGS if args.settings in ("auto", "polarization")
                    else bell.SPIRAL_SETTINGS)
        result = bell.chsh_s(lambda d: math.cos(d) ** 2, settings, fringe_id="cos2")
    else:
        plate = _plate_from_args(args)
        settings = _settings_from_args(args, plate)
        result = bell.chsh_s(
            lambda d: twophoton.fringe_probability(plate, d), settings,
            fringe_id=plates.to_json(plate))
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
    settings = _settings_from_args(args)
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
    image = lgfield.far_field(plate, n=args.grid, extent=args.extent)
    image.write_pgm(args.out)
    image.write_sidecar(args.out + ".json")
    print(f"{image.asymmetry_metric():.6g}")
    return 0


def cmd_verify(args) -> int:
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
    parser.add_argument("--seed", type=int, default=0)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fringe", help="overlap or coincidence fringe CSV")
    _add_plate_flags(p)
    p.add_argument("--kind", choices=["coincidence", "overlap"], default="coincidence")
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--pump-q", type=int, default=0)
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
    p.add_argument("--init", help="initial mask JSON (evaluated as-is when budget is 0)")
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
        return args.func(args)
    except oracle.OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oamsim
from oamsim import bell, lgfield, oracle, overlap, plates
from oamsim.cli import LIMITS, InputError, build_parser, main, parse_angle


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    return err


def test_parse_angle_literals():
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("3*pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("1.5") == 1.5


def test_parse_angle_rejects_garbage():
    for bad in ("", "import os", "pi; x", "exp(1)", "__x__"):
        with pytest.raises(InputError):
            parse_angle(bad)


def test_parse_angle_rejects_powers():
    # '9**9**7' would take seconds to evaluate; it must fail before that
    for bad in ("2**3", "9**9**7"):
        with pytest.raises(InputError):
            parse_angle(bad)


@pytest.mark.parametrize("bad", ["exp(1)", "pi.real", "e", "2**3"])
def test_angle_outside_grammar_exits_2(tmp_path, capsys, bad):
    # a call, an attribute, a name other than pi, and a power
    out = tmp_path / "bell.json"
    assert main(["bell", "--ell", "0.5", "--alpha", bad, "--out", str(out)]) == 2
    _one_line_error(capsys)
    assert not out.exists()


def _refuse_work(*args, **kwargs):
    raise AssertionError("a sizing flag above its bound reached the computation")


def _refuse_all_work(monkeypatch):
    for module, name in ((bell, "search_max_s"), (bell, "chsh_s"), (lgfield, "far_field"),
                         (lgfield, "decompose_plate_output"), (overlap, "sample_curve")):
        monkeypatch.setattr(module, name, _refuse_work)


@pytest.mark.parametrize("flag,args", [
    ("budget", ["search"]),
    ("sectors", ["search"]),
    ("grid", ["farfield", "--ell", "0.5"]),
    ("samples", ["fringe", "--ell", "0.5"]),
    ("samples", ["fringe", "--ell", "0.5", "--kind", "overlap"]),
    ("p_max", ["decompose", "--ell", "0.5"]),
    ("l_halfwidth", ["decompose", "--ell", "0.5"]),
])
def test_sizing_flag_above_bound_exits_2(tmp_path, capsys, monkeypatch, flag, args):
    _refuse_all_work(monkeypatch)
    out = tmp_path / "out"
    option = "--" + flag.replace("_", "-")
    assert main(args + [option, str(LIMITS[flag] + 1), "--out", str(out)]) == 2
    assert option in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("args", [["bell", "--plate-json"], ["fringe", "--plate-json"],
                                  ["search", "--init"]], ids=lambda a: a[0])
def test_plate_file_above_sector_bound_exits_2(tmp_path, capsys, monkeypatch, args):
    # the covariogram's work and memory grow as the square of the sectors
    _refuse_all_work(monkeypatch)
    plate = tmp_path / "plate.json"
    plate.write_text(json.dumps({"type": "binary", "phi": math.pi, "sectors": [
        [0.3 * i, 0.3 * i + 0.2] for i in range(LIMITS["sectors"] + 1)]}))
    out = tmp_path / "out"
    assert main(args + [str(plate), "--out", str(out)]) == 2
    assert "above the limit of 16" in _one_line_error(capsys)
    assert not out.exists()


def test_sizing_bounds_admit_the_defaults():
    parser = build_parser()
    for command in ("search", "farfield --ell 0.5", "fringe", "decompose --ell 0.5"):
        args = parser.parse_args(command.split())
        for name, limit in LIMITS.items():
            assert getattr(args, name, 0) <= limit


def test_bell_spiral_headline(tmp_path, capsys):
    out = tmp_path / "bell.json"
    code = main(["bell", "--plate", "spiral", "--ell", "0.5", "--out", str(out)])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(3.2, abs=1e-12)
    doc = json.loads(out.read_text())
    assert doc["S"] == pytest.approx(3.2, abs=1e-12)


def test_bell_fractional_spiral(tmp_path, capsys):
    # S = 16 s2 / (16 - 11 s2) with s2 = sin^2(0.4 pi)
    out = tmp_path / "bell.json"
    assert main(["bell", "--ell", "0.4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "2.39192786154\n"
    s2 = math.sin(0.4 * math.pi) ** 2
    assert json.loads(out.read_text())["S"] == pytest.approx(16 * s2 / (16 - 11 * s2), abs=1e-12)


def test_fringe_fractional_spiral_verified(tmp_path, capsys):
    out = tmp_path / "fringe.csv"
    assert main(["fringe", "--ell", "0.3", "--verify", "--samples", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 64
    for delta, p in rows:
        report = oracle.verify_overlap(plates.Spiral(0.3), float(delta))
        assert report.passed and abs(report.closed_form - float(p)) <= 1e-12
    assert capsys.readouterr().out == "64 samples, min probability 0.345491502813\n"


def test_half_integer_overlap_fringe_reaches_zero(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["fringe", "--kind", "overlap", "--ell", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "360 samples, min probability 0\n"
    assert "3.14159265359,0\n" in out.read_text()


def test_bell_step_auto_settings(tmp_path, capsys):
    out = tmp_path / "bell.json"
    assert main(["bell", "--plate", "step", "--phi", "pi", "--out", str(out)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.2, abs=1e-12)
    doc = json.loads(out.read_text())
    assert doc["settings"]["perp_offset"] == pytest.approx(math.pi / 2)


def test_bell_cos2_sanity(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bell", "--fringe", "cos2", "--out", str(out)]) == 0
    # stdout carries 12 significant digits; the file keeps full precision
    assert float(capsys.readouterr().out.strip()) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-10
    )
    assert json.loads(out.read_text())["S"] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )


@pytest.mark.parametrize("name, s", [("auto", 2.82842712475), ("polarization", 2.82842712475),
                                     ("spiral", 0.0)])
def test_bell_cos2_under_each_settings(tmp_path, capsys, name, s):
    # the spiral settings double the cos^2 fringe's angles, so S is zero
    # to rounding there
    out = tmp_path / "b.json"
    assert main(["bell", "--fringe", "cos2", "--settings", name, "--out", str(out)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(s, rel=0, abs=1e-12)


@pytest.mark.parametrize("flags", [["--ell", "inf"], ["--plate-json", "/nonexistent.json"],
                                   ["--plate", "spiral"], ["--phi", "pi"], ["--alpha", "0"]])
def test_bell_cos2_rejects_plate_flags(tmp_path, capsys, flags):
    # the cos^2 fringe reads no plate, so a plate flag beside it is an error,
    # even one that names a default
    out = tmp_path / "b.json"
    assert main(["bell", "--fringe", "cos2", *flags, "--out", str(out)]) == 2
    assert f"takes no plate flag: {flags[0]}" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("sectors", [((0, 1), (2, 3)), ((0, 2), (4, 6))],
                         ids=["standard-sweep-mask", "alternate-quarters"])
def test_bell_on_a_vanishing_fringe_exits_2(tmp_path, capsys, sectors):
    # sector ends in units of pi/4; a fringe zero at a Bell setting leaves S
    # undefined
    plate = tmp_path / "mask.json"
    plate.write_text(json.dumps({"type": "binary", "phi": math.pi, "sectors": [
        [a * math.pi / 4, b * math.pi / 4] for a, b in sectors]}))
    out = tmp_path / "bell.json"
    assert main(["bell", "--plate-json", str(plate), "--out", str(out)]) == 2
    assert "vanishing coincidence rate" in _one_line_error(capsys)
    assert not out.exists()


def test_fringe_coincidence_csv(tmp_path, capsys):
    out = tmp_path / "fringe.csv"
    code = main(["fringe", "--plate", "spiral", "--ell", "0.5",
                 "--samples", "90", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta_rad,coincidence_probability"
    assert len(lines) == 91


@pytest.mark.parametrize("plate", [["--ell", "0.25"], ["--ell", "2.5"],
                                   ["--plate", "step", "--phi", "pi/3"]],
                         ids=["spiral-quarter", "spiral-5/2", "step-third"])
def test_coincidence_fringe_is_the_sampled_overlap_law(tmp_path, capsys, plate):
    # the two kinds differ in their header only, and --verify checks the
    # samples without changing a row or the printed minimum
    csv, printed = {}, {}
    for kind in ("coincidence", "overlap"):
        for verify in ([], ["--verify"]):
            out = tmp_path / f"{kind}{len(verify)}.csv"
            argv = ["fringe", "--kind", kind, "--samples", "97", "--out", str(out)]
            assert main(argv + verify + plate) == 0
            csv[kind, bool(verify)] = out.read_text().splitlines()
            printed[kind, bool(verify)] = capsys.readouterr().out
    assert csv["coincidence", False][0] == "delta_rad,coincidence_probability"
    assert csv["overlap", False][0] == "alpha_rad,probability"
    assert len(csv["overlap", False]) == 98
    for key in csv:
        assert csv[key][0] == csv[key[0], False][0]
        assert csv[key][1:] == csv["coincidence", False][1:], key
        assert printed[key] == printed["coincidence", False], key


def test_fringe_overlap_verified(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["fringe", "--plate", "step", "--phi", "pi/2", "--kind", "overlap",
                 "--samples", "24", "--verify", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 25


def test_fringe_binary_plate_json(tmp_path):
    plate = tmp_path / "plate.json"
    plate.write_text(json.dumps(
        {"type": "binary", "phi": math.pi, "sectors": [[0.0, 1.0]], "alpha": 0.0}))
    out = tmp_path / "curve.csv"
    code = main(["fringe", "--plate-json", str(plate), "--kind", "overlap",
                 "--samples", "16", "--out", str(out)])
    assert code == 0


def test_search_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["search", "--sectors", "2", "--budget", "400", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_reads_its_seed(tmp_path, capsys):
    # the output is the library's search at that seed, not at the default 0
    out, seeded, default = tmp_path / "cli.json", tmp_path / "seed5.json", tmp_path / "seed0.json"
    assert main(["search", "--seed", "5", "--budget", "500", "--out", str(out)]) == 0
    bell.search_max_s(3, math.pi, budget=500, seed=5).write_json(seeded)
    bell.search_max_s(3, math.pi, budget=500, seed=0).write_json(default)
    assert out.read_bytes() == seeded.read_bytes()
    assert out.read_bytes() != default.read_bytes()


def test_search_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "mask.json"
    assert main(["search", "--seed", "-1", "--budget", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--seed", "5", "search", "--budget", "500"],  # only the search subcommand has a seed
    ["fringe", "--ell", "0.5", "--pump-q", "1"],  # the pump OAM drops out of every rate
])
def test_removed_flags_are_usage_errors(tmp_path, capsys, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_search_budget_one_scores_the_first_start(tmp_path, capsys):
    out = tmp_path / "mask.json"
    assert main(["search", "--budget", "1", "--out", str(out)]) == 0
    s = float(capsys.readouterr().out.strip())
    doc = json.loads(out.read_text())
    assert math.isfinite(s) and s == pytest.approx(doc["S"], abs=1e-11)
    assert doc["trace"] == [[1, doc["S"]]]


def test_search_budget_zero_with_init(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(
        {"type": "binary", "phi": math.pi, "sectors": [[0.0, math.pi]], "alpha": 0.0}))
    out = tmp_path / "mask.json"
    code = main(["search", "--budget", "0", "--init", str(init),
                 "--settings", "polarization", "--out", str(out)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.2, abs=1e-12)


def test_search_init_with_fewer_sectors(tmp_path, capsys):
    # the one-sector quarter mask already reaches S = 4, so the final
    # descent polishes its 2 boundaries, not the 6 of --sectors 3
    init = tmp_path / "init.json"
    init.write_text(json.dumps(
        {"type": "binary", "phi": math.pi, "sectors": [[0.0, math.pi / 2]], "alpha": 0.0}))
    code = main(["search", "--budget", "100", "--init", str(init),
                 "--out", str(tmp_path / "mask.json")])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, abs=1e-12)


def test_decompose_headline(tmp_path, capsys):
    out = tmp_path / "decomp.csv"
    code = main(["decompose", "--ell", "0.5", "--l-halfwidth", "40",
                 "--p-max", "60", "--out", str(out)])
    assert code == 0
    count = int(capsys.readouterr().out.strip())
    assert 9 <= count <= 13


def test_decompose_reports_incomplete_window(tmp_path, capsys):
    out = tmp_path / "decomp.csv"
    code = main(["decompose", "--ell", "0.5", "--l-halfwidth", "0",
                 "--p-max", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("incomplete: window power 0.4")


def test_farfield_writes_image(tmp_path, capsys):
    out = tmp_path / "field.pgm"
    code = main(["farfield", "--ell", "3.5", "--grid", "256", "--out", str(out)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) > 1.5
    assert out.read_bytes().startswith(b"P5\n")
    assert json.loads((tmp_path / "field.pgm.json").read_text())["grid"] == 256


def test_verify_sweep(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    code = main(["verify", "--out", str(out)])
    assert code == 0
    assert "oracle checks passed" in capsys.readouterr().out
    assert out.read_text().strip()


def test_exit_code_bad_input(tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")]
    for args in (
        ["bell", "--plate", "spiral"],  # missing --ell
        ["bell", "--plate", "spiral", "--ell", "0.5", "--alpha", "nonsense"],
        ["bell", "--ell", "inf"],
        ["bell", "--ell", "nan"],
        ["farfield", "--ell", "nan", "--grid", "64"],
        ["farfield", "--ell", "0.5", "--extent", "nan", "--grid", "128"],
        ["farfield", "--ell", "0.5", "--extent", "inf", "--grid", "128"],
        ["decompose", "--ell", "inf"],
        ["decompose", "--ell", "1e19"],  # l overflows the radial overlaps
        ["decompose", "--ell", "1e16"],  # neighbouring l share one float
        ["decompose", "--ell", "0.5", "--target", "nan"],
        ["decompose", "--ell", "0.5", "--target", "0"],
        ["farfield", "--ell", "0.5", "--grid", "128", "--extent", "1e300"],
        ["farfield", "--ell", "0.5", "--grid", "128", "--extent", "1e5"],
        ["farfield", "--ell", "0.5", "--grid", "128", "--extent", "33"],  # cell > half a waist
        ["farfield", "--ell", "12.6", "--grid", "128"],  # plate phase aliased at the waist
        ["farfield", "--ell=-1e6", "--grid", "128"],
        ["farfield", "--ell", "1e9", "--grid", "128"],
    ):
        assert main(args + out) == 2, args
        _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


# every numeric flag of the computing subcommands, on a base command kept small
_NUMERIC_FLAGS = [
    (["bell", "--ell", "0.5"], ("--ell", "--alpha")),
    (["bell", "--plate", "step"], ("--phi",)),
    (["fringe", "--ell", "0.5", "--samples", "8"], ("--ell", "--alpha", "--samples")),
    (["fringe", "--plate", "step", "--samples", "8"], ("--phi",)),
    (["search", "--sectors", "2", "--budget", "40"], ("--sectors", "--phi", "--budget", "--seed")),
    (["decompose", "--ell", "0.5", "--l-halfwidth", "4", "--p-max", "4"],
     ("--ell", "--target", "--l-halfwidth", "--p-max")),
    (["farfield", "--ell", "0.5", "--grid", "128"], ("--ell", "--grid", "--extent")),
]
_INT_FLAGS = {"--samples", "--sectors", "--budget", "--seed", "--l-halfwidth", "--p-max", "--grid"}
_EDGE_VALUES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e19", "0", "-1", "1e-300")


def _edge_cases():
    for base, flags in _NUMERIC_FLAGS:
        for flag in flags:
            for text in _EDGE_VALUES:
                value = float(text)
                if flag in _INT_FLAGS:
                    # an integer flag gets the integers of the table; argparse
                    # rejects nan, inf and 1e-300 before any program code runs
                    if not math.isfinite(value) or value != int(value):
                        continue
                    text = str(int(value))
                # "--flag=-1": a separate "-1" would read as an option
                yield pytest.param(base + [f"{flag}={text}"], id=f"{base[0]} {flag}={text}")


@pytest.mark.parametrize("args", _edge_cases())
def test_numeric_flag_edge_values(tmp_path, capsys, args):
    code = main(args + ["--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err
    else:
        assert "nan" not in out.lower() and "inf" not in out.lower(), out


def test_exit_code_io_failure(tmp_path):
    code = main(["bell", "--plate", "spiral", "--ell", "0.5",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")])
    assert code == 3


@pytest.mark.parametrize("doc", [
    {"type": "binary", "phi": math.pi},  # no sectors
    {"type": "spiral", "ell": 0.5},
    {"type": "step", "phi": math.pi},
    [0.0, 1.0],
    # a mask whose phi is not the search's --phi (pi)
    {"type": "binary", "phi": math.pi / 2, "sectors": [[0.0, math.pi / 2]], "alpha": 0.0},
])
def test_search_init_rejects_malformed_mask(tmp_path, capsys, doc):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(doc))
    code = main(["search", "--budget", "0", "--init", str(init),
                 "--out", str(tmp_path / "mask.json")])
    assert code == 2
    _one_line_error(capsys)


def test_search_init_unreadable_is_input_error(tmp_path, capsys):
    code = main(["search", "--budget", "0", "--init", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "mask.json")])
    assert code == 2
    assert "cannot read plate file" in _one_line_error(capsys)


@pytest.mark.parametrize("kind", ["overlap", "coincidence"])
def test_fringe_verify_mismatch_exits_1(tmp_path, capsys, kind):
    # a sector edge at 1 rad lies between quadrature nodes
    plate = tmp_path / "plate.json"
    plate.write_text(json.dumps(
        {"type": "binary", "phi": math.pi, "sectors": [[0.0, 1.0]]}))
    code = main(["fringe", "--plate-json", str(plate), "--kind", kind, "--verify",
                 "--samples", "8", "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert _one_line_error(capsys).startswith("oracle mismatch:")


def test_fringe_verify_rejects_unresolvable_ell(tmp_path, capsys):
    # past |ell| = 1.43e11 rounding ell*theta moves the quadrature by more
    # than its tolerance, so the check would flag the right closed form
    argv = ["fringe", "--kind", "overlap", "--verify", "--samples", "8",
            "--out", str(tmp_path / "f.csv")]
    assert main(argv + ["--ell", "2.5e15"]) == 2
    assert _one_line_error(capsys).startswith("error:")
    assert main(argv + ["--ell", "1e10"]) == 0


def _fresh_python(script, cwd, args=()):
    """stdout of ``script`` run with ``args`` in a fresh interpreter that
    imports the package under test."""
    src = str(Path(oamsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_subcommands_load_no_scipy(tmp_path):
    # scipy serves only the oracle's quadrature check and the tests; the
    # import and every subcommand run on numpy alone, and the search draws
    # its starts without numpy's random module
    commands = [
        ["bell", "--ell", "0.5"],
        ["fringe", "--ell", "0.5", "--verify"],
        ["verify"],
        ["decompose", "--ell", "0.5"],
        ["farfield", "--ell", "3.5", "--grid", "128"],
        ["search", "--budget", "200"],
    ]
    code = ("import sys, oamsim.cli\n"
            f"codes = [oamsim.cli.main(argv) for argv in {commands!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m in ('scipy', 'numpy.random')"
            " or m.startswith(('scipy.', 'numpy.random.'))))")
    assert _fresh_python(code, tmp_path).strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


# prints the top-level numpy and scipy packages the interpreter has loaded
_LOADED = "print(sorted({m.partition('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"


def test_import_loads_no_numpy(tmp_path):
    assert _fresh_python("import sys, oamsim\n" + _LOADED, tmp_path).strip() == "[]"


def test_far_field_loads_no_executor(tmp_path):
    # the far field's helper thread comes from threading, which the package
    # loads anyway, not from concurrent.futures
    script = ("import sys\nfrom oamsim import Spiral, lgfield\n"
              "lgfield.far_field(Spiral(3.5), n=128)\n"
              "print('concurrent.futures' in sys.modules)")
    assert _fresh_python(script, tmp_path).strip() == "False"


# the package's names, which resolve whether or not lgfield has loaded
_PACKAGE_NAMES = [
    "AngularGrid", "BellResult", "BellSettings", "BinarySectors", "ClosedForm",
    "DegenerateFringeError", "FarFieldImage", "LgDecomposition", "MaskSearchResult",
    "POLARIZATION_SETTINGS", "PhasePlate", "SPIRAL_SETTINGS", "SampledCurve", "Spiral", "Step",
    "UnsupportedAnalyzerError", "angular", "bell", "chsh_s", "chsh_s_exact",
    "decompose_plate_output", "far_field", "inner_product", "integer_mode", "lgfield",
    "oam_spectrum", "overlap", "plate_state", "plates", "sample_curve", "search_max_s",
    "spiral_overlap_probability",
]


def test_package_surface(tmp_path):
    # dir() before any lgfield name is read, then the star import resolves
    # every name in a fresh interpreter
    script = ("import json, oamsim\n"
              "listed = dir(oamsim)\n"
              "names = {}\n"
              "exec('from oamsim import *', names)\n"
              "print(json.dumps([oamsim.__all__, listed, sorted(set(names) - {'__builtins__'}),"
              " oamsim.far_field is oamsim.lgfield.far_field]))")
    exported, listed, imported, same = json.loads(_fresh_python(script, tmp_path))
    assert exported == _PACKAGE_NAMES == imported and same
    assert set(_PACKAGE_NAMES) <= set(listed)
    with pytest.raises(AttributeError):
        oamsim.no_such_name
    pyproject = (Path(oamsim.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    assert oamsim.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M)[1]


@pytest.mark.parametrize("command, code", [
    ("bell --ell 0.5", 0),
    ("bell --ell 0.4", 0),
    ("bell --plate step --phi pi", 0),
    ("bell --plate step --phi pi/3", 0),
    ("bell --fringe cos2", 0),
    ("bell --fringe cos2 --ell inf", 2),
    ("bell --fringe cos2 --plate-json /nonexistent.json", 2),
    ("fringe --ell 0.5", 0),
    ("fringe --plate step --phi pi/2", 0),
    ("bell --ell inf", 2),
    ("search --budget 0 --init no_sectors.json", 2),
    ("farfield --ell nan --grid 128", 2),
])
def test_standard_library_commands_load_no_numpy(tmp_path, command, code):
    # the closed-form fringes and CHSH, and every input rejected before the
    # far field, the LG decomposition or the mask search, need no numpy
    (tmp_path / "no_sectors.json").write_text(json.dumps({"type": "binary", "phi": math.pi}))
    script = "import sys, oamsim.cli\nprint(oamsim.cli.main(sys.argv[1:]))\n" + _LOADED
    out = _fresh_python(script, tmp_path, command.split())
    assert out.strip().splitlines()[-2:] == [str(code), "[]"]


# sector ends on the pi/4 lattice, where fringe zeros meet the Bell settings,
# and now and then anywhere on the circle
_LATTICE = st.integers(0, 8).map(lambda k: k * math.pi / 4)
_MASK_ENDS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.one_of(_LATTICE, _LATTICE, _LATTICE, st.floats(0.0, 2 * math.pi)),
    min_size=2 * k, max_size=2 * k, unique=True).map(sorted))


@settings(max_examples=60, deadline=None)
@given(ends=_MASK_ENDS, phi=st.sampled_from([math.pi, math.pi / 2, 2 * math.pi / 3]))
@example(ends=[0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4], phi=math.pi)
def test_plate_file_commands_exit_0_or_2_without_a_traceback(ends, phi):
    # hypothesis rejects function-scoped fixtures, so no tmp_path or capsys
    sectors = [ends[i:i + 2] for i in range(0, len(ends), 2)]
    with tempfile.TemporaryDirectory() as tmp:
        plate = os.path.join(tmp, "mask.json")
        with open(plate, "w") as fh:
            json.dump({"type": "binary", "phi": phi, "sectors": sectors}, fh)
        runs = [["bell", "--settings", name] for name in ("auto", "spiral", "polarization")]
        runs += [["fringe", "--kind", kind, "--samples", "36"]
                 for kind in ("coincidence", "overlap")]
        for args in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args + ["--plate-json", plate, "--out", os.path.join(tmp, "out")])
            assert code in (0, 2), (args, code)
            assert code == 0 or len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
            assert "Traceback" not in err.getvalue()

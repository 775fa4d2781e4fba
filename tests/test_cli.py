"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from oamsim.cli import InputError, main, parse_angle


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


def test_bell_spiral_headline(tmp_path, capsys):
    out = tmp_path / "bell.json"
    code = main(["bell", "--plate", "spiral", "--ell", "0.5", "--out", str(out)])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(3.2, abs=1e-12)
    doc = json.loads(out.read_text())
    assert doc["S"] == pytest.approx(3.2, abs=1e-12)


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


def test_fringe_coincidence_csv(tmp_path, capsys):
    out = tmp_path / "fringe.csv"
    code = main(["fringe", "--plate", "spiral", "--ell", "0.5",
                 "--samples", "90", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta_rad,coincidence_probability"
    assert len(lines) == 91


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


def test_search_budget_zero_with_init(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(
        {"type": "binary", "phi": math.pi, "sectors": [[0.0, math.pi]], "alpha": 0.0}))
    out = tmp_path / "mask.json"
    code = main(["search", "--budget", "0", "--init", str(init),
                 "--settings", "polarization", "--out", str(out)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.2, abs=1e-12)


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
        ["decompose", "--ell", "inf"],
    ):
        assert main(args + out) == 2, args
        _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_exit_code_io_failure(tmp_path):
    code = main(["bell", "--plate", "spiral", "--ell", "0.5",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")])
    assert code == 3


@pytest.mark.parametrize("doc", [
    {"type": "binary", "phi": math.pi},  # no sectors
    {"type": "spiral", "ell": 0.5},
    {"type": "step", "phi": math.pi},
    [0.0, 1.0],
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

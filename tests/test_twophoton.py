"""Tests for the two-photon coincidence fringes: the rotation-overlap law of
``overlap`` in floats and in exact Fractions, and the ``twophoton`` module
that re-exports it under the benchmark harness's two names."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import oamsim
from oamsim import overlap, twophoton
from oamsim.angular import inner_product, wrap_angle
from oamsim.overlap import (
    UnsupportedAnalyzerError,
    closed_form_probability,
    closed_form_probability_exact,
    sample_curve,
)
from oamsim.plates import BinarySectors, Spiral, Step, plate_state


def _overlap(signal_plate, idler_plate):
    """Coincidence amplitude from first principles: the overlap of the two
    analyzers' plate states."""
    return inner_product(plate_state(signal_plate, 0), plate_state(idler_plate, 0))


def test_coincidence_depends_only_on_relative_angle():
    for plate in (Spiral(1.5), Step(math.pi / 2), BinarySectors(1.0, ((0.3, 2.0),))):
        for offset in (0.0, 0.7, 2.0, 5.0):
            base = _overlap(
                type(plate)(**_with_alpha(plate, 0.0)),
                type(plate)(**_with_alpha(plate, 1.1)),
            )
            shifted = _overlap(
                type(plate)(**_with_alpha(plate, offset)),
                type(plate)(**_with_alpha(plate, 1.1 + offset)),
            )
            assert abs(base - shifted) < 1e-12


@pytest.mark.parametrize("plate", [
    Spiral(0.5), Spiral(2.5), Spiral(0.3), Spiral(1.25), Spiral(-0.7),
    Step(math.pi), Step(math.pi / 2),
    BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 4.0))),
])
def test_plate_state_overlap_gives_the_fringe(plate):
    # the piecewise integral of the two plate states and the fringe behind
    # CHSH and the CLI give one rate, for a spiral of any fractional step
    for alpha_s, alpha_i in ((0.0, 0.0), (0.0, 1.1), (0.4, 3.5), (2.0, 0.3), (5.5, 1.0)):
        signal = type(plate)(**_with_alpha(plate, alpha_s))
        idler = type(plate)(**_with_alpha(plate, alpha_i))
        rate = abs(_overlap(signal, idler)) ** 2
        assert abs(rate - closed_form_probability(plate, alpha_i - alpha_s)) <= 1e-12


def _with_alpha(plate, alpha):
    doc = {"alpha": alpha}
    if isinstance(plate, Spiral):
        doc["ell"] = plate.ell
    elif isinstance(plate, Step):
        doc["phi"] = plate.phi
    else:
        doc["phi"] = plate.phi
        doc["sectors"] = plate.sectors
    return doc


def test_half_integer_fringe_is_parabolic():
    # bit for bit: sin(pi/2) is exactly 1.0, so the general law leaves no residue
    for ell in (0.5, 1.5, 2.5, -0.5, 7.5):
        for k in range(720):
            delta = 2 * math.pi * k / 720 - 3.0
            assert (closed_form_probability(Spiral(ell), delta)
                    == (1.0 - wrap_angle(delta) / math.pi) ** 2)


def test_fringe_zero_at_pi():
    assert closed_form_probability(Spiral(0.5), math.pi) == 0.0
    assert closed_form_probability(Spiral(2.5), math.pi) == 0.0


def test_twophoton_reexports_the_overlap_laws():
    assert twophoton.fringe_probability is overlap.closed_form_probability
    assert twophoton.fringe_probability_exact is overlap.closed_form_probability_exact


def test_no_program_module_names_twophoton():
    # the module stays for the benchmark harness only, so the program itself
    # neither imports it nor reads a name through it
    for path in sorted(Path(oamsim.__file__).parent.glob("*.py")):
        if path.name == "twophoton.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            assert not any("twophoton" in name for name in names), (path.name, names)


def test_exact_fringe_values():
    assert closed_form_probability_exact(Spiral(0.5), Fraction(1, 2)) == Fraction(1, 4)
    assert closed_form_probability_exact(Spiral(0.5), Fraction(1)) == 0
    assert closed_form_probability_exact(Step(math.pi), Fraction(1, 2)) == 0
    assert closed_form_probability_exact(Step(math.pi / 2), Fraction(1)) == 0
    assert closed_form_probability_exact(Step(math.pi), Fraction(3, 2)) == 0
    with pytest.raises(UnsupportedAnalyzerError):
        closed_form_probability_exact(Step(1.0), Fraction(1, 2))


def test_exact_spiral_fringe_values():
    # 1 - s2 + s2 (1 - t)^2 with s2 = sin^2(lam pi), mirrors lam -> 1 - lam alike
    for lam, s2 in ((0, 0), (Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2)),
                    (Fraction(1, 3), Fraction(3, 4)), (Fraction(1, 2), 1)):
        for ell in (float(lam), float(1 - lam), 2 + float(lam), float(lam) - 3):
            for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
                value = closed_form_probability_exact(Spiral(ell), t)
                assert value == 1 - s2 + s2 * (1 - t % 2) ** 2 and isinstance(value, Fraction)


def test_exact_matches_float_fringe():
    for plate in (Spiral(0.5), Spiral(1 / 6), Spiral(0.25), Spiral(2 / 3), Spiral(0.0),
                  Step(math.pi), Step(math.pi / 2)):
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4)):
            exact = float(closed_form_probability_exact(plate, t))
            numeric = closed_form_probability(plate, float(t) * math.pi)
            assert exact == pytest.approx(numeric, abs=1e-14)


def test_fringe_sampling(tmp_path):
    curve = sample_curve(Spiral(0.5), 36)
    assert len(curve.samples) == 36
    assert curve.samples[0] == (0.0, 1.0)
    path = tmp_path / "fringe.csv"
    curve.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha_rad,probability"
    assert len(lines) == 37


@pytest.mark.parametrize("sectors", [((0.3, 2.0), (3.0, 5.5)),
                                     tuple((0.3 * i, 0.3 * i + 0.2) for i in range(16))],
                         ids=["two", "sixteen"])
def test_mask_fringe_samples_equal_their_single_angle_values(sectors):
    # the batched samples cross several covariogram blocks for 16 sectors
    mask = BinarySectors(math.pi / 2, sectors, alpha=1.0)
    curve = sample_curve(mask, 1000)
    assert all(p == closed_form_probability(mask, a) for a, p in curve.samples)


def test_fringe_sampling_validation():
    with pytest.raises(ValueError):
        sample_curve(Spiral(0.5), 1)

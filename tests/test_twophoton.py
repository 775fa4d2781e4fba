"""Tests for the two-photon coincidence fringes."""

import math
from fractions import Fraction

import pytest

from oamsim.angular import inner_product
from oamsim.overlap import closed_form_probability, sample_curve
from oamsim.plates import BinarySectors, Spiral, Step, plate_state
from oamsim.twophoton import (
    UnsupportedAnalyzerError,
    coincidence_fringe,
    fringe_probability,
    fringe_probability_exact,
)


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
    Spiral(0.5), Spiral(2.5), Step(math.pi), Step(math.pi / 2),
    BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 4.0))),
])
def test_plate_state_overlap_gives_the_fringe(plate):
    # the piecewise integral of the two plate states and the fringe behind
    # CHSH and the CLI give one rate
    for alpha_s, alpha_i in ((0.0, 0.0), (0.0, 1.1), (0.4, 3.5), (2.0, 0.3), (5.5, 1.0)):
        signal = type(plate)(**_with_alpha(plate, alpha_s))
        idler = type(plate)(**_with_alpha(plate, alpha_i))
        rate = abs(_overlap(signal, idler)) ** 2
        assert abs(rate - fringe_probability(plate, alpha_i - alpha_s)) <= 1e-12


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
    for delta in (0.0, 0.5, math.pi / 2, math.pi, 4.0):
        expected = (1.0 - (delta % (2 * math.pi)) / math.pi) ** 2
        assert fringe_probability(Spiral(1.5), delta) == pytest.approx(expected, abs=1e-14)


def test_fringe_zero_at_pi():
    assert fringe_probability(Spiral(0.5), math.pi) == 0.0


def test_spiral_fringe_requires_half_integer():
    with pytest.raises(UnsupportedAnalyzerError):
        fringe_probability(Spiral(1.25), 0.5)


def test_exact_fringe_values():
    assert fringe_probability_exact(Spiral(0.5), Fraction(1, 2)) == Fraction(1, 4)
    assert fringe_probability_exact(Spiral(0.5), Fraction(1)) == 0
    assert fringe_probability_exact(Step(math.pi), Fraction(1, 2)) == 0
    assert fringe_probability_exact(Step(math.pi / 2), Fraction(1)) == 0
    assert fringe_probability_exact(Step(math.pi), Fraction(3, 2)) == 0
    with pytest.raises(UnsupportedAnalyzerError):
        fringe_probability_exact(Step(1.0), Fraction(1, 2))


def test_exact_matches_float_fringe():
    for plate in (Spiral(0.5), Step(math.pi), Step(math.pi / 2)):
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(5, 4)):
            exact = float(fringe_probability_exact(plate, t))
            numeric = fringe_probability(plate, float(t) * math.pi)
            assert exact == pytest.approx(numeric, abs=1e-14)


def test_coincidence_fringe_sampling(tmp_path):
    fringe = coincidence_fringe(Spiral(0.5), 36)
    assert len(fringe.samples) == 36
    assert fringe.samples[0] == (0.0, 1.0)
    path = tmp_path / "fringe.csv"
    fringe.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta_rad,coincidence_probability"
    assert len(lines) == 37


@pytest.mark.parametrize("sectors", [((0.3, 2.0), (3.0, 5.5)),
                                     tuple((0.3 * i, 0.3 * i + 0.2) for i in range(16))],
                         ids=["two", "sixteen"])
def test_mask_fringe_samples_equal_their_single_angle_values(sectors):
    # the batched samples cross several covariogram blocks for 16 sectors
    mask = BinarySectors(math.pi / 2, sectors, alpha=1.0)
    fringe = coincidence_fringe(mask, 1000)
    assert all(p == fringe_probability(mask, d) for d, p in fringe.samples)
    curve = sample_curve(mask, 1000)
    assert all(p == closed_form_probability(mask, a) for a, p in curve.samples)
    assert [a for a, _ in curve.samples] == [d for d, _ in fringe.samples]


def test_coincidence_fringe_validation():
    with pytest.raises(ValueError):
        coincidence_fringe(Spiral(0.5), 1)
    with pytest.raises(UnsupportedAnalyzerError):
        coincidence_fringe(Spiral(0.25), 16)

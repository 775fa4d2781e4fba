"""Tests for the two-photon state, collapse, and coincidence fringes."""

import math
from fractions import Fraction

import pytest

from oamsim.angular import NonIntegerOamState
from oamsim.plates import BinarySectors, Spiral, Step
from oamsim.twophoton import (
    AnalyzerSetting,
    TwoPhotonState,
    UnsupportedAnalyzerError,
    coincidence_amplitude,
    coincidence_fringe,
    collapse_idler,
    fringe_probability,
    fringe_probability_exact,
    schmidt_pairing,
)


def test_schmidt_pairing_conserves_total_oam():
    # signal n + idler pairing + the two half-twists sum to the pump OAM
    for q in (-2, 0, 3):
        for n in (-3, 0, 2):
            assert (n + 0.5) + (schmidt_pairing(q, n) + 0.5) == q


def test_collapse_idler_index_and_orientation():
    state = TwoPhotonState(q=0)
    collapsed = collapse_idler(state, Spiral(2.5, 1.2))
    assert isinstance(collapsed, NonIntegerOamState)
    assert collapsed.l == 2  # q + floor(ell)
    assert collapsed.lam == 0.5
    assert collapsed.alpha == pytest.approx(1.2)


def test_collapse_requires_half_integer_spiral():
    state = TwoPhotonState()
    with pytest.raises(UnsupportedAnalyzerError):
        collapse_idler(state, Spiral(2.25))
    with pytest.raises(UnsupportedAnalyzerError):
        collapse_idler(state, Step(math.pi))


def test_state_validation():
    with pytest.raises(ValueError):
        AnalyzerSetting(Spiral(0.5), "neither")


def test_coincidence_depends_only_on_relative_angle():
    state = TwoPhotonState()
    for plate in (Spiral(1.5), Step(math.pi / 2), BinarySectors(1.0, ((0.3, 2.0),))):
        for offset in (0.0, 0.7, 2.0, 5.0):
            base = coincidence_amplitude(
                state,
                AnalyzerSetting(type(plate)(**_with_alpha(plate, 0.0)), "signal"),
                AnalyzerSetting(type(plate)(**_with_alpha(plate, 1.1)), "idler"),
            )
            shifted = coincidence_amplitude(
                state,
                AnalyzerSetting(type(plate)(**_with_alpha(plate, offset)), "signal"),
                AnalyzerSetting(type(plate)(**_with_alpha(plate, 1.1 + offset)), "idler"),
            )
            assert abs(base - shifted) < 1e-12


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


def test_mixed_analyzer_families_rejected():
    state = TwoPhotonState()
    with pytest.raises(UnsupportedAnalyzerError):
        coincidence_amplitude(
            state,
            AnalyzerSetting(Spiral(0.5), "signal"),
            AnalyzerSetting(Step(math.pi), "idler"),
        )


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
    report = fringe.report()
    assert report["n_samples"] == 36
    assert report["plate"]["type"] == "spiral"


def test_coincidence_fringe_validation():
    with pytest.raises(ValueError):
        coincidence_fringe(Spiral(0.5), 1)
    with pytest.raises(UnsupportedAnalyzerError):
        coincidence_fringe(Spiral(0.25), 16)

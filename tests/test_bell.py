"""Tests for CHSH correlations, the exact rational path, and the mask search."""

import math
from fractions import Fraction

import pytest

from oamsim.bell import (
    POLARIZATION_SETTINGS,
    POLARIZATION_SETTINGS_PI,
    SPIRAL_SETTINGS,
    SPIRAL_SETTINGS_PI,
    BellSettings,
    DegenerateFringeError,
    chsh_s,
    chsh_s_exact,
    coincidence_probability,
    e_correlation,
    evaluate_mask,
    exact_fringe_for,
    s4_certificate,
    search_max_s,
)
from oamsim.plates import BinarySectors, Spiral, Step
from oamsim.twophoton import fringe_probability


def _plate_fringe(plate):
    return lambda delta: fringe_probability(plate, delta)


def test_settings_validation():
    with pytest.raises(ValueError):
        BellSettings(0.0, 1.0, 0.0, 1.0, 0.0)


def test_coincidence_probability_uses_relative_angle():
    fringe = _plate_fringe(Spiral(0.5))
    assert coincidence_probability(fringe, 1.0, 1.0 + math.pi) == pytest.approx(0.0, abs=1e-14)
    assert coincidence_probability(fringe, 0.3, 0.3) == pytest.approx(1.0, abs=1e-14)


def test_half_integer_spiral_correlations():
    fringe = _plate_fringe(Spiral(0.5))
    s = SPIRAL_SETTINGS
    values = [
        e_correlation(fringe, x, y, s.perp_offset) for x, y in s.pairs()
    ]
    assert values == pytest.approx([0.8, -0.8, 0.8, 0.8], abs=1e-12)


def test_spiral_bell_parameter():
    result = chsh_s(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    assert len(result.p) == 16


def test_spiral_bell_parameter_exact():
    s = chsh_s_exact(exact_fringe_for(Spiral(0.5)), SPIRAL_SETTINGS_PI)
    assert s == Fraction(16, 5)


def test_step_pi_bell_parameter():
    result = chsh_s(_plate_fringe(Step(math.pi)), POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    exact = chsh_s_exact(exact_fringe_for(Step(math.pi)), POLARIZATION_SETTINGS_PI)
    assert exact == Fraction(16, 5)


def test_step_half_pi_bell_parameter():
    result = chsh_s(_plate_fringe(Step(math.pi / 2)), SPIRAL_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    exact = chsh_s_exact(exact_fringe_for(Step(math.pi / 2)), SPIRAL_SETTINGS_PI)
    assert exact == Fraction(16, 5)


def test_cosine_squared_fringe_gives_quantum_bound():
    result = chsh_s(lambda d: math.cos(d) ** 2, POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_degenerate_fringe_raises():
    with pytest.raises(DegenerateFringeError):
        chsh_s(lambda d: 0.0, SPIRAL_SETTINGS)
    # the exact path treats only an exactly zero sum as degenerate
    with pytest.raises(DegenerateFringeError):
        chsh_s_exact(lambda t: Fraction(0), SPIRAL_SETTINGS_PI)
    assert chsh_s_exact(lambda t: Fraction(1, 10**30), SPIRAL_SETTINGS_PI) == 0


def test_result_serialization(tmp_path):
    result = chsh_s(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS, fringe_id="test")
    doc = result.to_dict()
    assert doc["S"] == pytest.approx(3.2)
    assert set(doc["E"]) == {"a1a2", "a1pa2", "a1a2p", "a1pa2p"}
    path = tmp_path / "bell.json"
    result.write_json(path)
    assert path.read_text().startswith("{")


def test_evaluate_mask_half_plane():
    # the half-plane mask at phi=pi has a pi-periodic fringe: use the
    # polarization-standard settings, matching the step-plate case
    mask = BinarySectors(math.pi, ((0.0, math.pi),))
    result = evaluate_mask(mask, POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)


def test_s4_certificate_rejects_parabolic_fringe():
    cert = s4_certificate(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS)
    assert not cert["passed"]


def test_search_validation():
    with pytest.raises(ValueError):
        search_max_s(0, math.pi)
    with pytest.raises(ValueError):
        search_max_s(3, math.pi, budget=-1)
    with pytest.raises(ValueError):
        search_max_s(3, math.pi, budget=0)


def test_search_budget_zero_evaluates_initial_mask():
    mask = BinarySectors(math.pi, ((0.0, math.pi),))
    result = search_max_s(1, math.pi, settings=POLARIZATION_SETTINGS, budget=0, init_mask=mask)
    assert result.mask == mask
    assert result.s == pytest.approx(3.2, abs=1e-12)


def test_search_is_deterministic():
    a = search_max_s(2, math.pi, budget=800, seed=7)
    b = search_max_s(2, math.pi, budget=800, seed=7)
    assert a.mask == b.mask
    assert a.s == b.s
    assert a.trace == b.trace


def test_search_improves_over_budget():
    small = search_max_s(3, math.pi, budget=500, seed=0)
    large = search_max_s(3, math.pi, budget=4000, seed=0)
    assert large.s >= small.s
    assert large.s > 3.2  # beats every single-sector plate law


def test_search_result_serialization(tmp_path):
    result = search_max_s(2, math.pi, budget=300, seed=1)
    path = tmp_path / "mask.json"
    result.write_json(path)
    text = path.read_text()
    assert '"S"' in text and '"mask"' in text

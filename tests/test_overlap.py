"""Tests for the closed-form rotation-overlap laws of all plate families."""

import cmath
import math
from dataclasses import replace

import pytest

from oamsim.angular import TWO_PI, inner_product, wrap_angle
from oamsim.overlap import (
    binary_mask_overlap,
    closed_form_probability,
    displaced_measure,
    sample_curve,
    spiral_overlap_amplitude,
    spiral_overlap_probability,
    step_overlap_amplitude,
    step_overlap_probability,
)
from oamsim.oracle import OracleMismatch
from oamsim.plates import BinarySectors, Spiral, Step, plate_state


def _direct_overlap(plate, alpha):
    """<state(plate) | state(plate rotated by alpha)> from first principles."""
    rotated = replace(plate, alpha=wrap_angle(plate.alpha + alpha))
    return inner_product(plate_state(plate, 0), plate_state(rotated, 0))


def test_spiral_probability_matches_direct_inner_product():
    for lam in (0.0, 0.25, 0.3, 0.5, 0.75):
        for alpha in (0.3, 1.0, math.pi / 2, math.pi, 4.5):
            direct = abs(_direct_overlap(Spiral(2 + lam), alpha)) ** 2
            assert spiral_overlap_probability(lam, alpha) == pytest.approx(direct, abs=1e-12)


def test_spiral_amplitude_matches_rotated_basis_state():
    # the amplitude's phase convention is that of a rotated basis state,
    # psi(theta - alpha), not of the literal two-branch plate operator
    from oamsim.angular import NonIntegerOamState

    l, j, lam = 1, 2, 0.5
    for alpha in (0.5, math.pi / 2, 3.0):
        a0 = NonIntegerOamState(l + j, lam, 0.0).to_closed_form()
        a1 = NonIntegerOamState(l + j, lam, alpha).to_closed_form()
        direct = inner_product(a0, a1)
        assert spiral_overlap_amplitude(l, j, lam, alpha) == pytest.approx(direct, abs=1e-12)


def test_spiral_lambda_zero_is_constant_one():
    for alpha in (0.0, 1.0, math.pi, 5.0):
        assert spiral_overlap_probability(0.0, alpha) == pytest.approx(1.0, abs=1e-14)


def test_spiral_minimum_at_pi_is_cos_squared():
    for lam in (0.25, 0.5, 0.7):
        assert spiral_overlap_probability(lam, math.pi) == pytest.approx(
            math.cos(lam * math.pi) ** 2, abs=1e-14
        )


def test_spiral_half_integer_parabola():
    for alpha in (0.0, 0.5, math.pi, 4.0):
        expected = (1.0 - wrap_angle(alpha) / math.pi) ** 2
        assert spiral_overlap_probability(0.5, alpha) == pytest.approx(expected, abs=1e-14)


def test_step_amplitude_symmetric_in_alpha():
    for phi in (math.pi / 3, math.pi / 2, math.pi):
        for alpha in (0.4, 1.5, 3.0):
            plus = step_overlap_amplitude(phi, alpha)
            minus = step_overlap_amplitude(phi, -alpha)
            assert plus == pytest.approx(minus, abs=1e-14)


def test_step_probability_matches_direct():
    for phi in (math.pi / 3, math.pi / 2, math.pi, 2.7):
        for alpha in (0.4, -1.0, math.pi / 2, math.pi, 5.0):
            direct = abs(_direct_overlap(Step(phi), alpha)) ** 2
            assert step_overlap_probability(phi, alpha) == pytest.approx(direct, abs=1e-12)


def test_step_pi_fringe_has_period_pi():
    for alpha in (0.3, 1.0, 2.0):
        a = step_overlap_probability(math.pi, alpha)
        b = step_overlap_probability(math.pi, alpha + math.pi)
        assert a == pytest.approx(b, abs=1e-12)


def test_step_phi_zero_is_identity():
    for alpha in (0.5, 2.0, 5.0):
        assert step_overlap_probability(0.0, alpha) == pytest.approx(1.0, abs=1e-14)


def test_displaced_measure_simple_sector():
    mask = BinarySectors(math.pi, ((0.0, 1.0),))
    assert displaced_measure(mask, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert displaced_measure(mask, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert displaced_measure(mask, TWO_PI - 1e-13) == pytest.approx(0.0, abs=1e-9)


def test_binary_mask_overlap_matches_direct():
    mask = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)))
    for alpha in (0.3, math.pi / 4, 1.9, math.pi):
        direct = _direct_overlap(mask, alpha)
        assert binary_mask_overlap(mask, alpha) == pytest.approx(direct, abs=1e-12)


def test_step_agrees_with_equivalent_binary_mask():
    phi = 2.0
    mask = BinarySectors(phi, ((0.0, math.pi),))
    for alpha in (0.5, 1.5, 3.0):
        assert abs(binary_mask_overlap(mask, alpha)) ** 2 == pytest.approx(
            step_overlap_probability(phi, alpha), abs=1e-12
        )


def test_closed_form_probability_dispatch():
    assert closed_form_probability(Spiral(0.5), math.pi) == pytest.approx(0.0, abs=1e-14)
    assert closed_form_probability(Step(math.pi), math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(TypeError):
        closed_form_probability(object(), 1.0)


def test_sample_curve_verified_against_quadrature():
    # binary sector boundaries sit on grid nodes so the quadrature is exact
    mask = BinarySectors(1.0, ((math.pi / 2, 3 * math.pi / 2),))
    for plate in (Spiral(2.25), Step(2 * math.pi / 3), mask):
        curve = sample_curve(plate, 32, verify=True)
        assert len(curve.samples) == 32


def test_sample_curve_verify_raises_on_mismatch():
    # a sector edge at 1 rad lies between grid nodes, so the quadrature is off
    mask = BinarySectors(math.pi, ((0.0, 1.0),))
    with pytest.raises(OracleMismatch):
        sample_curve(mask, 8, verify=True)


def test_sample_curve_validation():
    with pytest.raises(ValueError):
        sample_curve(Spiral(0.5), 1)


def test_curve_csv(tmp_path):
    curve = sample_curve(Spiral(0.5), 8)
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha_rad,probability"
    assert len(lines) == 9

"""Tests for the closed-form rotation-overlap laws of all plate families."""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamsim import bell
from oamsim.angular import TWO_PI, inner_product, wrap_angle
from oamsim.bell import (
    POLARIZATION_SETTINGS,
    SPIRAL_SETTINGS,
    DegenerateFringeError,
    chsh_s,
    evaluate_mask,
)
from oamsim.overlap import (
    binary_mask_overlap,
    binary_mask_probabilities,
    closed_form_probability,
    covariogram,
    displaced_measure,
    sample_curve,
    spiral_overlap_amplitude,
    spiral_overlap_probability,
    step_overlap_amplitude,
    step_overlap_probability,
)
from oamsim.oracle import OracleMismatch
from oamsim.plates import BinarySectors, Spiral, Step, plate_state
from oamsim.twophoton import fringe_probability


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
    # the amplitude carries the phase of the rotated plate state,
    # psi(theta - alpha)
    l, j, lam = 1, 2, 0.5
    for alpha in (0.5, math.pi / 2, 3.0):
        direct = _direct_overlap(Spiral(l + j + lam), alpha)
        assert spiral_overlap_amplitude(l + j, lam, alpha) == pytest.approx(direct, abs=1e-12)


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


@st.composite
def _wrapping_masks(draw):
    """Masks of 1-4 sectors, at least 0.006 rad wide and apart, rotated by a
    non-zero alpha that carries the last sector past 2*pi."""
    k = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.floats(min_value=1.0, max_value=100.0),
                            min_size=2 * k + 1, max_size=2 * k + 1))
    cuts = np.cumsum(weights)[:-1] * (TWO_PI / sum(weights))
    sectors = tuple((float(a), float(b)) for a, b in zip(cuts[0::2], cuts[1::2]))
    end = sectors[-1][1]
    alpha = (TWO_PI - end) + draw(st.floats(min_value=0.01, max_value=0.99)) * end
    phi = draw(st.floats(min_value=0.1, max_value=math.pi))
    return BinarySectors(phi, sectors, alpha)


def _grid_displaced_measure(mask, delta, n=1 << 16):
    """measure(M \\ (M + delta)) by counting midpoints of an n-point grid,
    testing membership in each sector directly."""
    theta = (np.arange(n) + 0.5) * (TWO_PI / n)

    def in_mask(t):
        t = np.mod(t - mask.alpha, TWO_PI)
        return np.any([(a <= t) & (t < b) for a, b in mask.sectors], axis=0)

    return np.count_nonzero(in_mask(theta) & ~in_mask(theta - delta)) * (TWO_PI / n)


@settings(max_examples=100, deadline=None)
@given(mask=_wrapping_masks(), delta=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9))
def test_displaced_measure_matches_grid_count(mask, delta):
    n = 1 << 16
    # each edge of M and of M + delta can misplace at most one grid cell
    tolerance = (TWO_PI / n) * 4 * len(mask.sectors)
    expected = _grid_displaced_measure(mask, delta, n)
    assert displaced_measure(mask, delta) == pytest.approx(expected, abs=tolerance)


@settings(max_examples=100, deadline=None)
@given(mask=_wrapping_masks(), delta=st.floats(min_value=1e-9, max_value=TWO_PI - 1e-9))
def test_displaced_measure_is_even(mask, delta):
    assert displaced_measure(mask, delta) == pytest.approx(
        displaced_measure(mask, TWO_PI - delta), abs=1e-12)


# four eighths a quarter turn apart: at phi = pi their fringe vanishes at
# every odd multiple of pi/8 and of pi/4, so every setting pair of both
# setting families is degenerate
_DEGENERATE_MASK = BinarySectors(
    math.pi, tuple((j * math.pi / 2, j * math.pi / 2 + math.pi / 8) for j in range(4)))


@settings(max_examples=50, deadline=None)
@given(mask=_wrapping_masks())
@example(mask=_DEGENERATE_MASK)
def test_mask_fringe_closure_equals_fringe_probability(mask):
    # the search scores its mask in batches; each row must give the very
    # float of the one-mask fringe law at every setting pair, -inf where that
    # law is degenerate, and -inf for a row whose boundaries coincide
    row = [v for sector in mask.sectors for v in sector]
    batch = np.array([row, row])
    batch[1, 1] = batch[1, 0]  # a sector of zero width
    for bell_settings in (SPIRAL_SETTINGS, POLARIZATION_SETTINGS):
        score = bell._mask_scorer(mask.phi, bell_settings)
        with np.errstate(divide="raise", invalid="raise"):
            scores = score(batch)
            alone = score(batch[:1])
        assert scores[1] == -math.inf
        assert alone[0] == scores[0]
        try:
            direct = chsh_s(lambda d: fringe_probability(mask, d), bell_settings)
        except DegenerateFringeError:
            assert scores[0] == -math.inf
            with pytest.raises(DegenerateFringeError):
                evaluate_mask(mask, bell_settings)
            continue
        assert scores[0] == direct.s
        result = evaluate_mask(mask, bell_settings)
        assert result.s == direct.s
        assert result.p == direct.p


def test_mask_fringe_wraps_its_angle():
    mask = BinarySectors(math.pi, ((0.5, 2.0), (3.0, 4.0)), 1.0)
    starts, widths = np.array([0.5, 3.0]), np.array([1.5, 1.0])
    deltas = (-1.0, 0.0, 2.5, TWO_PI + 2.5)
    fringe = binary_mask_probabilities(mask.phi, starts, widths, deltas)
    for delta, p in zip(deltas, fringe):
        assert p == fringe_probability(mask, delta)


def test_covariogram_serves_floats_and_fractions():
    # one covariogram, two number types: on Fractions of pi with period 2 it
    # gives the exact value, the float path in radians the same to rounding
    sectors = ((Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 2)))
    starts = np.array([a for a, _ in sectors])
    widths = np.array([b - a for a, b in sectors])
    deltas = [Fraction(k, 16) for k in range(-3, 40)]
    exact = covariogram(starts, widths, deltas, 2)
    assert all(isinstance(c, Fraction) for c in exact)
    floats = covariogram(starts.astype(float) * math.pi, widths.astype(float) * math.pi,
                         [float(d) * math.pi for d in deltas])
    np.testing.assert_allclose(floats, exact.astype(float) * math.pi, rtol=0, atol=1e-14)
    assert exact[3] == Fraction(5, 4)  # delta = 0: the mask's own measure


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

"""Tests for the closed-form rotation-overlap laws of all plate families."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamsim import bell, overlap
from oamsim.angular import TWO_PI, inner_product, wrap_angle
from oamsim.bell import (
    POLARIZATION_SETTINGS,
    SPIRAL_SETTINGS,
    DegenerateFringeError,
    chsh_s,
)
from oamsim.overlap import (
    UnsupportedAnalyzerError,
    _arcs,
    _displaced,
    binary_mask_probabilities,
    closed_form_probability,
    closed_form_probability_exact,
    covariogram,
    sample_curve,
    spiral_overlap_probability,
)
from oamsim.oracle import OracleMismatch, geometric_profile, verify_overlap
from oamsim.plates import BinarySectors, Spiral, Step, plate_state, sector_intervals


def _direct_overlap(plate, alpha):
    """<state(plate) | state(plate rotated by alpha)> from first principles."""
    rotated = replace(plate, alpha=wrap_angle(plate.alpha + alpha))
    return inner_product(plate_state(plate, 0), plate_state(rotated, 0))


def test_spiral_probability_matches_direct_inner_product():
    for lam in (0.0, 0.25, 0.3, 0.5, 0.75):
        for alpha in (0.3, 1.0, math.pi / 2, math.pi, 4.5):
            direct = abs(_direct_overlap(Spiral(2 + lam), alpha)) ** 2
            assert spiral_overlap_probability(lam, alpha) == pytest.approx(direct, abs=1e-12)


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


def _step_amplitude(phi, alpha):
    """1 + (|alpha|/pi)(cos(phi) - 1) with alpha folded into [-pi, pi)."""
    a = wrap_angle(alpha)
    if a >= math.pi:
        a = TWO_PI - a
    return 1.0 + (a / math.pi) * (math.cos(phi) - 1.0)


def test_step_amplitude_symmetric_in_alpha():
    for phi in (math.pi / 3, math.pi / 2, math.pi):
        for alpha in (0.4, 1.5, 3.0):
            plus = _step_amplitude(phi, alpha)
            minus = _step_amplitude(phi, -alpha)
            assert plus == pytest.approx(minus, abs=1e-14)
            # the folded amplitude is the real overlap the step's law squares
            assert _direct_overlap(Step(phi), -alpha) == pytest.approx(plus, abs=1e-12)
            assert closed_form_probability(Step(phi), -alpha) == pytest.approx(
                plus * plus, abs=1e-15)


def test_step_probability_matches_direct():
    for phi in (math.pi / 3, math.pi / 2, math.pi, 2.7):
        for alpha in (0.4, -1.0, math.pi / 2, math.pi, 5.0):
            direct = abs(_direct_overlap(Step(phi), alpha)) ** 2
            assert closed_form_probability(Step(phi), alpha) == pytest.approx(direct, abs=1e-12)


def test_step_pi_fringe_has_period_pi():
    for alpha in (0.3, 1.0, 2.0):
        a = closed_form_probability(Step(math.pi), alpha)
        b = closed_form_probability(Step(math.pi), alpha + math.pi)
        assert a == pytest.approx(b, abs=1e-12)


def test_step_phi_zero_is_identity():
    for alpha in (0.5, 2.0, 5.0):
        assert closed_form_probability(Step(0.0), alpha) == pytest.approx(1.0, abs=1e-14)


def displaced_measure(mask, delta):
    """measure(M \\ (M + delta)) of the mask's sectors, from the kernel the
    fringes use."""
    return float(_displaced(*_arcs(mask.sectors), (delta,))[0])


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
            direct = chsh_s(lambda d: closed_form_probability(mask, d), bell_settings)
        except DegenerateFringeError:
            assert scores[0] == -math.inf
            with pytest.raises(DegenerateFringeError):
                chsh_s(lambda d: closed_form_probability(mask, d), bell_settings)
            continue
        assert scores[0] == direct.s
        result = chsh_s(lambda d: closed_form_probability(mask, d), bell_settings)
        assert result.s == direct.s
        assert result.p == direct.p


def test_mask_fringe_wraps_its_angle():
    mask = BinarySectors(math.pi, ((0.5, 2.0), (3.0, 4.0)), 1.0)
    starts, widths = np.array([0.5, 3.0]), np.array([1.5, 1.0])
    deltas = (-1.0, 0.0, 2.5, TWO_PI + 2.5)
    fringe = binary_mask_probabilities(mask.phi, starts, widths, deltas)
    for delta, p in zip(deltas, fringe):
        assert p == closed_form_probability(mask, delta)


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


def _covariogram_reference(starts, widths, deltas, period=TWO_PI):
    """The covariogram as first written: np.mod over the whole grid, both
    L(s) = max(0, min(u, s + v) - max(0, s)) passes, a (..., k, k, D)
    layout and the pair sum by np.add.accumulate."""
    a, u = np.asarray(starts), np.asarray(widths)
    u_i, v_j = u[..., :, None, None], u[..., None, :, None]
    t = np.mod(a[..., None, :, None] - a[..., :, None, None] + np.asarray(deltas), period)

    def overlap_at(s):
        return np.maximum(0, np.minimum(u_i, s + v_j) - np.maximum(0, s))

    pairs = overlap_at(t) + overlap_at(t - period)
    pairs = pairs.reshape(pairs.shape[:-3] + (-1, pairs.shape[-1]))
    return np.add.accumulate(pairs, axis=-2)[..., -1, :]


_BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)
# sixteen arcs, one row, one delta: numpy sums an outer axis in order but a
# lone inner one pairwise, which moves the last bit of this value
_SIXTEEN = np.sort(np.random.default_rng(0).uniform(0.0, TWO_PI, (1, 32)), axis=-1)


@st.composite
def _arc_batches(draw, boundary, delta, dtype):
    """(starts, widths, deltas): 1-4 rows of 1-16 arcs, each row sorted
    boundaries paired as the search pairs them, some boundaries copied
    onto the next so that sectors touch or have zero width."""
    k = draw(st.integers(min_value=1, max_value=16))
    rows = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(boundary, min_size=rows * 2 * k, max_size=rows * 2 * k))
    b = np.sort(np.array(values, dtype=dtype).reshape(rows, 2 * k), axis=-1)
    for j in draw(st.lists(st.integers(min_value=1, max_value=2 * k - 1), max_size=2 * k)):
        b[:, j] = b[:, j - 1]
    deltas = draw(st.lists(delta, min_size=1, max_size=12))
    return b[:, 0::2], b[:, 1::2] - b[:, 0::2], np.array(deltas, dtype=dtype)


_FLOAT_BOUNDARY = st.one_of(st.sampled_from((0.0, _BELOW_TWO_PI, TWO_PI)),
                            st.floats(min_value=0.0, max_value=TWO_PI))
_FLOAT_DELTA = st.one_of(st.sampled_from((0.0, _BELOW_TWO_PI)),
                         st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
_FRACTION_BOUNDARY = st.fractions(min_value=0, max_value=2, max_denominator=24)
_FRACTION_DELTA = st.fractions(min_value=0, max_value=2, max_denominator=24).filter(
    lambda t: t < 2)


@settings(max_examples=200, deadline=None)
@given(arcs=_arc_batches(_FLOAT_BOUNDARY, _FLOAT_DELTA, float))
@example(arcs=(np.array([[0.0, _BELOW_TWO_PI]]), np.array([[0.0, TWO_PI - _BELOW_TWO_PI]]),
               np.array([0.0, _BELOW_TWO_PI])))
@example(arcs=(np.array([[0.0, TWO_PI]]), np.array([[1.0, 0.0]]),
               np.array([_BELOW_TWO_PI, 0.0])))
@example(arcs=(np.array([[0.0, 1.0, 2.0]]), np.array([[1.0, 1.0, 0.0]]),
               np.array([0.0, 1.0, 5.0, _BELOW_TWO_PI])))
@example(arcs=(_SIXTEEN[:, 0::2], _SIXTEEN[:, 1::2] - _SIXTEEN[:, 0::2], np.array([1.0])))
def test_covariogram_equals_its_reference_bit_for_bit(arcs):
    # wrapping only the deltas and laying the rows innermost must not move
    # a single float, signed zeros included
    starts, widths, deltas = arcs
    got = covariogram(starts, widths, deltas)
    expected = _covariogram_reference(starts, widths, deltas)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=30, deadline=None)
@given(arcs=_arc_batches(_FRACTION_BOUNDARY, _FRACTION_DELTA, object))
def test_covariogram_equals_its_reference_on_fractions(arcs):
    starts, widths, deltas = arcs
    got = covariogram(starts, widths, deltas, 2)
    assert np.array_equal(got, _covariogram_reference(starts, widths, deltas, 2))


def test_covariogram_rejects_starts_outside_the_period():
    widths = np.array([0.5, 0.5])
    for bad in (-0.1, TWO_PI + 0.1, math.nan):
        with pytest.raises(ValueError, match="starts must lie in"):
            covariogram(np.array([1.0, bad]), widths, (0.0,))
    with pytest.raises(ValueError, match="starts must lie in"):
        covariogram(np.array([Fraction(1), Fraction(-1, 8)]), widths, (Fraction(0),), 2)


def test_covariogram_wraps_any_delta():
    # a delta outside [0, period) gives exactly the value at its wrapped angle
    starts, widths = np.array([[0.5, 3.0], [0.0, 4.0]]), np.array([[1.5, 1.0], [2.0, 2.0]])
    deltas = (-1.0, TWO_PI + 2.5, 1e6)
    got = covariogram(starts, widths, deltas)
    wrapped = covariogram(starts, widths, [wrap_angle(d) for d in deltas])
    assert np.array_equal(got, wrapped)
    exact_starts = np.array([Fraction(0), Fraction(1, 2)])
    exact_widths = np.array([Fraction(1, 4), Fraction(1)])
    exact_deltas = (Fraction(-1), Fraction(2) + Fraction(5, 6), Fraction(10 ** 6, 3))
    got = covariogram(exact_starts, exact_widths, exact_deltas, 2)
    wrapped = covariogram(exact_starts, exact_widths, [t % 2 for t in exact_deltas], 2)
    assert np.array_equal(got, wrapped)


def test_covariogram_peak_memory_at_the_element_cap():
    # a call at the cap (k = 4, D = 10) holds t and L(t) at once (16 B an
    # element), or t alone while it is built, with numpy's iterator buffers
    # of up to 2**13 float64s for each broadcast operand (4 B an element at
    # this size, twice while t is built). The bound adds 2 B an element for
    # the (k, k, rows) differences, the transposed arcs and the sum; a third
    # live array of the grid adds 8.
    k, n_deltas = 4, 10
    rows = overlap._COVARIOGRAM_ELEMENTS // (k * k * (n_deltas + 1))
    n = rows * k * k * (n_deltas + 1)
    rng = np.random.default_rng(0)
    b = np.sort(rng.uniform(0.0, TWO_PI, (rows, 2 * k)), axis=-1)
    args = (b[:, 0::2], b[:, 1::2] - b[:, 0::2],
            np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, n_deltas))))
    covariogram(*args)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        covariogram(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * n, f"peak {peak / n:.2f} B an element"


def test_binary_mask_overlap_matches_direct():
    mask = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)))
    alphas = (0.3, math.pi / 4, 1.9, math.pi)
    fringe = binary_mask_probabilities(mask.phi, *_arcs(mask.sectors), alphas)
    for alpha, p in zip(alphas, fringe):
        assert p == pytest.approx(abs(_direct_overlap(mask, alpha)) ** 2, abs=1e-12)


def test_step_agrees_with_equivalent_binary_mask():
    phi = 2.0
    mask = BinarySectors(phi, ((0.0, math.pi),))
    alphas = (0.5, 1.5, 3.0)
    fringe = binary_mask_probabilities(phi, *_arcs(mask.sectors), alphas)
    for alpha, p in zip(alphas, fringe):
        assert p == pytest.approx(closed_form_probability(Step(phi), alpha), abs=1e-12)


# phases whose 1 - cos(phi) = 2 sin^2(phi/2) is rational, mod 2*pi
_EXACT_PHASES = (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi, 4 * math.pi / 3,
                 3 * math.pi / 2, 5 * math.pi / 3, -math.pi / 2, 7 * math.pi / 3)


def _exact_or_unsupported(plate, t):
    try:
        return closed_form_probability_exact(plate, t)
    except UnsupportedAnalyzerError:
        return UnsupportedAnalyzerError


@settings(max_examples=200, deadline=None)
@given(phi=st.one_of(st.sampled_from(_EXACT_PHASES), st.floats(min_value=-10.0, max_value=10.0)),
       alpha=st.floats(min_value=-10.0, max_value=10.0),
       delta=st.floats(min_value=-10.0, max_value=10.0),
       t=st.fractions(min_value=-4, max_value=4, max_denominator=64))
@example(phi=1.0, alpha=0.0, delta=0.0, t=Fraction(1, 2))
def test_step_is_the_half_plane_mask(phi, alpha, delta, t):
    step, mask = Step(phi, alpha), BinarySectors(phi, ((0.0, math.pi),), alpha)
    assert sector_intervals(step) == sector_intervals(mask)
    thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    assert np.array_equal(plate_state(step, 0).profile(thetas),
                          plate_state(mask, 0).profile(thetas))
    assert np.array_equal(geometric_profile(step, thetas), geometric_profile(mask, thetas))
    assert abs(closed_form_probability(step, delta) - closed_form_probability(mask, delta)) <= 1e-15
    exact = _exact_or_unsupported(step, t)
    assert exact == _exact_or_unsupported(mask, t)
    if any(abs(phi - p) <= 1e-12 for p in _EXACT_PHASES):
        assert isinstance(exact, Fraction)


@pytest.mark.parametrize("plate", [
    Step(math.pi / 3), Step(2 * math.pi / 3), Step(2 * math.pi / 3, alpha=0.7),
    Step(-math.pi / 2), Step(5 * math.pi / 3),
    BinarySectors(2 * math.pi / 3, ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4)), 0.7),
    BinarySectors(math.pi / 3, ((math.pi / 6, math.pi), (4 * math.pi / 3, 7 * math.pi / 4))),
], ids=repr)
def test_one_exact_law_covers_every_sector_plate(plate):
    for k in range(-8, 40):
        t = Fraction(k, 16)
        exact = closed_form_probability_exact(plate, t)
        assert isinstance(exact, Fraction)
        assert float(exact) == pytest.approx(closed_form_probability(plate, float(t) * math.pi),
                                             abs=1e-15)


def test_exact_law_rejects_phases_and_edges_irrational_in_pi():
    for plate in (Step(1.0), BinarySectors(1.0, ((0.0, math.pi),)),
                  BinarySectors(math.pi, ((0.0, 1.0),)),
                  BinarySectors(math.pi, ((math.pi / 2, math.pi + 1e-9),))):
        with pytest.raises(UnsupportedAnalyzerError):
            closed_form_probability_exact(plate, Fraction(1, 2))


def test_closed_form_probability_dispatch():
    assert closed_form_probability(Spiral(0.5), math.pi) == pytest.approx(0.0, abs=1e-14)
    assert closed_form_probability(Step(math.pi), math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(TypeError):
        closed_form_probability(object(), 1.0)


def test_sample_curve_verified_against_quadrature():
    # binary sector boundaries sit on grid nodes so the quadrature is exact
    mask = BinarySectors(1.0, ((math.pi / 2, 3 * math.pi / 2),))
    for plate in (Spiral(2.25), Step(2 * math.pi / 3), mask):
        curve = sample_curve(plate, 32)
        assert len(curve.samples) == 32
        for a, _ in curve.samples:
            verify_overlap(plate, a).require()


def test_sample_curve_verify_raises_on_mismatch():
    # a sector edge at 1 rad lies between grid nodes, so the quadrature is off
    mask = BinarySectors(math.pi, ((0.0, 1.0),))
    with pytest.raises(OracleMismatch):
        for a, _ in sample_curve(mask, 8).samples:
            verify_overlap(mask, a).require()


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

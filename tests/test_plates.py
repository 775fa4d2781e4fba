"""Tests for the plate families: unitarity, geometry, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim.angular import (
    TWO_PI,
    AngularGrid,
    ClosedForm,
    Sampled,
    inner_product,
    integer_mode,
    norm,
)
from oamsim.plates import (
    BinarySectors,
    Spiral,
    Step,
    adjoint,
    apply,
    from_json,
    plate_state,
    profile,
    sector_intervals,
    to_json,
)


def _plates():
    return st.one_of(
        st.builds(
            Spiral,
            ell=st.floats(min_value=-4.0, max_value=4.0),
            alpha=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
        ),
        st.builds(
            Step,
            phi=st.floats(min_value=-math.pi, max_value=math.pi),
            alpha=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
        ),
        st.builds(
            lambda phi, a, w, alpha: BinarySectors(phi, ((a, a + w),), alpha),
            phi=st.floats(min_value=-math.pi, max_value=math.pi),
            a=st.floats(min_value=0.0, max_value=2.0),
            w=st.floats(min_value=0.1, max_value=3.0),
            alpha=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(plate=_plates(), l=st.integers(min_value=-3, max_value=3))
def test_plate_preserves_norm_closed_form(plate, l):
    state = plate_state(plate, l)
    assert norm(state) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(plate=_plates(), seed=st.integers(min_value=0, max_value=2**31))
def test_plate_preserves_norm_sampled(plate, seed):
    grid = AngularGrid(256)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=256) + 1j * rng.normal(size=256)
    state = Sampled(values, grid)
    before = norm(state)
    after = norm(apply(plate, state))
    assert after == pytest.approx(before, abs=1e-12 * max(before, 1.0))


@settings(max_examples=50, deadline=None)
@given(plate=_plates(), l=st.integers(min_value=-2, max_value=2))
def test_adjoint_inverts(plate, l):
    state = integer_mode(l)
    roundtrip = apply(adjoint(plate), apply(plate, state))
    overlap = inner_product(state, roundtrip)
    assert abs(overlap - 1.0) < 1e-12


def test_profile_is_unimodular():
    thetas = np.linspace(0.0, TWO_PI, 777, endpoint=False)
    for plate in (
        Spiral(2.5, 1.0),
        Step(math.pi / 3, 4.0),
        BinarySectors(math.pi, ((0.5, 1.5), (3.0, 4.0)), 2.0),
    ):
        assert np.allclose(np.abs(profile(plate, thetas)), 1.0, atol=1e-14)


def test_closed_form_apply_matches_pointwise():
    grid = AngularGrid(512)
    mid = grid.thetas + 0.5 * grid.spacing
    for plate in (Spiral(1.5, 2.0), Step(math.pi, 1.0), BinarySectors(0.7, ((1.0, 2.0),), 5.0)):
        cf = plate_state(plate, 1)
        direct = profile(plate, mid) * integer_mode(1).evaluate(mid)
        assert np.allclose(cf.evaluate(mid), direct, atol=1e-12)


def test_spiral_branch_factors():
    ell, a = 2.5, 1.2
    cf = plate_state(Spiral(ell, a), 0)
    assert cf.factor_at(0.5 * a) == pytest.approx(np.exp(1j * (TWO_PI - a) * ell))
    assert cf.factor_at(a + 0.1) == pytest.approx(np.exp(-1j * a * ell))


def test_integer_spiral_is_pure_mode():
    cf = plate_state(Spiral(3.0, 1.7), 1)
    assert abs(inner_product(integer_mode(4), cf)) == pytest.approx(1.0, abs=1e-12)


def test_step_sector_wraps():
    intervals = sector_intervals(Step(math.pi, 5.0))
    total = sum(b - a for a, b in intervals)
    assert total == pytest.approx(math.pi, abs=1e-12)
    assert all(0.0 <= a < b <= TWO_PI for a, b in intervals)


def test_binary_sector_rotation_preserves_measure():
    mask = BinarySectors(1.0, ((0.2, 1.0), (2.0, 3.5)))
    for alpha in (0.0, 1.0, 4.0, 6.0):
        rotated = BinarySectors(1.0, mask.sectors, alpha)
        total = sum(b - a for a, b in sector_intervals(rotated))
        assert total == pytest.approx(2.3, abs=1e-12)


def test_binary_validation():
    with pytest.raises(ValueError):
        BinarySectors(1.0, ())
    with pytest.raises(ValueError):
        BinarySectors(1.0, ((1.0, 0.5),))
    with pytest.raises(ValueError):
        BinarySectors(1.0, ((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        BinarySectors(1.0, ((0.0, TWO_PI),))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(bad):
    for make in (
        lambda: Spiral(bad),
        lambda: Spiral(0.5, bad),
        lambda: Step(bad),
        lambda: Step(math.pi, bad),
        lambda: BinarySectors(bad, ((0.0, 1.0),)),
        lambda: BinarySectors(math.pi, ((0.0, 1.0),), bad),
        lambda: BinarySectors(math.pi, ((0.0, bad),)),
        lambda: BinarySectors(math.pi, ((bad, 1.0),)),
    ):
        with pytest.raises(ValueError):
            make()


def test_json_roundtrip():
    for plate in (
        Spiral(0.5, 1.0),
        Step(math.pi / 2, 0.3),
        BinarySectors(math.pi, ((0.1, 0.9), (2.0, 2.5)), 1.0),
    ):
        assert from_json(to_json(plate)) == plate


def test_apply_requires_known_state_type():
    merged = apply(Spiral(0.5, 1.0), ClosedForm(0.0))
    assert isinstance(merged, ClosedForm)
    assert merged.nu == pytest.approx(0.5)

"""Tests for the plate families: unitarity, geometry, serialization."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamsim.angular import (
    TWO_PI,
    AngularGrid,
    ClosedForm,
    inner_product,
    integer_mode,
)
from oamsim.plates import (
    BinarySectors,
    Spiral,
    Step,
    from_dict,
    plate_state,
    sector_intervals,
    to_dict,
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
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(plate=_plates(), seed=st.integers(min_value=0, max_value=2**31))
def test_plate_preserves_norm_sampled(plate, seed):
    grid = AngularGrid(256)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=256) + 1j * rng.normal(size=256)
    # the rectangle-rule L2 norm of the samples
    scale = math.sqrt(grid.spacing)
    before = scale * np.linalg.norm(values)
    after = scale * np.linalg.norm(values * plate_state(plate, 0).profile(grid.thetas))
    assert after == pytest.approx(before, abs=1e-12 * max(before, 1.0))


@settings(max_examples=100, deadline=None)
@given(plate=_plates(), l=st.integers(min_value=-3, max_value=3))
def test_plate_state_boundaries_strictly_increase_from_zero(plate, l):
    # inner_product reads the pieces as they are built: nothing sorts,
    # merges or completes them
    state = plate_state(plate, l)
    assert state.boundaries[0] == 0.0
    assert all(a < b for a, b in zip(state.boundaries, state.boundaries[1:]))
    assert state.boundaries[-1] < TWO_PI
    assert len(state.factors) == len(state.boundaries)


@settings(max_examples=50, deadline=None)
@given(
    l=st.integers(min_value=-3, max_value=3),
    lam=st.floats(min_value=0.0, max_value=0.99),
    alpha=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)
# steps within 0.01 of an integer, where inner_product takes its small-dnu
# branch, on every run and not only when a draw lands there
@example(l=2, lam=0.001, alpha=0.0)
@example(l=-1, lam=0.995, alpha=1.0)
def test_spiral_plate_state_is_the_non_integer_state(l, lam, alpha):
    # <m|psi> = e^{-i*m*alpha} (e^{2*pi*i*x} - 1)/(2*pi*i*x) with x = ell - m,
    # 1 at x = 0, written as e^{i*pi*x} sin(pi*x)/(pi*x) so that it does not
    # cancel for small x (Götte et al., J. Mod. Opt. 54, 1723 (2007))
    ell = l + lam
    by_plate = plate_state(Spiral(ell, alpha), 0)
    for m in range(-5, 6):
        x = ell - m
        sinc = math.sin(math.pi * x) / (math.pi * x) if x else 1.0
        closed = cmath.exp(-1j * m * alpha) * cmath.exp(1j * math.pi * x) * sinc
        assert abs(inner_product(integer_mode(m), by_plate) - closed) < 1e-12


def test_profile_is_unimodular():
    thetas = np.linspace(0.0, TWO_PI, 777, endpoint=False)
    for plate in (
        Spiral(2.5, 1.0),
        Step(math.pi / 3, 4.0),
        BinarySectors(math.pi, ((0.5, 1.5), (3.0, 4.0)), 2.0),
    ):
        assert np.allclose(np.abs(plate_state(plate, 0).profile(thetas)), 1.0, atol=1e-14)
        # a scalar angle gives a scalar factor
        factor = plate_state(plate, 0).profile(1.0)
        assert np.ndim(factor) == 0 and abs(factor) == pytest.approx(1.0)


def test_spiral_profile_matches_the_exponential_form():
    # the branch factors of the Spiral docstring times e^{i*ell*t}, t wrapped by np.mod
    thetas = np.concatenate([np.linspace(-7.0, 13.0, 2001), [0.0, 1.2, TWO_PI]])
    for ell in (0.5, -2.25, 3.0, 3.5):
        for a in (0.0, 1.2):
            t = np.mod(thetas, TWO_PI)
            branch = np.where(t < a, cmath.exp(1j * (TWO_PI - a) * ell), cmath.exp(-1j * a * ell))
            expected = branch * np.exp(1j * ell * t)
            state = plate_state(Spiral(ell, a), 0)
            assert np.max(np.abs(state.profile(thetas) - expected)) <= 4e-16
            # a scalar angle on the scalar path, here at the edge of the second branch
            assert abs(state.profile(1.2) - expected[-2]) <= 4e-16


def test_closed_form_apply_matches_pointwise():
    grid = AngularGrid(512)
    mid = grid.thetas + 0.5 * grid.spacing
    for plate in (Spiral(1.5, 2.0), Step(math.pi, 1.0), BinarySectors(0.7, ((1.0, 2.0),), 5.0)):
        cf = plate_state(plate, 1)
        direct = plate_state(plate, 0).profile(mid) * np.exp(1j * mid) / math.sqrt(TWO_PI)
        pieces = [cf.factor_at(t) * np.exp(1j * cf.nu * t) / math.sqrt(TWO_PI) for t in mid]
        assert np.allclose(pieces, direct, atol=1e-12)


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


def test_step_keeps_its_fields_and_gains_the_half_plane_sector():
    step = Step(math.pi / 2, alpha=0.3)
    assert [f.name for f in dataclasses.fields(Step)] == ["phi", "alpha"]
    assert repr(step) == "Step(phi=1.5707963267948966, alpha=0.3)"
    assert dataclasses.replace(step, alpha=-0.3) == Step(math.pi / 2, TWO_PI - 0.3)
    assert to_dict(step) == {"type": "step", "phi": math.pi / 2, "alpha": 0.3}
    assert step.sectors == ((0.0, math.pi),) == BinarySectors(1.0, ((0.0, math.pi),)).sectors
    assert not isinstance(step, BinarySectors)
    with pytest.raises(TypeError):
        sector_intervals(Spiral(0.5))


def test_json_roundtrip():
    for plate in (
        Spiral(0.5, 1.0),
        Step(math.pi / 2, 0.3),
        BinarySectors(math.pi, ((0.1, 0.9), (2.0, 2.5)), 1.0),
    ):
        assert from_dict(to_dict(plate)) == plate


def test_apply_requires_known_state_type():
    merged = plate_state(Spiral(0.5, 1.0), 0)
    assert isinstance(merged, ClosedForm)
    assert merged.nu == pytest.approx(0.5)

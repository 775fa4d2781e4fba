"""Tests for angular states, grids, and exact inner products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim.angular import (
    TWO_PI,
    AngularGrid,
    ClosedForm,
    inner_product,
    integer_mode,
    oam_spectrum,
    wrap_angle,
)
from oamsim.oracle import fractional_tail_bound
from oamsim.plates import Spiral, plate_state


def test_wrap_angle_range():
    for t in (-10.0, -math.pi, 0.0, 1.0, TWO_PI, 7.0, 100.0):
        w = wrap_angle(t)
        assert 0.0 <= w < TWO_PI
        assert abs(math.sin(w - t)) < 1e-9


def test_wrap_angle_negative_near_zero():
    assert wrap_angle(-1e-18) in (0.0, wrap_angle(-1e-18))
    assert 0.0 <= wrap_angle(-1e-18) < TWO_PI


def test_grid_validation():
    with pytest.raises(ValueError):
        AngularGrid(8)
    g = AngularGrid(64)
    assert g.spacing == pytest.approx(TWO_PI / 64)
    assert len(g.thetas) == 64


def test_nearest_node_wraps():
    g = AngularGrid(64)
    assert g.nearest_node(TWO_PI - 1e-12) == 0.0
    assert g.nearest_node(g.spacing * 3 + 1e-9) == pytest.approx(g.spacing * 3)


@pytest.mark.parametrize("n", [4096, 97])
def test_nearest_node_is_the_nearest_index_times_the_spacing(n):
    g = AngularGrid(n)
    h = g.spacing
    thetas = np.random.default_rng(18).uniform(-20.0, 20.0, 10_000).tolist()
    thetas += [-0.0, TWO_PI - 1e-16] + [k * h + s * h / 2 for k in range(-n, 2 * n)
                                         for s in (-1, 1)]
    for theta in thetas:
        k = g.nearest_index(theta)
        assert type(k) is int and 0 <= k < n
        # the snapping rule as it stood before the index was split out
        node = round(wrap_angle(theta) / h) % n * h
        assert g.nearest_node(theta).hex() == (k * h).hex() == node.hex(), theta


def test_integer_mode_orthonormal():
    for l in range(-4, 5):
        for m in range(-4, 5):
            ip = inner_product(integer_mode(l), integer_mode(m))
            expected = 1.0 if l == m else 0.0
            assert ip == pytest.approx(expected, abs=1e-14)


def test_closed_form_norm_is_unit():
    cf = ClosedForm(0.25, (0.0, 2.0), (1.0, np.exp(0.7j)))
    assert inner_product(cf, cf) == pytest.approx(1.0, abs=1e-14)


def test_non_integer_basis_orthonormal():
    alpha = 1.3
    states = [plate_state(Spiral(l + 0.5, alpha), 0) for l in range(-3, 4)]
    for i, a in enumerate(states):
        for k, b in enumerate(states):
            expected = 1.0 if i == k else 0.0
            assert abs(inner_product(a, b) - expected) < 1e-12


def test_oam_spectrum_argument_order():
    with pytest.raises(ValueError):
        oam_spectrum(integer_mode(0), 3, -3)


def test_fractional_tail_bound_matches_component_sum():
    lam = 0.3
    state = ClosedForm(lam)  # pure fractional state, m = 0
    window = oam_spectrum(state, -40, 40)
    inside = sum(abs(a) ** 2 for _, a in window)
    tail = fractional_tail_bound(lam, -40, 40)
    assert (1.0 - inside) == pytest.approx(tail, abs=1e-12)


def test_fractional_tail_bound_zero_for_integer():
    assert fractional_tail_bound(0.0, -5, 5) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    lam=st.floats(min_value=0.01, max_value=0.99),
    alpha=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
    l=st.integers(min_value=-3, max_value=3),
)
def test_non_integer_state_is_normalized(lam, alpha, l):
    state = plate_state(Spiral(l + lam, alpha), 0)
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

"""Tests for angular states, grids, and exact inner products."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim import angular
from oamsim.angular import (
    _NU_SMALL,
    TWO_PI,
    AngularGrid,
    ClosedForm,
    inner_product,
    integer_mode,
    oam_spectrum,
    wrap_angle,
)
from oamsim.oracle import fractional_tail_bound
from oamsim.plates import BinarySectors, Spiral, Step, plate_state


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


def _inner_product_by_cmath(a, b):
    """<a|b> as a scalar cmath loop over the pieces: the reference whose
    bits the array kernel reproduces."""
    dnu = b.nu - a.nu
    bs = sorted(set(a.boundaries) | set(b.boundaries)) + [TWO_PI]
    total = 0.0 + 0.0j
    for t0, t1 in zip(bs[:-1], bs[1:]):
        c = a.factor_at(t0).conjugate() * b.factor_at(t0)
        if abs(dnu) < _NU_SMALL:
            w, h = t1 - t0, 0.5 * dnu * (t1 - t0)
            total += c * cmath.exp(0.5j * dnu * (t0 + t1)) * (w * (math.sin(h) / h) if h else w)
        else:
            total += c * (cmath.exp(1j * dnu * t1) - cmath.exp(1j * dnu * t0)) / (1j * dnu)
    return total / TWO_PI


def _same_bits(z, reference):
    """Equal values with equal signs, signed zeros included, in both parts."""
    return type(z) is complex and z == reference and all(
        math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in ((z.real, reference.real), (z.imag, reference.imag)))


def _random_piece_table(rng, nu):
    boundaries = (0.0, *sorted(rng.uniform(0.0, TWO_PI, rng.integers(0, 5)).tolist()))
    # mostly generic phases, some exact units, whose zero parts carry signs
    units = (1.0 + 0.0j, -1.0 + 0.0j, 1j, complex(-0.0, -1.0), complex(1.0, -0.0))
    factors = tuple(units[rng.integers(len(units))] if rng.random() < 0.2
                    else cmath.exp(1j * rng.uniform(-4.0, 4.0)) for _ in boundaries)
    return ClosedForm(nu, boundaries, factors)


# offsets on both sides of the small-dnu branch's edge, inside it down to 0,
# and far outside it
_OFFSETS = (0.0, -0.0, 1e-320, 1e-9, -1e-9, 1e-3, -1e-3, 5e-3, 0.00999, -0.01, 0.01,
            0.5, -2.5, 3.0, 7.25, -41.0)


@pytest.mark.parametrize("nu", [0.0, -3.0, 2.5, -7.5, 1e6, -1e6 + 0.5])
def test_inner_product_has_the_bits_of_the_cmath_loop(nu):
    rng = np.random.default_rng(int(abs(nu) * 4) + 1)
    checked = 0
    for dnu in _OFFSETS + tuple(rng.uniform(-60.0, 60.0, 4)):
        for _ in range(12):
            a, b = _random_piece_table(rng, nu), _random_piece_table(rng, nu + dnu)
            for x, y in ((a, b), (b, a), (integer_mode(round(nu)), b)):
                z = inner_product(x, y)
                assert _same_bits(z, _inner_product_by_cmath(x, y)), (x, y, z)
                checked += 1
    assert checked == 720


_PLATES = [
    Spiral(0.5), Spiral(2.5), Spiral(2.001), Spiral(2.0), Spiral(-3.7), Spiral(0.5, 1.3),
    Spiral(2.5, 5.0), Spiral(-0.25, math.pi), Spiral(1e6 + 0.5, 0.2), Step(math.pi),
    Step(1.0, 0.4), Step(math.pi / 2, 5.5),
    BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2))),
    BinarySectors(2.0, ((0.5, 1.0), (2.0, 4.0), (5.0, 6.0)), 1.2),
]


@pytest.mark.parametrize("plate", _PLATES, ids=repr)
def test_oam_spectrum_has_the_bits_of_the_cmath_loop(plate):
    state = plate_state(plate, 0)
    center = round(getattr(plate, "ell", 0.0))
    spectrum = oam_spectrum(state, center - 60, center + 60)
    assert [l for l, _ in spectrum] == list(range(center - 60, center + 61))
    assert all(type(l) is int for l, _ in spectrum)
    for l, a_l in spectrum:
        reference = _inner_product_by_cmath(integer_mode(l), state)
        assert _same_bits(a_l, reference) and _same_bits(
            inner_product(integer_mode(l), state), reference), l


@pytest.mark.parametrize("plate", _PLATES, ids=repr)
def test_plate_state_overlaps_have_the_bits_of_the_cmath_loop(plate):
    # the piece tables of two plates merged, at offsets 0, 1 and -2 in l
    for other in _PLATES:
        for m in (0, 1, -2):
            a, b = plate_state(plate, 0), plate_state(other, m)
            assert _same_bits(inner_product(a, b), _inner_product_by_cmath(a, b)), (other, m)


def test_oam_spectrum_takes_every_l_in_one_call(monkeypatch):
    calls = []
    original = angular.inner_product
    monkeypatch.setattr(angular, "inner_product",
                        lambda a, b: calls.append(a) or original(a, b))
    assert len(oam_spectrum(plate_state(Spiral(2.5), 0), -58, 63)) == 122
    assert len(calls) == 1 and calls[0].nu.tolist() == list(range(-58, 64))


def test_integer_mode_of_an_array_is_one_state():
    assert integer_mode(3) == ClosedForm(3.0) and type(integer_mode(3).nu) is float
    modes = integer_mode(np.arange(-2, 3))
    assert modes.nu.dtype == float and modes.nu.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    amplitudes = inner_product(modes, integer_mode(1))
    assert type(amplitudes) is list and all(type(z) is complex for z in amplitudes)
    assert amplitudes == pytest.approx([0.0, 0.0, 0.0, 1.0, 0.0], abs=1e-15)

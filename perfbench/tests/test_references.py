"""Tests of the benchmark's own reference computations, each against a
brute-force or numerical computation made without oamsim.

    python -m pytest perfbench/tests -q
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import references as ref  # noqa: E402
from seeds import derive_seed  # noqa: E402


def _radial(l, p):
    """Unnormalized LG radial function at unit waist."""
    return lambda r: ((math.sqrt(2.0) * r) ** abs(l) * eval_genlaguerre(p, abs(l), 2.0 * r * r)
                      * math.exp(-r * r))


def _quad_overlap(l, p):
    f, g = _radial(l, p), _radial(0, 0)
    inner = quad(lambda r: f(r) * g(r) * r, 0.0, 12.0, limit=400)[0]
    norm_f = quad(lambda r: f(r) ** 2 * r, 0.0, 12.0, limit=400)[0]
    norm_g = quad(lambda r: g(r) ** 2 * r, 0.0, 12.0, limit=400)[0]
    return (-1.0) ** p * inner / math.sqrt(norm_f * norm_g)


@pytest.mark.parametrize("l,p", [(0, 0), (0, 3), (1, 0), (1, 5), (-3, 2), (5, 10), (8, 20)])
def test_closed_form_radial_overlap_matches_quadrature(l, p):
    assert ref.radial_overlap(l, p) == pytest.approx(_quad_overlap(l, p), abs=1e-9)


def test_covariogram_matches_brute_force_grid():
    rng = random.Random(7)
    n = 400_000
    theta = (np.arange(n) + 0.5) * (ref.TWO_PI / n)

    def inside(sectors, t):
        t = np.mod(t, ref.TWO_PI)
        return np.any([(a <= t) & (t < b) for a, b in sectors], axis=0)

    for _ in range(20):
        cuts = sorted(rng.uniform(0.0, ref.TWO_PI) for _ in range(2 * rng.randint(1, 4)))
        sectors = list(zip(cuts[0::2], cuts[1::2]))
        base = inside(sectors, theta)
        for delta in (0.0, 0.3, math.pi / 4, 2.0, math.pi, 5.9):
            brute = np.count_nonzero(base & inside(sectors, theta - delta)) * (ref.TWO_PI / n)
            assert ref.covariogram(sectors, delta) == pytest.approx(brute, abs=1e-3)


@pytest.mark.parametrize("law,angles", [
    (ref.spiral_fringe_pi, ref.SPIRAL_ANGLES_PI),
    (ref.step_fringe_pi(2), ref.POLARIZATION_ANGLES_PI),
    (ref.step_fringe_pi(1), ref.SPIRAL_ANGLES_PI),
])
def test_exact_chsh_of_the_paper_plates_is_16_over_5(law, angles):
    assert ref.chsh(law, angles, 2) == Fraction(16, 5)


def test_cos2_fringe_reaches_tsirelson_bound():
    s = ref.chsh(ref.cos2_fringe, ref.POLARIZATION_ANGLES, ref.TWO_PI)
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)


def test_step_fringe_equals_mask_fringe_of_a_half_plane():
    half_plane = [(0.0, math.pi)]
    for phi, one_minus_cos in ((math.pi, 2), (math.pi / 2, 1)):
        exact, fringe = ref.step_fringe_pi(one_minus_cos), ref.mask_fringe(half_plane, phi)
        for t in (Fraction(k, 16) for k in range(32)):
            assert fringe(float(t) * math.pi) == pytest.approx(float(exact(t)), abs=1e-12)


def test_quarter_sector_mask_reaches_s_4():
    assert ref.mask_s([(0.0, math.pi / 2)], math.pi, ref.SPIRAL_ANGLES) == pytest.approx(4.0, abs=1e-12)


def test_greedy_counts_of_the_paper_decompositions():
    half = ref.lg_powers(0.5, (-60, 61), 120)
    five = ref.lg_powers(2.5, (-58, 63), 200)
    assert ref.greedy_count(half.values(), 0.87) == 12
    assert ref.greedy_count(five.values(), 0.87) == 74
    assert 0.98 < sum(half.values()) < 1.0


def test_gaussian_far_field_matches_fft_of_sampled_gaussian():
    n, extent = 256, 16.0
    coords = (np.arange(n) - n / 2 + 0.5) * (2.0 * extent / n)
    xx, yy = np.meshgrid(coords, coords)
    field = np.exp(-(xx**2 + yy**2))
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(field), norm="ortho"))
    intensity = np.abs(spectrum) ** 2
    intensity /= intensity.sum()
    expected = ref.gaussian_far_field(n, extent)
    assert np.max(np.abs(intensity - expected)) <= 1e-14 * expected.max()


def test_parse_pgm_reads_a_16_bit_image():
    pixels = np.arange(12, dtype=">u2").tobytes()
    assert ref.parse_pgm(b"P5\n4 3\n65535\n" + pixels) == (4, 3, 65535, pixels)
    with pytest.raises(ValueError):
        ref.parse_pgm(b"P5\n4 3\n65535\n" + pixels[:-2])


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "search/k=3,spiral") == derive_seed(1, "search/k=3,spiral")
    seeds = {derive_seed(s, label) for s in range(5) for label in ("a", "b", "c")}
    assert len(seeds) == 15
    assert all(0 <= s < 2**31 for s in seeds)

"""Reference values the benchmark checks oamsim against, computed without
oamsim: the CHSH assembly, the fringe laws, the interval covariogram of a
binary mask, the closed-form LG component powers and the analytic far field
of a Gaussian beam.

Everything here uses only the standard library, except the far-field
reference, which needs numpy for its image array.
"""

from __future__ import annotations

import math
from fractions import Fraction

TWO_PI = 2.0 * math.pi

# Analyzer angles (x1, x1', x2, x2', orthogonal offset). In units of pi for
# the exact path, in radians for the float path.
SPIRAL_ANGLES_PI = (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 2), Fraction(0), Fraction(1))
POLARIZATION_ANGLES_PI = (
    Fraction(-1, 8), Fraction(1, 8), Fraction(-1, 4), Fraction(0), Fraction(1, 2))
SPIRAL_ANGLES = tuple(float(a) * math.pi for a in SPIRAL_ANGLES_PI)
POLARIZATION_ANGLES = tuple(float(a) * math.pi for a in POLARIZATION_ANGLES_PI)


def chsh(fringe, angles, period):
    """S = E(x1,x2) - E(x1',x2) + E(x1,x2') + E(x1',x2') for a fringe that
    depends on the relative angle only; ``period`` is 2 for angles in units
    of pi (exact Fractions stay exact) and 2*pi for radians."""
    x1, x1p, x2, x2p, perp = angles

    def p(x, y):
        return fringe((y - x) % period)

    def e(x, y):
        direct, both = p(x, y), p(x + perp, y + perp)
        cross = p(x, y + perp) + p(x + perp, y)
        return (direct + both - cross) / (direct + both + cross)

    return e(x1, x2) - e(x1p, x2) + e(x1, x2p) + e(x1p, x2p)


def spiral_fringe(delta):
    """Half-integer spiral analyzers: (1 - delta/pi)^2, delta in [0, 2*pi)."""
    return (1.0 - delta / math.pi) ** 2


def spiral_fringe_pi(t):
    """The same law with delta = t*pi, exact for rational t in [0, 2)."""
    return (1 - t) ** 2


def step_fringe_pi(one_minus_cos):
    """Step plates at delta = t*pi: the delayed half-planes of the two
    analyzers mismatch on a measure min(t, 2-t)*pi, so the overlap is
    1 - min(t, 2-t)(1 - cos(phi)). Pass 1 - cos(phi) exactly: 2 for
    phi = pi, 1 for phi = pi/2."""
    return lambda t: (1 - min(t, 2 - t) * one_minus_cos) ** 2


def cos2_fringe(delta):
    return math.cos(delta) ** 2


def arcs(sectors, shift=0.0):
    """The union of sectors rotated by ``shift``, as disjoint arcs of [0, 2*pi)."""
    out = []
    for a, b in sectors:
        a0 = math.fmod(a + shift, TWO_PI)
        if a0 < 0.0:
            a0 += TWO_PI
        b0 = a0 + (b - a)
        if b0 <= TWO_PI:
            out.append((a0, b0))
        else:
            out.append((a0, TWO_PI))
            out.append((0.0, b0 - TWO_PI))
    return out


def covariogram(sectors, delta):
    """|M intersect (M + delta)| for the union M of the sectors."""
    base, moved = arcs(sectors), arcs(sectors, delta)
    return sum(max(0.0, min(b0, b1) - max(a0, a1))
               for a0, b0 in base for a1, b1 in moved)


def mask_fringe(sectors, phi):
    """Coincidence fringe of a binary mask: the rotated state differs from
    the original on a measure m = |M| - covariogram in each direction, so
    the overlap is 1 - (m/pi)(1 - cos(phi))."""
    size = sum(b - a for a, b in sectors)

    def fringe(delta):
        m = size - covariogram(sectors, delta)
        return (1.0 - (m / math.pi) * (1.0 - math.cos(phi))) ** 2

    return fringe


def mask_s(sectors, phi, angles):
    return chsh(mask_fringe(sectors, phi), angles, TWO_PI)


def radial_overlap(l, p):
    """Overlap of the normalized LG radial function R_{l,p} with R_{0,0},
    from Gradshteyn-Ryzhik 7.414.7:
    integral x^a L_p^{|l|}(x) e^{-x} dx = Gamma(a+1) Gamma(p+a) / (p! Gamma(a)),
    a = |l|/2, times the normalization (-1)^p sqrt(p!/(p+|l|)!)."""
    al = abs(l)
    if al == 0:
        return 1.0 if p == 0 else 0.0
    a = al / 2.0
    log_norm = 0.5 * (math.lgamma(p + 1) - math.lgamma(p + al + 1))
    log_integral = math.lgamma(a + 1) + math.lgamma(p + a) - math.lgamma(p + 1) - math.lgamma(a)
    return (-1.0) ** p * math.exp(log_norm + log_integral)


def angular_power(ell, l):
    """|<l| e^{i*ell*theta}>|^2 over [0, 2*pi) for a spiral plate at alpha 0."""
    d = ell - l
    if d == 0:
        return 1.0
    return (math.sin(math.pi * d) / (math.pi * d)) ** 2


def lg_powers(ell, l_window, p_max):
    """{(l, p): power} of the spiral-plate output of the fundamental mode."""
    l_min, l_max = l_window
    out = {}
    for l in range(l_min, l_max + 1):
        a2 = angular_power(ell, l)
        for p in range(p_max + 1):
            out[(l, p)] = a2 * radial_overlap(l, p) ** 2
    return out


def greedy_count(powers, target):
    """Components needed, largest power first, to reach ``target`` power."""
    total = 0.0
    for count, power in enumerate(sorted(powers, reverse=True), start=1):
        total += power
        if total >= target:
            return count
    raise ValueError(f"powers sum to {total} < target {target}")


def gaussian_far_field(n, extent):
    """Far-field intensity of the unit-waist Gaussian on the n x n Fourier
    grid of a source grid of half-width ``extent``, unit total power. The
    field e^{-r^2} transforms to e^{-pi^2 f^2}, so the intensity is
    e^{-2 pi^2 (fx^2 + fy^2)} at the frequencies (k - n/2)/(2*extent)."""
    import numpy as np

    f = (np.arange(n) - n // 2) / (2.0 * extent)
    line = np.exp(-2.0 * math.pi**2 * f**2)
    image = np.outer(line, line)
    return image / image.sum()


def parse_pgm(data: bytes):
    """(width, height, maxval, pixel bytes) of a binary 16-bit PGM."""
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P5":
        raise ValueError("not a binary PGM")
    width, height = (int(v) for v in dims.split())
    maxval = int(maxval)
    if len(pixels) != width * height * (2 if maxval > 255 else 1):
        raise ValueError("PGM pixel data has the wrong length")
    return width, height, maxval, pixels

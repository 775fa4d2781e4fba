"""Closed-form rotation-overlap laws for the three plate families, and the
sampled-curve table that both these laws and the coincidence fringes use.

Each function returns the overlap between a plate-generated basis state and
the same state with its edge rotated, as derived analytically; the
oracle module re-derives every value by angular quadrature.

For the step plate the printed amplitude 1 + (alpha/pi)(cos(phi) - 1) only
stays inside the unit disk for alpha >= 0; the first-principles integral is
symmetric in alpha, so the |alpha| form is implemented and the curve is
reported on [0, 2*pi) by that symmetry.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

from .angular import TWO_PI, AngularGrid, wrap_angle
from .plates import (
    BinarySectors,
    PhasePlate,
    Spiral,
    Step,
    circle_wrap,
    wrap_intervals,
)


def spiral_overlap_amplitude(n: int, lam: float, alpha: float) -> complex:
    """<a^n_lam(0) | a^n_lam(alpha)>:
    (1/2pi)[2pi - alpha + alpha e^{i 2pi lam}] e^{-i (n+lam) alpha}."""
    a = wrap_angle(alpha)
    bracket = (TWO_PI - a + a * cmath.exp(1j * TWO_PI * lam)) / TWO_PI
    return bracket * cmath.exp(-1j * (n + lam) * a)


def spiral_overlap_probability(lam: float, alpha: float) -> float:
    """(1 - alpha/pi)^2 sin^2(lam pi) + cos^2(lam pi); independent of n."""
    a = wrap_angle(alpha)
    s, c = math.sin(lam * math.pi), math.cos(lam * math.pi)
    return (1.0 - a / math.pi) ** 2 * s * s + c * c


def step_overlap_amplitude(phi: float, alpha: float) -> float:
    """1 + (|alpha|/pi)(cos(phi) - 1) with alpha folded into [-pi, pi).

    Real-valued: rotating the half-plane delay region preserves measure.
    """
    a = wrap_angle(alpha)
    if a >= math.pi:
        a = TWO_PI - a
    return 1.0 + (a / math.pi) * (math.cos(phi) - 1.0)


def step_overlap_probability(phi: float, alpha: float) -> float:
    return step_overlap_amplitude(phi, alpha) ** 2


def _union_measure_overlap(first, second):
    """Total measure of the intersection of two disjoint-interval unions."""
    total = 0
    for a0, b0 in first:
        for a1, b1 in second:
            lo, hi = max(a0, a1), min(b0, b1)
            if hi > lo:
                total += hi - lo
    return total


def _displacement(sectors, alpha, period=TWO_PI):
    """m(delta) = measure(M \\ (M + delta)) for the region M that the sectors
    rotated by alpha cover, in the units of ``period``: 2*pi for float
    radians, 2 for Fractions of pi.

    m is |M| minus the set covariogram |M & (M + delta)|. M's intervals and
    measure are built once; each rotated copy comes straight from the
    sectors, with no plate rebuilt or re-validated.
    """
    wrap = circle_wrap(period)
    base = wrap_intervals([(a + alpha, b + alpha) for a, b in sectors], period)
    size = sum(b - a for a, b in base)

    def displaced(delta):
        rot = wrap(alpha + delta)
        rotated = wrap_intervals([(a + rot, b + rot) for a, b in sectors], period)
        return size - _union_measure_overlap(base, rotated)

    return displaced


def displaced_measure(mask, alpha: float) -> float:
    """measure(M \\ (M + alpha)) for the mask's delayed region M."""
    return _displacement(mask.sectors, mask.alpha)(alpha)


def _mask_amplitude(m, phi) -> complex:
    return complex(1.0 - (m / math.pi) * (1.0 - math.cos(phi)))


def binary_mask_overlap(mask, alpha: float) -> complex:
    """Overlap between a binary-mask state and its rotation by alpha:
    1 - (m/pi)(1 - cos(phi)) with m = measure(M \\ (M+alpha))."""
    return _mask_amplitude(displaced_measure(mask, alpha), mask.phi)


def binary_mask_fringe(mask):
    """The mask's coincidence fringe delta -> |binary_mask_overlap(mask, d)|^2,
    d = delta mod 2*pi, with the mask's geometry built once.

    Values are memoised per d: the CHSH settings ask for 16 relative angles
    but only 8 (spiral) or 10 (polarization) distinct ones.
    """
    displaced = _displacement(mask.sectors, mask.alpha)
    memo = {}

    def fringe(delta: float) -> float:
        d = wrap_angle(delta)
        p = memo.get(d)
        if p is None:
            p = memo[d] = abs(_mask_amplitude(displaced(d), mask.phi)) ** 2
        return p

    return fringe


def binary_mask_fringe_exact(sectors):
    """Exact fringe t -> (1 - 2m)^2 of a phi = pi mask whose sectors are
    Fractions of pi, with m = measure(M \\ (M + t*pi)) / pi: the overlap
    1 - (m/pi)(1 - cos(phi)) at phi = pi."""
    displaced = _displacement(sectors, 0, period=2)
    return lambda t: (1 - 2 * displaced(t % 2)) ** 2


def closed_form_probability(plate, alpha: float) -> float:
    """Rotation-overlap probability |<state(0)|state(alpha)>|^2 for any plate."""
    if isinstance(plate, Spiral):
        lam = plate.ell - math.floor(plate.ell)
        return spiral_overlap_probability(lam, alpha)
    if isinstance(plate, Step):
        return step_overlap_probability(plate.phi, alpha)
    if isinstance(plate, BinarySectors):
        return abs(binary_mask_overlap(plate, alpha)) ** 2
    raise TypeError(f"unknown plate {type(plate).__name__}")


@dataclass(frozen=True)
class SampledCurve:
    """A plate's probability law sampled over an angle in [0, 2*pi)."""

    plate: PhasePlate
    samples: tuple  # of (angle, probability)
    header: tuple  # the two CSV column names

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header)
            for a, p in self.samples:
                writer.writerow([f"{a:.12g}", f"{p:.12g}"])


def sample_curve(plate, n_samples: int, verify: bool = False) -> SampledCurve:
    """Uniformly sample the plate's rotation-overlap law on [0, 2*pi).

    With ``verify`` on, each sample angle is snapped to the default
    quadrature grid and cross-checked against the oracle's quadrature of
    the sampled plate profiles at its default tolerance. The check is exact only when
    every phase jump lies on a grid node: for binary masks whose sector
    boundaries fall between nodes, the quadrature carries an O(1/n_points)
    boundary error and the check raises OracleMismatch.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if verify:
        from .oracle import verify_overlap  # the oracle imports this module

    grid = AngularGrid()
    samples = []
    for k in range(n_samples):
        a = TWO_PI * k / n_samples
        if verify:
            a = grid.nearest_node(a)
            p = verify_overlap(plate, a, grid=grid).require().closed_form
        else:
            p = closed_form_probability(plate, a)
        samples.append((a, p))
    return SampledCurve(plate, tuple(samples), ("alpha_rad", "probability"))

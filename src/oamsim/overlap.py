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
from dataclasses import dataclass, replace

from .angular import TWO_PI, AngularGrid, wrap_angle
from .plates import BinarySectors, PhasePlate, Spiral, Step, sector_intervals, to_dict


def spiral_overlap_amplitude(l: int, j: int, lam: float, alpha: float) -> complex:
    """<a^(l+j)_lam(0) | a^(l+j)_lam(alpha)>:
    (1/2pi)[2pi - alpha + alpha e^{i 2pi lam}] e^{-i (l+j+lam) alpha}."""
    a = wrap_angle(alpha)
    bracket = (TWO_PI - a + a * cmath.exp(1j * TWO_PI * lam)) / TWO_PI
    return bracket * cmath.exp(-1j * (l + j + lam) * a)


def spiral_overlap_probability(lam: float, alpha: float) -> float:
    """(1 - alpha/pi)^2 sin^2(lam pi) + cos^2(lam pi); independent of l, j."""
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


def _union_measure_overlap(first, second) -> float:
    """Total measure of the intersection of two disjoint-interval unions."""
    total = 0.0
    for a0, b0 in first:
        for a1, b1 in second:
            lo, hi = max(a0, a1), min(b0, b1)
            if hi > lo:
                total += hi - lo
    return total


def displaced_measure(mask, alpha: float) -> float:
    """measure(M \\ (M + alpha)) for the mask's delayed region M."""
    base = sector_intervals(mask)
    rotated = sector_intervals(replace(mask, alpha=wrap_angle(mask.alpha + alpha)))
    size = sum(b - a for a, b in base)
    return size - _union_measure_overlap(base, rotated)


def binary_mask_overlap(mask, alpha: float) -> complex:
    """Overlap between a binary-mask state and its rotation by alpha:
    1 - (m/pi)(1 - cos(phi)) with m = measure(M \\ (M+alpha))."""
    m = displaced_measure(mask, alpha)
    return complex(1.0 - (m / math.pi) * (1.0 - math.cos(mask.phi)))


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

    def report(self) -> dict:
        return {"plate": to_dict(self.plate), "n_samples": len(self.samples)}


def sample_curve(plate, n_samples: int, verify: bool = False,
                 grid: AngularGrid | None = None, verify_tol: float = 1e-8) -> SampledCurve:
    """Uniformly sample the plate's rotation-overlap law on [0, 2*pi).

    With ``verify`` on, each sample angle is snapped to the quadrature grid
    and cross-checked against the sampled-state inner product. The check is
    exact only when every phase jump lies on a grid node: for binary masks
    whose sector boundaries fall between nodes, the quadrature carries an
    O(1/n_points) boundary error and ``verify_tol`` must be widened.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if verify:
        from .oracle import verify_overlap  # the oracle imports this module

    grid = grid or AngularGrid()
    samples = []
    for k in range(n_samples):
        a = TWO_PI * k / n_samples
        if verify:
            a = grid.nearest_node(a)
            p = verify_overlap(plate, a, verify_tol, grid).require().closed_form
        else:
            p = closed_form_probability(plate, a)
        samples.append((a, p))
    return SampledCurve(plate, tuple(samples), ("alpha_rad", "probability"))

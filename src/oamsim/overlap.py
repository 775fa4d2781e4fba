"""Closed-form rotation-overlap laws for the three plate families, and the
sampled-curve table that both these laws and the coincidence fringes use.

Each function returns the overlap between a plate-generated basis state and
the same state with its edge rotated, as derived analytically; the
oracle module re-derives every value by angular quadrature. A binary mask's
overlap follows from the set covariogram of its sectors, computed in numpy
for whole batches of masks or angles, in blocks of bounded size, and, on
Fractions of pi, exactly.

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

import numpy as np

from .angular import TWO_PI, AngularGrid, wrap_angle
from .plates import BinarySectors, PhasePlate, Spiral, Step

# Elements, rows * k**2 * (deltas + 1), of one covariogram call. The call
# holds about six float64 arrays of that size at once (t, the two pair
# overlaps, temporaries of one, the running sum), 48 bytes an element, so
# 2**13 elements keep it near 384 KiB for any batch of masks or angles. On
# a 2-vCPU Xeon, 20000-evaluation searches (k = 2-4) ran fastest with
# blocks of 2**12-2**13 elements, 0.08 s each; larger blocks took 0.12 s
# and more memory, up to 44 MB of peak RSS unbounded against 36.7 MB.
_COVARIOGRAM_ELEMENTS = 2 ** 13


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


def covariogram(starts, widths, deltas, period=TWO_PI):
    """Set covariogram |M & (M + delta)| of the union M of the disjoint arcs
    [starts_i, starts_i + widths_i) on a circle of the given period, at each
    delta: floats in radians with period 2*pi, or Fractions of pi (object
    arrays) with period 2.

    Each pair of arcs contributes L(t) + L(t - P), with
    t = (a_j - a_i + delta) mod P and L(s) = max(0, min(u, s + v) - max(0, s))
    the overlap of [0, u) with [s, s + v). Rows of (..., k) starts and widths
    give (..., D) values for D deltas. The pairs are added one after another,
    so a mask's value does not depend on the batch it comes in. Rotating M
    changes nothing, so the pattern's own rotation never enters.
    """
    a, u = np.asarray(starts), np.asarray(widths)
    u_i, v_j = u[..., :, None, None], u[..., None, :, None]
    t = np.mod(a[..., None, :, None] - a[..., :, None, None] + np.asarray(deltas), period)

    def overlap(s):
        return np.maximum(0, np.minimum(u_i, s + v_j) - np.maximum(0, s))

    pairs = overlap(t) + overlap(t - period)
    pairs = pairs.reshape(pairs.shape[:-3] + (-1, pairs.shape[-1]))
    return np.add.accumulate(pairs, axis=-2)[..., -1, :]


def _arcs(sectors):
    """Start and width arrays of a sector list."""
    return np.array([a for a, _ in sectors]), np.array([b - a for a, b in sectors])


def _displaced(starts, widths, deltas, period=TWO_PI):
    """m(delta) = measure(M \\ (M + delta)) = C(0) - C(delta) for the
    covariogram C of each row's arcs, in the units of ``period``.

    Rows and deltas reach the covariogram in blocks of at most
    _COVARIOGRAM_ELEMENTS elements (while k**2 is at most half of it), and
    each value is the one its mask and delta would give alone."""
    a, u, d = np.asarray(starts), np.asarray(widths), np.asarray(deltas)
    k = a.shape[-1]
    lead, a, u = a.shape[:-1], a.reshape(-1, k), u.reshape(-1, k)
    n_deltas = max(1, min(d.size, _COVARIOGRAM_ELEMENTS // (k * k) - 1))
    n_rows = max(1, _COVARIOGRAM_ELEMENTS // (k * k * (n_deltas + 1)))

    def block(r, j):
        c = covariogram(a[r:r + n_rows], u[r:r + n_rows],
                        np.insert(d[j:j + n_deltas], 0, 0), period)
        return c[:, :1] - c[:, 1:]

    return np.block([[block(r, j) for j in range(0, d.size, n_deltas)]
                     for r in range(0, len(a), n_rows)]).reshape(lead + (d.size,))


def displaced_measure(mask, alpha: float) -> float:
    """measure(M \\ (M + alpha)) for the mask's delayed region M."""
    return float(_displaced(*_arcs(mask.sectors), (alpha,))[0])


def _mask_amplitude(m, phi):
    return 1.0 - (m / math.pi) * (1.0 - math.cos(phi))


def binary_mask_overlap(mask, alpha: float) -> complex:
    """Overlap between a binary-mask state and its rotation by alpha:
    1 - (m/pi)(1 - cos(phi)) with m = measure(M \\ (M+alpha))."""
    return complex(_mask_amplitude(displaced_measure(mask, alpha), mask.phi))


def binary_mask_probabilities(phi, starts, widths, deltas):
    """|binary_mask_overlap|^2 at each delta for each row of (..., k) arc
    starts and widths: the fringes of a batch of masks, shape (..., D)."""
    amplitude = _mask_amplitude(_displaced(starts, widths, deltas), phi)
    return amplitude * amplitude


def binary_mask_fringe_exact(sectors):
    """Exact fringe t -> (1 - 2m)^2 of a phi = pi mask whose sectors are
    Fractions of pi, with m = measure(M \\ (M + t*pi)) / pi: the overlap
    1 - (m/pi)(1 - cos(phi)) at phi = pi."""
    starts, widths = _arcs(sectors)
    return lambda t: (1 - 2 * _displaced(starts, widths, (t,), 2)[0]) ** 2


def closed_form_probability(plate, alpha: float) -> float:
    """Rotation-overlap probability |<state(0)|state(alpha)>|^2 for any plate."""
    if isinstance(plate, Spiral):
        lam = plate.ell - math.floor(plate.ell)
        return spiral_overlap_probability(lam, alpha)
    if isinstance(plate, Step):
        return step_overlap_probability(plate.phi, alpha)
    if isinstance(plate, BinarySectors):
        return float(binary_mask_probabilities(plate.phi, *_arcs(plate.sectors), (alpha,))[0])
    raise TypeError(f"unknown plate {type(plate).__name__}")


def closed_form_probabilities(plate, angles) -> list:
    """closed_form_probability at each angle. A binary mask's values come
    from one blocked covariogram pass over all angles, each equal to its
    single-angle value."""
    if isinstance(plate, BinarySectors):
        return binary_mask_probabilities(plate.phi, *_arcs(plate.sectors), angles).tolist()
    return [closed_form_probability(plate, a) for a in angles]


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

    angles = [TWO_PI * k / n_samples for k in range(n_samples)]
    if verify:
        grid = AngularGrid()
        angles = [grid.nearest_node(a) for a in angles]
        values = [verify_overlap(plate, a, grid=grid).require().closed_form for a in angles]
    else:
        values = closed_form_probabilities(plate, angles)
    return SampledCurve(plate, tuple(zip(angles, values)), ("alpha_rad", "probability"))

"""Closed-form rotation-overlap laws for the three plate families, in floats
and, where rational in delta/pi, in Fractions, and their sampled curves.

Each function returns the overlap between a plate-generated basis state and
the same state with its edge rotated, as derived analytically; the
oracle module re-derives every value by angular quadrature. The law is also
the coincidence rate behind two analyzer plates at relative angle delta for
a pump without OAM, the radial and fiber factors cancelling in the
correlation function: the parabola (1 - delta/pi)^2 at half-integer steps.
A binary mask's overlap follows from the set covariogram of its sectors,
computed in numpy for whole batches of masks or angles, in blocks of bounded
size, and, on Fractions of pi, exactly: from arc starts in [0, period]
(others raise), wrapping only the deltas with np.mod, with the rows
innermost.

For the step plate the printed amplitude 1 + (alpha/pi)(cos(phi) - 1) only
stays inside the unit disk for alpha >= 0; the first-principles integral is
symmetric in alpha, so the |alpha| form is implemented and the curve is
reported on [0, 2*pi) by that symmetry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .angular import TWO_PI, AngularGrid, wrap_angle
from .plates import BinarySectors, PhasePlate, Spiral, Step

# Elements, rows * k**2 * (deltas + 1), of one covariogram call. At its
# peak a call holds t (8 bytes an element) and the two numpy iterator
# buffers, of up to np.getbufsize() = 2**13 float64s each, that broadcasting
# its operands takes; or t, L(t) and one such buffer. The wrap's two boolean
# masks (1 byte an element each) live beside t alone. At 2**13 elements that
# is about 25 bytes an element, 200 KiB. On a 2-vCPU Xeon, six
# 20000-evaluation searches (k = 2-4) took 0.20 s best and 0.29 s median of 7
# with blocks of 2**13 elements, and 0.25 s and 0.32 s with 2**12, at
# 37.5 MB of peak RSS either way.
_COVARIOGRAM_ELEMENTS = 2 ** 13


def spiral_overlap_probability(lam: float, alpha: float) -> float:
    """(1 - alpha/pi)^2 sin^2(lam pi) + 1 - sin^2(lam pi); independent of n.
    sin(pi/2) is exactly 1.0, so a half-integer step gives the parabola bit
    for bit, with its exact zero at alpha = pi."""
    a = wrap_angle(alpha)
    s = math.sin(lam * math.pi)
    return (1.0 - a / math.pi) ** 2 * s * s + (1.0 - s * s)


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
    [starts_i, starts_i + widths_i) on a circle of period P, at each delta:
    floats in radians with P = 2*pi, or Fractions of pi (object arrays) with
    P = 2. Rows of (..., k) starts, each in [0, P] (else ValueError), and
    widths give (..., D) values for D deltas; rotating M changes nothing.

    Each pair of arcs adds L(t) + L(t - P), the overlap L(s) of [0, u) with
    [s, s + v), at t = (a_j - a_i + delta) mod P. As x = (a_j - a_i) +
    (delta mod P) lies in [-P, 2P], adding P below 0 and subtracting it from
    P up gives np.mod's float (Sterbenz's lemma makes the subtraction exact;
    t = P, which x = 2P leaves, gives the same pair value as t = 0). On
    t in [0, P], L(t) = max(0, min(u, t + v) - t) and
    L(t - P) = max(0, min(u, t - P + v)).
    The terms are laid out as (k, k, D, rows), and the pairs are added one
    after another, so a mask's value does not depend on its batch.
    """
    import numpy as np

    a, u = np.asarray(starts), np.asarray(widths)
    if not (a.min() >= 0 and a.max() <= period):
        raise ValueError(f"covariogram starts must lie in [0, {period}]")
    lead, k = a.shape[:-1], a.shape[-1]
    a, u = (np.ascontiguousarray(x.reshape(-1, k).T) for x in (a, u))
    u_i, v_j = u[:, None, None, :], u[None, :, None, :]
    t = (a[None, :, None, :] - a[:, None, None, :]) + np.mod(np.asarray(deltas), period)[:, None]
    below, above = t < 0, t >= period
    np.add(t, period, out=t, where=below)
    np.subtract(t, period, out=t, where=above)
    del below, above
    near = np.add(t, v_j)  # L(t)
    np.minimum(u_i, near, out=near)
    np.subtract(near, t, out=near)
    np.maximum(0, near, out=near)
    np.subtract(t, period, out=t)  # L(t - P)
    np.add(t, v_j, out=t)
    np.minimum(u_i, t, out=t)
    np.maximum(0, t, out=t)
    pairs = np.add(near, t, out=near).reshape((k * k,) + near.shape[2:])
    total = pairs[0]
    for pair in pairs[1:]:
        total += pair
    return total.T.reshape(lead + (len(total),))


def _arcs(sectors):
    """Start and width arrays of a sector list."""
    import numpy as np

    return np.array([a for a, _ in sectors]), np.array([b - a for a, b in sectors])


def _displaced(starts, widths, deltas, period=TWO_PI):
    """m(delta) = measure(M \\ (M + delta)) = C(0) - C(delta) for the
    covariogram C of each row's arcs, in the units of ``period``.

    Rows and deltas reach the covariogram in blocks of at most
    _COVARIOGRAM_ELEMENTS elements (while k**2 is at most half of it), and
    each value is the one its mask and delta would give alone."""
    import numpy as np

    a, u, d = np.asarray(starts), np.asarray(widths), np.asarray(deltas)
    k = a.shape[-1]
    lead, a, u = a.shape[:-1], a.reshape(-1, k), u.reshape(-1, k)
    n_deltas = max(1, min(d.size, _COVARIOGRAM_ELEMENTS // (k * k) - 1))
    n_rows = max(1, _COVARIOGRAM_ELEMENTS // (k * k * (n_deltas + 1)))
    blocks = [(j, np.concatenate(([0], d[j:j + n_deltas])))
              for j in range(0, d.size, n_deltas)]
    out = np.empty((len(a), d.size), np.result_type(a, u, d, period))
    for r in range(0, len(a), n_rows):
        for j, block in blocks:
            c = covariogram(a[r:r + n_rows], u[r:r + n_rows], block, period)
            out[r:r + n_rows, j:j + n_deltas] = c[:, :1] - c[:, 1:]
    return out.reshape(lead + (d.size,))


def _mask_amplitude(m, phi):
    return 1.0 - (m / math.pi) * (1.0 - math.cos(phi))


def binary_mask_probabilities(phi, starts, widths, deltas):
    """|1 - (m/pi)(1 - cos(phi))|^2, m = measure(M \\ (M + delta)), at each
    delta for each row of (..., k) arc starts and widths: the fringes of a
    batch of masks, shape (..., D)."""
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


# sin^2(lam pi) at the fractional steps lam in [0, 1/2] where it is rational
# (Niven's theorem); the mirror steps 1 - lam share it
_RATIONAL_SIN2 = ((Fraction(0), Fraction(0)), (Fraction(1, 6), Fraction(1, 4)),
                  (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 4)),
                  (Fraction(1, 2), Fraction(1)))

_TOL = 1e-12


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate whose fringe is not rational in the relative angle."""


def closed_form_probability_exact(plate, t: Fraction) -> Fraction:
    """Exact-rational fringe value at delta = t*pi, for the plates whose
    fringe is rational in t: a spiral whose fractional step lam has a
    rational sin^2(lam pi), that is lam in {0, 1/6, 1/4, 1/3, 1/2} or
    1 - lam, with 1 - s2 + s2 (1 - t)^2; a step plate of phi in {pi, pi/2}.
    Any other plate raises UnsupportedAnalyzerError."""
    t = t % 2
    if isinstance(plate, Spiral):
        lam = plate.ell - math.floor(plate.ell)
        for step, s2 in _RATIONAL_SIN2:
            if min(abs(lam - step), abs(1 - step - lam)) <= _TOL:
                return 1 - s2 + s2 * (1 - t) ** 2
        raise UnsupportedAnalyzerError(f"sin^2(lam pi) is irrational at the fractional step {lam}")
    if isinstance(plate, Step):
        m = min(t, 2 - t)
        if abs(plate.phi - math.pi) <= _TOL:
            return (1 - 2 * m) ** 2
        if abs(plate.phi - math.pi / 2) <= _TOL:
            return (1 - m) ** 2
        raise UnsupportedAnalyzerError("exact step fringe defined for phi in {pi, pi/2}")
    raise UnsupportedAnalyzerError("no exact-rational fringe for this plate family")


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

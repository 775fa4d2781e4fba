"""Closed-form rotation-overlap laws, in floats and, where rational in
delta/pi, in Fractions, and their sampled curves.

Each function returns the overlap between a plate-generated basis state and
the same state with its edge rotated, as derived analytically. The oracle
module, which imports this one and is never imported by it, re-derives every
value by angular quadrature; a sampled curve holds the law alone, at the
angles asked for, and ``fringe --verify`` checks each sample against the
oracle at the grid node nearest its angle. The law is also
the coincidence rate behind two analyzer plates at relative angle delta for
a pump without OAM, the radial and fiber factors cancelling in the
correlation function: the parabola (1 - delta/pi)^2 at half-integer steps.

Steps and binary masks share the sector law |1 - (m/pi)(1 - cos(phi))|^2,
m = measure(M \\ (M + delta)) of their delayed set M. A step's half-plane
gives m = min(|delta|, 2*pi - |delta|): the printed amplitude
1 + (alpha/pi)(cos(phi) - 1) leaves the unit disk for alpha < 0. A mask's
m = |M| - C(delta) sums |M| from its widths and reads its sectors' set
covariogram C(delta) = C(-delta) only at |delta| folded onto [0, pi]: for
whole batches of masks or angles in numpy, in blocks of rows * sectors**2 *
angles elements, and, on Fractions of pi, exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .angular import TWO_PI, wrap_angle
from .plates import BinarySectors, PhasePlate, Spiral, Step

# Elements, rows * k**2 * deltas, of one covariogram call. At its peak a
# call holds t (8 bytes an element) and the two numpy iterator buffers, of
# up to np.getbufsize() = 2**13 float64s each, that broadcasting its
# operands takes; or t, L(t) and one such buffer. The wrap's two boolean
# masks (1 byte an element each) live beside t alone. A call at the cap
# (k = 4, D = 8: 128 rows) peaks at 20.6 bytes an element, 330 KiB. On a
# 2-vCPU Xeon, with a delta = 0 column beside each mask's angles, it took
# 10.9, 7.7, 5.8 and 8.2 ns an element at caps of 2**12 to 2**15 elements
# (the last outgrows the cache).
_COVARIOGRAM_ELEMENTS = 2 ** 14


def spiral_overlap_probability(lam: float, alpha: float) -> float:
    """(1 - alpha/pi)^2 sin^2(lam pi) + 1 - sin^2(lam pi); independent of n.
    sin(pi/2) is exactly 1.0, so a half-integer step gives the parabola bit
    for bit, with its exact zero at alpha = pi."""
    a = wrap_angle(alpha)
    s = math.sin(lam * math.pi)
    return (1.0 - a / math.pi) ** 2 * s * s + (1.0 - s * s)


def covariogram(starts, widths, deltas, period=TWO_PI, scratch=None):
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
    after another, so a mask's value does not depend on its batch. t and
    L(t) are built in two fresh grids of k * k * D * rows elements, or in
    the leading elements of the two rows of ``scratch``, which the result
    then shares.
    """
    import numpy as np

    a, u = np.asarray(starts), np.asarray(widths)
    if not (a.min() >= 0 and a.max() <= period):
        raise ValueError(f"covariogram starts must lie in [0, {period}]")
    lead, k = a.shape[:-1], a.shape[-1]
    a, u = (np.ascontiguousarray(x.reshape(-1, k).T) for x in (a, u))
    u_i, v_j = u[:, None, None, :], u[None, :, None, :]
    d = np.mod(np.asarray(deltas), period)
    t = near = None
    if scratch is not None:
        shape = (k, k, len(d), a.shape[1])
        t, near = (grid[:math.prod(shape)].reshape(shape) for grid in scratch)
    t = np.add(a[None, :, None, :] - a[:, None, None, :], d[:, None], out=t)
    below, above = t < 0, t >= period
    np.add(t, period, out=t, where=below)
    np.subtract(t, period, out=t, where=above)
    del below, above
    near = np.add(t, v_j, out=near)  # L(t)
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
    """m(delta) = measure(M \\ (M + delta)) = |M| - C(delta) in the units
    of the period P: |M| the row's widths summed in sector order, C the
    covariogram of its arcs at delta folded onto [0, P/2], min(delta mod P,
    P - delta mod P), exact by Sterbenz's lemma and idempotent.
    Blocks of rows and folded deltas of at most _COVARIOGRAM_ELEMENTS reach
    C, and each value is the one its mask and delta would give alone."""
    import numpy as np

    a, u, d = np.asarray(starts), np.asarray(widths), np.mod(deltas, period)
    d = np.minimum(d, period - d)
    k = a.shape[-1]
    lead, a, u = a.shape[:-1], a.reshape(-1, k), u.reshape(-1, k)
    measure = sum(u.T[1:], u.T[0])
    n_deltas = max(1, min(d.size, _COVARIOGRAM_ELEMENTS // (k * k)))
    n_rows = max(1, _COVARIOGRAM_ELEMENTS // (k * k * n_deltas))
    out = np.empty((len(a), d.size), np.result_type(a, u, d, period))
    # the covariogram's two grids, sized for the largest block and reused
    scratch = np.empty((2, k * k * n_deltas * min(n_rows, len(a))), out.dtype)
    for r in range(0, len(a), n_rows):
        for j in range(0, d.size, n_deltas):
            c = covariogram(a[r:r + n_rows], u[r:r + n_rows], d[j:j + n_deltas], period, scratch)
            out[r:r + n_rows, j:j + n_deltas] = measure[r:r + n_rows, None] - c
    return out.reshape(lead + (d.size,))


def _sector_law(m, half_turn, one_minus_cos):
    """|1 - (m/half_turn)(1 - cos(phi))|^2, half a turn being pi or 1 (in pi)."""
    amplitude = 1 - m / half_turn * one_minus_cos
    return amplitude * amplitude


def binary_mask_probabilities(phi, starts, widths, deltas):
    """The sector law at each delta for each row of (..., k) arc starts and
    widths: the fringes of a batch of masks, shape (..., D)."""
    return _sector_law(_displaced(starts, widths, deltas), math.pi, 1.0 - math.cos(phi))


def closed_form_probability(plate, alpha: float) -> float:
    """Rotation-overlap probability |<state(0)|state(alpha)>|^2 for any plate."""
    if isinstance(plate, Spiral):
        return spiral_overlap_probability(plate.ell - math.floor(plate.ell), alpha)
    if isinstance(plate, Step):
        a = wrap_angle(alpha)
        return _sector_law(min(a, TWO_PI - a), math.pi, 1.0 - math.cos(plate.phi))
    if isinstance(plate, BinarySectors):
        return float(binary_mask_probabilities(plate.phi, *_arcs(plate.sectors), (alpha,))[0])
    raise TypeError(f"unknown plate {type(plate).__name__}")


# sin^2(x pi) at the x in [0, 1/2] where it is rational (Niven's theorem),
# x as the float it is compared with; the mirrors 1 - x share it
_RATIONAL_SIN2 = ((0.0, Fraction(0)), (1 / 6, Fraction(1, 4)), (1 / 4, Fraction(1, 2)),
                  (1 / 3, Fraction(3, 4)), (1 / 2, Fraction(1)))

_TOL = 1e-12


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate whose fringe is not rational in the relative angle."""


def _rational_sin2(x, what) -> Fraction:
    """sin^2(x pi) for an x that lies, mod 1, within _TOL of a table entry."""
    x -= math.floor(x)
    for step, s2 in _RATIONAL_SIN2:
        if min(abs(x - step), abs(1 - step - x)) <= _TOL:
            return s2
    raise UnsupportedAnalyzerError(f"sin^2({what} pi) is irrational at {what} = {x}")


def _fraction_of_pi(edge) -> Fraction:
    """The edge in Fractions of pi, snapped within _TOL to a denominator of
    at most 1000 (such fractions lie 1e-6 apart or more)."""
    x = edge / math.pi
    snapped = Fraction(x).limit_denominator(1000)
    if abs(snapped - x) > _TOL:
        raise UnsupportedAnalyzerError(f"mask edge {edge} is not a rational multiple of pi")
    return snapped


def closed_form_probability_exact(plate, t: Fraction) -> Fraction:
    """Exact-rational fringe value at delta = t*pi, for the plates whose
    fringe is rational in t. A spiral whose fractional step lam has a
    rational sin^2(lam pi), that is lam in {0, 1/6, 1/4, 1/3, 1/2} or
    1 - lam, gives 1 - s2 + s2 (1 - t)^2. A step or mask whose
    1 - cos(phi) = 2 sin^2(phi/2) is rational, phi a multiple of pi/3 or
    pi/2, gives the sector law, a mask's edges snapped to Fractions of pi.
    Any other plate or mask edge raises UnsupportedAnalyzerError."""
    t = t % 2
    if isinstance(plate, Spiral):
        s2 = _rational_sin2(plate.ell, "lam")
        return 1 - s2 + s2 * (1 - t) ** 2
    one_minus_cos = 2 * _rational_sin2(plate.phi / TWO_PI, "phi/2pi")
    if isinstance(plate, Step):
        m = min(t, 2 - t)
    else:
        sectors = [(_fraction_of_pi(a), _fraction_of_pi(b)) for a, b in plate.sectors]
        m = _displaced(*_arcs(sectors), (t,), 2)[0]
    return _sector_law(m, Fraction(1), one_minus_cos)


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


def sample_curve(plate, n_samples: int) -> SampledCurve:
    """The plate's rotation-overlap law at the n_samples angles
    2*pi*k/n_samples in [0, 2*pi). A binary mask's values come from one
    blocked covariogram pass over all angles, each equal to its
    single-angle value."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    angles = [TWO_PI * k / n_samples for k in range(n_samples)]
    if isinstance(plate, BinarySectors):
        values = binary_mask_probabilities(plate.phi, *_arcs(plate.sectors), angles).tolist()
    else:
        values = [closed_form_probability(plate, a) for a in angles]
    return SampledCurve(plate, tuple(zip(angles, values)), ("alpha_rad", "probability"))

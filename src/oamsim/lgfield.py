"""Laguerre-Gaussian transverse fields: waist-plane mode amplitudes, radial
overlap integrals by generalized Gauss-Laguerre quadrature, decomposition of
plate outputs into LG components, and far-field diffraction images by FFT.

The decomposition factorizes: the azimuthal spectrum of the plate profile is
exact (piecewise integration), and the radial overlap of each LG radial
function with the fundamental Gaussian is computed with the weight
x^(|l|/2) e^(-x) built into the quadrature nodes, so the remaining integrand
is a polynomial and the rule is exact.

The quadrature nodes are the eigenvalues of the Laguerre Jacobi matrix; each
weight is then computed from its own node through the Christoffel function,
in log space, so it is accurate relative to its size even where it is far
below the smallest double. Weights read off eigenvectors (Golub-Welsch) are
accurate only relative to the largest weight, and the e^(+x/2) factor of the
radial overlaps amplifies that error past any bound at the far nodes, by an
amount that depends on the LAPACK eigenvector driver. The kernels run with
floating-point overflow and invalid operations raised as errors, so a lost
weight fails loudly instead of yielding a wrong component count.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.ndimage import map_coordinates
from scipy.special import eval_genlaguerre, gammaln

from .angular import oam_spectrum
from .plates import Spiral, plate_state, profile


@dataclass(frozen=True)
class LgMode:
    """Laguerre-Gaussian mode indices and waist radius."""

    l: int
    p: int
    w0: float = 1.0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if self.w0 <= 0.0:
            raise ValueError("w0 must be positive")


def _norm_constant(l: int, p: int, w0: float) -> float:
    # unit L2 norm over the transverse plane
    return math.sqrt(2.0 / math.pi) / w0 * math.exp(
        0.5 * (gammaln(p + 1) - gammaln(p + abs(l) + 1))
    )


def lg_amplitude(mode: LgMode, r, theta) -> np.ndarray:
    """Waist-plane complex amplitude of the mode at (r, theta)."""
    r = np.asarray(r, dtype=float)
    l, p, w0 = mode.l, mode.p, mode.w0
    x = 2.0 * r**2 / w0**2
    amp = (
        _norm_constant(l, p, w0)
        * (-1.0) ** p
        * (r * math.sqrt(2.0) / w0) ** abs(l)
        * eval_genlaguerre(p, abs(l), x)
        * np.exp(-(r**2) / w0**2)
    )
    return amp * np.exp(1j * l * np.asarray(theta, dtype=float))


# overflow or NaN in the quadrature kernels is a bug, never a result;
# underflow of e^(-x) at the far nodes is harmless and stays silent
_LOUD = dict(over="raise", invalid="raise")


@lru_cache(maxsize=None)
def _gl_nodes(order: int, alpha: float):
    """Generalized Gauss-Laguerre nodes and log-weights for the weight
    x^alpha e^{-x}.

    The nodes are the eigenvalues of the Jacobi matrix (stable at high
    order, where the library's Newton-iteration root finder overflows).
    Each weight is the Christoffel function at its node,
    w_i = Gamma(alpha+1) / sum_{k<order} p_k(x_i)^2, with p_k the
    orthonormal polynomials of the same Jacobi matrix (p_0 = 1 here, the
    mass going into the numerator). The three-term recurrence runs with
    power-of-two renormalisation, exact in binary, and an integer running
    exponent, so nothing overflows and every weight is accurate relative
    to its own size, however small. No eigenvectors are used, so the
    weights do not depend on the LAPACK eigenvector driver.
    """
    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    with np.errstate(**_LOUD):
        nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
        # invariant: sum_{j<=k} p_j^2 = total * 4^exponent, p = q * 2^exponent
        q_prev = np.zeros_like(nodes)
        q = np.ones_like(nodes)
        total = np.ones_like(nodes)
        exponent = np.zeros(nodes.shape, dtype=np.int64)
        for j in range(order - 1):
            back = off[j - 1] * q_prev if j else 0.0
            q_prev, q = q, ((nodes - diag[j]) * q - back) / off[j]
            total += q * q
            shift = np.frexp(total)[1] // 2
            q = np.ldexp(q, -shift)
            q_prev = np.ldexp(q_prev, -shift)
            total = np.ldexp(total, -2 * shift)
            exponent += shift
        log_weights = gammaln(alpha + 1.0) - np.log(total) - 2.0 * math.log(2.0) * exponent
    return nodes, log_weights


def _laguerre_all(p_max: int, alpha: float, x: np.ndarray,
                  scale: np.ndarray | None = None) -> np.ndarray:
    """L_p^{alpha}(x) for every p in 0..p_max, via the three-term
    recurrence; shape (p_max+1, len(x)).

    ``scale`` multiplies every row (the recurrence is linear in p, so a
    fixed per-node factor propagates exactly); passing e^{-x/2} keeps the
    values bounded at nodes far out on the exponential tail, where the raw
    polynomials overflow long before their weighted contribution matters.
    """
    out = np.empty((p_max + 1, len(x)))
    out[0] = 1.0 if scale is None else scale
    if p_max >= 1:
        out[1] = (1.0 + alpha - x) * out[0]
    for p in range(1, p_max):
        out[p + 1] = ((2 * p + alpha + 1 - x) * out[p] - (p + alpha) * out[p - 1]) / (p + 1)
    return out


def lg_overlap(mode_a: LgMode, mode_b: LgMode, order: int = 200) -> complex:
    """<a|b> over the plane; Kronecker deltas for the orthonormal basis."""
    if mode_a.w0 != mode_b.w0:
        raise ValueError("mixed-waist overlaps are out of scope")
    if mode_a.l != mode_b.l:
        return 0.0 + 0.0j  # angular integral vanishes exactly
    l = abs(mode_a.l)
    # radial integrand in x = 2 r^2 / w0^2: weight x^l e^{-x} times L_pa L_pb
    nodes, log_weights = _gl_nodes(order, float(l))
    w0 = mode_a.w0
    ca = _norm_constant(mode_a.l, mode_a.p, w0) * (-1.0) ** mode_a.p
    cb = _norm_constant(mode_b.l, mode_b.p, w0) * (-1.0) ** mode_b.p
    with np.errstate(**_LOUD):
        la = eval_genlaguerre(mode_a.p, l, nodes)
        lb = eval_genlaguerre(mode_b.p, l, nodes)
        radial = float(np.sum(np.exp(log_weights) * la * lb))
    # 2*pi from the angular integral, w0^2/4 from substitution
    return complex(2.0 * math.pi * ca * cb * (w0**2 / 4.0) * radial)


def radial_overlaps(l: int, p_max: int, order: int = 200) -> np.ndarray:
    """Overlaps of the normalized radial functions R_{l,p}, p = 0..p_max,
    with the fundamental R_{0,0}: integral of R_lp R_00 r dr
    (waist-independent).

    In x = 2 r^2/w0^2 the integrand is x^(|l|/2) L_p^{|l|}(x) e^{-x} up to
    constants; the quadrature weight carries the full non-polynomial part,
    so the rule is exact once order exceeds p_max/2.
    """
    al = abs(l)
    nodes, log_weights = _gl_nodes(order, al / 2.0)
    with np.errstate(**_LOUD):
        # run the recurrence on L_p e^{-x/2} and move e^{+x/2} into the
        # weights: mathematically identical, but bounded at the far nodes
        polys = _laguerre_all(p_max, float(al), nodes, scale=np.exp(-0.5 * nodes))
        integrals = polys @ np.exp(log_weights + 0.5 * nodes)
        ps = np.arange(p_max + 1)
        # normalized radial functions: R_lp = (2/w0) sqrt(p!/(p+|l|)!)
        # x^{|l|/2} L_p^{|l|}(x) e^{-x/2} (-1)^p, and r dr = (w0^2/4) dx
        norms = np.exp(0.5 * (gammaln(ps + 1) - gammaln(ps + al + 1)))
        return (-1.0) ** ps * norms * integrals


def radial_overlap(l: int, p: int, order: int = 200) -> float:
    return float(radial_overlaps(l, p, order)[p])


@dataclass(frozen=True)
class LgDecomposition:
    """Plate-output field decomposed into LG components, greedily ordered
    by descending single-mode power."""

    entries: tuple  # of (l, p, coefficient, power), sorted by descending power
    l_window: tuple  # inclusive (l_min, l_max)
    p_max: int
    target_power: float
    angular_tail: float  # power outside the l window (analytic for the window states)

    @property
    def cumulative_powers(self) -> np.ndarray:
        return np.cumsum([e[3] for e in self.entries])

    @property
    def window_power(self) -> float:
        """Total power of the entries; 0 when the window holds none."""
        cum = self.cumulative_powers
        return float(cum[-1]) if len(cum) else 0.0

    @property
    def incomplete(self) -> bool:
        """True when the entries cannot reach the target power."""
        return self.window_power < self.target_power

    def count_at(self, target: float) -> int:
        """Number of greedy components needed to reach the target power."""
        idx = np.searchsorted(self.cumulative_powers, target)
        if idx >= len(self.entries):
            raise ValueError(f"window reaches only {self.window_power:.6f} < target {target}")
        return int(idx) + 1

    def write_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l", "p", "re", "im", "power", "cumulative_power"])
            cum = 0.0
            for l, p, coef, power in self.entries:
                cum += power
                writer.writerow(
                    [l, p, f"{coef.real:.12g}", f"{coef.imag:.12g}",
                     f"{power:.12g}", f"{cum:.12g}"]
                )


def decompose_plate_output(plate, input_mode: LgMode = LgMode(0, 0),
                           l_window: tuple = (-60, 60), p_max: int = 120,
                           target_power: float = 0.87,
                           quadrature_order: int | None = None) -> LgDecomposition:
    """LG spectrum of the plate acting on the fundamental Gaussian mode.

    Coefficients factorize into the exact azimuthal amplitude of the plate
    profile and the radial overlap of R_{l,p} with R_{0,0}. Entries are
    accumulated greedily by descending power; if the windows cannot reach
    the target the result is flagged incomplete.
    """
    if input_mode.l != 0 or input_mode.p != 0:
        raise ValueError("decomposition is defined for the fundamental input mode")
    l_min, l_max = l_window
    if l_min > l_max or p_max < 0:
        raise ValueError("empty decomposition window")
    order = quadrature_order or (2 * (p_max + max(abs(l_min), abs(l_max))) + 32)

    angular = oam_spectrum(plate_state(plate, 0), l_min, l_max)
    entries = []
    for l, a_l in angular:
        if abs(a_l) < 1e-14:
            continue
        coeffs = a_l * radial_overlaps(l, p_max, order)
        powers = np.abs(coeffs) ** 2
        for p in range(p_max + 1):
            if powers[p] > 1e-16:
                entries.append((l, int(p), complex(coeffs[p]), float(powers[p])))
    entries.sort(key=lambda e: (-e[3], e[0], e[1]))

    angular_tail = 1.0 - sum(abs(a) ** 2 for _, a in angular)
    return LgDecomposition(
        tuple(entries), (l_min, l_max), p_max, target_power, angular_tail)


@dataclass(frozen=True)
class FarFieldImage:
    """Far-field intensity on an N x N Fourier grid, unit total power."""

    intensity: np.ndarray
    extent: float  # physical half-width of the source grid, in units of w0
    plate: object

    @property
    def n(self) -> int:
        return self.intensity.shape[0]

    def azimuthal_profile(self, n_angles: int = 720, radius: float | None = None):
        """Intensity sampled on the circle at the radius (in pixels from the
        center) where the azimuthally averaged intensity peaks."""
        n = self.n
        center = n / 2.0
        if radius is None:
            radius = peak_radius(self.intensity)
        phis = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
        rows = center + radius * np.sin(phis)
        cols = center + radius * np.cos(phis)
        return map_coordinates(self.intensity, [rows, cols], order=3, mode="nearest")

    def asymmetry_metric(self) -> float:
        """max/min of the azimuthal intensity profile at the peak radius."""
        prof = self.azimuthal_profile()
        lo = float(np.min(prof))
        if lo <= 0.0:
            return math.inf
        return float(np.max(prof)) / lo

    def azimuthal_variance(self) -> float:
        """Variance of the peak-radius azimuthal profile, normalized by the
        squared mean; ~0 for rotationally symmetric patterns."""
        prof = self.azimuthal_profile()
        mean = float(np.mean(prof))
        if mean == 0.0:
            return 0.0
        return float(np.var(prof)) / mean**2

    def on_axis_ratio(self) -> float:
        """Central intensity relative to the global peak."""
        n = self.n
        center = float(self.intensity[n // 2, n // 2])
        return center / float(np.max(self.intensity))

    def write_pgm(self, path):
        """16-bit binary PGM with linear intensity scaling."""
        scale = 65535.0 / max(float(np.max(self.intensity)), 1e-300)
        data = np.round(self.intensity * scale).astype(">u2")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{self.n} {self.n}\n65535\n".encode())
            fh.write(data.tobytes())

    def write_sidecar(self, path):
        from .plates import to_dict

        with open(path, "w") as fh:
            json.dump({"grid": self.n, "extent": self.extent,
                       "plate": to_dict(self.plate)}, fh, indent=2)


def peak_radius(intensity: np.ndarray) -> float:
    """Radius (pixels) maximizing the azimuthally averaged intensity; falls
    back to the half-maximum radius when the peak sits on the axis."""
    n = intensity.shape[0]
    center = n / 2.0
    yy, xx = np.indices(intensity.shape)
    rr = np.hypot(yy - center, xx - center)
    bins = np.round(rr).astype(int)
    maxbin = n // 2
    sums = np.bincount(bins.ravel(), weights=intensity.ravel(), minlength=maxbin + 1)
    counts = np.bincount(bins.ravel(), minlength=maxbin + 1)
    mean = sums[: maxbin + 1] / np.maximum(counts[: maxbin + 1], 1)
    best = int(np.argmax(mean))
    if best >= 2:
        return float(best)
    half = mean[0] / 2.0
    below = np.nonzero(mean < half)[0]
    return float(below[0]) if len(below) else float(maxbin // 2)


def far_field(plate, input_mode: LgMode = LgMode(0, 0), n: int = 1024,
              extent: float = 16.0) -> FarFieldImage:
    """Fraunhofer far field of the waist-plane field behind the plate.

    The waist field times the plate phase is sampled on a Cartesian grid of
    physical half-width ``extent`` (in w0 units) and Fourier transformed
    with the unitary normalization, so total power is preserved.
    """
    if n < 128 or n & (n - 1):
        raise ValueError("grid size must be a power of two >= 128")
    if extent < 8.0 * input_mode.w0:
        raise ValueError("extent must be at least 8 waist radii")
    # half-cell offset: no sample sits on the vortex axis and the grid is
    # symmetric under inversion, so odd-harmonic terms cancel exactly in
    # the DC bin (intensity is unaffected by the induced phase ramp)
    coords = (np.arange(n) - n / 2.0 + 0.5) * (2.0 * extent / n)
    xx, yy = np.meshgrid(coords, coords)
    rr = np.hypot(xx, yy)
    th = np.mod(np.arctan2(yy, xx), 2.0 * math.pi)
    field = lg_amplitude(input_mode, rr, th) * profile(plate, th)
    cell = (2.0 * extent / n) ** 2
    power = float(np.sum(np.abs(field) ** 2)) * cell
    field = field / math.sqrt(power)
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(field), norm="ortho"))
    intensity = np.abs(spectrum) ** 2 * cell
    return FarFieldImage(intensity, extent, plate)

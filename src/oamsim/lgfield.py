"""Laguerre-Gaussian transverse fields: closed-form radial overlaps,
decomposition of plate outputs into LG components, and far-field
diffraction images by FFT. The plate always acts on the fundamental
Gaussian LG_00 of unit waist, as in the paper's setup.

The decomposition factorizes: the azimuthal spectrum of the plate profile is
exact (piecewise integration), and the radial overlap of each LG radial
function with the fundamental Gaussian is a ratio of Gamma functions,
evaluated in log space so it stays accurate at any p and |l|. The
generalized Gauss-Laguerre rule in ``oracle`` recomputes the same overlaps
by quadrature, as an independent check.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import TWO_PI, oam_spectrum
from .plates import Spiral, plate_state, to_dict


# overflow, NaN or log 0 in the radial kernel is a bug, never a result;
# underflow of a far overlap to 0 is harmless and stays silent
_LOUD = dict(over="raise", invalid="raise", divide="raise")


def radial_overlaps(l, p_max: int) -> np.ndarray:
    """Overlaps of the normalized radial functions R_{l,p}, p = 0..p_max,
    with the fundamental R_{0,0}: integral of R_lp R_00 r dr
    (waist-independent). An array of l gives one row per l, of shape
    ``np.shape(l) + (p_max + 1,)``.

    In x = 2 r^2/w0^2 the integral is sqrt(p!/(p+|l|)!) (-1)^p times
    int x^a L_p^{|l|}(x) e^{-x} dx = Gamma(a+1) Gamma(p+a) / (p! Gamma(a)),
    a = |l|/2 (Gradshteyn-Ryzhik 7.414.7). At l = 0 the factor 1/Gamma(0)
    leaves only p = 0: R_{0,0} is orthogonal to every other R_{0,p}.
    """
    abs_l = np.abs(np.asarray(l))
    # NaN and fractions name no mode; inf passes on to fail in the kernel
    if np.any(abs_l != np.floor(abs_l)):
        raise ValueError("OAM indices must be integers")
    ps = np.arange(p_max + 1)
    overlaps = np.zeros(abs_l.shape + ps.shape)
    nonzero = abs_l != 0
    overlaps[~nonzero, 0] = 1.0
    al = abs_l[nonzero]
    a = al / 2.0
    # the p = 0 term, then the logs of the ratios of consecutive terms,
    # (p + a) / sqrt((p + 1)(p + |l| + 1)), summed up: every addend stays
    # small, so no difference of two large log-Gammas loses digits
    with np.errstate(**_LOUD):
        head = (np.array([math.lgamma(x) for x in (a + 1.0).tolist()])
                - 0.5 * np.array([math.lgamma(x) for x in (al + 1.0).tolist()]))
        q, al, a = ps[:-1], al[:, None], a[:, None]
        steps = np.log(q + a) - 0.5 * (np.log(q + 1.0) + np.log(q + al + 1.0))
        log_magnitude = head[:, None] + np.concatenate(
            (np.zeros((len(al), 1)), np.cumsum(steps, axis=1)), axis=1)
        overlaps[nonzero] = (-1.0) ** ps * np.exp(log_magnitude)
    return overlaps


class LgRows:
    """(l, p, coefficient, power) rows read from four read-only columns."""

    def __init__(self, *columns):
        for column in columns:
            column.flags.writeable = False
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        row = [column[i].tolist() for column in self.columns]
        return tuple(zip(*row)) if isinstance(i, slice) else tuple(row)

    def __iter__(self):
        return zip(*(column.tolist() for column in self.columns))

    def __eq__(self, other):
        if isinstance(other, LgRows):
            return all(map(np.array_equal, self.columns, other.columns))
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class LgDecomposition:
    """LG components of a plate output, greedily ordered by descending power:
    a row view over four read-only columns, from which the CSV streams."""

    entries: LgRows  # (l, p, coefficient, power) rows, sorted by descending power
    l_window: tuple  # inclusive (l_min, l_max)
    p_max: int
    target_power: float
    angular_tail: float  # power outside the l window (analytic for the window states)

    @cached_property
    def cumulative_powers(self) -> np.ndarray:
        """Running sums of the entries' powers, left to right, read-only."""
        cum = np.cumsum(self.entries.columns[3])
        cum.flags.writeable = False
        return cum

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
        columns = (*self.entries.columns, self.cumulative_powers)
        with open(path, "w", newline="") as fh:
            fh.write("l,p,re,im,power,cumulative_power\r\n")
            for i in range(0, len(columns[0]), 4096):  # a block's Python scalars at a time
                block = (column[i:i + 4096].tolist() for column in columns)
                fh.writelines(f"{l},{p},{c.real:.12g},{c.imag:.12g},{w:.12g},{s:.12g}\r\n"
                              for l, p, c, w, s in zip(*block))


def _descending_order(w: np.ndarray) -> np.ndarray:
    """np.argsort(-w, kind="stable"): the faster default sort, which leaves
    equal values in any order, with each run of them back in ascending position."""
    order = np.argsort(-w)
    ranked = w[order]
    tied = ranked[1:] == ranked[:-1]  # rank i ties with rank i + 1
    runs = np.flatnonzero(np.append(tied, False) | np.append(False, tied))  # ranks in a run
    order[runs] = order[runs][np.lexsort((order[runs], -ranked[runs]))]
    return order


def decompose_plate_output(plate, l_window: tuple = (-60, 60), p_max: int = 120,
                           target_power: float = 0.87) -> LgDecomposition:
    """LG spectrum of the plate acting on the fundamental Gaussian mode.

    Coefficients factorize into the exact azimuthal amplitude of the plate
    profile and the radial overlap of R_{l,p} with R_{0,0}. Entries are
    accumulated greedily by descending power; if the windows cannot reach
    the target the result is flagged incomplete.
    """
    l_min, l_max = l_window
    if l_min > l_max or p_max < 0:
        raise ValueError("empty decomposition window")
    if max(abs(l_min), abs(l_max)) > 2**53:
        raise ValueError("OAM window beyond 2**53, where neighbouring l share one float")
    if not 0.0 < target_power <= 1.0:
        raise ValueError(f"target power must lie in (0, 1], got {target_power}")
    angular = oam_spectrum(plate_state(plate, 0), l_min, l_max)
    kept = [(l, a_l) for l, a_l in angular if abs(a_l) >= 1e-14]
    ls = np.array([l for l, _ in kept], dtype=np.int64)
    # the overlaps depend on |l| alone: one row per distinct |l|
    distinct, row_of = np.unique(np.abs(ls), return_inverse=True)
    radial = radial_overlaps(distinct, p_max)
    coeffs = np.array([a_l for _, a_l in kept], dtype=complex)[:, None] * radial[row_of]
    powers = np.abs(coeffs) ** 2
    # flat indices ascend in (row, p) and rows ascend with l, so a stable
    # sort on -power gives the order of the key (-power, l, p)
    flat = np.flatnonzero(powers > 1e-16)
    w = powers.ravel()[flat]
    order = _descending_order(w)
    flat, w = flat[order], w[order]
    rows = flat // (p_max + 1)  # np.divmod and % skip numpy's fast division by a scalar
    entries = LgRows(ls[rows], flat - rows * (p_max + 1), coeffs.ravel()[flat], w)

    angular_tail = 1.0 - sum(abs(a) ** 2 for _, a in angular)
    return LgDecomposition(entries, (l_min, l_max), p_max, target_power, angular_tail)


@dataclass(frozen=True)
class FarFieldImage:
    """Far-field intensity on an N x N Fourier grid, unit total power."""

    intensity: np.ndarray
    extent: float  # physical half-width of the source grid, in units of w0
    plate: object

    @property
    def n(self) -> int:
        return self.intensity.shape[0]

    def azimuthal_profile(self):
        """Intensity sampled at 720 angles on the circle at the radius (in
        pixels from the center) where the azimuthally averaged intensity
        peaks."""
        n = self.n
        center = n / 2.0
        radius = peak_radius(self.intensity)
        phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        rows = center + radius * np.sin(phis)
        cols = center + radius * np.cos(phis)
        return _cubic_spline_sample(self.intensity, rows, cols)

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
        # one scratch float grid, rounded in place, then the 16-bit grid
        scaled = np.multiply(self.intensity, scale)
        data = np.rint(scaled, out=scaled).astype(">u2")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{self.n} {self.n}\n65535\n".encode())
            fh.write(data)

    def write_sidecar(self, path):
        with open(path, "w") as fh:
            json.dump({"grid": self.n, "extent": self.extent,
                       "plate": to_dict(self.plate)}, fh, indent=2)


# the pole of the cubic B-spline's inverse filter (Unser, Aldroubi and Eden,
# IEEE Trans. Signal Process. 41, 821 (1993)), and the edge pixels added on
# every side before filtering, so the image continues flat beyond its edge
_POLE = math.sqrt(3.0) - 2.0
_PAD = 12


def _spline_prefilter(c: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients along axis 0 that interpolate the
    samples c, in place: the gain, then a causal and an anticausal
    first-order recursion, each started as for a signal mirrored about its
    end points with the end samples repeated."""
    n = c.shape[0]
    z = _POLE
    c *= (1.0 - z) * (1.0 - 1.0 / z)
    # |z|^64 < 1e-36: later terms of the starting sum are below rounding.
    # The sum runs row by row, in one order for every column, so a column's
    # coefficients do not depend on the columns filtered with it or on BLAS
    head, tail = np.zeros(c.shape[1:]), np.zeros(c.shape[1:])
    for j, power in enumerate(z ** np.arange(min(n, 64))):
        head += power * c[j]
        tail += power * c[n - 1 - j]
    c[0] += z / (1.0 - z ** (2 * n)) * (head + z**n * tail)
    for i in range(1, n):
        c[i] += z * c[i - 1]
    c[-1] *= z / (z - 1.0)
    for i in range(n - 2, -1, -1):
        c[i] = z * (c[i + 1] - c[i])
    return c


def _cubic_spline_sample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The image at the fractional pixel positions (rows, cols), by cubic
    B-spline interpolation with the edge pixels repeated beyond the image
    (what ``scipy.ndimage.map_coordinates(order=3, mode="nearest")``
    computes)."""
    coeffs = _spline_prefilter(np.pad(np.asarray(image, dtype=float), _PAD, mode="edge"))
    taps, weights = [], []
    for x, size in ((rows, coeffs.shape[0]), (cols, coeffs.shape[1])):
        x = np.asarray(x, dtype=float) + _PAD
        base = np.floor(x)
        t = x - base
        u = 1.0 - t
        weights.append(np.array([u**3, 3.0 * t * t * (t - 2.0) + 4.0,
                                 3.0 * u * u * (u - 2.0) + 4.0, t**3]) / 6.0)
        taps.append(np.clip(base.astype(int) + np.arange(-1, 3)[:, None], 0, size - 1))
    # the filter along a row reads that row alone, so it runs on the rows
    # the samples tap and on no other
    rows_read, row_taps = np.unique(taps[0], return_inverse=True)
    coeffs = _spline_prefilter(np.ascontiguousarray(coeffs[rows_read].T)).T
    values = coeffs[row_taps.reshape(taps[0].shape)[:, None, :], taps[1][None, :, :]]
    return np.einsum("am,bm,abm->m", weights[0], weights[1], values)


def peak_radius(intensity: np.ndarray) -> float:
    """Radius (pixels) maximizing the azimuthally averaged intensity; falls
    back to the half-maximum radius when the peak sits on the axis."""
    n = intensity.shape[0]
    maxbin = n // 2
    # r^2 is an exact integer (plus 1/2 for odd n), at least 1/4 from any
    # (m + 1/2)^2, so a sqrt off by an ulp still rounds to the right bin
    square = (np.arange(n) - n / 2.0) ** 2
    sums, counts = np.zeros(maxbin + 1), np.zeros(maxbin + 1, dtype=np.int64)
    # the bins of 16384 pixels at a time, never of the whole grid
    step = max(1, 16384 // n)
    for s in range(0, n, step):
        bins = np.add.outer(square[s:s + step], square)
        bins = np.rint(np.sqrt(bins, out=bins), out=bins).astype(int).ravel()
        sums += np.bincount(bins, weights=intensity[s:s + step].ravel(),
                            minlength=maxbin + 1)[: maxbin + 1]
        counts += np.bincount(bins, minlength=maxbin + 1)[: maxbin + 1]
    mean = sums / np.maximum(counts, 1)
    best = int(np.argmax(mean))
    if best >= 2:
        return float(best)
    half = mean[0] / 2.0
    below = np.nonzero(mean < half)[0]
    return float(below[0]) if len(below) else float(maxbin // 2)


def _on_two_threads(work, n: int) -> None:
    """work(0, n/2) in the calling thread and work(n/2, n) in a helper
    thread, joined before returning; an exception of either half is raised
    here, the caller's first."""
    failed = []

    def second_half():
        try:
            work(n // 2, n)
        except BaseException as exc:  # handed to the caller, raised there
            failed.append(exc)

    helper = threading.Thread(target=second_half)
    helper.start()
    try:
        work(0, n // 2)
    finally:
        helper.join()
    if failed:
        raise failed[0]


def far_field(plate, n: int = 1024, extent: float = 16.0) -> FarFieldImage:
    """Fraunhofer far field of the plate acting on the fundamental Gaussian,
    w0 = 1.

    The waist field e^{-x^2} e^{-y^2}, one 1-D vector per axis, times the
    plate phase is sampled on a Cartesian grid of half-width ``extent`` (in
    w0 units); its unitary Fourier transform keeps the total power. The
    image is built on two threads, first in row halves and then in column
    halves. Every step is elementwise or a 1-D transform of one row or one
    column, so the image is bit-identical to a one-thread build.
    """
    if n < 128 or n & (n - 1):
        raise ValueError("grid size must be a power of two >= 128")
    # cells of at most half a waist: the sampled Gaussian power is then off
    # by 1.1e-8, against 2.9e-2 at cells of one waist (n = 128)
    if not 8.0 <= extent <= n / 4:
        raise ValueError(f"extent must lie in [8, grid/4 = {n / 4:g}] waist radii, got {extent}")
    # sampling theorem: at the waist radius the plate phase l*theta may
    # advance by at most pi per cell, |l| * cell <= pi * w0; past that the
    # grid aliases the spiral into a pattern that is not the plate's
    ell_limit = math.pi * n / (2.0 * extent)
    if isinstance(plate, Spiral) and abs(plate.ell) > ell_limit:
        raise ValueError(f"|ell| must be at most pi*grid/(2*extent) = {ell_limit:.6g} for the "
                         f"grid to sample the plate phase at the waist, got {plate.ell}")
    # half-cell offset: no sample sits on the vortex axis and the grid is
    # symmetric under inversion, so odd-harmonic terms cancel exactly in the
    # DC bin. For even n, fftshift(fft2(ifftshift(f))) is fft2(f (-1)^(i+j))
    # up to a phase ramp the intensity drops: no shift copies the grid
    coords = (np.arange(n) - n / 2.0 + 0.5) * (2.0 * extent / n)
    gauss = np.exp(-(coords**2))
    # |profile| = 1, so |field|^2 sums to 1, and so does its unitary transform
    amplitude = gauss / math.sqrt(math.fsum(gauss**2)) * (-1.0) ** np.arange(n)
    state = plate_state(plate, 0)
    theta = np.empty((n, n))
    field = np.empty((n, n), complex)
    block = n // 64  # n/2 is a whole number of blocks, each from an even row

    def rows(a, b):
        # arctan2 lies in [-pi, pi]: adding 2*pi to its negative angles is np.mod
        np.arctan2(coords[a:b, None], coords[None, :], out=theta[a:b])
        for s in range(a, b, block):
            t = theta[s:s + block]
            phasor = state.profile(np.add(t, TWO_PI, out=t, where=t < 0.0))
            out = field[s:s + block]
            np.multiply(phasor, amplitude[s:s + block, None], out=out)
            del phasor  # freed before the next block's is built
            out *= amplitude[None, :]
            np.fft.fft(out, axis=1, norm="ortho", out=out)  # fft2's first axis, in place

    _on_two_threads(rows, n)
    del theta
    intensity = np.empty((n, n))

    def columns(a, b):
        out = field[:, a:b]
        np.fft.fft(out, axis=0, norm="ortho", out=out)
        np.square(out.real, out=intensity[:, a:b])
        intensity[:, a:b] += np.square(out.imag, out=out.imag)

    _on_two_threads(columns, n)
    return FarFieldImage(intensity, extent, plate)

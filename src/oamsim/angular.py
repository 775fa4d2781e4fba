"""States on the unit circle: the angular factor of a paraxial light field.

``ClosedForm`` describes a state as e^{i*nu*theta}/sqrt(2*pi) times
piecewise-constant unimodular factors, which is exactly the family of states
produced by azimuthal phase plates acting on integer-OAM eigenstates. It
holds the piece table that ``plates.plate_state`` builds and evaluates it at
one angle (``factor_at``) or at arrays of angles (``profile``); inner
products between such states are evaluated analytically, piece by piece,
for a whole array of frequencies at once.
``AngularGrid`` is the uniform grid on which the oracle module samples each
plate from its own definition to re-derive these results by quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Below this difference dnu of angular frequencies, e^{i*dnu*theta} is
# integrated over an interval of width w as its midpoint phase times
# w*sin(h)/h, h = dnu*w/2: the difference of its two end values would
# cancel to an error of about 1e-16/|dnu|.
_NU_SMALL = 1e-2


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # guard against fmod rounding
        t = 0.0
    return t


@dataclass(frozen=True)
class AngularGrid:
    """Uniform discretization theta_k = 2*pi*k/n_points of the circle."""

    n_points: int = 4096

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points

    @property
    def thetas(self):
        import numpy as np

        return np.arange(self.n_points) * self.spacing

    def nearest_index(self, theta: float) -> int:
        """Index k of the grid node closest to ``theta`` (wrapped)."""
        return round(wrap_angle(theta) / self.spacing) % self.n_points

    def nearest_node(self, theta: float) -> float:
        """Grid angle closest to ``theta`` (wrapped)."""
        return self.nearest_index(theta) * self.spacing


@dataclass(frozen=True)
class ClosedForm:
    """psi(theta) = factors[k] * e^{i*nu*theta} / sqrt(2*pi)
    on [boundaries[k], boundaries[k+1]), the last piece extending to 2*pi.

    ``boundaries`` starts at 0 and strictly increases, with one factor per
    boundary; all factors are unimodular for the plate-generated states, so
    the L2 norm over the circle is 1 exactly.
    """

    nu: float
    boundaries: tuple = (0.0,)
    factors: tuple = (1.0 + 0.0j,)

    def factor_at(self, theta: float) -> complex:
        return self.factors[bisect_right(self.boundaries, wrap_angle(theta)) - 1]

    def profile(self, theta):
        """sqrt(2*pi) * psi at angle(s) theta: for a plate's state from |0>,
        the plate's unimodular phase factor."""
        import numpy as np

        nu, boundaries, factors = self.nu, self.boundaries, self.factors
        t = np.asarray(theta, dtype=float)
        # np.mod leaves angles in [0, 2*pi) as they are; NaN fails both tests
        if not (np.min(t, initial=0.0) >= 0.0 and np.max(t, initial=0.0) < TWO_PI):
            t = np.mod(t, TWO_PI)
        if nu == 0.0 or factors != (1.0,):
            fac = np.asarray(factors)[np.searchsorted(np.asarray(boundaries), t, side="right") - 1]
        if nu != 0.0:
            # cos + i*sin in one complex array, the phase staged in its real part,
            # times the factors unless the state is one unit piece; [()] keeps scalars
            phasor = np.empty(np.shape(t), complex)
            np.multiply(t, nu, out=phasor.real)
            np.sin(phasor.real, out=phasor.imag)
            np.cos(phasor.real, out=phasor.real)
            fac = phasor[()] if factors == (1.0,) else np.multiply(fac, phasor, out=phasor)[()]
        return fac


def integer_mode(l) -> ClosedForm:
    """OAM eigenstate |l>, i.e. e^{i*l*theta}/sqrt(2*pi); an array of l, one
    state with that array for nu."""
    return ClosedForm(l + 0.0)


def _merge_boundaries(a: ClosedForm, b: ClosedForm):
    bs = sorted(set(a.boundaries) | set(b.boundaries))
    bs.append(TWO_PI)
    return bs


def inner_product(a, b):
    """<a|b> = integral over [0, 2*pi) of conj(a) * b for two ClosedForm
    states, exactly, piece by piece; a list of them when a nu is an array.

    Each piece's cmath expression, quoted below, is evaluated for every dnu
    at once, with CPython's complex product and Smith quotient written out
    on the real and imaginary parts. Their x * 0.0 terms are left out: they
    only sign zeros, and a signed zero added to the total, which starts at
    +0.0, leaves it as it was. So every value has the cmath loop's bits."""
    import numpy as np

    dnu = np.asarray(b.nu - a.nu, dtype=float)
    half, small = 0.5 * dnu, np.abs(dnu) < _NU_SMALL
    big = np.where(small, 1.0, dnu)  # dnu where the second branch divides by it
    tr, ti = np.zeros(dnu.shape), np.zeros(dnu.shape)
    bs = _merge_boundaries(a, b)
    for t0, t1 in zip(bs[:-1], bs[1:]):
        c = a.factor_at(t0).conjugate() * b.factor_at(t0)
        # c * cmath.exp(0.5j * dnu * (t0 + t1)) * (w * (math.sin(h) / h) if h else w)
        w, h, phase = t1 - t0, half * (t1 - t0), half * (t0 + t1)
        er, ei = np.cos(phase), np.sin(phase)
        f = np.where(h != 0.0, w * (np.sin(h) / np.where(h != 0.0, h, 1.0)), w)
        # c * (cmath.exp(1j * dnu * t1) - cmath.exp(1j * dnu * t0)) / (1j * dnu)
        dr = np.cos(big * t1) - np.cos(big * t0)
        di = np.sin(big * t1) - np.sin(big * t0)
        tr += np.where(small, (c.real * er - c.imag * ei) * f, (c.real * di + c.imag * dr) / big)
        ti += np.where(small, (c.real * ei + c.imag * er) * f, -(c.real * dr - c.imag * di) / big)
    out = np.empty(dnu.shape, complex)  # total / TWO_PI
    out.real, out.imag = tr / TWO_PI, ti / TWO_PI
    return out.tolist()


def oam_spectrum(state, l_min: int, l_max: int):
    """Amplitudes <l|state> for l in [l_min, l_max], as (l, amplitude) pairs."""
    import numpy as np

    if l_min > l_max:
        raise ValueError("l_min must not exceed l_max")
    modes = integer_mode(np.arange(l_min, l_max + 1))
    return list(zip(range(l_min, l_max + 1), inner_product(modes, state)))

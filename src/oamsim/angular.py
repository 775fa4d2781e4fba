"""States on the unit circle: the angular factor of a paraxial light field.

Two representations are kept side by side. ``ClosedForm`` describes a state
as e^{i*nu*theta}/sqrt(2*pi) times piecewise-constant unimodular factors,
which is exactly the family of states produced by azimuthal phase plates
acting on integer-OAM eigenstates; inner products between such states are
evaluated analytically, piece by piece. ``Sampled`` holds amplitudes on a
uniform grid and integrates with the rectangle rule, serving as the
independent numeric oracle for every closed-form result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this, a difference of angular frequencies nu is treated as exactly
# zero when integrating e^{i*dnu*theta} over an interval.
_NU_TOL = 1e-12


class GridMismatchError(ValueError):
    """Two sampled states live on different angular grids."""


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
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    def nearest_node(self, theta: float) -> float:
        """Grid angle closest to ``theta`` (wrapped)."""
        k = round(wrap_angle(theta) / self.spacing) % self.n_points
        return k * self.spacing


def _canonical_pieces(boundaries, factors):
    """Sort pieces by start angle, insert an explicit piece at theta=0,
    and merge adjacent pieces whose factors coincide."""
    pairs = sorted(zip((wrap_angle(b) for b in boundaries), factors))
    if not pairs:
        raise ValueError("at least one piece required")
    if pairs[0][0] != 0.0:
        # the last piece wraps around through theta=0
        pairs.insert(0, (0.0, pairs[-1][1]))
    merged = [pairs[0]]
    for b, f in pairs[1:]:
        if b == merged[-1][0]:
            merged[-1] = (b, f)
        elif abs(f - merged[-1][1]) < 1e-15:
            continue
        else:
            merged.append((b, f))
    bs = tuple(b for b, _ in merged)
    fs = tuple(complex(f) for _, f in merged)
    return bs, fs


@dataclass(frozen=True)
class ClosedForm:
    """psi(theta) = factors[k] * e^{i*nu*theta} / sqrt(2*pi)
    on [boundaries[k], boundaries[k+1]), the last piece extending to 2*pi.

    ``boundaries`` is sorted and starts at 0; all factors are unimodular for
    the plate-generated states, so the L2 norm over the circle is 1 exactly.
    """

    nu: float
    boundaries: tuple = (0.0,)
    factors: tuple = (1.0 + 0.0j,)

    @staticmethod
    def from_pieces(nu, boundaries, factors) -> "ClosedForm":
        bs, fs = _canonical_pieces(boundaries, factors)
        return ClosedForm(float(nu), bs, fs)

    def factor_at(self, theta: float) -> complex:
        t = wrap_angle(theta)
        idx = 0
        for k, b in enumerate(self.boundaries):
            if t >= b:
                idx = k
            else:
                break
        return self.factors[idx]

    def evaluate(self, theta) -> np.ndarray:
        """Pointwise complex amplitude; accepts scalars or arrays."""
        t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        idx = np.searchsorted(np.asarray(self.boundaries), t, side="right") - 1
        fac = np.asarray(self.factors)[idx]
        return fac * np.exp(1j * self.nu * t) / math.sqrt(TWO_PI)

    def to_sampled(self, grid: AngularGrid) -> "Sampled":
        return Sampled(self.evaluate(grid.thetas), grid)


@dataclass(frozen=True)
class Sampled:
    """Complex amplitudes at the nodes of a uniform angular grid."""

    values: np.ndarray
    grid: AngularGrid

    def __post_init__(self):
        if len(self.values) != self.grid.n_points:
            raise GridMismatchError("sample count does not match grid")


def integer_mode(l: int) -> ClosedForm:
    """OAM eigenstate |l>, i.e. e^{i*l*theta}/sqrt(2*pi)."""
    return ClosedForm(float(l))


def sample_midpoints(state: ClosedForm, grid: AngularGrid) -> Sampled:
    """Sample at the cell midpoints theta_k + spacing/2.

    With phase discontinuities on grid nodes this is the midpoint rectangle
    rule: exact for piecewise-constant integrands and immune to the
    one-ulp ambiguity of evaluating directly on a jump.
    """
    return Sampled(state.evaluate(grid.thetas + 0.5 * grid.spacing), grid)


@dataclass(frozen=True)
class NonIntegerOamState:
    """Basis element with integer index l, fractional twist lam in [0,1),
    and edge orientation alpha; the unitary image of |l> under a fractional
    spiral plate of step lam oriented at alpha."""

    l: int
    lam: float
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam must lie in [0,1), got {self.lam}")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))

    def to_closed_form(self) -> ClosedForm:
        # rotation convention: the oriented state is the alpha=0 state with
        # its argument shifted, psi(theta - alpha); this fixes the global
        # phase e^{-i(l+lam)*alpha} that the overlap amplitudes carry
        a, lam = self.alpha, self.lam
        nu = self.l + lam
        if a == 0.0:
            return ClosedForm(nu)
        base = cmath.exp(-1j * nu * a)
        return ClosedForm.from_pieces(
            nu,
            (0.0, a),
            (base * cmath.exp(1j * TWO_PI * lam), base),
        )


def _merge_boundaries(a: ClosedForm, b: ClosedForm):
    bs = sorted(set(a.boundaries) | set(b.boundaries))
    bs.append(TWO_PI)
    return bs


def inner_product(a, b) -> complex:
    """<a|b> = integral over [0, 2*pi) of conj(a) * b.

    ClosedForm pairs integrate exactly piece by piece; Sampled pairs use the
    rectangle rule on their common grid. A mixed pair is a TypeError.
    """
    if isinstance(a, ClosedForm) and isinstance(b, ClosedForm):
        dnu = b.nu - a.nu
        bs = _merge_boundaries(a, b)
        total = 0.0 + 0.0j
        for t0, t1 in zip(bs[:-1], bs[1:]):
            c = a.factor_at(t0).conjugate() * b.factor_at(t0)
            if abs(dnu) < _NU_TOL:
                total += c * (t1 - t0)
            else:
                total += c * (cmath.exp(1j * dnu * t1) - cmath.exp(1j * dnu * t0)) / (1j * dnu)
        return total / TWO_PI
    if not (isinstance(a, Sampled) and isinstance(b, Sampled)):
        raise TypeError(f"no inner product of {type(a).__name__} and {type(b).__name__}")
    if a.grid != b.grid:
        raise GridMismatchError("states live on different grids")
    return complex(np.vdot(a.values, b.values)) * a.grid.spacing


def norm(state) -> float:
    return math.sqrt(inner_product(state, state).real)


def oam_spectrum(state, l_min: int, l_max: int):
    """Amplitudes <l|state> for l in [l_min, l_max], as (l, amplitude) pairs."""
    if l_min > l_max:
        raise ValueError("l_min must not exceed l_max")
    ls = range(l_min, l_max + 1)
    if isinstance(state, Sampled):
        # amp_l = (spacing/sqrt(2*pi)) * sum_k psi_k e^{-i*l*theta_k}, an FFT
        coeffs = np.fft.fft(state.values) * state.grid.spacing / math.sqrt(TWO_PI)
        n = state.grid.n_points
        return [(l, complex(coeffs[l % n])) for l in ls]
    return [(l, inner_product(integer_mode(l), state)) for l in ls]


def fractional_tail_bound(lam: float, dl_min: int, dl_max: int) -> float:
    """Analytic power of a pure fractional state e^{i*(m+lam)*theta} falling
    outside the window l - m in [dl_min, dl_max].

    Each component carries power sin^2(pi*lam)/(pi*(dl - lam))^2; the two
    half-infinite tails sum in closed form via the trigamma function
    (sum_{k>=0} 1/(k+a)^2 = polygamma(1, a)).
    """
    from scipy.special import polygamma

    if lam == 0.0:
        return 0.0
    s2 = math.sin(math.pi * lam) ** 2
    upper = float(polygamma(1, dl_max + 1 - lam))
    lower = float(polygamma(1, 1 + lam - dl_min))
    return s2 / math.pi**2 * (upper + lower)

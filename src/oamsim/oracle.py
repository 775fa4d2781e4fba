"""Independent verification layer: every closed-form overlap and Bell number
is recomputed from first principles by angular quadrature, and the
closed-form LG radial overlaps by generalized Gauss-Laguerre quadrature. A
coincidence fringe is checked as the overlap law it equals for a flat state.

The angular quadrature samples each plate's phase from its own ell or
sectors (``geometric_profile``), never through the piece and interval tables
the closed forms are built from, so a wrong table cannot pass on both sides.
Rotation angles are snapped to grid nodes before comparison so that, for
plates whose edges lie on nodes, every phase jump of the integrand does too;
the midpoint rule is then exact for the piecewise-constant products that
arise, and the 1e-8 default tolerance sits far above the resulting
floating-point floor. A rotation by k nodes maps the cell midpoints onto
each other, so the rotated plate's samples are the unrotated plate's
shifted by k cells, and every rotation of a plate reads one set of samples.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import TWO_PI, AngularGrid
from .bell import BellSettings, POLARIZATION_SETTINGS, SPIRAL_SETTINGS, chsh_s
from .overlap import closed_form_probability
from .plates import BinarySectors, Spiral, Step


class OracleMismatch(AssertionError):
    """A closed-form value disagrees with its quadrature re-derivation."""


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    closed_form: float
    oracle: float
    abs_diff: float
    grid_size: int
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    def require(self) -> "OracleReport":
        """This report, or OracleMismatch if the check failed."""
        if not self.passed:
            raise OracleMismatch(f"{self.quantity}: closed form {self.closed_form} disagrees "
                                 f"with quadrature {self.oracle} (tolerance {self.tolerance})")
        return self


def _report(quantity, closed, oracle, grid, tol) -> OracleReport:
    diff = abs(closed - oracle)
    return OracleReport(quantity, closed, oracle, diff, grid.n_points, tol, diff <= tol)


def geometric_profile(plate, thetas) -> np.ndarray:
    """The plate's phase factor at each angle in [0, 2*pi), read from the
    plate's own fields in its local angle (theta - alpha) mod 2*pi:
    e^{i*ell*local} for a spiral; e^{i*phi} in the plate's ``sectors`` for
    a step (the half-plane [0, pi)) or a binary mask, 1 elsewhere.

    Both theta and alpha lie in [0, 2*pi), so the difference is wrapped by
    adding 2*pi where it is negative, which is exactly what the mod gives.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not (0.0 <= thetas.min() and thetas.max() < TWO_PI):
        raise ValueError("sample angles must lie in [0, 2*pi)")
    local = thetas - plate.alpha
    local = np.where(local < 0.0, local + TWO_PI, local)
    if isinstance(plate, Spiral):
        phase = plate.ell * local
        phasor = np.empty(local.shape, complex)
        np.cos(phase, out=phasor.real)
        np.sin(phase, out=phasor.imag)
        return phasor
    delayed = np.zeros(local.shape, dtype=bool)
    for a, b in plate.sectors:
        delayed |= (a <= local) & (local < b)
    return np.where(delayed, cmath.exp(1j * plate.phi), 1.0 + 0.0j)


@lru_cache(maxsize=1)
def _unrotated(plate, grid: AngularGrid) -> np.ndarray:
    """Samples of the unrotated plate at the midpoints of the grid's cells,
    read-only. One entry: the sweeps rotate one plate many times in a row."""
    samples = geometric_profile(plate, grid.thetas + 0.5 * grid.spacing)
    samples.flags.writeable = False
    return samples


def quadrature_overlap_probability(plate, alpha: float, grid: AngularGrid) -> float:
    """|<state(plate)|state(plate rotated by alpha)>|^2 by the midpoint rule
    on the grid's cells, at the node nearest alpha. Rotated by k nodes, the
    plate's sample at midpoint j is its unrotated sample at j - k (mod n)."""
    p0 = _unrotated(plate, grid)
    n, k = grid.n_points, grid.nearest_index(alpha)
    amplitude = np.vdot(p0[k:], p0[:n - k]) + np.vdot(p0[:k], p0[n - k:])
    return abs(complex(amplitude) / n) ** 2


def _require_resolvable(plate, tolerance):
    """ValueError for a spiral whose phase the quadrature cannot resolve.

    Rounding ell*theta to a double costs the overlap probability about
    (2*pi*|ell|*2**-53)**2, so |ell| may reach sqrt(tolerance)*2**53/(2*pi),
    1.43e11 at the default 1e-8, before the check would flag a right value.
    """
    limit = math.sqrt(tolerance) * 2.0**53 / TWO_PI
    if isinstance(plate, Spiral) and abs(plate.ell) > limit:
        raise ValueError(f"|ell| {abs(plate.ell):g} exceeds {limit:.3g}, the largest "
                         f"the quadrature resolves at tolerance {tolerance:g}")


def verify_overlap(plate, alpha: float, tolerance: float = 1e-8,
                   grid: AngularGrid | None = None) -> OracleReport:
    """Closed-form rotation-overlap probability against the quadrature value
    at the nearest grid-aligned rotation angle."""
    _require_resolvable(plate, tolerance)
    grid = grid or AngularGrid()
    a = grid.nearest_node(alpha)
    closed = closed_form_probability(plate, a)
    oracle = quadrature_overlap_probability(plate, a, grid)
    return _report(f"overlap[{type(plate).__name__.lower()}, alpha={a:.6f}]", closed, oracle,
                   grid, tolerance)


def verify_fringe_sample(plate, delta: float, tolerance: float = 1e-8,
                         grid: AngularGrid | None = None) -> OracleReport:
    """verify_overlap at delta; a function, not an alias, so that a call
    count kept under this name counts fringe checks only."""
    return verify_overlap(plate, delta, tolerance, grid)


def verify_bell(plate, settings: BellSettings = SPIRAL_SETTINGS,
                tolerance: float = 1e-8,
                grid: AngularGrid | None = None) -> OracleReport:
    """S computed twice: closed-form fringe versus the fully
    quadrature-derived fringe."""
    _require_resolvable(plate, tolerance)
    grid = grid or AngularGrid()
    closed = chsh_s(lambda d: closed_form_probability(plate, d), settings).s
    oracle = chsh_s(
        lambda d: quadrature_overlap_probability(plate, d, grid), settings).s
    name = f"bell[{type(plate).__name__.lower()}]"
    return _report(name, closed, oracle, grid, tolerance)


def standard_sweep(grid: AngularGrid | None = None):
    """Representative verification sweep across the three plate families."""
    grid = grid or AngularGrid()
    reports = []
    for lam in (0.0, 0.25, 0.3, 0.5):
        for alpha in (0.5, 1.0, math.pi / 2, math.pi, 5.0):
            reports.append(verify_overlap(Spiral(2 + lam), alpha, grid=grid))
    for phi in (math.pi / 3, 2 * math.pi / 3, math.pi / 2, math.pi):
        for alpha in (0.5, -2.0, math.pi / 2, math.pi):
            reports.append(verify_overlap(Step(phi), alpha, grid=grid))
    # gaps under 1 rad, so a sector table that merged across them would show
    mask = BinarySectors(math.pi, ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4)))
    for alpha in (0.5, math.pi / 4, math.pi):
        reports.append(verify_overlap(mask, alpha, grid=grid))
    reports.append(verify_bell(Spiral(0.5), grid=grid))
    reports.append(verify_bell(Step(math.pi / 2), grid=grid))
    reports.append(verify_bell(Step(math.pi), POLARIZATION_SETTINGS, grid=grid))
    return reports


def write_jsonl(reports, path):
    with open(path, "w") as fh:
        for report in reports:
            fh.write(report.to_json() + "\n")


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


# overflow or NaN in the quadrature kernels is a bug, never a result, and
# raising turns a lost weight into an error instead of a wrong count;
# underflow of e^(-x) at the far nodes is harmless and stays silent
_LOUD = dict(over="raise", invalid="raise")


@lru_cache
def _gl_rule(order: int, alpha: float):
    """Generalized Gauss-Laguerre nodes and log-weights, read-only, for the
    weight x^alpha e^{-x}.

    The nodes are the eigenvalues of the Jacobi matrix (stable at high
    order, where the library's Newton-iteration root finder overflows).
    Each weight is the Christoffel function at its node,
    w_i = Gamma(alpha+1) / sum_{k<order} p_k(x_i)^2, with p_k the
    orthonormal polynomials of the same Jacobi matrix (p_0 = 1 here, the
    mass going into the numerator). The three-term recurrence runs with
    power-of-two renormalisation, exact in binary, and an integer running
    exponent, so nothing overflows and every weight is accurate relative
    to its own size, however small. Weights read off eigenvectors
    (Golub-Welsch) are accurate only relative to the largest weight, an
    error that the e^{+x/2} factor of the radial overlaps amplifies past
    any bound at the far nodes, by an amount that depends on the LAPACK
    eigenvector driver; no eigenvectors are used here.
    """
    # deferred: only the quadrature check uses scipy, so the program never
    # imports it
    from scipy.linalg import eigh_tridiagonal
    from scipy.special import gammaln

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
    nodes.flags.writeable = False
    log_weights.flags.writeable = False
    return nodes, log_weights


def quadrature_radial_overlaps(l: int, p_max: int, order: int) -> np.ndarray:
    """Overlaps of the normalized LG radial functions R_{l,p}, p = 0..p_max,
    with R_{0,0}, by Gauss-Laguerre quadrature of the given order.

    In x = 2 r^2/w0^2 the integrand is x^(|l|/2) L_p^{|l|}(x) e^{-x} up to
    constants. With |l|/2 = k + alpha, k = floor(|l|/2), the weight
    x^alpha e^{-x} carries the non-polynomial part, so two rules, alpha = 0
    and 1/2, serve every l; x^k folds into the weights, and the rule is
    exact once order exceeds (k + p_max)/2. The Laguerre polynomials run
    through their three-term recurrence scaled by e^{-x/2}, with e^{+x/2}
    moved into the weights: mathematically identical, but bounded at the
    far nodes, where the raw polynomials overflow long before their
    weighted contribution matters.
    """
    from scipy.special import gammaln

    al = abs(l)
    k = al // 2
    nodes, log_weights = _gl_rule(order, (al % 2) / 2.0)
    with np.errstate(**_LOUD):
        polys = np.empty((p_max + 1, order))
        polys[0] = np.exp(-0.5 * nodes)
        if p_max >= 1:
            polys[1] = (1.0 + al - nodes) * polys[0]
        for p in range(1, p_max):
            polys[p + 1] = ((2 * p + al + 1 - nodes) * polys[p]
                            - (p + al) * polys[p - 1]) / (p + 1)
        integrals = polys @ np.exp(log_weights + k * np.log(nodes) + 0.5 * nodes)
        ps = np.arange(p_max + 1)
        # normalized radial functions: R_lp = (2/w0) sqrt(p!/(p+|l|)!)
        # x^{|l|/2} L_p^{|l|}(x) e^{-x/2} (-1)^p, and r dr = (w0^2/4) dx
        norms = np.exp(0.5 * (gammaln(ps + 1) - gammaln(ps + al + 1)))
        return (-1.0) ** ps * norms * integrals

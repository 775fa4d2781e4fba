"""CHSH machinery: coincidence probabilities at the sixteen setting pairs,
correlation values E, the Bell parameter S, and a derivative-free search
over binary sector masks for the algebraic-maximum S = 4 plate.

One assembly serves two number types: floating point for arbitrary
fringes, and exact rational arithmetic (angles as fractions of pi) for the
parabolic fringes, where S = 16/5 holds exactly and tolerances would only
mask sign errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angular import TWO_PI, wrap_angle
from .overlap import binary_mask_fringe
from .plates import BinarySectors, to_dict

_PAIR_KEYS = ("a1a2", "a1pa2", "a1a2p", "a1pa2p")
_PAIR_SIGNS = (1.0, -1.0, 1.0, 1.0)
# a float four-probability sum at or below this counts as vanishing
_FLOAT_FLOOR = 1e-15
# random starts of the mask search's exploration half
_N_STARTS = 64


class DegenerateFringeError(ZeroDivisionError):
    """All four coincidence probabilities of a setting pair vanish."""


@dataclass(frozen=True)
class BellSettings:
    """Four analyzer angles plus the offset realizing the orthogonal
    setting; the offset is half the fringe period."""

    alpha1: float
    alpha1p: float
    alpha2: float
    alpha2p: float
    perp_offset: float

    def __post_init__(self):
        if self.perp_offset <= 0.0:
            raise ValueError("perp_offset must be positive")
        for name in ("alpha1", "alpha1p", "alpha2", "alpha2p"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    def pairs(self):
        return (
            (self.alpha1, self.alpha2),
            (self.alpha1p, self.alpha2),
            (self.alpha1, self.alpha2p),
            (self.alpha1p, self.alpha2p),
        )

    def to_dict(self) -> dict:
        return {
            "alpha1": self.alpha1,
            "alpha1p": self.alpha1p,
            "alpha2": self.alpha2,
            "alpha2p": self.alpha2p,
            "perp_offset": self.perp_offset,
        }


# Analyzer angles for the 2*pi-periodic fringes (half-integer spiral and the
# phi = pi/2 step plate): polarization standards scaled by two, orthogonal
# setting at +pi.
SPIRAL_SETTINGS = BellSettings(-math.pi / 4, math.pi / 4, -math.pi / 2, 0.0, math.pi)

# Unscaled polarization standards with orthogonal setting at +pi/2, matching
# the pi-periodic phi = pi step-plate fringe.
POLARIZATION_SETTINGS = BellSettings(-math.pi / 8, math.pi / 8, -math.pi / 4, 0.0, math.pi / 2)

# Same angles expressed as fractions of pi, for the exact-arithmetic path.
SPIRAL_SETTINGS_PI = (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 2), Fraction(0), Fraction(1))
POLARIZATION_SETTINGS_PI = (
    Fraction(-1, 8), Fraction(1, 8), Fraction(-1, 4), Fraction(0), Fraction(1, 2))


def _four_probabilities(fringe, wrap, x, y, perp):
    """P(x,y), P(x',y'), P(x,y'), P(x',y) with the primes at +perp; ``wrap``
    reduces the relative angle into the fringe's domain."""
    return (
        fringe(wrap(y - x)),
        fringe(wrap((y + perp) - (x + perp))),
        fringe(wrap((y + perp) - x)),
        fringe(wrap(y - (x + perp))),
    )


def _correlation(four, floor, x, y):
    """E = [P(x,y) + P(x',y') - P(x,y') - P(x',y)] / [sum of the four]; a sum
    at or below ``floor`` is degenerate."""
    direct, both, cross_y, cross_x = four
    denom = direct + both + cross_y + cross_x
    if denom <= floor:
        raise DegenerateFringeError(f"vanishing coincidence rate at settings ({x}, {y})")
    return (direct + both - cross_y - cross_x) / denom


def _chsh(fringe, wrap, pairs, perp, floor):
    """(S, E per pair, 16 probabilities) in the number type the fringe
    returns: S = E(a1,a2) - E(a1',a2) + E(a1,a2') + E(a1',a2')."""
    e_values, probabilities = [], []
    for x, y in pairs:
        four = _four_probabilities(fringe, wrap, x, y, perp)
        probabilities.extend(four)
        e_values.append(_correlation(four, floor, x, y))
    e0, e1, e2, e3 = e_values
    return e0 - e1 + e2 + e3, e_values, probabilities


@dataclass(frozen=True)
class BellResult:
    s: float
    e: dict  # key -> E value for the four setting pairs
    p: tuple  # 16 probabilities, 4 per pair in (direct, both-perp, cross-y, cross-x) order
    settings: BellSettings
    fringe_id: str = ""

    def to_dict(self) -> dict:
        return {
            "S": self.s,
            "E": dict(self.e),
            "P": list(self.p),
            "settings": self.settings.to_dict(),
            "fringe": self.fringe_id,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def chsh_s(fringe, settings: BellSettings = SPIRAL_SETTINGS, fringe_id: str = "") -> BellResult:
    """Assemble S = E(a1,a2) - E(a1',a2) + E(a1,a2') + E(a1',a2')."""
    s, e_values, p = _chsh(fringe, wrap_angle, settings.pairs(), settings.perp_offset, _FLOAT_FLOOR)
    return BellResult(s, dict(zip(_PAIR_KEYS, e_values)), tuple(p), settings, fringe_id)


def chsh_s_exact(fringe, settings_pi=SPIRAL_SETTINGS_PI) -> Fraction:
    """S in exact rational arithmetic; angles are fractions of pi and the
    fringe must be rational in the relative angle (parabolic families)."""
    a1, a1p, a2, a2p, perp = settings_pi
    pairs = ((a1, a2), (a1p, a2), (a1, a2p), (a1p, a2p))
    return _chsh(fringe, lambda t: t % 2, pairs, perp, 0)[0]


def s4_certificate(fringe, settings: BellSettings, tol: float = 1e-8) -> dict:
    """Check the zero/nonzero coincidence pattern that forces S = 4: the
    cross probabilities of the three '+' pairs and the direct probabilities
    of the '-' pair vanish, while their partners stay finite."""
    checks = []
    for sign, (x, y) in zip(_PAIR_SIGNS, settings.pairs()):
        direct, both, cross_y, cross_x = _four_probabilities(
            fringe, wrap_angle, x, y, settings.perp_offset)
        if sign > 0:
            ok = cross_y <= tol and cross_x <= tol and direct > tol and both > tol
        else:
            ok = direct <= tol and both <= tol and cross_y > tol and cross_x > tol
        checks.append(ok)
    return {"passed": all(checks), "per_pair": checks}


@dataclass(frozen=True)
class MaskSearchResult:
    mask: BinarySectors
    s: float
    trace: tuple  # of (evaluation_count, best_s_so_far)
    settings: BellSettings

    def to_dict(self) -> dict:
        return {
            "mask": to_dict(self.mask),
            "S": self.s,
            "trace": [list(t) for t in self.trace],
            "settings": self.settings.to_dict(),
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def _mask_from_boundaries(phi, boundaries):
    """Sorted boundary angles taken pairwise as sectors; None when the
    geometry degenerates (coincident boundaries or full/empty coverage)."""
    b = np.sort(np.mod(np.asarray(boundaries, dtype=float), TWO_PI))
    sectors = []
    for a, c in zip(b[0::2], b[1::2]):
        if c - a < 1e-9:
            return None
        sectors.append((float(a), float(c)))
    total = sum(c - a for a, c in sectors)
    if not 1e-9 < total < TWO_PI - 1e-9:
        return None
    return BinarySectors(phi, tuple(sectors))


def _mask_objective(phi, boundaries, settings):
    mask = _mask_from_boundaries(phi, boundaries)
    if mask is None:
        return -math.inf, None
    try:
        return evaluate_mask(mask, settings).s, mask
    except DegenerateFringeError:
        return -math.inf, mask


def evaluate_mask(mask: BinarySectors, settings: BellSettings = SPIRAL_SETTINGS) -> BellResult:
    """Bell parameter of a given mask's coincidence fringe."""
    return chsh_s(binary_mask_fringe(mask), settings, fringe_id="binary-mask")


def search_max_s(sector_count: int, phi: float,
                 settings: BellSettings = SPIRAL_SETTINGS,
                 budget: int = 20000, seed: int = 0,
                 init_mask: BinarySectors | None = None) -> MaskSearchResult:
    """Maximize the Bell parameter over binary sector masks by multi-start
    coordinate descent on the 2*sector_count boundary angles.

    Deterministic for a fixed seed; with ``budget`` = 0 the initial mask is
    evaluated without any search. Returns the best mask found together with
    the (evaluation, best-S) trace; convergence is not guaranteed.
    """
    if sector_count < 1:
        raise ValueError("sector_count must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")

    n_params = 2 * sector_count
    trace = []
    evals = 0
    best_s, best_key, best_mask, best_x = -math.inf, None, None, None

    def consider(s, mask, x):
        nonlocal best_s, best_key, best_mask, best_x
        if mask is None:
            return
        key = tuple(mask.sectors)
        if s > best_s or (s == best_s and (best_key is None or key < best_key)):
            best_s, best_key, best_mask, best_x = s, key, mask, np.asarray(x, dtype=float)
            trace.append((evals, s))

    def descend(x, s_cur, max_evals, initial_step=math.pi / 4):
        nonlocal evals
        used = 0
        step = initial_step
        while used < max_evals and step > 1e-12:
            improved = False
            for i in range(len(x)):
                for direction in (1.0, -1.0):
                    if used >= max_evals:
                        return
                    trial = x.copy()
                    trial[i] += direction * step
                    s_new, mask = _mask_objective(phi, trial, settings)
                    used += 1
                    evals += 1
                    if s_new > s_cur:
                        x, s_cur = trial, s_new
                        consider(s_new, mask, trial)
                        improved = True
                        break
            if not improved:
                step *= 0.5

    if init_mask is not None:
        x0 = [v for ab in init_mask.sectors for v in ab]
        s0, _ = _mask_objective(phi, x0, settings)
        evals += 1
        consider(s0, init_mask, x0)
        if budget == 0:
            return MaskSearchResult(init_mask, s0, tuple(trace), settings)

    if budget == 0:
        raise ValueError("budget 0 requires an initial mask to evaluate")

    # half the budget explores from random starts, the other half polishes
    # the best point found with a fresh full-size step schedule
    explore = budget // 2
    per_start = max(explore // _N_STARTS, 1)
    for start in range(_N_STARTS):
        if evals >= explore:
            break
        rng = np.random.default_rng(seed * 7919 + start)
        x = np.sort(rng.uniform(0.0, TWO_PI, size=n_params))
        s_cur, mask = _mask_objective(phi, x, settings)
        evals += 1
        consider(s_cur, mask, x)
        descend(x, s_cur, min(per_start, budget - evals))

    if best_mask is None:
        raise DegenerateFringeError("search found no non-degenerate mask")
    if evals < budget and best_x is not None:
        descend(best_x.copy(), best_s, budget - evals, initial_step=math.pi / 8)
    return MaskSearchResult(best_mask, best_s, tuple(trace), settings)

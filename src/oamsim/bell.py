"""CHSH machinery: coincidence probabilities at the sixteen setting pairs,
correlation values E, the Bell parameter S, and a derivative-free search
over binary sector masks for the algebraic-maximum S = 4 plate.

One assembly serves two number types: floating point for arbitrary
fringes, and exact rational arithmetic (angles as fractions of pi) for the
parabolic fringes, where S = 16/5 holds exactly and tolerances would only
mask sign errors. Its arithmetic is elementwise, so the mask search feeds
it numpy arrays and scores a whole batch of masks in one pass.

The search's random starts are 2 * sector_count draws TWO_PI * random() a
start, in start order, from one random.Random(seed). They climb in lockstep
by best-improvement rounds: each scores, in one batch, every unfinished
start's trials a step up and down each boundary angle, and moves the start
to its best improving trial or halves its step. No float S exceeds 4.0, so
the search makes no score call once its best reaches S = 4.0.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .angular import TWO_PI, wrap_angle
from .overlap import binary_mask_probabilities
from .plates import BinarySectors, to_dict

_PAIR_KEYS = ("a1a2", "a1pa2", "a1a2p", "a1pa2p")
_PAIR_SIGNS = (1.0, -1.0, 1.0, 1.0)
# a float four-probability sum at or below this counts as vanishing
_FLOAT_FLOOR = 1e-15
# random starts of the mask search's exploration half
_N_STARTS = 64
# No float S exceeds 4.0: by monotone rounding |((p0 + p1) - p2) - p3| <= ((p0 + p1) + p2) + p3
# for rates p >= 0, so each |E| <= 1 and S = ((e0 - e1) + e2) + e3 <= 4.
_S_CEILING = 4.0


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


# Analyzer angles as fractions of pi, for the exact-arithmetic path: for the
# 2*pi-periodic fringes (half-integer spiral and the phi = pi/2 step plate)
# the polarization standards scaled by two, orthogonal setting at +pi; the
# unscaled standards with orthogonal setting at +pi/2 for the pi-periodic
# phi = pi step-plate fringe.
SPIRAL_SETTINGS_PI = (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 2), Fraction(0), Fraction(1))
POLARIZATION_SETTINGS_PI = (
    Fraction(-1, 8), Fraction(1, 8), Fraction(-1, 4), Fraction(0), Fraction(1, 2))

# The same angles in radians. Each fraction is zero or a power of two, so
# each product only rescales the double pi, bit for bit as -pi/4 does.
SPIRAL_SETTINGS = BellSettings(*(math.pi * float(f) for f in SPIRAL_SETTINGS_PI))
POLARIZATION_SETTINGS = BellSettings(*(math.pi * float(f) for f in POLARIZATION_SETTINGS_PI))


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
    at or below ``floor`` is degenerate and a NaN or infinite one is no rate:
    for one fringe an error, in the rows of a batch of fringes (arrays of
    probabilities) NaN, set into the row's P(x,y) + P(x',y') before the
    subtractions, so that an infinite rate makes no inf - inf."""
    direct, both, cross_y, cross_x = four
    pair = direct + both
    denom = pair + cross_y + cross_x
    if getattr(denom, "ndim", 0):
        import numpy as np

        pair = np.where((denom > floor) & (denom < math.inf), pair, np.nan)
    elif denom <= floor:
        raise DegenerateFringeError(f"vanishing coincidence rate at settings ({x}, {y})")
    elif not denom < math.inf:
        raise ValueError(f"coincidence rates at settings ({x}, {y}) sum to {denom}")
    return (pair - cross_y - cross_x) / denom


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


def _sectors(boundaries):
    """Sorted boundary angles in [0, 2*pi], taken pairwise as sectors:
    (starts, ends), each of shape (..., k)."""
    import numpy as np

    b = np.sort(np.mod(boundaries, TWO_PI), axis=-1)
    return b[..., 0::2], b[..., 1::2]


def _mask_scorer(phi, settings):
    """S of each row of a (B, 2k) batch of boundary vectors, one fringe table per
    batch at the 6 (spiral) or 8 (polarization) distinct folds min(d, 2*pi - d)
    of the settings' relative angles d; a row whose geometry degenerates (coincident
    boundaries, full or empty coverage) or whose fringe vanishes at a setting pair scores -inf."""
    import numpy as np

    pairs, perp = settings.pairs(), settings.perp_offset
    # the identity fringe hands back the wrapped relative angles _chsh asks for
    angles = {d for x, y in pairs for d in _four_probabilities(lambda d: d, wrap_angle, x, y, perp)}
    deltas = sorted({min(d, TWO_PI - d) for d in angles})
    column = {d: deltas.index(min(d, TWO_PI - d)) for d in angles}

    def score(boundaries):
        starts, ends = _sectors(boundaries)
        widths = ends - starts
        total = widths.sum(axis=-1)
        valid = (widths >= 1e-9).all(axis=-1) & (1e-9 < total) & (total < TWO_PI - 1e-9)
        table = binary_mask_probabilities(phi, starts, widths, deltas)
        s = _chsh(lambda d: table[:, column[d]], wrap_angle, pairs, perp, _FLOAT_FLOOR)[0]
        return np.where(valid & ~np.isnan(s), s, -math.inf)

    return score


def _maximise(score, x, s, budget, step):
    """Best-improvement coordinate ascent of the rows of x, (B, n) points
    scoring s, in lockstep. Each round scores in one call every active row's
    trials x +/- step along each coordinate, in (coordinate, +/-) order and
    as many as its budget has left, and moves the row to its best improving
    trial, the first of equal bests, or else halves its step. A row stops at
    _S_CEILING, at a step of 1e-12 or after ``budget`` trials. Yields each
    round's trial count and its moved rows' S and points, in row order."""
    import numpy as np

    x, s, n = x.copy(), np.array(s, dtype=float), x.shape[1]
    steps, used = np.full(len(x), step), np.zeros(len(x), dtype=int)
    # trial j steps coordinate j // 2 up for even j, down for odd j
    moves = np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None]
    while (rows := np.flatnonzero((s < _S_CEILING) & (steps > 1e-12) & (used < budget))).size:
        take = np.arange(2 * n) < np.minimum(budget - used[rows], 2 * n)[:, None]
        trials = x[rows, None, :] + steps[rows, None, None] * moves
        s_new = np.full(take.shape, -math.inf)
        s_new[take] = score(trials[take])
        used[rows] += take.sum(axis=1)
        best = s_new.argmax(axis=1)
        s_best = s_new[np.arange(rows.size), best]
        up = s_best > s[rows]
        steps[rows[~up]] *= 0.5
        moved = rows[up]
        x[moved], s[moved] = trials[up, best[up]], s_best[up]
        yield int(take.sum()), s[moved], x[moved]


def search_max_s(sector_count: int, phi: float,
                 settings: BellSettings = SPIRAL_SETTINGS,
                 budget: int = 20000, seed: int = 0,
                 init_mask: BinarySectors | None = None) -> MaskSearchResult:
    """Maximize the Bell parameter over binary sector masks by multi-start
    coordinate ascent on the 2*sector_count boundary angles.

    Deterministic for a fixed seed on every Python version, since Python
    keeps random.Random(seed).random()'s sequence; with ``budget`` = 0 the
    initial mask, which must carry the search's phi, is scored without a search.
    Returns the best mask found, of the least sectors among equal S offered
    so far, and the (masks scored so far, best S) trace at each rise of the
    best; convergence is not guaranteed. The search stops at its first best
    of S = 4.0, after offering the rest of that score call's masks.
    """
    import numpy as np

    if sector_count < 1:
        raise ValueError("sector_count must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}") from None
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if init_mask is not None and init_mask.phi != phi:
        raise ValueError(f"the initial mask has phi {init_mask.phi!r}, the search phi {phi!r}")
    if budget == 0 and init_mask is None:
        raise ValueError("budget 0 requires an initial mask to evaluate")

    score = _mask_scorer(phi, settings)
    trace, evals = [], 0
    best_s, best_mask, best_x = -math.inf, None, None

    def offer(rounds, mask=None):
        """Count each of the rounds' trials, then offer its (B,) S and (B, n)
        points to the best in row order, and pull no further round once the
        best is _S_CEILING; ``mask`` is a one-row round's mask."""
        nonlocal evals, best_s, best_mask, best_x
        for trials, s_rows, x_rows in rounds:
            evals += trials
            for s, x in zip(s_rows.tolist(), x_rows):
                if s == -math.inf or s < best_s:
                    continue
                if (row_mask := mask) is None:
                    row_mask = BinarySectors(phi, tuple(zip(*(b.tolist() for b in _sectors(x)))))
                if s > best_s:
                    trace.append((evals, s))
                elif row_mask.sectors >= best_mask.sectors:
                    continue
                best_s, best_mask, best_x = s, row_mask, x
            if best_s == _S_CEILING:
                return

    if init_mask is not None:
        x0 = np.array([[v for ab in init_mask.sectors for v in ab]])
        s0 = score(x0)
        offer([(1, s0, x0)], init_mask)
        if budget == 0:
            return MaskSearchResult(init_mask, float(s0[0]), tuple(trace), settings)

    # half the budget, and at least the first start, explores from random starts
    # on equal shares; the other half polishes the best point from a step of pi/8
    explore = max(budget // 2, 1)
    if best_s < _S_CEILING and (n_starts := min(_N_STARTS, explore - evals)) > 0:
        rng = random.Random(seed)
        x = np.sort([[TWO_PI * rng.random() for _ in range(2 * sector_count)]
                     for _ in range(n_starts)], axis=-1)
        s = score(x)
        offer([(n_starts, s, x)])
        if best_s < _S_CEILING:
            per_start = min(max(explore // _N_STARTS, 1), budget - evals)
            offer(_maximise(score, x, s, per_start, math.pi / 4))

    if best_mask is None:
        raise DegenerateFringeError("search found no non-degenerate mask")
    offer(_maximise(score, best_x[None, :], [best_s], budget - evals, math.pi / 8))
    return MaskSearchResult(best_mask, best_s, tuple(trace), settings)

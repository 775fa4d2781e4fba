"""CHSH machinery: coincidence probabilities at the sixteen setting pairs,
correlation values E, the Bell parameter S, and a derivative-free search
over binary sector masks for the algebraic-maximum S = 4 plate.

One assembly serves two number types: floating point for arbitrary
fringes, and exact rational arithmetic (angles as fractions of pi) for the
parabolic fringes, where S = 16/5 holds exactly and tolerances would only
mask sign errors. Its arithmetic is elementwise, so the mask search feeds
it numpy arrays and scores a whole batch of masks in one pass.

The search's random starts are 2 * sector_count draws TWO_PI * random() a
start, in start order, from one random.Random(seed). They descend in
lockstep: each step scores in one batch the trials every unfinished start
has left, and in a short round its later sweeps; a start at S = 4.0, which
no float S exceeds, stops scoring.
The improvements are replayed in start order at the evaluation counts of a
one-start-at-a-time loop, so the trace, the tie-breaks and the cut-off of
the exploration half are that loop's; a start it would never reach is lost.
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
# trials a descent round looks ahead to; of 16, 32, ..., 256, 64 ran six bench searches fastest
_ROUND_TRIALS = 64
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


def _descend(score, x, s, max_evals, step):
    """Coordinate descent of every row of x, (B, n) boundary vectors scoring
    s, in lockstep: each round scores, in one batch, the (coordinate, +/-)
    trials each active row's sweep has left and, while a round holds fewer
    than _ROUND_TRIALS, whole later sweeps at the steps failing sweeps halve
    to. Per row, only the trials up to its first improvement count, as one
    trial at a time would have made them, and the sweep goes on from the next
    coordinate. A row stops after max_evals trials, once its step falls to
    1e-12, or at _S_CEILING, which no score exceeds, charged its trials left.
    Returns each row's trial count and improvements as (trials so far, S, x)
    lists; a row's trials are a prefix of any larger max_evals' trials."""
    import numpy as np

    n_rows, n = x.shape
    x, s = x.copy(), np.array(s, dtype=float)
    floor = 0  # the step after h halvings is step / 2**h, above 1e-12 for h < floor
    while math.ldexp(step, -floor) > 1e-12:
        floor += 1
    h, first = np.zeros(n_rows, dtype=int), np.zeros(n_rows, dtype=int)
    used, improved = np.zeros(n_rows, dtype=int), np.zeros(n_rows, dtype=bool)
    events = [[] for _ in range(n_rows)]
    while True:
        later = floor - h - 1 + improved  # whole sweeps after the current one
        top = np.flatnonzero((s >= _S_CEILING) & (h < floor))
        used[top] = np.minimum(max_evals, used[top] + 2 * (n - first[top]) + 2 * n * later[top])
        h[top] = floor
        if not (active := np.flatnonzero((used < max_evals) & (h < floor))).size:
            return used, events
        rest, left = 2 * (n - first[active]), max_evals - used[active]
        sweeps = -(-max(0, _ROUND_TRIALS - np.minimum(rest, left).sum()) // (2 * n * active.size))
        counts = np.minimum(rest + 2 * n * np.minimum(sweeps, later[active]), left)
        begins = np.cumsum(counts) - counts
        row = np.repeat(active, counts)
        offset = np.arange(row.size) - np.repeat(begins, counts)
        sweep, slot = np.divmod(2 * first[row] + offset, 2 * n)  # slot: 2 * coordinate + sign
        halvings = h[row] + sweep - (improved[row] & (sweep > 0))
        trials = x[row]
        trials[np.arange(row.size), slot // 2] += (1 - 2 * (slot % 2)) * np.ldexp(step, -halvings)
        s_new = score(trials)
        hit = np.minimum.reduceat(np.where(s_new > s[row], offset, row.size), begins)
        found = hit < counts
        last = begins + np.where(found, hit, counts - 1)
        used[active] += last - begins + 1
        h[active], first[active] = halvings[last], slot[last] // 2 + 1
        improved[active] = found | (improved[active] & (sweep[last] == 0))
        moved, rows_moved = active[found], last[found]
        x[moved], s[moved] = trials[rows_moved], s_new[rows_moved]
        for i, j in zip(moved.tolist(), rows_moved.tolist()):
            events[i].append((int(used[i]), float(s_new[j]), trials[j].copy()))
        swept = active[first[active] == n]
        h[swept[~improved[swept]]] += 1
        first[swept], improved[swept] = 0, False


def search_max_s(sector_count: int, phi: float,
                 settings: BellSettings = SPIRAL_SETTINGS,
                 budget: int = 20000, seed: int = 0,
                 init_mask: BinarySectors | None = None) -> MaskSearchResult:
    """Maximize the Bell parameter over binary sector masks by multi-start
    coordinate descent on the 2*sector_count boundary angles.

    Deterministic for a fixed seed on every Python version, since Python
    keeps random.Random(seed).random()'s sequence; with ``budget`` = 0 the
    initial mask, which must carry the search's phi, is scored without a search.
    Returns the best mask found together with the (evaluation, best-S)
    trace; convergence is not guaranteed.
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

    score = _mask_scorer(phi, settings)
    trace = []
    evals = 0
    best_s, best_key, best_mask, best_x = -math.inf, None, None, None

    def consider(s, x, mask=None):
        nonlocal best_s, best_key, best_mask, best_x
        if s == -math.inf or s < best_s:
            return
        if mask is None:
            starts, ends = _sectors(x)
            mask = BinarySectors(phi, tuple(zip(starts.tolist(), ends.tolist())))
        key = mask.sectors
        if s > best_s or best_key is None or key < best_key:
            best_s, best_key, best_mask, best_x = s, key, mask, x
            trace.append((evals, s))

    def replay(used, events, cap):
        """Offer a descent's improvements within its first ``cap`` trials to
        consider at their evaluation counts, then count the trials made."""
        nonlocal evals
        offset = evals
        for trials, s, x in events:
            if trials > cap:
                break
            evals = offset + trials
            consider(s, x)
        evals = offset + min(used, cap)

    if init_mask is not None:
        x0 = np.array([v for ab in init_mask.sectors for v in ab])
        s0 = float(score(x0[None, :])[0])
        evals += 1
        consider(s0, x0, init_mask)
        if budget == 0:
            return MaskSearchResult(init_mask, s0, tuple(trace), settings)

    if budget == 0:
        raise ValueError("budget 0 requires an initial mask to evaluate")

    # half the budget, and at least the first start, explores from random
    # starts; the other half polishes the best point found with a fresh
    # full-size step schedule
    explore = max(budget // 2, 1)
    per_start = max(explore // _N_STARTS, 1)
    # the starts descend in lockstep; each takes at least one evaluation,
    # so no more than explore - evals of them can be reached
    n_starts = min(_N_STARTS, explore - evals)
    if n_starts > 0:
        rng = random.Random(seed)
        x = np.sort([[TWO_PI * rng.random() for _ in range(2 * sector_count)]
                     for _ in range(n_starts)], axis=-1)
        s = score(x)
        used, events = _descend(score, x, s, per_start, math.pi / 4)
        # replay the starts one after another, as a sequential loop would
        # have run them: its evaluation counts, trace and cut-off at explore
        for start in range(n_starts):
            if evals >= explore:
                break
            evals += 1
            consider(float(s[start]), x[start])
            replay(int(used[start]), events[start], min(per_start, budget - evals))

    if best_mask is None:
        raise DegenerateFringeError("search found no non-degenerate mask")
    if evals < budget:
        used, events = _descend(score, best_x[None, :], [best_s], budget - evals, math.pi / 8)
        replay(int(used[0]), events[0], budget - evals)
    return MaskSearchResult(best_mask, best_s, tuple(trace), settings)

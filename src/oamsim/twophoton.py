"""Two-photon state of the down-conversion source in the fractional-OAM
basis, analyzer-induced collapse, and the coincidence fringe.

The pump is restricted to a pure OAM mode (index q); the radial factor and
the fiber projections are absorbed into one overall constant, normalized to
unity, since the correlation function built downstream cancels it. The
coincidence probability depends only on the relative orientation of the two
analyzers: ``fringe_probability`` gives it in closed form and
``coincidence_fringe`` samples it uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angular import TWO_PI, NonIntegerOamState, wrap_angle
from .overlap import (
    SampledCurve,
    binary_mask_overlap,
    closed_form_probability,
    spiral_overlap_amplitude,
    step_overlap_amplitude,
)
from .plates import PhasePlate, Spiral, Step

_HALF_INT_TOL = 1e-12


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate outside the family the collapse derivation covers."""


@dataclass(frozen=True)
class TwoPhotonState:
    """Source state: pump OAM q, analyzer-basis fractional twist, and the
    single radial constant carrying the fiber-coupling efficiency."""

    q: int = 0
    basis_lambda: float = 0.5
    c: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not 0.0 <= self.basis_lambda < 1.0:
            raise ValueError("basis_lambda must lie in [0,1)")


@dataclass(frozen=True)
class AnalyzerSetting:
    plate: PhasePlate
    arm: str  # "signal" | "idler"

    def __post_init__(self):
        if self.arm not in ("signal", "idler"):
            raise ValueError(f"arm must be 'signal' or 'idler', got {self.arm!r}")


def schmidt_pairing(q: int, n: int) -> int:
    """Idler basis index paired with signal index n for pump OAM q."""
    return q - n - 1


def _spiral_parts(plate: Spiral):
    j = math.floor(plate.ell)
    lam = plate.ell - j
    return j, lam


def collapse_idler(state: TwoPhotonState, signal_plate) -> NonIntegerOamState:
    """State the idler photon is left in once the signal detector fires
    behind a half-integer spiral analyzer oriented at alpha_s."""
    if not isinstance(signal_plate, Spiral):
        raise UnsupportedAnalyzerError("collapse requires a spiral analyzer")
    j, lam = _spiral_parts(signal_plate)
    if abs(lam - 0.5) > _HALF_INT_TOL or abs(state.basis_lambda - 0.5) > _HALF_INT_TOL:
        raise UnsupportedAnalyzerError(
            "collapse is derived for half-integer plates in the lambda=1/2 basis"
        )
    # signal collapses to index -j-1; the Schmidt pairing hands the idler q+j
    return NonIntegerOamState(schmidt_pairing(state.q, -j - 1), 0.5, signal_plate.alpha)


def _same_family(a, b) -> bool:
    return type(a) is type(b)


def coincidence_amplitude(state: TwoPhotonState, signal: AnalyzerSetting,
                          idler: AnalyzerSetting) -> complex:
    """Projection amplitude for a joint detection; reduces to the
    rotation-overlap amplitude at the relative analyzer orientation."""
    ps, pi_ = signal.plate, idler.plate
    if not _same_family(ps, pi_):
        raise UnsupportedAnalyzerError("signal and idler analyzers must share a plate family")
    delta = wrap_angle(pi_.alpha - ps.alpha)
    if isinstance(ps, Spiral):
        collapsed = collapse_idler(state, ps)
        return state.c * spiral_overlap_amplitude(
            collapsed.l - math.floor(ps.ell), math.floor(ps.ell), 0.5, delta
        )
    if isinstance(ps, Step):
        return state.c * step_overlap_amplitude(ps.phi, delta)
    return state.c * binary_mask_overlap(ps, delta)


def fringe_probability(plate, delta: float) -> float:
    """Closed-form coincidence probability at relative orientation delta,
    with the radial constant normalized to 1. Step and binary plates follow
    their rotation-overlap law; a half-integer spiral gives the parabola."""
    d = wrap_angle(delta)
    if not isinstance(plate, Spiral):
        return closed_form_probability(plate, d)
    _, lam = _spiral_parts(plate)
    if abs(lam - 0.5) > _HALF_INT_TOL:
        raise UnsupportedAnalyzerError("spiral coincidence fringe needs a half-integer step")
    # the parabola itself: the overlap law's cos^2(pi/2) term would leave
    # ~4e-33 where the fringe has its zero
    return (1.0 - d / math.pi) ** 2


def fringe_probability_exact(plate, t: Fraction) -> Fraction:
    """Exact-rational fringe value at delta = t*pi, for the plate families
    whose fringe is rational in t (half-integer spiral; step phi in {pi, pi/2})."""
    t = t % 2
    if isinstance(plate, Spiral):
        j, lam = _spiral_parts(plate)
        if abs(lam - 0.5) > _HALF_INT_TOL:
            raise UnsupportedAnalyzerError("exact fringe needs a half-integer spiral")
        return (1 - t) ** 2
    if isinstance(plate, Step):
        m = min(t, 2 - t)
        if abs(plate.phi - math.pi) <= _HALF_INT_TOL:
            return (1 - 2 * m) ** 2
        if abs(plate.phi - math.pi / 2) <= _HALF_INT_TOL:
            return (1 - m) ** 2
        raise UnsupportedAnalyzerError("exact step fringe defined for phi in {pi, pi/2}")
    raise UnsupportedAnalyzerError("no exact-rational fringe for this plate family")


def coincidence_fringe(state: TwoPhotonState, plate, n_samples: int) -> SampledCurve:
    """Sample |B(delta)|^2 uniformly over delta in [0, 2*pi)."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if isinstance(plate, Spiral):
        # validates the half-integer requirement up front
        collapse_idler(state, plate)
    samples = tuple(
        (TWO_PI * k / n_samples, fringe_probability(plate, TWO_PI * k / n_samples))
        for k in range(n_samples)
    )
    return SampledCurve(plate, samples, ("delta_rad", "coincidence_probability"))

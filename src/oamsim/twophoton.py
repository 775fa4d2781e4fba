"""Two-photon coincidences of the down-conversion source in the lambda = 1/2
fractional-OAM basis: analyzer-induced collapse and the coincidence fringe.

A rate needs only the two analyzer plates: the pump OAM enters the amplitude
as a global phase only, so the collapse takes a pump without OAM. The radial
factor and the fiber projections are absorbed into one overall constant,
normalized to unity, since the correlation function built downstream
cancels it. The coincidence probability depends only on the relative
orientation of the two analyzers: ``fringe_probability`` gives it in closed
form and ``coincidence_fringe`` samples it uniformly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .angular import TWO_PI, NonIntegerOamState, wrap_angle
from .overlap import (
    SampledCurve,
    binary_mask_overlap,
    closed_form_probabilities,
    closed_form_probability,
    spiral_overlap_amplitude,
    step_overlap_amplitude,
)
from .plates import BinarySectors, Spiral, Step

_HALF_INT_TOL = 1e-12


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate outside the family the collapse derivation covers."""


def _spiral_parts(plate: Spiral):
    j = math.floor(plate.ell)
    lam = plate.ell - j
    return j, lam


def collapse_idler(signal_plate) -> NonIntegerOamState:
    """State the idler photon is left in once the signal detector fires
    behind a half-integer spiral analyzer oriented at alpha_s."""
    if not isinstance(signal_plate, Spiral):
        raise UnsupportedAnalyzerError("collapse requires a spiral analyzer")
    j, lam = _spiral_parts(signal_plate)
    if abs(lam - 0.5) > _HALF_INT_TOL:
        raise UnsupportedAnalyzerError(
            "collapse is derived for half-integer plates in the lambda=1/2 basis"
        )
    # signal collapses to index -j-1; the Schmidt pairing hands the idler j
    return NonIntegerOamState(j, 0.5, signal_plate.alpha)


def coincidence_amplitude(signal_plate, idler_plate) -> complex:
    """Projection amplitude for a joint detection; reduces to the
    rotation-overlap amplitude at the relative analyzer orientation."""
    if type(signal_plate) is not type(idler_plate):
        raise UnsupportedAnalyzerError("signal and idler analyzers must share a plate family")
    delta = wrap_angle(idler_plate.alpha - signal_plate.alpha)
    if isinstance(signal_plate, Spiral):
        return spiral_overlap_amplitude(collapse_idler(signal_plate).l, 0.5, delta)
    if isinstance(signal_plate, Step):
        return complex(step_overlap_amplitude(signal_plate.phi, delta))
    return binary_mask_overlap(signal_plate, delta)


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


def coincidence_fringe(plate, n_samples: int) -> SampledCurve:
    """Sample |B(delta)|^2 uniformly over delta in [0, 2*pi); a spiral that
    is not half-integer raises UnsupportedAnalyzerError."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    deltas = [TWO_PI * k / n_samples for k in range(n_samples)]
    if isinstance(plate, BinarySectors):
        values = closed_form_probabilities(plate, [wrap_angle(d) for d in deltas])
    else:
        values = [fringe_probability(plate, d) for d in deltas]
    return SampledCurve(plate, tuple(zip(deltas, values)), ("delta_rad", "coincidence_probability"))

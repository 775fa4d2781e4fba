"""Two-photon coincidences of the down-conversion source behind two analyzer
plates: a coincidence rate is the rotation overlap of the two analyzers'
plate states at their relative angle.

A rate needs only the two analyzer plates: the pump OAM enters the amplitude
as a global phase only, so the rate takes a pump without OAM. The radial
factor and the fiber projections are absorbed into one overall constant,
normalized to unity, since the correlation function built downstream
cancels it. The coincidence probability depends only on the relative
orientation of the two analyzers: ``fringe_probability`` gives it in closed
form and ``coincidence_fringe`` samples it uniformly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .angular import TWO_PI, wrap_angle
from .overlap import SampledCurve, closed_form_probabilities, closed_form_probability
from .plates import Spiral, Step

_HALF_INT_TOL = 1e-12


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate for which no coincidence fringe is derived here."""


def _require_half_integer(plate: Spiral):
    if abs(plate.ell - math.floor(plate.ell) - 0.5) > _HALF_INT_TOL:
        raise UnsupportedAnalyzerError("spiral coincidence fringe needs a half-integer step")


def fringe_probability(plate, delta: float) -> float:
    """Closed-form coincidence probability at relative orientation delta,
    with the radial constant normalized to 1. Step and binary plates follow
    their rotation-overlap law; a half-integer spiral gives the parabola."""
    d = wrap_angle(delta)
    if not isinstance(plate, Spiral):
        return closed_form_probability(plate, d)
    _require_half_integer(plate)
    # the parabola itself: the overlap law's cos^2(pi/2) term would leave
    # ~4e-33 where the fringe has its zero
    return (1.0 - d / math.pi) ** 2


def fringe_probability_exact(plate, t: Fraction) -> Fraction:
    """Exact-rational fringe value at delta = t*pi, for the plate families
    whose fringe is rational in t (half-integer spiral; step phi in {pi, pi/2})."""
    t = t % 2
    if isinstance(plate, Spiral):
        _require_half_integer(plate)
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
    if isinstance(plate, Spiral):
        values = [fringe_probability(plate, d) for d in deltas]
    else:
        values = closed_form_probabilities(plate, deltas)
    return SampledCurve(plate, tuple(zip(deltas, values)), ("delta_rad", "coincidence_probability"))

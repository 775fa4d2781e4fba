"""Two-photon coincidences of the down-conversion source behind two analyzer
plates: a coincidence rate is the rotation overlap of the two analyzers'
plate states at their relative angle.

A rate needs only the two analyzer plates: the pump OAM enters the amplitude
as a global phase only, so the rate takes a pump without OAM. The radial
factor and the fiber projections are absorbed into one overall constant,
normalized to unity, since the correlation function built downstream
cancels it. The coincidence probability depends only on the relative
orientation of the two analyzers, and it is the plate's rotation-overlap
law itself, for every plate: ``fringe_probability`` is
``overlap.closed_form_probability``, so a spiral of any fractional step lam
gives cos^2(lam pi) + sin^2(lam pi) (1 - delta/pi)^2, the parabola at
half-integer steps. ``coincidence_fringe`` samples it uniformly.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .overlap import SampledCurve, closed_form_probability, sample_curve
from .plates import Spiral, Step

_TOL = 1e-12

# sin^2(lam pi) at the fractional steps lam in [0, 1/2] where it is rational
# (Niven's theorem); the mirror steps 1 - lam share it
_RATIONAL_SIN2 = ((Fraction(0), Fraction(0)), (Fraction(1, 6), Fraction(1, 4)),
                  (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 4)),
                  (Fraction(1, 2), Fraction(1)))


class UnsupportedAnalyzerError(ValueError):
    """Analyzer plate whose fringe is not rational in the relative angle."""


# the coincidence fringe of every plate is its rotation-overlap law
fringe_probability = closed_form_probability


def fringe_probability_exact(plate, t: Fraction) -> Fraction:
    """Exact-rational fringe value at delta = t*pi, for the plates whose
    fringe is rational in t: a spiral whose fractional step lam has a
    rational sin^2(lam pi), that is lam in {0, 1/6, 1/4, 1/3, 1/2} or
    1 - lam, with 1 - s2 + s2 (1 - t)^2; a step plate of phi in {pi, pi/2}.
    Any other plate raises UnsupportedAnalyzerError."""
    t = t % 2
    if isinstance(plate, Spiral):
        lam = plate.ell - math.floor(plate.ell)
        for step, s2 in _RATIONAL_SIN2:
            if min(abs(lam - step), abs(1 - step - lam)) <= _TOL:
                return 1 - s2 + s2 * (1 - t) ** 2
        raise UnsupportedAnalyzerError(f"sin^2(lam pi) is irrational at the fractional step {lam}")
    if isinstance(plate, Step):
        m = min(t, 2 - t)
        if abs(plate.phi - math.pi) <= _TOL:
            return (1 - 2 * m) ** 2
        if abs(plate.phi - math.pi / 2) <= _TOL:
            return (1 - m) ** 2
        raise UnsupportedAnalyzerError("exact step fringe defined for phi in {pi, pi/2}")
    raise UnsupportedAnalyzerError("no exact-rational fringe for this plate family")


def coincidence_fringe(plate, n_samples: int) -> SampledCurve:
    """Sample the coincidence fringe uniformly over delta in [0, 2*pi)."""
    return replace(sample_curve(plate, n_samples), header=("delta_rad", "coincidence_probability"))

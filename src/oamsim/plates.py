"""Azimuthal phase plates as unitary operators on the angular Hilbert space.

Three plate families are modeled: spiral plates with an arbitrary (possibly
fractional) step index and an oriented edge dislocation, straight-edge step
plates delaying one half-plane by a fixed phase, and general binary sector
masks delaying an arbitrary union of angular sectors. Every plate acts by
pointwise multiplication with a unimodular phase profile, so unitarity is
structural.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .angular import (
    TWO_PI,
    ClosedForm,
    Sampled,
    integer_mode,
    wrap_angle,
)


def _require_finite(plate, *names):
    for name in names:
        if not math.isfinite(getattr(plate, name)):
            raise ValueError(f"{name} must be finite, got {getattr(plate, name)}")


@dataclass(frozen=True)
class Spiral:
    """Spiral phase plate of step index ell with its edge at angle alpha.

    The phase profile is e^{i*ell*theta} on the plate's own frame; rotating
    the edge to alpha multiplies the two branches [0, alpha) and
    [alpha, 2*pi) by e^{i*(2*pi-alpha)*ell} and e^{-i*alpha*ell}.
    """

    ell: float
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(self, "ell", "alpha")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


@dataclass(frozen=True)
class Step:
    """Straight-edge plate: phase delay phi on the half-plane
    [alpha, alpha+pi) mod 2*pi, unity elsewhere."""

    phi: float
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(self, "phi", "alpha")
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


@dataclass(frozen=True)
class BinarySectors:
    """Binary mask: phase delay phi on a union of disjoint half-open
    sectors of [0, 2*pi), the whole pattern rotated by alpha."""

    phi: float
    sectors: tuple
    alpha: float = 0.0

    def __post_init__(self):
        _require_finite(self, "phi", "alpha")
        # the interval test below also rejects non-finite bounds
        secs = tuple((float(a), float(b)) for a, b in self.sectors)
        if not secs:
            raise ValueError("at least one sector required")
        for a, b in secs:
            if not (0.0 <= a < b <= TWO_PI):
                raise ValueError(f"sector ({a}, {b}) not a valid interval in [0, 2*pi]")
        secs = tuple(sorted(secs))
        for (_, b0), (a1, _) in zip(secs[:-1], secs[1:]):
            if a1 < b0:
                raise ValueError("sectors must be disjoint")
        total = sum(b - a for a, b in secs)
        if not 0.0 < total < TWO_PI:
            raise ValueError("total sector measure must lie strictly in (0, 2*pi)")
        object.__setattr__(self, "sectors", secs)
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


PhasePlate = Spiral | Step | BinarySectors


def sector_intervals(plate) -> list:
    """Disjoint sorted intervals of [0, 2*pi) carrying the e^{i*phi} delay,
    for Step and BinarySectors plates, with the rotation applied."""
    if isinstance(plate, Step):
        raw = [(plate.alpha, plate.alpha + math.pi)]
    elif isinstance(plate, BinarySectors):
        raw = [(a + plate.alpha, b + plate.alpha) for a, b in plate.sectors]
    else:
        raise TypeError(f"no sector geometry for {type(plate).__name__}")
    out = []
    for a, b in raw:
        a, width = wrap_angle(a), b - a
        if a + width <= TWO_PI:
            out.append((a, a + width))
        else:
            out.append((a, TWO_PI))
            out.append((0.0, a + width - TWO_PI))
    out.sort()
    # rotation can make a wrapped tail touch the following interval
    merged = [out[0]]
    for a, b in out[1:]:
        if a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _pieces(plate):
    """(nu_shift, boundaries, factors) of the plate's phase profile."""
    if isinstance(plate, Spiral):
        a, ell = plate.alpha, plate.ell
        if a == 0.0:
            return ell, (0.0,), (1.0 + 0.0j,)
        return ell, (0.0, a), (
            cmath.exp(1j * (TWO_PI - a) * ell),
            cmath.exp(-1j * a * ell),
        )
    delay = cmath.exp(1j * plate.phi)
    boundaries, factors = [0.0], [1.0 + 0.0j]
    for a, b in sector_intervals(plate):
        if a == 0.0:
            factors[0] = delay
        else:
            boundaries.append(a)
            factors.append(delay)
        if b < TWO_PI:
            boundaries.append(b)
            factors.append(1.0 + 0.0j)
    return 0.0, tuple(boundaries), tuple(factors)


def profile(plate, theta) -> np.ndarray:
    """The plate's unimodular phase factor at angle(s) theta."""
    shift, boundaries, factors = _pieces(plate)
    t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    idx = np.searchsorted(np.asarray(boundaries), t, side="right") - 1
    fac = np.asarray(factors)[idx]
    if shift != 0.0:
        fac = fac * np.exp(1j * shift * t)
    return fac


def apply(plate, state):
    """Act with the plate on a state; pointwise phase multiplication.

    ClosedForm states stay closed-form (the piecewise factors multiply and
    nu shifts by the spiral step); Sampled states are multiplied node-wise.
    """
    if isinstance(state, Sampled):
        return Sampled(state.values * profile(plate, state.grid.thetas), state.grid)
    shift, pb, pf = _pieces(plate)
    bs = sorted(set(state.boundaries) | set(pb))
    plate_cf = ClosedForm(0.0, tuple(pb), tuple(pf))
    factors = tuple(state.factor_at(b) * plate_cf.factor_at(b) for b in bs)
    return ClosedForm.from_pieces(state.nu + shift, tuple(bs), factors)


def adjoint(plate):
    """Inverse plate (negated phase profile); the complement plate up to the
    global e^{i*2*pi*ell} factor, which is dropped throughout."""
    if isinstance(plate, Spiral):
        return replace(plate, ell=-plate.ell)
    return replace(plate, phi=-plate.phi)


def plate_state(plate, l: int) -> ClosedForm:
    """The basis state the plate produces from the OAM eigenstate |l>."""
    return apply(plate, integer_mode(l))


def to_dict(plate) -> dict:
    if isinstance(plate, Spiral):
        return {"type": "spiral", "ell": plate.ell, "alpha": plate.alpha}
    if isinstance(plate, Step):
        return {"type": "step", "phi": plate.phi, "alpha": plate.alpha}
    return {
        "type": "binary",
        "phi": plate.phi,
        "sectors": [[a, b] for a, b in plate.sectors],
        "alpha": plate.alpha,
    }


def from_dict(doc: dict):
    kind = doc.get("type")
    alpha = float(doc.get("alpha", 0.0))
    if kind == "spiral":
        return Spiral(float(doc["ell"]), alpha)
    if kind == "step":
        return Step(float(doc["phi"]), alpha)
    if kind == "binary":
        sectors = tuple((float(a), float(b)) for a, b in doc["sectors"])
        return BinarySectors(float(doc["phi"]), sectors, alpha)
    raise ValueError(f"unknown plate type {kind!r}")


def to_json(plate) -> str:
    return json.dumps(to_dict(plate))


def from_json(text: str):
    return from_dict(json.loads(text))

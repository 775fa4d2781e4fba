"""Independent verification layer: every closed-form overlap, fringe, and
Bell number is recomputed from first principles by angular quadrature on
plate-applied sampled states.

Rotation angles are snapped to grid nodes before comparison so that every
phase jump of the piecewise integrand lies on a node; the rectangle rule is
then exact for the piecewise-constant products that arise, and the 1e-8
default tolerance sits far above the resulting floating-point floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .angular import AngularGrid, inner_product, sample_midpoints, wrap_angle
from .bell import BellSettings, SPIRAL_SETTINGS, chsh_s
from .overlap import closed_form_probability
from .plates import plate_state
from .twophoton import fringe_probability


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


def quadrature_overlap_probability(plate, alpha: float, grid: AngularGrid) -> float:
    """|<state(plate)|state(plate rotated by alpha)>|^2 by grid quadrature."""
    s0 = sample_midpoints(plate_state(plate, 0), grid)
    rotated = replace(plate, alpha=wrap_angle(plate.alpha + alpha))
    s1 = sample_midpoints(plate_state(rotated, 0), grid)
    return abs(inner_product(s0, s1)) ** 2


def verify_overlap(plate, alpha: float, tolerance: float = 1e-8,
                   grid: AngularGrid | None = None) -> OracleReport:
    """Closed-form rotation-overlap probability against the quadrature value
    at the nearest grid-aligned rotation angle."""
    grid = grid or AngularGrid()
    a = grid.nearest_node(alpha)
    closed = closed_form_probability(plate, a)
    oracle = quadrature_overlap_probability(plate, a, grid)
    name = f"overlap[{type(plate).__name__.lower()}, alpha={a:.6f}]"
    return _report(name, closed, oracle, grid, tolerance)


def quadrature_fringe(plate, grid: AngularGrid):
    """Coincidence fringe derived entirely from sampled-state overlaps."""

    def prob(delta: float) -> float:
        return quadrature_overlap_probability(plate, grid.nearest_node(delta), grid)

    return prob


def verify_fringe_sample(plate, delta: float, tolerance: float = 1e-8,
                         grid: AngularGrid | None = None) -> OracleReport:
    grid = grid or AngularGrid()
    d = grid.nearest_node(delta)
    closed = fringe_probability(plate, d)
    oracle = quadrature_overlap_probability(plate, d, grid)
    name = f"fringe[{type(plate).__name__.lower()}, delta={d:.6f}]"
    return _report(name, closed, oracle, grid, tolerance)


def verify_bell(plate, settings: BellSettings = SPIRAL_SETTINGS,
                tolerance: float = 1e-8,
                grid: AngularGrid | None = None) -> OracleReport:
    """S computed twice: closed-form fringe versus the fully
    quadrature-derived fringe."""
    grid = grid or AngularGrid()
    closed = chsh_s(lambda d: fringe_probability(plate, d), settings).s
    oracle = chsh_s(quadrature_fringe(plate, grid), settings).s
    name = f"bell[{type(plate).__name__.lower()}]"
    return _report(name, closed, oracle, grid, tolerance)


def standard_sweep(grid: AngularGrid | None = None):
    """Representative verification sweep across the three plate families."""
    from .plates import BinarySectors, Spiral, Step

    grid = grid or AngularGrid()
    reports = []
    for lam in (0.0, 0.25, 0.3, 0.5):
        for alpha in (0.5, 1.0, math.pi / 2, math.pi, 5.0):
            reports.append(verify_overlap(Spiral(2 + lam), alpha, grid=grid))
    for phi in (math.pi / 3, 2 * math.pi / 3, math.pi / 2, math.pi):
        for alpha in (0.5, -2.0, math.pi / 2, math.pi):
            reports.append(verify_overlap(Step(phi), alpha, grid=grid))
    mask = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)))
    for alpha in (0.5, math.pi / 4, math.pi):
        reports.append(verify_overlap(mask, alpha, grid=grid))
    reports.append(verify_bell(Spiral(0.5), grid=grid))
    reports.append(verify_bell(Step(math.pi / 2), grid=grid))
    from .bell import POLARIZATION_SETTINGS

    reports.append(verify_bell(Step(math.pi), POLARIZATION_SETTINGS, grid=grid))
    return reports


def write_jsonl(reports, path):
    with open(path, "w") as fh:
        for report in reports:
            fh.write(report.to_json() + "\n")

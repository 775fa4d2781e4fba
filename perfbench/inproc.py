"""The two in-process workloads, run inside a worker process.

Each function runs one round of its workload's operations, timing each call
into oamsim, and only then checks every output against ``references``
(computed without oamsim) or against a property the method must have. It
returns plain data: the operations attempted, the failures, the checks that
did not hold, the timings, the process's peak resident memory and, in a
traced round, the per-layer counts.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from fractions import Fraction

from oamsim import angular, bell, lgfield, oracle, plates, twophoton

import references as ref
import rounds
from layers import Tracer
from seeds import derive_seed

S_PAPER = Fraction(16, 5)
MASK_PHI = math.pi
SEARCH_BUDGET = 20000
SEARCH_SECTORS = (2, 3, 4)
SEARCH_SETTINGS = (
    ("spiral", bell.SPIRAL_SETTINGS, ref.SPIRAL_ANGLES),
    ("polarization", bell.POLARIZATION_SETTINGS, ref.POLARIZATION_ANGLES),
)
FRINGE_ANGLES = 360
# the fringe oracle check and the sweep take ~0.3 s together; repeating them
# within a round gives verify_s a median instead of a single sample
VERIFY_REPEATS = 5

# the paper's decompositions: (label, ell, l window, p_max)
DECOMPOSITIONS = (
    ("ell=1/2", 0.5, (-60, 61), 120),
    ("ell=5/2", 2.5, (-58, 63), 200),
)
COUNT_TARGET = 0.87
# far fields at 1024^2: (ell, image metric)
FAR_FIELDS = ((0.0, "azimuthal_variance"), (3.0, "on_axis_ratio"), (3.5, "asymmetry_metric"))
FAR_FIELD_GRID = 1024
FAR_FIELD_EXTENT = 16.0


class Round(rounds.Round):
    """A round of calls into oamsim, traced or not."""

    def __init__(self, traced: bool):
        super().__init__()
        self.tracer = Tracer().install() if traced else None
        self.times["round_s"] = 0.0

    def run(self, name, operation):
        """(result, seconds) of one operation; (None, None) if it raised.
        Any exception from the program is recorded as a failed operation,
        so the round still runs to its end."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = operation()
        except Exception as exc:
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, None
        seconds = time.perf_counter() - start
        self.times["round_s"] += seconds
        return result, seconds

    def result(self, counts=None) -> dict:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is None:
            return super().result(rss_mb)
        return super().result(rss_mb, {**self.tracer.metrics(), **(counts or {})},
                              self.tracer.absent)


def _chsh_values(r: Round):
    """chsh_s and chsh_s_exact on the three paper plates, chsh_s on cos^2."""
    cases = (
        ("spiral 1/2", plates.Spiral(0.5), bell.SPIRAL_SETTINGS,
         ref.SPIRAL_ANGLES_PI, ref.spiral_fringe_pi),
        ("step pi", plates.Step(math.pi), bell.POLARIZATION_SETTINGS,
         ref.POLARIZATION_ANGLES_PI, ref.step_fringe_pi(2)),
        ("step pi/2", plates.Step(math.pi / 2), bell.SPIRAL_SETTINGS,
         ref.SPIRAL_ANGLES_PI, ref.step_fringe_pi(1)),
    )
    for label, plate, settings, angles_pi, law in cases:
        s, _ = r.run(f"chsh_s[{label}]", lambda: bell.chsh_s(
            lambda d: twophoton.fringe_probability(plate, d), settings).s)
        exact, _ = r.run(f"chsh_s_exact[{label}]", lambda: bell.chsh_s_exact(
            lambda t: twophoton.fringe_probability_exact(plate, t), angles_pi))
        expected = ref.chsh(law, angles_pi, 2)
        if exact is not None:
            r.check(f"chsh_s_exact[{label}]", exact == expected == S_PAPER,
                    f"{exact!r}, reference {expected!r}")
        if s is not None:
            r.check(f"chsh_s[{label}]", abs(s - float(expected)) <= 1e-12,
                    f"{s!r}, reference {float(expected)!r}")
    s, _ = r.run("chsh_s[cos2]", lambda: bell.chsh_s(
        lambda d: math.cos(d) ** 2, bell.POLARIZATION_SETTINGS).s)
    if s is not None:
        expected = ref.chsh(ref.cos2_fringe, ref.POLARIZATION_ANGLES, ref.TWO_PI)
        r.check("chsh_s[cos2]", abs(s - expected) <= 1e-12 and abs(s - 2 * math.sqrt(2)) <= 1e-12,
                f"{s!r}, reference {expected!r}")


def _check_fringe_reports(r: Round, reports, n_grid):
    spacing = ref.TWO_PI / n_grid
    worst = 0.0
    ok = len(reports) == FRINGE_ANGLES
    for k, report in enumerate(reports):
        node = (round(ref.TWO_PI * k / FRINGE_ANGLES / spacing) % n_grid) * spacing
        law = ref.spiral_fringe(node)
        worst = max(worst, abs(report.closed_form - law), abs(report.oracle - law))
        ok &= (report.passed and abs(report.closed_form - law) <= 1e-12
               and abs(report.oracle - law) <= 1e-8)
    r.check("verify_fringe_sample x360", ok, f"worst deviation from (1-d/pi)^2: {worst:.3e}")


def _check_sweep(r: Round, reports):
    # 4 spiral twists x 5 angles, 4 step phases x 4 angles, 3 mask angles, 3 Bell values
    expected_count = 4 * 5 + 4 * 4 + 3 + 3
    bell_values = [rep.closed_form for rep in reports if rep.quantity.startswith("bell[")]
    ok = (len(reports) == expected_count
          and all(rep.passed and rep.abs_diff <= rep.tolerance
                  and rep.abs_diff == abs(rep.closed_form - rep.oracle) for rep in reports)
          and len(bell_values) == 3
          and all(abs(v - float(S_PAPER)) <= 1e-12 for v in bell_values))
    r.check("standard_sweep", ok,
            f"{sum(rep.passed for rep in reports)}/{len(reports)} passed, Bell values {bell_values}")


def _searches(r: Round, run_seed: int):
    seconds = []
    for k in SEARCH_SECTORS:
        for name, settings, angles in SEARCH_SETTINGS:
            label = f"k={k},{name}"
            seed = derive_seed(run_seed, f"search/{label}")
            result, dt = r.run(f"search_max_s[{label},seed={seed}]", lambda: bell.search_max_s(
                k, MASK_PHI, settings, budget=SEARCH_BUDGET, seed=seed))
            if result is None:
                continue
            seconds.append(dt)
            s_ref = ref.mask_s(result.mask.sectors, result.mask.phi, angles)
            ok = abs(result.s - s_ref) <= 1e-9 and result.s <= 4.0 + 1e-12 and s_ref <= 4.0 + 1e-12
            if (k, name) == (3, "spiral"):
                ok &= result.s >= 3.99  # criterion 3
            r.check(f"search_max_s[{label},seed={seed}]", ok,
                    f"S={result.s!r}, recomputed {s_ref!r}, sectors {result.mask.sectors}")
    if seconds:
        r.times["search_s"] = sum(seconds) / len(seconds)


def bell_round(run_seed: int, traced: bool) -> dict:
    """One round of bell-chsh: the paper's CHSH values, the 360-angle fringe
    oracle check and the standard sweep (repeated), and six mask searches."""
    r = Round(traced)
    _chsh_values(r)
    spiral = plates.Spiral(0.5)
    grid = angular.AngularGrid(4096)
    verify_seconds = []
    for _ in range(VERIFY_REPEATS):
        reports, t_fringe = r.run("verify_fringe_sample x360", lambda: [
            oracle.verify_fringe_sample(spiral, ref.TWO_PI * k / FRINGE_ANGLES, grid=grid)
            for k in range(FRINGE_ANGLES)])
        sweep, t_sweep = r.run("standard_sweep", oracle.standard_sweep)
        if reports is not None:
            _check_fringe_reports(r, reports, grid.n_points)
        if sweep is not None:
            _check_sweep(r, sweep)
        if reports is not None and sweep is not None:
            verify_seconds.append(t_fringe + t_sweep)
    if verify_seconds:
        r.times["verify_s"] = statistics.median(verify_seconds)
    _searches(r, run_seed)
    return r.result()


def _check_decomposition(r: Round, name, decomposition, reference, count):
    worst = 0.0
    ok = True
    for l, p, _, power in decomposition.entries:
        expected = reference.get((l, p))
        if expected is None:
            ok = False
            continue
        worst = max(worst, abs(power - expected))
    ok &= worst <= 1e-12
    try:
        got = decomposition.count_at(COUNT_TARGET)
    except ValueError as exc:  # the window misses the target power
        got = str(exc)
    r.check(name, ok and got == count,
            f"count {got}, closed-form count {count}, worst power deviation {worst:.3e}")


def lg_rep(traced: bool) -> dict:
    """One repetition of lg-fields in a fresh process: the two paper
    decompositions with empty caches, again with filled caches, then the
    three 1024^2 far fields with their image metrics."""
    r = Round(traced)
    results = {}
    for phase in ("cold", "warm"):
        total = 0.0
        for label, ell, window, p_max in DECOMPOSITIONS:
            decomposition, dt = r.run(f"decompose[{label},{phase}]", lambda: (
                lgfield.decompose_plate_output(plates.Spiral(ell), l_window=window, p_max=p_max)))
            if decomposition is not None:
                total += dt
                results[(label, phase)] = decomposition
        r.times[f"decompose_{phase}_s"] = total
    images = []
    total = 0.0
    for ell, metric in FAR_FIELDS:
        def far_field_with_metric():
            image = lgfield.far_field(plates.Spiral(ell), n=FAR_FIELD_GRID, extent=FAR_FIELD_EXTENT)
            return image, getattr(image, metric)()

        out, dt = r.run(f"far_field[ell={ell}]+{metric}", far_field_with_metric)
        if out is not None:
            total += dt
            images.append((ell, metric, *out))
    r.times["farfield_s"] = total

    # checks, outside the timed region
    for label, ell, window, p_max in DECOMPOSITIONS:
        reference = ref.lg_powers(ell, window, p_max)
        count = ref.greedy_count(reference.values(), COUNT_TARGET)
        for phase in ("cold", "warm"):
            if (label, phase) in results:
                _check_decomposition(r, f"decompose[{label},{phase}]", results[(label, phase)],
                                     reference, count)
        if (label, "cold") in results and (label, "warm") in results:
            r.check(f"decompose[{label}] warm equals cold",
                    results[(label, "cold")].entries == results[(label, "warm")].entries)
    for ell, metric, image, value in images:
        total_power = float(image.intensity.sum())
        r.check(f"far_field[ell={ell}] Parseval", abs(total_power - 1.0) <= 1e-6,
                f"total power {total_power!r}")
        if ell == 0.0:
            expected = ref.gaussian_far_field(FAR_FIELD_GRID, FAR_FIELD_EXTENT)
            deviation = float(abs(image.intensity - expected).max() / expected.max())
            r.check("far_field[ell=0] analytic Gaussian", deviation <= 1e-12,
                    f"max deviation {deviation:.3e} of the peak")
            r.check("far_field[ell=0] azimuthal_variance", value < 1e-6, f"{value!r}")
        elif ell == 3.0:
            r.check("far_field[ell=3] on_axis_ratio", value < 1e-6, f"{value!r}")
        else:
            r.check("far_field[ell=3.5] asymmetry_metric", value > 1.5, f"{value!r}")
    entries = sum(len(d.entries) for d in results.values())
    return r.result({"lgfield.decompose.entries": entries})

"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline; under plain ``pytest -v`` the test outcome column carries the
same information.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from oamsim.angular import (
    AngularGrid,
    inner_product,
    integer_mode,
    oam_spectrum,
)
from oamsim.bell import (
    POLARIZATION_SETTINGS,
    POLARIZATION_SETTINGS_PI,
    SPIRAL_SETTINGS,
    SPIRAL_SETTINGS_PI,
    chsh_s,
    chsh_s_exact,
    s4_certificate,
    search_max_s,
)
from oamsim.cli import main
from oamsim.lgfield import decompose_plate_output, far_field
from oamsim.oracle import (
    fractional_tail_bound,
    quadrature_radial_overlaps,
    verify_fringe_sample,
    verify_overlap,
)
from oamsim.overlap import closed_form_probability, sample_curve, spiral_overlap_probability
from oamsim.plates import BinarySectors, Spiral, Step, plate_state
from oamsim.twophoton import fringe_probability, fringe_probability_exact

TWO_PI = 2.0 * math.pi


def _report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} [{title}]: {status} — {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_chsh_headline(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "bell.json"
    code = main(["bell", "--plate", "spiral", "--ell", "0.5", "--out", str(out)])
    printed = float(capsys.readouterr().out.strip())
    exact = chsh_s_exact(lambda t: fringe_probability_exact(Spiral(0.5), t),
                         SPIRAL_SETTINGS_PI)
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and exact == Fraction(16, 5)
        and abs(printed - 3.2) <= 1e-12
        and abs(json.loads(out.read_text())["S"] - 3.2) <= 1e-12
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, "CHSH headline S=16/5", ok,
                f"exact={exact}, float={printed!r}, runtime={elapsed:.3f}s")


def test_criterion_2_step_plates(capsys):
    t0 = time.perf_counter()
    s_pi = chsh_s(lambda d: fringe_probability(Step(math.pi), d), POLARIZATION_SETTINGS).s
    s_half = chsh_s(lambda d: fringe_probability(Step(math.pi / 2), d), SPIRAL_SETTINGS).s
    exact_pi = chsh_s_exact(lambda t: fringe_probability_exact(Step(math.pi), t),
                            POLARIZATION_SETTINGS_PI)
    exact_half = chsh_s_exact(lambda t: fringe_probability_exact(Step(math.pi / 2), t),
                              SPIRAL_SETTINGS_PI)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(s_pi - 3.2) <= 1e-12
        and abs(s_half - 3.2) <= 1e-12
        and exact_pi == exact_half == Fraction(16, 5)
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(2, "step plates S=16/5", ok,
                f"phi=pi: {s_pi!r}, phi=pi/2: {s_half!r}, runtime={elapsed:.3f}s")


def test_criterion_3_s4_mask(capsys):
    t0 = time.perf_counter()
    result = search_max_s(3, math.pi, settings=SPIRAL_SETTINGS, budget=20000, seed=0)
    fringe = lambda d: fringe_probability(replace(result.mask, alpha=0.0), d)
    cert = s4_certificate(fringe, SPIRAL_SETTINGS, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = result.s >= 3.99 and cert["passed"] and elapsed < 60.0
    with capsys.disabled():
        _report(3, "S=4 binary mask search", ok,
                f"S={result.s!r}, certificate={cert['per_pair']}, "
                f"sectors={result.mask.sectors}, runtime={elapsed:.1f}s")


def test_criterion_4_fringe_law(capsys):
    t0 = time.perf_counter()
    grid = AngularGrid(4096)
    plate = Spiral(0.5)
    max_closed = 0.0
    max_oracle = 0.0
    for k in range(360):
        delta = TWO_PI * k / 360
        law = (1.0 - delta / math.pi) ** 2
        max_closed = max(max_closed, abs(fringe_probability(plate, delta) - law))
        report = verify_fringe_sample(plate, delta, grid=grid)
        max_oracle = max(max_oracle, report.abs_diff)
    zero_at_pi = fringe_probability(plate, math.pi)
    max_offset_drift = 0.0
    for offset in (0.3, 1.0, 2.5, 5.0):
        base = inner_product(plate_state(Spiral(0.5, 0.0), 0), plate_state(Spiral(0.5, 0.9), 0))
        moved = inner_product(plate_state(Spiral(0.5, offset), 0),
                              plate_state(Spiral(0.5, 0.9 + offset), 0))
        max_offset_drift = max(max_offset_drift, abs(base - moved))
    elapsed = time.perf_counter() - t0
    ok = (
        max_closed <= 1e-10
        and max_oracle <= 1e-8
        and zero_at_pi == 0.0
        and max_offset_drift <= 1e-12
        and elapsed < 5.0
    )
    with capsys.disabled():
        _report(4, "parabolic fringe law", ok,
                f"closed-form dev {max_closed:.2e}, oracle dev {max_oracle:.2e}, "
                f"value at pi {zero_at_pi!r}, offset drift {max_offset_drift:.2e}, "
                f"runtime={elapsed:.2f}s")


def test_criterion_5_overlap_curves(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for lam in (0.0, 0.25, 0.5):
        sample_curve(Spiral(2 + lam), 64, verify=True)  # oracle at 1e-8
        at_pi = spiral_overlap_probability(lam, math.pi)
        floor = math.cos(lam * math.pi) ** 2
        ok &= abs(at_pi - floor) <= 1e-12
        ok &= min(spiral_overlap_probability(lam, a)
                  for a in np.linspace(0, TWO_PI, 721, endpoint=False)) >= floor - 1e-12
        if lam == 0.0:
            ok &= all(abs(p - 1.0) <= 1e-12
                      for a, p in sample_curve(Spiral(2.0), 64).samples)
        details.append(f"lam={lam}: min {at_pi:.6f}")
    for phi in (0.0, math.pi / 2, math.pi):
        sample_curve(Step(phi), 64, verify=True)
        if phi == math.pi:
            period_dev = max(
                abs(closed_form_probability(Step(phi), a)
                    - closed_form_probability(Step(phi), a + math.pi))
                for a in np.linspace(0.0, math.pi, 181)
            )
            ok &= period_dev <= 1e-12
            details.append(f"phi=pi period-pi dev {period_dev:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    with capsys.disabled():
        _report(5, "rotation-overlap curves", ok,
                "; ".join(details) + f", runtime={elapsed:.2f}s")


def _quadrature_count(plate, l_window, p_max, order, target=0.87):
    """Greedy LG component count at the target power, with every radial
    overlap from the oracle's Gauss-Laguerre rule of the given order."""
    powers = []
    for l, a_l in oam_spectrum(plate_state(plate, 0), *l_window):
        if abs(a_l) >= 1e-14:
            w = np.abs(a_l * quadrature_radial_overlaps(l, p_max, order)) ** 2
            powers.extend(w[w > 1e-16])
    return int(np.searchsorted(np.cumsum(np.sort(powers)[::-1]), target)) + 1


def test_criterion_6_lg_component_counts(capsys):
    t0 = time.perf_counter()
    half = decompose_plate_output(Spiral(0.5), l_window=(-60, 61), p_max=120)
    count_half = half.count_at(0.87)
    base_order = 2 * (200 + 63) + 32
    five = decompose_plate_output(Spiral(2.5), l_window=(2 - 60, 3 + 60), p_max=200)
    count_five = five.count_at(0.87)
    # the same counts with the radial overlaps by quadrature at twice the order
    five_doubled = _quadrature_count(Spiral(2.5), (2 - 60, 3 + 60), 200, 2 * base_order)
    half_doubled = _quadrature_count(Spiral(0.5), (-60, 61), 120, 2 * (2 * (120 + 61) + 32))
    elapsed = time.perf_counter() - t0
    stable = five_doubled == count_five and half_doubled == count_half
    in_half_window = 9 <= count_half <= 13
    in_five_window = abs(count_five - 224) <= 0.15 * 224
    ok = in_half_window and in_five_window and stable and elapsed < 60.0
    with capsys.disabled():
        _report(6, "LG component counts", ok,
                f"count(1/2)={count_half} (window [9,13]), "
                f"count(5/2)={count_five} (window 224±15% = [190.4, 257.6]), "
                f"order-doubling stable={stable}, runtime={elapsed:.1f}s")


def test_criterion_7_far_field(capsys):
    t0 = time.perf_counter()
    gaussian = far_field(Spiral(0.0), n=1024)
    vortex = far_field(Spiral(3.0), n=1024)
    fractional = far_field(Spiral(3.5), n=1024)
    variance = gaussian.azimuthal_variance()
    on_axis = vortex.on_axis_ratio()
    asymmetry = fractional.asymmetry_metric()
    parseval = max(abs(float(np.sum(img.intensity)) - 1.0)
                   for img in (gaussian, vortex, fractional))
    elapsed = time.perf_counter() - t0
    ok = (
        variance < 1e-6
        and on_axis < 1e-6
        and asymmetry > 1.5
        and parseval <= 1e-6
        and elapsed < 10.0
    )
    with capsys.disabled():
        _report(7, "far-field images", ok,
                f"l=0 variance {variance:.2e}, l=3 on-axis {on_axis:.2e}, "
                f"l=3.5 asymmetry {asymmetry:.2f}, Parseval dev {parseval:.2e}, "
                f"runtime={elapsed:.1f}s")


def test_criterion_8_property_suites(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    grid = AngularGrid(256)

    def random_plate():
        kind = rng.integers(3)
        alpha = rng.uniform(0.0, TWO_PI)
        if kind == 0:
            return Spiral(rng.uniform(-4.0, 4.0), alpha)
        if kind == 1:
            return Step(rng.uniform(-math.pi, math.pi), alpha)
        a = rng.uniform(0.0, 3.0)
        return BinarySectors(rng.uniform(-math.pi, math.pi),
                             ((a, a + rng.uniform(0.1, 3.0)),), alpha)

    max_norm_drift = 0.0
    for trial in range(1000):
        plate = random_plate()
        if trial % 2:
            state = plate_state(plate, int(rng.integers(-3, 4)))
            max_norm_drift = max(max_norm_drift, abs(inner_product(state, state) - 1.0))
        else:
            values = rng.normal(size=256) + 1j * rng.normal(size=256)
            before = np.linalg.norm(values)
            after = np.linalg.norm(values * plate_state(plate, 0).profile(grid.thetas))
            max_norm_drift = max(max_norm_drift, abs(after - before) / before)

    max_ortho_dev = 0.0
    for lam, alpha in ((0.5, 0.0), (0.5, 1.3), (0.25, 2.0)):
        basis = [plate_state(Spiral(l + lam, alpha), 0) for l in range(-3, 4)]
        for i, a in enumerate(basis):
            for k, b in enumerate(basis):
                target = 1.0 if i == k else 0.0
                max_ortho_dev = max(max_ortho_dev, abs(inner_product(a, b) - target))

    max_lj_dev = 0.0
    for lam in (0.25, 0.5, 0.8):
        for alpha in (0.7, math.pi / 2, 4.0):
            reference = spiral_overlap_probability(lam, alpha)
            for l in range(-3, 4):
                for j in range(0, 5):
                    a0 = plate_state(Spiral(l + j + lam, 0.0), 0)
                    a1 = plate_state(Spiral(l + j + lam, alpha), 0)
                    prob = abs(inner_product(a0, a1)) ** 2
                    max_lj_dev = max(max_lj_dev, abs(prob - reference))

    max_tail_dev = 0.0
    for lam in (0.25, 0.5, 0.8):
        spectrum = oam_spectrum(plate_state(Spiral(lam), 0), -30, 30)
        inside = sum(abs(a) ** 2 for _, a in spectrum)
        tail = fractional_tail_bound(lam, -30, 30)
        max_tail_dev = max(max_tail_dev, abs((1.0 - inside) - tail))

    s_cos2 = chsh_s(lambda d: math.cos(d) ** 2, POLARIZATION_SETTINGS).s
    elapsed = time.perf_counter() - t0
    ok = (
        max_norm_drift <= 1e-12
        and max_ortho_dev <= 1e-10
        and max_lj_dev <= 1e-12
        and max_tail_dev <= 1e-10
        and abs(s_cos2 - 2.0 * math.sqrt(2.0)) <= 1e-12
        and elapsed < 120.0
    )
    with capsys.disabled():
        _report(8, "property suites", ok,
                f"norm drift {max_norm_drift:.2e}, orthonormality dev {max_ortho_dev:.2e}, "
                f"l,j-independence dev {max_lj_dev:.2e}, tail dev {max_tail_dev:.2e}, "
                f"cos^2 S={s_cos2!r}, runtime={elapsed:.1f}s")

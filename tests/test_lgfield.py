"""Tests for LG radial overlaps, decompositions, and far fields."""

import csv
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import map_coordinates
from scipy.special import roots_genlaguerre

from oamsim import lgfield, oracle
from oamsim.angular import TWO_PI, ClosedForm, oam_spectrum
from oamsim.cli import main
from oamsim.lgfield import (
    LgRows, _cubic_spline_sample, _descending_order, decompose_plate_output, far_field, peak_radius,
    radial_overlaps)
from oamsim.plates import BinarySectors, Spiral, Step, plate_state


def _analytic_radial_overlap(l, p):
    """Closed-form overlap of R_{l,p} with R_{0,0}, (-1)^p a Gamma(p+a) /
    sqrt(p! (p+|l|)!) with a = |l|/2, its square evaluated exactly in
    integers and rounded once (Gamma(n+1/2) = (2n)! sqrt(pi) / (4^n n!))."""
    al = abs(l)
    if al == 0:
        return float(p == 0)  # 1/Gamma(0): higher radial orders are orthogonal at l=0
    if al % 2 == 0:
        gamma_square, pi_power = Fraction(math.factorial(p + al // 2 - 1)) ** 2, 0
    else:
        n = p + al // 2
        gamma_square = Fraction(math.factorial(2 * n), 4**n * math.factorial(n)) ** 2
        pi_power = 1
    square = Fraction(al * al, 4) * gamma_square / (math.factorial(p) * math.factorial(p + al))
    return (-1.0) ** p * math.sqrt(float(square) * math.pi**pi_power)


def test_radial_overlaps_match_analytic():
    for l in (0, 1, 3, 5, 8):
        closed = radial_overlaps(l, 50)
        quadrature = oracle.quadrature_radial_overlaps(l, 50, 200)
        for p in (0, 1, 5, 20, 50):
            expected = _analytic_radial_overlap(l, p)
            assert closed[p] == pytest.approx(expected, abs=1e-13)
            assert quadrature[p] == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("l, p_max", [(63, 200), (1001, 300)])
def test_radial_overlaps_accurate_relative_to_their_size(l, p_max):
    # far out in p the overlaps are tiny (3e-74 at l = 1001), so an
    # absolute tolerance would pass anything there
    expected = np.array([_analytic_radial_overlap(l, p) for p in range(p_max + 1)])
    np.testing.assert_allclose(radial_overlaps(l, p_max), expected, rtol=1e-12, atol=0)


def _reference_radial_overlaps(l, p_max):
    """The closed-form kernel one l at a time, written out: the batched
    kernel must equal it bit for bit."""
    ps = np.arange(p_max + 1)
    al = abs(l)
    if al == 0:
        return (ps == 0).astype(float)
    a = al / 2.0
    head = math.lgamma(a + 1.0) - 0.5 * math.lgamma(al + 1.0)
    q = ps[:-1]
    steps = np.log(q + a) - 0.5 * (np.log(q + 1.0) + np.log(q + al + 1.0))
    log_magnitude = head + np.concatenate(([0.0], np.cumsum(steps)))
    return (-1.0) ** ps * np.exp(log_magnitude)


@pytest.mark.parametrize("p_max", [0, 1, 5, 200, 1000])
def test_radial_overlaps_equal_the_written_out_kernel_bit_for_bit(p_max):
    ls = [*range(-300, 301), 1001, 2**52 + 1, 2**53 - 1]
    batch = radial_overlaps(ls, p_max)
    assert batch.shape == (len(ls), p_max + 1)
    for l, row in zip(ls, batch):
        expected = _reference_radial_overlaps(l, p_max)
        assert np.array_equal(radial_overlaps(l, p_max), expected), l
        assert np.array_equal(row, expected), l


def test_radial_overlaps_batch_mixing_zero_and_repeated_l():
    ls = [[3, 0, -3], [0, 7, 3]]
    batch = radial_overlaps(ls, 12)
    assert batch.shape == (2, 3, 13)
    for l, row in zip(np.ravel(ls), batch.reshape(-1, 13)):
        assert np.array_equal(row, _reference_radial_overlaps(int(l), 12)), l
    assert radial_overlaps(np.array([], dtype=int), 4).shape == (0, 5)


def test_closed_form_radial_overlaps_fail_loudly():
    # |l| = inf makes the p = 0 term inf - inf: an error, not a NaN row
    with pytest.raises(FloatingPointError):
        radial_overlaps(math.inf, 3)


@pytest.mark.parametrize("l", [math.nan, 2.5, [1, -0.5]])
def test_radial_overlaps_reject_non_integer_l(l):
    # NaN and fractions name no LG mode: an error, not a NaN row or a row
    # for a mode that does not exist
    with pytest.raises(ValueError, match="integers"):
        radial_overlaps(l, 2)


def test_radial_overlap_high_order_is_stable():
    # the scaled recurrence must stay finite far beyond the library root
    # finder's overflow point
    got = oracle.quadrature_radial_overlaps(5, 300, 1200)
    assert np.all(np.isfinite(got))
    assert got[300] == pytest.approx(_analytic_radial_overlap(5, 300), abs=1e-13)


def test_gl_weights_accurate_relative_to_their_size():
    # the quadrature multiplies each weight by e^{+x/2}, so a weight that
    # is right only relative to the largest one (as eigenvector-derived
    # weights are) turns into garbage at the far nodes
    for order in (100, 200):
        for alpha in (0.0, 0.5, 2.5):
            nodes, log_weights = oracle._gl_rule(order, alpha)
            ref_nodes, ref_weights = roots_genlaguerre(order, alpha)
            np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12)
            kept = ref_weights > 1e-300
            assert np.count_nonzero(kept) > 0.9 * order
            np.testing.assert_allclose(
                np.exp(log_weights[kept]), ref_weights[kept], rtol=1e-12)


def test_radial_overlaps_fail_loudly_on_lost_weights(monkeypatch):
    # weights floored at 1e-16 of the largest, the absolute accuracy of
    # eigenvector-derived weights, must raise rather than yield a number
    nodes, log_weights = oracle._gl_rule(1200, 0.5)
    floored = np.maximum(log_weights, np.max(log_weights) + math.log(1e-16))
    monkeypatch.setattr(oracle, "_gl_rule", lambda order, alpha: (nodes, floored))
    with pytest.raises(FloatingPointError):
        oracle.quadrature_radial_overlaps(1, 50, 1200)


def test_fundamental_decomposition_is_trivial():
    d = decompose_plate_output(Spiral(0.0), l_window=(-3, 3), p_max=5)
    assert d.entries[0][:2] == (0, 0)
    assert d.entries[0][3] == pytest.approx(1.0, abs=1e-12)
    assert d.count_at(0.87) == 1


def test_integer_spiral_decomposition_single_column():
    d = decompose_plate_output(Spiral(2.0), l_window=(-5, 5), p_max=10)
    assert all(l == 2 for l, *_ in d.entries)
    top = d.entries[0]
    assert top[:2] == (2, 0)
    assert top[3] == pytest.approx(_analytic_radial_overlap(2, 0) ** 2, abs=1e-12)


def test_half_integer_decomposition_count():
    d = decompose_plate_output(Spiral(0.5), l_window=(-60, 61), p_max=120)
    assert 9 <= d.count_at(0.87) <= 13


def test_decomposition_total_power_approaches_one():
    d = decompose_plate_output(Spiral(0.5), l_window=(-60, 61), p_max=200)
    total = float(d.cumulative_powers[-1]) + d.angular_tail
    # the radial index is truncated at p_max, so a small in-window radial
    # tail remains on top of the analytic angular tail
    assert 0.985 < total <= 1.0 + 1e-9


def test_decomposition_csv(tmp_path):
    d = decompose_plate_output(Spiral(0.5), l_window=(-5, 6), p_max=10)
    path = tmp_path / "decomp.csv"
    d.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "l,p,re,im,power,cumulative_power"
    assert len(lines) == len(d.entries) + 1
    # the cumulative column is the left-to-right running sum of the powers
    running = 0.0
    for line, (*_, power) in zip(lines[1:], d.entries):
        running += power
        assert line.split(",")[5] == f"{running:.12g}"


def test_cumulative_powers_are_computed_once():
    d = decompose_plate_output(Spiral(2.5), l_window=(-5, 6), p_max=10)
    cum = d.cumulative_powers
    assert d.cumulative_powers is cum and not cum.flags.writeable
    assert cum.tolist() == np.cumsum([e[3] for e in d.entries]).tolist()
    with pytest.raises(ValueError):
        cum[0] = 0.0


def test_count_at_raises_when_window_insufficient():
    d = decompose_plate_output(Spiral(0.5), l_window=(0, 1), p_max=2)
    assert d.incomplete
    with pytest.raises(ValueError):
        d.count_at(0.87)


def test_count_at_without_entries_raises_value_error():
    # an integer plate puts all its power at l = 2, outside this window
    d = decompose_plate_output(Spiral(2.0), l_window=(-1, 1), p_max=5)
    assert d.entries == ()
    assert d.incomplete
    assert d.window_power == 0.0
    with pytest.raises(ValueError, match="window reaches only 0.000000"):
        d.count_at(0.87)


def _decomposition_one_entry_at_a_time(plate, l_window, p_max):
    """Entries built one (l, p) at a time and sorted on the key (-power, l, p)."""
    entries = []
    for l, a_l in oam_spectrum(plate_state(plate, 0), *l_window):
        if abs(a_l) < 1e-14:
            continue
        coeffs = a_l * _reference_radial_overlaps(l, p_max)
        powers = np.abs(coeffs) ** 2
        for p in range(p_max + 1):
            if powers[p] > 1e-16:
                entries.append((l, p, complex(coeffs[p]), float(powers[p])))
    entries.sort(key=lambda e: (-e[3], e[0], e[1]))
    return tuple(entries)


_MASK = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)))


@pytest.mark.parametrize("plate, l_window, p_max, ties", [
    pytest.param(Spiral(0.5), (-60, 61), 40, None, id="0.5-l_window0"),
    pytest.param(Spiral(2.5), (-58, 63), 40, None, id="2.5-l_window1"),
    pytest.param(Spiral(2.0), (-5, 5), 40, None, id="2.0-l_window2"),
    # every entry of Step(pi) and of the mask has the power of its -l
    # partner, bit for bit: the tie falls to the smaller l, then p
    pytest.param(Step(math.pi), (-20, 20), 30, 620, id="step_pi"),
    pytest.param(Step(math.pi / 2), (-20, 20), 30, None, id="step_half_pi"),
    pytest.param(_MASK, (-20, 20), 30, 310, id="mask"),
])
def test_decomposition_equals_the_entry_by_entry_build(plate, l_window, p_max, ties):
    d = decompose_plate_output(plate, l_window=l_window, p_max=p_max)
    assert d.entries == _decomposition_one_entry_at_a_time(plate, l_window, p_max)
    assert all(type(l) is int and type(p) is int and type(c) is complex and type(w) is float
               for l, p, c, w in d.entries)
    if plate == Spiral(2.0):
        assert {l for l, *_ in d.entries} == {2}
    if ties is not None:
        powers = {(l, p): w for l, p, _, w in d.entries}
        assert len(d.entries) == ties
        assert all(powers[-l, p] == w for l, p, _, w in d.entries)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decomposition_evaluates_its_radial_overlaps_once(monkeypatch):
    # the overlaps depend on |l| alone: one closed-form call over the
    # distinct |l|
    closed = _count_calls(monkeypatch, lgfield, "radial_overlaps")
    decompose_plate_output(Spiral(0.5), l_window=(-60, 61), p_max=120)
    assert len(closed) == 1
    assert closed[0][0].tolist() == list(range(62))


def test_window_without_kept_amplitudes_is_empty_and_incomplete(tmp_path, capsys, monkeypatch):
    # every a_l of the integer plate Spiral(2) over l = 5..8 is below 1e-14
    d = decompose_plate_output(Spiral(2.0), l_window=(5, 8), p_max=10)
    assert d.entries == ()
    assert d.incomplete
    with pytest.raises(ValueError):
        d.count_at(0.87)
    # the CLI centres its window on round(ell), so the same window is forced
    original = lgfield.decompose_plate_output
    monkeypatch.setattr(lgfield, "decompose_plate_output",
                        lambda plate, **kw: original(plate, **{**kw, "l_window": (5, 8)}))
    out = tmp_path / "decomp.csv"
    assert main(["decompose", "--ell", "2", "--p-max", "10", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "incomplete: window power 0.000000\n"
    assert out.read_text().splitlines() == ["l,p,re,im,power,cumulative_power"]


def _csv_by_csv_writer(d, path):
    """The decomposition's CSV as a csv.writer loop over its rows writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "p", "re", "im", "power", "cumulative_power"])
        for (l, p, coef, power), cum in zip(d.entries, d.cumulative_powers.tolist()):
            writer.writerow([l, p, f"{coef.real:.12g}", f"{coef.imag:.12g}",
                             f"{power:.12g}", f"{cum:.12g}"])


@pytest.mark.parametrize("plate, l_window, p_max", [
    pytest.param(Spiral(0.5), (-60, 61), 120, id="0.5"),
    pytest.param(Spiral(2.5), (-58, 63), 120, id="2.5"),
    pytest.param(Spiral(2.001), (-58, 62), 120, id="2.001"),
    pytest.param(Step(math.pi), (-20, 20), 30, id="step_pi"),
    pytest.param(_MASK, (-20, 20), 30, id="mask"),
    pytest.param(Spiral(2.0), (5, 8), 10, id="empty"),
])
def test_csv_equals_the_csv_writer_bytes(plate, l_window, p_max, tmp_path):
    d = decompose_plate_output(plate, l_window=l_window, p_max=p_max)
    d.write_csv(tmp_path / "streamed.csv")
    _csv_by_csv_writer(d, tmp_path / "reference.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "reference.csv").read_bytes()
    assert streamed.count(b"\r\n") == len(d.entries) + 1


def test_cli_decompose_writes_the_in_process_rows(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    assert main(["decompose", "--ell", "0.5", "--l-halfwidth", "40", "--p-max", "60",
                 "--out", str(out)]) == 0
    d = decompose_plate_output(Spiral(0.5), l_window=(-40, 40), p_max=60)
    assert capsys.readouterr().out == f"{d.count_at(0.87)}\n"
    _csv_by_csv_writer(d, tmp_path / "reference.csv")
    assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_decomposition_memory_per_entry():
    # four columns of 8 + 8 + 16 + 8 B an entry; a Python tuple per entry
    # would hold about 144 B an entry and peak near 237 while being built
    args = dict(l_window=(-58, 63), p_max=200)
    decompose_plate_output(Spiral(2.5), **args)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        d = decompose_plate_output(Spiral(2.5), **args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(d.entries)
    assert held <= 48 * n, f"held {held / n:.1f} B an entry"
    assert peak <= 120 * n, f"peak {peak / n:.1f} B an entry"


def test_row_view_contract():
    d = decompose_plate_output(Spiral(2.5), l_window=(-58, 63), p_max=200)
    rows = d.entries
    old = tuple(zip(*(column.tolist() for column in rows.columns)))
    assert len(rows) == len(old) == 24146
    assert rows[0] == old[0] and rows[-1] == old[-1] and rows[3:9] == old[3:9]
    assert isinstance(rows[3:9], tuple)
    assert [tuple(map(type, row)) for row in (rows[0], rows[-1], *rows[3:9], *rows)] == (
        [(int, int, complex, float)] * (8 + len(old)))
    assert rows == old and old == rows and rows != () and rows != list(old)
    other = decompose_plate_output(Spiral(2.5), l_window=(-58, 63), p_max=200).entries
    assert other is not rows and rows == other
    assert all(not column.flags.writeable for column in rows.columns)
    with pytest.raises(ValueError):
        rows.columns[3][0] = 0.0
    power = rows.columns[3].copy()
    power[100] = np.nextafter(power[100], 1.0)
    changed = LgRows(*rows.columns[:3], power)
    assert changed != rows and rows != changed and changed != old
    assert hash(rows) == hash(old) == hash(other) and hash(d) == hash(d)
    # view against view compares the columns: no row tuples are built
    tracemalloc.start()
    try:
        assert rows == other and rows != changed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(rows), f"peak {peak / len(rows):.1f} B an entry"


def _stable_order_cases():
    rng = np.random.default_rng(34)
    for n in (2, 3, 10, 100, 1000, 3000):
        for high in (1, 2, 5, 50):  # high = 1: every entry ties
            yield rng.integers(0, high, n).astype(float)
    yield from (np.full(17, 0.25), np.array([0.5]), np.array([]))


@pytest.mark.parametrize("w", list(_stable_order_cases()), ids=len)
def test_descending_order_is_the_stable_sort(w):
    order = _descending_order(w)
    assert order.dtype == np.intp
    assert order.tolist() == np.argsort(-w, kind="stable").tolist()


@pytest.mark.parametrize("ell, l_window, p_max, tied_pairs", [
    (0.5, (-60, 61), 120, 8), (2.5, (-58, 63), 200, 12)])
def test_paper_decompositions_are_in_stable_order(ell, l_window, p_max, tied_pairs):
    # the powers back in (l, p) order, as the decomposition sorts them
    d = decompose_plate_output(Spiral(ell), l_window=l_window, p_max=p_max)
    ls, ps, _, w = d.entries.columns
    w = w[np.lexsort((ps, ls))]
    assert _descending_order(w).tolist() == np.argsort(-w, kind="stable").tolist()
    ranked = np.sort(w)
    assert np.count_nonzero(ranked[1:] == ranked[:-1]) == tied_pairs


def test_write_csv_memory_per_entry(tmp_path):
    # the rows are formatted 4096 at a time, so the Python scalars of one
    # block are live, not those of every row (135 B an entry at 24 146 rows)
    d = decompose_plate_output(Spiral(2.5), l_window=(-58, 63), p_max=200)
    d.write_csv(tmp_path / "warm-up.csv")
    tracemalloc.start()
    try:
        d.write_csv(tmp_path / "measured.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(d.entries), f"peak {peak / len(d.entries):.1f} B an entry"
    assert (tmp_path / "measured.csv").read_bytes() == (tmp_path / "warm-up.csv").read_bytes()


# decomposes at the paper's two plates and near an integer, after printing
# the numpy dispatch targets left enabled
_DECOMPOSE_THREE = (
    "from numpy._core import _multiarray_umath as umath\n"
    "from oamsim.cli import main\n"
    "print([f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]])\n"
    "for ell in ('0.5', '2.5', '2.001'):\n"
    "    main(['decompose', '--ell', ell, '--out', ell + '.csv'])\n")


def test_decompose_bytes_agree_across_the_numpy_dispatch_levels(tmp_path):
    # the spectrum's sin and cos and the default sort have SIMD loops: at
    # every dispatch level the host's numpy offers, chosen by
    # NPY_DISABLE_CPU_FEATURES in a child process alone, the bytes must agree
    from numpy._core import _multiarray_umath as umath

    offered = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    src = str(Path(lgfield.__file__).resolve().parents[1])
    children = []
    for k in range(len(offered) + 1):  # the baseline, then one more target each
        (tmp_path / str(k)).mkdir()
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(offered[k:]),
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        children.append(subprocess.Popen([sys.executable, "-c", _DECOMPOSE_THREE], env=env,
                                         cwd=tmp_path / str(k), stdout=subprocess.PIPE, text=True))
    outputs = [child.communicate(timeout=120)[0].splitlines() for child in children]
    levels = ["+".join(umath.__cpu_baseline__) or "baseline", *offered]
    print("levels compared:", ", ".join(levels))
    assert [child.returncode for child in children] == [0] * len(levels)
    for k, lines in enumerate(outputs):
        assert lines == [repr(offered[:k]), "12", "74", "7"], levels[k]
        for ell in ("0.5", "2.5", "2.001"):
            assert (tmp_path / str(k) / f"{ell}.csv").read_bytes() == (
                tmp_path / "0" / f"{ell}.csv").read_bytes(), (levels[k], ell)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        decompose_plate_output(Spiral(0.5), l_window=(3, -3))


def test_far_field_validation():
    with pytest.raises(ValueError):
        far_field(Spiral(0.0), n=100)
    with pytest.raises(ValueError):
        far_field(Spiral(0.0), n=256, extent=2.0)
    # |ell| * cell <= pi * w0, with cells of a quarter waist at 128^2 over
    # +-16 waists: the bound is 4 pi = 12.566
    far_field(Spiral(4.0 * math.pi - 1e-9), n=128, extent=16.0)
    for ell in (12.6, -1e6, 1e9):
        with pytest.raises(ValueError, match="sample the plate phase"):
            far_field(Spiral(ell), n=128, extent=16.0)


def test_far_field_gaussian_is_symmetric():
    image = far_field(Spiral(0.0), n=256)
    assert image.azimuthal_variance() < 1e-6
    assert image.on_axis_ratio() == pytest.approx(1.0, abs=1e-12)


def test_far_field_gaussian_matches_analytic_image():
    # the unit-waist Gaussian sqrt(2/pi) e^{-r^2} transforms to an image
    # proportional to e^{-2 pi^2 f^2}, at the DFT frequencies
    # (k - n/2) / (2 extent) of a grid with spacing 2 extent / n
    n, extent = 256, 16.0
    image = far_field(Spiral(0.0), n=n)
    f = (np.arange(n) - n / 2) / (2.0 * extent)
    expected = np.exp(-2.0 * math.pi**2 * (f[:, None] ** 2 + f[None, :] ** 2))
    expected /= expected.sum()
    assert float(np.max(np.abs(image.intensity - expected))) <= 1e-12 * float(expected.max())


@pytest.mark.parametrize("ell", [0.0, 0.5, 2.25, 3.0, 3.5])
def test_azimuthal_profile_matches_ndimage_spline(ell):
    image = far_field(Spiral(ell), n=1024)
    center, radius = 512.0, peak_radius(image.intensity)
    phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    points = [center + radius * np.sin(phis), center + radius * np.cos(phis)]
    expected = map_coordinates(image.intensity, points, order=3, mode="nearest")
    got = image.azimuthal_profile()
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(np.max(expected))


def test_spline_sampler_matches_ndimage_up_to_the_edges():
    rng = np.random.default_rng(7)
    # a smooth image: a few random low-frequency waves on a 60 x 80 grid
    yy, xx = np.indices((60, 80))
    image = sum(rng.normal() * np.cos(rng.uniform(0, 0.4) * yy + rng.uniform(0, 0.4) * xx
                                      + rng.uniform(0, 2 * math.pi)) for _ in range(6))
    # points inside, on and up to three pixels beyond every edge
    rows, cols = rng.uniform(-3, 63, 2000), rng.uniform(-3, 83, 2000)
    expected = map_coordinates(image, [rows, cols], order=3, mode="nearest")
    got = _cubic_spline_sample(image, rows, cols)
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(np.max(np.abs(expected)))


def _centred_transform_image(plate, n, extent=16.0):
    """The far field by the textbook pipeline: the sampled waist field,
    renormalized by its sampled power, through the centred unitary FFT."""
    coords = (np.arange(n) - n / 2.0 + 0.5) * (2.0 * extent / n)
    xx, yy = np.meshgrid(coords, coords)
    field = np.exp(-(xx**2 + yy**2)) * plate_state(plate, 0).profile(np.arctan2(yy, xx))
    cell = (2.0 * extent / n) ** 2
    field /= math.sqrt(float(np.sum(np.abs(field) ** 2)) * cell)
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(field), norm="ortho"))
    return np.abs(spectrum) ** 2 * cell


_FAR_FIELD_PLATES = [
    *(Spiral(ell) for ell in (0.0, 0.5, 2.25, 3.0, 3.5)),
    Spiral(1.5, alpha=1.0),
    Step(math.pi / 2, alpha=0.3),
    BinarySectors(math.pi, ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4))),
]


@pytest.mark.parametrize("plate", _FAR_FIELD_PLATES, ids=repr)
def test_far_field_is_the_centred_transform(plate):
    expected = _centred_transform_image(plate, 256)
    got = far_field(plate, n=256).intensity
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(np.max(expected))


def _mod_and_searchsorted_profile(plate, theta):
    """The reference profile: np.mod over every angle, then the factor
    gather for every plate."""
    state = plate_state(plate, 0)
    shift, boundaries, factors = state.nu, state.boundaries, state.factors
    t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    fac = np.asarray(factors)[np.searchsorted(np.asarray(boundaries), t, side="right") - 1]
    if shift != 0.0:
        phasor = np.empty(np.shape(t), complex)
        np.multiply(t, shift, out=phasor.real)
        np.sin(phasor.real, out=phasor.imag)
        np.cos(phasor.real, out=phasor.real)
        fac *= phasor[()]
    return fac


def _fft2_kernel_intensity(plate, n, extent):
    """The reference far-field intensity: that profile, fft2, then
    re**2 + im**2, each step into a fresh grid."""
    coords = (np.arange(n) - n / 2.0 + 0.5) * (2.0 * extent / n)
    gauss = np.exp(-(coords**2))
    amplitude = gauss / math.sqrt(math.fsum(gauss**2)) * (-1.0) ** np.arange(n)
    field = _mod_and_searchsorted_profile(plate, np.arctan2(coords[:, None], coords[None, :]))
    field *= amplitude[:, None]
    field *= amplitude[None, :]
    spectrum = np.fft.fft2(field, norm="ortho")
    return spectrum.real**2 + spectrum.imag**2


def _four_grid_peak_radius(intensity):
    """The reference peak_radius, with a fresh grid for every step."""
    n = intensity.shape[0]
    square = (np.arange(n) - n / 2.0) ** 2
    bins = np.rint(np.sqrt(square[:, None] + square[None, :])).astype(int)
    maxbin = n // 2
    sums = np.bincount(bins.ravel(), weights=intensity.ravel(), minlength=maxbin + 1)
    counts = np.bincount(bins.ravel(), minlength=maxbin + 1)
    mean = sums[: maxbin + 1] / np.maximum(counts[: maxbin + 1], 1)
    best = int(np.argmax(mean))
    if best >= 2:
        return float(best)
    half = mean[0] / 2.0
    below = np.nonzero(mean < half)[0]
    return float(below[0]) if len(below) else float(maxbin // 2)


def _reference_spline_prefilter(samples):
    """The spline prefilter written out again, on a fresh C-ordered copy of
    its input: the gain, then the causal recursion started from a row by
    row sum of the first 64 mirrored terms, then the anticausal one."""
    c = np.array(samples, dtype=float, order="C")
    n, z = c.shape[0], math.sqrt(3.0) - 2.0
    c *= (1.0 - z) * (1.0 - 1.0 / z)
    head, tail = np.zeros(c.shape[1:]), np.zeros(c.shape[1:])
    for j, power in enumerate(z ** np.arange(min(n, 64))):
        head += power * c[j]
        tail += power * c[n - 1 - j]
    c[0] += z / (1.0 - z ** (2 * n)) * (head + z**n * tail)
    for i in range(1, n):
        c[i] += z * c[i - 1]
    c[-1] *= z / (z - 1.0)
    for i in range(n - 2, -1, -1):
        c[i] = z * (c[i + 1] - c[i])
    return c


def _image_metrics(image):
    return (peak_radius(image.intensity), image.azimuthal_variance(),
            image.asymmetry_metric(), image.on_axis_ratio())


# every plate on four grids, and the benchmark's 1024^2 grid of 16-row blocks
@pytest.mark.parametrize("plate, n, extent", [
    *((plate, n, extent) for plate in (*_FAR_FIELD_PLATES, Spiral(-1.7), Spiral(3.5, alpha=2.0))
      for n, extent in ((128, 8.0), (128, 32.0), (256, 16.0), (512, 128.0))),
    (Spiral(3.5), 1024, 16.0),
], ids=repr)
def test_far_field_equals_the_fft2_kernel_bit_for_bit(plate, n, extent, monkeypatch):
    image = far_field(plate, n=n, extent=extent)
    expected = lgfield.FarFieldImage(_fft2_kernel_intensity(plate, n, extent), extent, plate)
    assert np.array_equal(image.intensity, expected.intensity)
    got = _image_metrics(image)
    # the reference metrics: that peak radius, and the test's own copy of
    # the spline prefilter, so a change to the prefilter's floats shows here
    monkeypatch.setattr(lgfield, "peak_radius", _four_grid_peak_radius)
    monkeypatch.setattr(lgfield, "_spline_prefilter", _reference_spline_prefilter)
    assert np.array_equal(got, _image_metrics(expected))


def test_profile_equals_the_mod_and_searchsorted_kernel_bit_for_bit():
    # the plates' edges and the ends of the turn among the angles inside it
    edges = [0.0, 0.3, 1.0, 2.0, math.pi / 4, math.pi / 2, np.nextafter(TWO_PI, 0.0)]
    inside = np.concatenate([np.linspace(0.0, TWO_PI, 3993, endpoint=False), edges])
    outside = np.concatenate([np.linspace(-7.0, 13.0, 2001), [TWO_PI, -1e-300]])
    for plate in (*_FAR_FIELD_PLATES, Spiral(-1.7), Spiral(3.5, alpha=2.0)):
        for thetas in (inside, outside, inside.reshape(40, 100), [-1e-300, 1.0], [1.0, TWO_PI],
                       1.2, 7.0):
            got = plate_state(plate, 0).profile(thetas)
            expected = _mod_and_searchsorted_profile(plate, thetas)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected), plate


def test_far_field_without_the_sign_pattern_is_not_centred(monkeypatch):
    # undoing the (-1)^(i+j) pattern at the input of every row transform
    # leaves the uncentred transform, which the comparison above must
    # reject. Each block of rows starts on an even row, so the pattern over
    # the block's own shape is the one its rows carry
    plate, n = Spiral(3.5), 256
    expected = _centred_transform_image(plate, n)
    fft, axes = np.fft.fft, set()

    def fft_without_the_signs(a, axis, **kw):
        axes.add(axis)
        if axis == 1:
            a = a * (-1.0) ** np.add.outer(np.arange(a.shape[0]), np.arange(a.shape[1]))
        return fft(a, axis=axis, **kw)

    monkeypatch.setattr(lgfield.np.fft, "fft", fft_without_the_signs)
    got = far_field(plate, n=n).intensity
    assert axes == {0, 1}
    assert float(np.max(np.abs(got - expected))) > 0.5 * float(np.max(expected))


def test_far_field_peak_stays_within_its_live_grids():
    # live sets in n x n complex grids (16 B a pixel), read under
    # tracemalloc. The row phase holds the angles (real, half a grid), the
    # field, and on each of the two threads one block of n/64 rows with the
    # plate profile's temporaries; the column phase holds the field and the
    # intensity (half a grid). The FFT's axis passes run in place and add
    # only 1-D buffers. The bound adds a quarter grid for the blocks, the
    # 1-D vectors and bookkeeping; a meshgrid, a shift copy, an FFT output
    # grid or a profile of the whole grid adds half a grid or more
    n = 512
    grid = 16 * n * n
    for plate, live in (
        # the angles and the field; a block's phasor
        (Spiral(3.5), 1.5),
        # a block's index array and the factors it gathers; the bound also
        # holds an index array over the whole grid (half a grid)
        (Step(math.pi / 2, alpha=0.3), 2.0),
        # a block's gathered factors and the phasor they are multiplied by;
        # the bound also holds whole-grid factors (one grid)
        (Spiral(1.5, alpha=1.0), 2.5),
    ):
        far_field(plate, n=n)  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            far_field(plate, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (live + 0.25) * grid, f"{plate}: peak {peak / grid:.2f} complex grids"


def _inline(work, n):
    """_on_two_threads without the helper thread: both halves in the caller."""
    work(0, n // 2)
    work(n // 2, n)


@pytest.mark.parametrize("n", [128, 512])  # blocks of 2 and of 8 rows
@pytest.mark.parametrize("plate", [Spiral(3.5), Step(math.pi / 2, alpha=0.3),
                                   _FAR_FIELD_PLATES[-1]], ids=repr)
def test_far_field_on_two_threads_equals_one_thread_bit_for_bit(plate, n, monkeypatch):
    threaded = far_field(plate, n=n).intensity
    monkeypatch.setattr(lgfield, "_on_two_threads", _inline)
    assert np.array_equal(threaded, far_field(plate, n=n).intensity)


def test_far_field_builds_the_plate_pieces_once(monkeypatch):
    # one table for the whole grid, not one for each block of n/64 rows
    calls = []

    def counted(plate, l):
        calls.append(plate)
        return plate_state(plate, l)

    monkeypatch.setattr(lgfield, "plate_state", counted)
    plate = Step(math.pi / 2, alpha=0.3)
    image = far_field(plate, n=256)
    assert calls == [plate]
    monkeypatch.undo()
    assert np.array_equal(image.intensity, _fft2_kernel_intensity(plate, 256, 16.0))


@pytest.mark.filterwarnings("error")  # an exception left in a thread fails the test
def test_far_field_raises_the_helper_threads_exception(monkeypatch):
    raised = []

    profile = ClosedForm.profile

    def factors_on_the_main_thread_only(state, theta):
        if threading.current_thread() is not threading.main_thread():
            raised.append(RuntimeError("profile off the main thread"))
            raise raised[-1]
        return profile(state, theta)

    monkeypatch.setattr(ClosedForm, "profile", factors_on_the_main_thread_only)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        far_field(Spiral(3.5), n=128)
    assert excinfo.value is raised[0]
    assert threading.active_count() == threads


def test_far_field_vortex_has_on_axis_null():
    image = far_field(Spiral(3.0), n=256)
    assert image.on_axis_ratio() < 1e-6
    assert image.azimuthal_variance() < 1e-3  # Cartesian sampling residue


def test_far_field_fractional_vortex_breaks_symmetry():
    image = far_field(Spiral(3.5), n=256)
    assert image.asymmetry_metric() > 1.5


def test_far_field_power_conserved():
    for ell in (0.0, 3.0, 3.5):
        image = far_field(Spiral(ell), n=256)
        assert float(np.sum(image.intensity)) == pytest.approx(1.0, abs=1e-6)


def test_peak_radius_fallback_for_on_axis_peak():
    image = far_field(Spiral(0.0), n=256)
    assert peak_radius(image.intensity) >= 1.0


def test_peak_radius_builds_its_bins_in_blocks():
    # a whole-grid bin array would take a float grid and an int grid
    n = 1024
    intensity = far_field(Spiral(3.5), n=n).intensity
    peak_radius(intensity)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        peak_radius(intensity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 8 * n * n
    assert peak < grid / 8, f"peak {peak / grid:.3f} float grids"


def test_far_field_pgm_and_sidecar(tmp_path):
    image = far_field(Spiral(1.0), n=128, extent=8.0)
    pgm = tmp_path / "field.pgm"
    image.write_pgm(pgm)
    pixels = np.round(image.intensity * (65535.0 / np.max(image.intensity))).astype(">u2")
    assert pgm.read_bytes() == b"P5\n128 128\n65535\n" + pixels.tobytes()
    sidecar = tmp_path / "field.pgm.json"
    image.write_sidecar(sidecar)
    assert '"grid": 128' in sidecar.read_text()


def test_spline_prefilter_of_any_column_subset_equals_those_columns():
    # the starting sum runs in one order for every column, so a column's
    # coefficients do not depend on which columns are filtered beside it
    rng = np.random.default_rng(18)
    for rows in (40, 300):  # a starting sum over every row, and over 64 of them
        samples = rng.random((rows, 257))
        full = lgfield._spline_prefilter(samples.copy())
        for _ in range(50):
            columns = np.sort(rng.choice(257, rng.integers(1, 257), replace=False))
            part = lgfield._spline_prefilter(np.ascontiguousarray(samples[:, columns]))
            assert np.array_equal(part, full[:, columns]), (rows, columns)


def test_spline_prefilter_equals_its_written_out_copy_bit_for_bit():
    # the far-field metrics read the coefficients only far from the padded
    # edges, where the starting sum has decayed below rounding; random
    # samples reach the whole filter, the starting sum included
    rng = np.random.default_rng(19)
    for rows in (2, 40, 300):
        samples = rng.random((rows, 33))
        assert np.array_equal(lgfield._spline_prefilter(samples.copy()),
                              _reference_spline_prefilter(samples))


def test_pgm_keeps_one_scratch_grid(tmp_path):
    # the scaled intensity, rounded in place, plus its 16-bit copy: 1.25
    # float grids; rounding into a second grid would add one more
    n = 512
    image = far_field(Spiral(3.5), n=n)
    image.write_pgm(tmp_path / "warm.pgm")  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        image.write_pgm(tmp_path / "field.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 8 * n * n
    assert peak <= 1.25 * grid + 65536, f"peak {peak / grid:.3f} float grids"

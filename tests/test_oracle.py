"""Tests for the quadrature verification layer."""

import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oamsim import oracle, overlap
from oamsim.angular import TWO_PI, AngularGrid
from oamsim.bell import POLARIZATION_SETTINGS
from oamsim.lgfield import radial_overlaps
from oamsim.oracle import (
    geometric_profile,
    quadrature_radial_overlaps,
    standard_sweep,
    verify_bell,
    verify_fringe_sample,
    verify_overlap,
    write_jsonl,
)
from oamsim.plates import BinarySectors, Spiral, Step


def test_standard_sweep_all_pass():
    reports = standard_sweep()
    failed = [r for r in reports if not r.passed]
    assert not failed, failed


def test_verify_overlap_tight():
    grid = AngularGrid(4096)
    # binary sector boundaries on grid nodes, so the rectangle rule is exact
    mask = BinarySectors(1.0, ((math.pi / 4, math.pi),))
    for plate in (Spiral(1.3), Step(2 * math.pi / 3), mask):
        for alpha in (0.5, math.pi / 2, 4.0):
            report = verify_overlap(plate, alpha, tolerance=1e-10, grid=grid)
            assert report.passed, report


def test_midpoint_sampling_exact_for_node_aligned_jumps():
    grid = AngularGrid(256)
    jump = grid.spacing * 100
    mids = grid.thetas + 0.5 * grid.spacing
    profile = geometric_profile(BinarySectors(math.pi, ((jump, TWO_PI),)), mids)
    # <0|psi> for psi = 1 on [0, jump), -1 after: (1/2pi) [jump - (2pi - jump)]
    exact = (2.0 * jump - TWO_PI) / TWO_PI
    assert np.mean(profile).real == pytest.approx(exact, abs=1e-14)


def _reference_profile(plate, thetas):
    """The sampler's textbook form: the local angle by np.mod, the spiral
    phasor by complex exp, half-planes and sectors by np.mod-based masks."""
    local = np.mod(thetas - plate.alpha, TWO_PI)
    if isinstance(plate, Spiral):
        return np.exp(1j * plate.ell * local)
    if isinstance(plate, Step):
        delayed = local < math.pi
    else:
        delayed = np.zeros(local.shape, dtype=bool)
        for a, b in plate.sectors:
            delayed |= (a <= local) & (local < b)
    return np.where(delayed, np.exp(1j * plate.phi), 1.0 + 0.0j)


def test_geometric_profile_matches_the_mod_and_exp_form():
    grid = AngularGrid(4096)
    mids = grid.thetas + 0.5 * grid.spacing
    below_two_pi = grid.thetas[-1]
    edge = grid.thetas[1000]  # a node, where a step or sector edge lands
    thetas = np.concatenate([grid.thetas, mids, np.random.default_rng(7).uniform(0, TWO_PI, 999)])
    sectors = ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4))
    for alpha in (0.0, below_two_pi, edge):
        plates = [Spiral(ell, alpha) for ell in (0.5, -2.25, 1e6)]
        plates += [Step(math.pi / 3, alpha), BinarySectors(2.0, sectors, alpha),
                   BinarySectors(math.pi, ((edge, TWO_PI),), alpha)]
        for plate in plates:
            got = geometric_profile(plate, thetas)
            assert np.max(np.abs(got - _reference_profile(plate, thetas))) <= 4e-16, plate


@pytest.mark.parametrize("bad", [-1e-12, TWO_PI, 7.0, math.nan, -math.inf])
def test_geometric_profile_rejects_angles_outside_one_turn(bad):
    thetas = np.array([0.0, 1.0, bad])
    for plate in (Spiral(0.5), Step(math.pi), BinarySectors(1.0, ((0.5, 1.0),))):
        with pytest.raises(ValueError):
            geometric_profile(plate, thetas)


def test_cached_samples_follow_the_plate():
    # plates that differ in one field only, alternated so the one entry
    # is replaced on every call
    pairs = [
        (Spiral(2.3), Spiral(2.3, 1.0)),
        (Step(math.pi / 3), Step(2 * math.pi / 3)),
        (BinarySectors(math.pi, ((0.0, 1.0),)), BinarySectors(math.pi, ((0.0, 1.0), (2.0, 3.0)))),
    ]
    for pair in pairs:
        for alpha in (0.5, 1.0, math.pi):
            for plate in pair + pair:
                report = verify_overlap(plate, alpha)
                oracle._unrotated.cache_clear()
                assert verify_overlap(plate, alpha) == report, (plate, alpha)
                assert oracle._unrotated.cache_info().currsize == 1
    assert oracle._unrotated.cache_info().maxsize == 1
    with pytest.raises(ValueError):
        oracle._unrotated(Spiral(2.3), AngularGrid())[0] = 0.0


def test_each_plate_is_sampled_once_per_grid(monkeypatch):
    calls = []
    sample = oracle.geometric_profile

    def counted(plate, thetas):
        calls.append(plate)
        return sample(plate, thetas)

    monkeypatch.setattr(oracle, "geometric_profile", counted)
    oracle._unrotated.cache_clear()
    grid = AngularGrid(256)
    for alpha in (0.5, 1.0, math.pi):
        oracle.quadrature_overlap_probability(Spiral(0.5), alpha, grid)
    # the rotations are shifts of the unrotated samples: one call for three
    assert calls == [Spiral(0.5)]
    oracle.quadrature_overlap_probability(Step(math.pi), 1.0, grid)
    assert calls == [Spiral(0.5), Step(math.pi)]


_SHIFT_PLATES = [
    Spiral(0.5), Spiral(-2.25), Spiral(2.3, 1.0), Step(math.pi / 3), Step(math.pi, 5.0),
    # the sweep's two-sector mask, and a mask whose second sector straddles 0
    BinarySectors(math.pi, ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4))),
    BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)), 3 * math.pi / 4),
]


def _fresh_probability(plate, k, grid):
    """The rotation overlap with the plate rotated by k nodes sampled anew."""
    mids = grid.thetas + 0.5 * grid.spacing
    rotated = geometric_profile(replace(plate, alpha=plate.alpha + k * grid.spacing), mids)
    return abs(complex(np.vdot(geometric_profile(plate, mids), rotated)) / grid.n_points) ** 2


@pytest.mark.parametrize("n, stride", [(256, 1), (97, 1), (4096, 7)])
def test_shifted_samples_equal_the_freshly_sampled_rotation(n, stride):
    grid = AngularGrid(n)
    for plate in _SHIFT_PLATES:
        if n % 2 and plate == Step(math.pi / 3):
            continue  # its far edge lies on a midpoint: see the next test
        for k in range(0, n, stride):
            shifted = oracle.quadrature_overlap_probability(plate, k * grid.spacing, grid)
            assert abs(shifted - _fresh_probability(plate, k, grid)) <= 2e-15, (plate, k)


def test_edge_on_a_midpoint_is_read_alike_at_every_rotation():
    # on an odd grid the edge pi of a node-aligned step lies exactly on a cell
    # midpoint: sampled anew, each rotation reads that cell on whichever side
    # rounding puts it, while the shifted samples read it the same way every
    # time, so their symmetric difference is exactly 2*min(k, n - k) cells
    grid = AngularGrid(97)
    plate = Step(math.pi / 3)
    shifted_error = fresh_error = 0.0
    for k in range(grid.n_points):
        closed = overlap.closed_form_probability(plate, k * grid.spacing)
        shifted = oracle.quadrature_overlap_probability(plate, k * grid.spacing, grid)
        shifted_error = max(shifted_error, abs(shifted - closed))
        fresh_error = max(fresh_error, abs(_fresh_probability(plate, k, grid) - closed))
    assert shifted_error <= 2e-15
    assert fresh_error > 1e-3


def test_verify_overlap_mask_straddling_zero():
    # rotated by 3*pi/4, the second sector runs from 7*pi/4 round through 0
    # to pi/4: the closed form takes its wrapped-tail path
    mask = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)),
                         3 * math.pi / 4)
    for alpha in (0.5, math.pi / 4, math.pi / 2, math.pi, 5.0):
        report = verify_overlap(mask, alpha, tolerance=1e-10)
        assert report.passed, report


def _merge_across_one_radian(original):
    def mutant(sectors, *args):
        merged = []
        for a, b in sorted(sectors):
            if merged and a <= merged[-1][1] + 1.0:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return original(merged, *args)
    return mutant


def test_oracle_catches_a_wrong_interval_table(monkeypatch):
    # the mutant replaces the sector list the covariogram reads, as an edit
    # to overlap._arcs would; an oracle that sampled its states through the
    # same list would agree with the wrong closed form
    monkeypatch.setattr(overlap, "_arcs", _merge_across_one_radian(overlap._arcs))
    mask = BinarySectors(math.pi, ((0.0, math.pi / 4), (math.pi / 2, 3 * math.pi / 4)))
    for alpha in (math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert not verify_overlap(mask, alpha).passed, alpha
    assert not all(report.passed for report in standard_sweep())


@pytest.mark.parametrize("ell", [2.5e15, 1e12 + 0.25, -1e300])
def test_unresolvable_spiral_rejected(ell):
    with pytest.raises(ValueError):
        verify_overlap(Spiral(ell), 1.0)
    with pytest.raises(ValueError):
        verify_bell(Spiral(ell))


def test_verify_fringe_sample():
    report = verify_fringe_sample(Spiral(0.5), 1.234)
    assert report.passed
    assert report.abs_diff < 1e-10


@pytest.mark.parametrize("plate", [Spiral(0.3), Step(math.pi / 2)])
def test_verify_fringe_sample_is_verify_overlap(plate):
    for delta in (0.4, math.pi, 5.1):
        fringe, law = verify_fringe_sample(plate, delta), verify_overlap(plate, delta)
        assert (fringe.closed_form, fringe.oracle, fringe.passed) == (
            law.closed_form, law.oracle, law.passed)


def test_verify_bell_both_setting_families():
    assert verify_bell(Spiral(0.5)).passed
    assert verify_bell(Step(math.pi), POLARIZATION_SETTINGS).passed


def test_write_jsonl(tmp_path):
    reports = [verify_overlap(Spiral(0.5), 1.0)]
    path = tmp_path / "reports.jsonl"
    write_jsonl(reports, path)
    doc = json.loads(path.read_text().strip())
    assert doc["passed"] is True
    assert doc["grid_size"] == 4096


def test_quadrature_radial_overlaps_match_closed_form():
    # the criterion-6 window of the l = 5/2 plate, at its quadrature order
    for l in range(-58, 64):
        np.testing.assert_allclose(quadrature_radial_overlaps(l, 200, 558),
                                   radial_overlaps(l, 200), rtol=0, atol=1e-12)


def test_quadrature_radial_overlaps_use_two_rules():
    # x^floor(|l|/2) folds into the weights: the rules for alpha = 0 and
    # 1/2 serve the whole window, not one rule per |l|
    oracle._gl_rule.cache_clear()
    for l in range(-58, 64):
        quadrature_radial_overlaps(l, 200, 558)
    assert oracle._gl_rule.cache_info().currsize == 2
    # the cached rules are shared by every caller
    nodes, log_weights = oracle._gl_rule(558, 0.5)
    assert not nodes.flags.writeable and not log_weights.flags.writeable


def _imports(path):
    """Every module and name that the source file at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_oracle_does_not_import_lgfield():
    # an oracle built on the code it checks would check nothing
    names = _imports(oracle.__file__)
    assert not any("lgfield" in name for name in names), names


def test_no_program_module_but_cli_imports_oracle():
    # the closed forms must not lean on the oracle that checks them: only
    # the command line, which runs the checks, imports it, at any depth
    importers = [path.name for path in sorted(Path(oracle.__file__).parent.glob("*.py"))
                 if path.name not in ("cli.py", "oracle.py")
                 and any("oracle" in name for name in _imports(path))]
    assert not importers
    assert "oracle" in _imports(Path(oracle.__file__).with_name("cli.py"))


def test_no_program_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module alone: what
    # another module needs goes through a public name
    leaks = []
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("oamsim")):
                leaks += [(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert not leaks


def test_oracle_does_not_import_the_closed_form_machinery():
    # the oracle may import the laws it checks, never what builds them
    machinery = {"_pieces", "profile", "sector_intervals", "wrap_intervals", "plate_state",
                 "inner_product", "ClosedForm", "covariogram", "_arcs"}
    assert not machinery & _imports(oracle.__file__)


# public functions that only tests call, each with the ROADMAP item that
# will call it from the program or delete it; the list may only shrink
_UNCALLED = {
    "chsh_s_exact": "13: bell JSON records S_exact",
    "s4_certificate": "13: search JSON records the certificate",
    "fractional_tail_bound": "3: the Schmidt-sum fringe's tolerance",
    "quadrature_radial_overlaps": "7(a): a verify report on the LG counts",
    "verify_fringe_sample": "2: benchmark v2 deletes it with twophoton",
}


def test_every_public_function_has_a_caller_in_the_program():
    # a use is a load of the name, outside its own definition, or an import
    # of it by a program module; the package's re-exports in __init__ are
    # not uses
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(oracle.__file__).parent.glob("*.py"))}
    uses = set()  # of (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.add((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.add((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and module != "__init__.py":
                uses.update((module, node.lineno, alias.name) for alias in node.names)
    uncalled = {
        node.name for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(name == node.name and not (
            where == module and node.lineno <= line <= node.end_lineno)
            for where, line, name in uses)}
    assert uncalled == set(_UNCALLED)

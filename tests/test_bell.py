"""Tests for CHSH correlations, the exact rational path, and the mask search."""

import inspect
import math
import re
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from oamsim import bell, overlap
from oamsim.angular import TWO_PI, wrap_angle
from oamsim.bell import (
    POLARIZATION_SETTINGS,
    POLARIZATION_SETTINGS_PI,
    SPIRAL_SETTINGS,
    SPIRAL_SETTINGS_PI,
    BellSettings,
    DegenerateFringeError,
    chsh_s,
    chsh_s_exact,
    s4_certificate,
    search_max_s,
)
from oamsim.overlap import (
    UnsupportedAnalyzerError,
    closed_form_probability,
    closed_form_probability_exact,
    sample_curve,
)
from oamsim.plates import BinarySectors, Spiral, Step


def _plate_fringe(plate):
    return lambda delta: closed_form_probability(plate, delta)


def test_settings_validation():
    with pytest.raises(ValueError):
        BellSettings(0.0, 1.0, 0.0, 1.0, 0.0)


def test_radian_settings_are_the_fractions_of_pi_written_out():
    # built from the exact path's fractions, bit for bit the paper's angles
    assert SPIRAL_SETTINGS == BellSettings(-math.pi / 4, math.pi / 4, -math.pi / 2, 0.0, math.pi)
    assert POLARIZATION_SETTINGS == BellSettings(
        -math.pi / 8, math.pi / 8, -math.pi / 4, 0.0, math.pi / 2)


def test_half_integer_spiral_correlations():
    values = list(chsh_s(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS).e.values())
    assert values == pytest.approx([0.8, -0.8, 0.8, 0.8], abs=1e-12)


def test_spiral_bell_parameter():
    result = chsh_s(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    assert len(result.p) == 16


def test_spiral_bell_parameter_exact():
    s = chsh_s_exact(lambda t: closed_form_probability_exact(Spiral(0.5), t),
                     SPIRAL_SETTINGS_PI)
    assert s == Fraction(16, 5)


@pytest.mark.parametrize("lam,s", [
    (Fraction(1, 6), Fraction(16, 53)), (Fraction(1, 4), Fraction(16, 21)),
    (Fraction(1, 3), Fraction(48, 31)), (Fraction(1, 2), Fraction(16, 5))])
def test_fractional_spiral_bell_parameter_exact(lam, s):
    # S = 16 s2 / (16 - 11 s2) with s2 = sin^2(lam pi), the same at the mirror step
    for ell in (float(lam), float(1 - lam), 1 + float(lam)):
        exact = chsh_s_exact(lambda t: closed_form_probability_exact(Spiral(ell), t),
                             SPIRAL_SETTINGS_PI)
        assert exact == s
        assert chsh_s(_plate_fringe(Spiral(ell)), SPIRAL_SETTINGS).s == pytest.approx(
            float(s), abs=1e-12)


@pytest.mark.parametrize("ell", [0.3, 1.3, 0.4, -0.1, 0.5 + 1e-9])
def test_irrational_sin2_has_no_exact_bell_parameter(ell):
    with pytest.raises(UnsupportedAnalyzerError):
        chsh_s_exact(lambda t: closed_form_probability_exact(Spiral(ell), t), SPIRAL_SETTINGS_PI)


def _spiral_s(lam):
    return chsh_s(_plate_fringe(Spiral(lam)), SPIRAL_SETTINGS).s


def test_spiral_bell_parameter_over_the_fractional_step():
    for lam in np.linspace(0.01, 0.99, 99):
        s2 = math.sin(math.pi * lam) ** 2
        assert _spiral_s(lam) == pytest.approx(16 * s2 / (16 - 11 * s2), abs=1e-12)


def test_spiral_bell_parameter_crossings():
    # S = 2 where sin^2(lam pi) = 16/19
    lam_2 = math.asin(math.sqrt(16 / 19)) / math.pi
    assert lam_2 == pytest.approx(0.36993, abs=1e-5)
    assert _spiral_s(lam_2) == pytest.approx(2.0, abs=1e-12)
    # S = 2 sqrt(2), found by bisection on the increasing S of lam in [0, 1/2]
    lo, hi = lam_2, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _spiral_s(mid) < 2 * math.sqrt(2) else (lo, mid)
    assert lo == pytest.approx(0.4364, abs=1e-4)


def test_step_pi_bell_parameter():
    result = chsh_s(_plate_fringe(Step(math.pi)), POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    exact = chsh_s_exact(lambda t: closed_form_probability_exact(Step(math.pi), t),
                         POLARIZATION_SETTINGS_PI)
    assert exact == Fraction(16, 5)


def test_step_half_pi_bell_parameter():
    result = chsh_s(_plate_fringe(Step(math.pi / 2)), SPIRAL_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)
    exact = chsh_s_exact(lambda t: closed_form_probability_exact(Step(math.pi / 2), t),
                         SPIRAL_SETTINGS_PI)
    assert exact == Fraction(16, 5)


def test_cosine_squared_fringe_gives_quantum_bound():
    result = chsh_s(lambda d: math.cos(d) ** 2, POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_degenerate_fringe_raises():
    with pytest.raises(DegenerateFringeError):
        chsh_s(lambda d: 0.0, SPIRAL_SETTINGS)
    # the exact path treats only an exactly zero sum as degenerate
    with pytest.raises(DegenerateFringeError):
        chsh_s_exact(lambda t: Fraction(0), SPIRAL_SETTINGS_PI)
    assert chsh_s_exact(lambda t: Fraction(1, 10**30), SPIRAL_SETTINGS_PI) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_rate_sum_raises_naming_its_setting_pair(value):
    # a NaN or infinite rate gives no E: one fringe raises, while in a batch
    # it makes the row's S NaN, which the mask search scores -inf
    with pytest.raises(ValueError, match=re.escape(f"settings {SPIRAL_SETTINGS.pairs()[0]}")):
        chsh_s(lambda d: value, SPIRAL_SETTINGS)
    batch = np.array([0.25, value])
    s = bell._chsh(lambda d: batch, wrap_angle, SPIRAL_SETTINGS.pairs(), math.pi,
                   bell._FLOAT_FLOOR)[0]
    assert s[0] == 0.0 and np.isnan(s[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_batch_row_that_is_no_rate_reads_nan_and_leaves_the_others_alone():
    # an infinite, NaN or vanishing row reads NaN without an inf - inf, and
    # every finite row keeps its one-fringe S bit for bit
    plates = (Spiral(0.5), Spiral(0.3), Step(math.pi / 2))
    rows = [*(_plate_fringe(p) for p in plates), lambda d: math.inf, lambda d: math.nan,
            lambda d: 0.0]
    order = (0, 3, 1, 4, 5, 2)
    s = bell._chsh(lambda d: np.array([rows[i](d) for i in order]), wrap_angle,
                   SPIRAL_SETTINGS.pairs(), SPIRAL_SETTINGS.perp_offset, bell._FLOAT_FLOOR)[0]
    assert np.isnan(s[[1, 3, 4]]).all()
    assert [s[0], s[2], s[5]] == [chsh_s(rows[i], SPIRAL_SETTINGS).s for i in (0, 1, 2)]


# its fringe and the fringe half a turn on both vanish at the relative angle
# -pi/4 of (a1, a2)
_VANISHING_MASK = BinarySectors(math.pi, ((0.0, math.pi / 2), (math.pi, 3 * math.pi / 2)))


def test_numpy_scalar_fringe_keeps_the_scalar_path():
    with pytest.raises(DegenerateFringeError):
        chsh_s(lambda d: np.float64(closed_form_probability(_VANISHING_MASK, d)), SPIRAL_SETTINGS)
    cos2 = chsh_s(lambda d: math.cos(d) ** 2, POLARIZATION_SETTINGS)
    assert chsh_s(lambda d: np.float64(math.cos(d) ** 2), POLARIZATION_SETTINGS).s == cos2.s


def test_batch_with_a_vanishing_row_scores_minus_inf():
    mask = BinarySectors(math.pi, ((0.3, 1.1), (2.0, 4.0)))
    batch = np.array([[v for sector in m.sectors for v in sector] for m in (_VANISHING_MASK, mask)])
    s = bell._mask_scorer(math.pi, SPIRAL_SETTINGS)(batch)
    assert s[0] == -math.inf
    assert s[1] == pytest.approx(chsh_s(_plate_fringe(mask), SPIRAL_SETTINGS).s, abs=1e-12)
    # a batch is told from a scalar by its ndim, not by a numpy type check
    assert "ndarray" not in inspect.getsource(bell)


def test_result_serialization(tmp_path):
    result = chsh_s(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS, fringe_id="test")
    doc = result.to_dict()
    assert doc["S"] == pytest.approx(3.2)
    assert set(doc["E"]) == {"a1a2", "a1pa2", "a1a2p", "a1pa2p"}
    path = tmp_path / "bell.json"
    result.write_json(path)
    assert path.read_text().startswith("{")


def test_half_plane_mask_bell_parameter():
    # the half-plane mask at phi=pi has a pi-periodic fringe: use the
    # polarization-standard settings, matching the step-plate case
    mask = BinarySectors(math.pi, ((0.0, math.pi),))
    result = chsh_s(_plate_fringe(mask), POLARIZATION_SETTINGS)
    assert result.s == pytest.approx(3.2, abs=1e-12)


def test_quarter_sector_mask_reaches_four_exactly():
    # S = 4 certified in exact arithmetic, sectors and angles in units of pi
    quarter = BinarySectors(math.pi, ((0.0, math.pi / 2),))
    s = chsh_s_exact(lambda t: closed_form_probability_exact(quarter, t), SPIRAL_SETTINGS_PI)
    assert s == Fraction(4) and isinstance(s, Fraction)
    # the half-plane mask is the phi = pi step plate, on the exact path too
    mask = BinarySectors(math.pi, ((0.0, math.pi),))

    def half(t):
        return closed_form_probability_exact(mask, t)

    for k in range(16):
        t = Fraction(k, 8)
        assert half(t) == closed_form_probability_exact(Step(math.pi), t)
    assert chsh_s_exact(half, POLARIZATION_SETTINGS_PI) == Fraction(16, 5)


def test_s4_certificate_rejects_parabolic_fringe():
    cert = s4_certificate(_plate_fringe(Spiral(0.5)), SPIRAL_SETTINGS)
    assert not cert["passed"]


def test_search_validation():
    with pytest.raises(ValueError):
        search_max_s(0, math.pi)
    with pytest.raises(ValueError):
        search_max_s(3, math.pi, budget=-1)
    with pytest.raises(ValueError):
        search_max_s(3, math.pi, budget=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        search_max_s(3, math.pi, seed=-1)


def test_search_takes_any_integer_seed():
    # numpy integers and bools seed the search as the int they equal
    expected = search_max_s(2, math.pi, budget=300, seed=1)
    for seed in (np.int64(1), np.uint8(1), True):
        assert search_max_s(2, math.pi, budget=300, seed=seed) == expected


@pytest.mark.parametrize("seed", [1.5, 3.0, "3"])
def test_search_rejects_a_seed_that_is_no_integer(seed):
    with pytest.raises(TypeError, match="seed must be an integer, not (float|str)"):
        search_max_s(2, math.pi, budget=300, seed=seed)


def test_search_budget_zero_evaluates_initial_mask():
    mask = BinarySectors(math.pi, ((0.0, math.pi),))
    result = search_max_s(1, math.pi, settings=POLARIZATION_SETTINGS, budget=0, init_mask=mask)
    assert result.mask == mask
    assert result.s == pytest.approx(3.2, abs=1e-12)


def test_search_rejects_an_initial_mask_of_another_phi():
    # the search would score the quarter mask at its own phi = pi, S = 4,
    # and hand it back with phi = pi/2, where its S is 1.54
    quarter = BinarySectors(math.pi / 2, ((0.0, math.pi / 2),))
    s_quarter = chsh_s(_plate_fringe(quarter), SPIRAL_SETTINGS).s
    assert s_quarter == pytest.approx(1.538, abs=1e-3)
    with pytest.raises(ValueError, match="phi"):
        search_max_s(1, math.pi, budget=0, init_mask=quarter)
    assert search_max_s(1, math.pi / 2, budget=0, init_mask=quarter).s == s_quarter


def _descend_one_trial_at_a_time(objective, x, s_cur, max_evals, step, on_improvement):
    """One row's coordinate descent with every trial scored alone, in the
    order a sweep visits them: the loop _descend must reproduce. Hands each
    improvement to on_improvement(S, x) and returns the trials made."""
    used = 0
    while used < max_evals and step > 1e-12:
        improved = False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                if used >= max_evals:
                    return used
                trial = x.copy()
                trial[i] += sign * step
                s_new = objective(trial)
                used += 1
                if s_new > s_cur:
                    x, s_cur, improved = trial, s_new, True
                    on_improvement(s_new, trial)
                    break
        if not improved:
            step *= 0.5
    return used


def _search_one_trial_at_a_time(sector_count, phi, settings, budget, seed, init_mask=None):
    """search_max_s with the random starts run one after another and every
    trial scored alone: the reference the lockstep descent and its replay
    must reproduce."""
    score = bell._mask_scorer(phi, settings)
    evals, trace, best = 0, [], {"s": -math.inf, "key": None, "x": None}

    def objective(x):
        nonlocal evals
        evals += 1
        return float(score(x[None, :])[0])

    def consider(s, x):
        b = np.sort(np.mod(x, TWO_PI))
        key = tuple(zip(b[0::2].tolist(), b[1::2].tolist()))
        if s > best["s"] or (s == best["s"] > -math.inf and key < best["key"]):
            best.update(s=s, key=key, x=x.copy())
            trace.append((evals, s))

    if init_mask is not None:
        x = np.array([v for ab in init_mask.sectors for v in ab])
        consider(objective(x), x)
    explore = max(budget // 2, 1)
    for start in range(bell._N_STARTS):
        if evals >= explore:
            break
        rng = np.random.default_rng(seed * 7919 + start)
        x = np.sort(rng.uniform(0.0, TWO_PI, size=2 * sector_count))
        s = objective(x)
        consider(s, x)
        per_start = min(max(explore // bell._N_STARTS, 1), budget - evals)
        _descend_one_trial_at_a_time(objective, x, s, per_start, math.pi / 4, consider)
    if evals < budget:
        _descend_one_trial_at_a_time(objective, best["x"].copy(), best["s"], budget - evals,
                                     math.pi / 8, consider)
    return BinarySectors(phi, best["key"]), best["s"], tuple(trace)


def _assert_same_search(sector_count, phi, settings, budget, seed, init_mask=None):
    result = search_max_s(sector_count, phi, settings, budget=budget, seed=seed,
                          init_mask=init_mask)
    reference = _search_one_trial_at_a_time(sector_count, phi, settings, budget, seed, init_mask)
    assert (result.mask, result.s, result.trace) == reference
    assert result.trace[-1][0] <= budget


@pytest.mark.parametrize("settings", [SPIRAL_SETTINGS, POLARIZATION_SETTINGS],
                         ids=["spiral", "polarization"])
@pytest.mark.parametrize("sector_count", [1, 2, 3, 4])
def test_batched_descent_makes_the_decisions_of_one_trial_at_a_time(sector_count, settings):
    # budgets that are no multiple of a sweep's trials run out inside one;
    # at budgets 1-3 the first start alone explores, at 127 the starts
    # take two evaluations each and the cut-off falls after start 31
    for seed, budget in ((0, 301), (4, 1203), (1, 1), (2, 2), (3, 3), (5, 127)):
        _assert_same_search(sector_count, math.pi, settings, budget, seed)


@pytest.mark.parametrize("sector_count, phi, settings, budget, seed, init", [
    # 15 trials a start: the cut-off at 1000 evaluations falls before start 64
    (3, math.pi, SPIRAL_SETTINGS, 2000, 6, None),
    (2, math.pi, POLARIZATION_SETTINGS, 301, 8, ((0.0, 1.0), (2.0, 3.5))),
    (1, math.pi, SPIRAL_SETTINGS, 2, 0, ((0.0, math.pi / 3),)),
    (3, math.pi / 2, SPIRAL_SETTINGS, 1203, 9, None),
    (2, math.pi / 2, POLARIZATION_SETTINGS, 301, 10, None),
    (2, math.pi, SPIRAL_SETTINGS, 20000, 11, None),
    # one sector at phi = 2 stays far below the ceiling, at S = 2.37
    (1, 2.0, POLARIZATION_SETTINGS, 2000, 12, None),
    # the largest search the CLI admits
    (16, math.pi, SPIRAL_SETTINGS, 2000, 13, None),
    # the polish's last round looks three sweeps ahead, and its budget runs
    # out in the third
    (2, math.pi, POLARIZATION_SETTINGS, 374, 15, None),
    # the polish starts at S = 4 and is charged its trials unscored
    (1, math.pi, SPIRAL_SETTINGS, 301, 14, ((0.0, math.pi / 2),)),
], ids=["cut-off-before-last-start", "init-then-search", "init-then-polish",
        "half-pi-spiral", "half-pi-polarization", "full-budget", "phi-2-below-ceiling",
        "sixteen-sectors", "budget-ends-in-lookahead", "init-at-ceiling"])
def test_lockstep_starts_replay_the_sequential_search(sector_count, phi, settings, budget,
                                                      seed, init):
    init_mask = None if init is None else BinarySectors(phi, init)
    _assert_same_search(sector_count, phi, settings, budget, seed, init_mask)


def test_budget_one_evaluates_the_first_start():
    result = search_max_s(3, math.pi, budget=1, seed=0)
    assert math.isfinite(result.s)
    assert result.trace == ((1, result.s),)


# sector ends on the pi/4 lattice, where the fringe zeros that give S = 4
# meet the settings, outside [0, 2*pi] as a descent's trials reach, or anywhere
_BOUNDARY = st.one_of(st.integers(-2, 10).map(lambda k: k * math.pi / 4),
                      st.floats(-1.0, TWO_PI + 1.0))


@st.composite
def _mask_batches(draw):
    """(rows, 2k) boundary vectors of 1-16 sectors, some boundaries copied
    onto the next so that sectors touch or have zero width."""
    k, rows = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    b = np.sort(np.array(draw(st.lists(_BOUNDARY, min_size=rows * 2 * k,
                                       max_size=rows * 2 * k))).reshape(rows, 2 * k), axis=-1)
    for j in draw(st.lists(st.integers(1, 2 * k - 1), max_size=2 * k)):
        b[:, j] = b[:, j - 1]
    return b


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(batch=_mask_batches(), phi=st.sampled_from([math.pi, math.pi / 2, 2.0]),
                  analyzers=st.sampled_from([SPIRAL_SETTINGS, POLARIZATION_SETTINGS]))
@hypothesis.example(batch=np.array([[0.0, math.pi / 2]]), phi=math.pi, analyzers=SPIRAL_SETTINGS)
def test_no_mask_scores_above_the_ceiling(batch, phi, analyzers):
    # the premise that lets the search stop scoring a mask at S = 4.0
    assert (bell._mask_scorer(phi, analyzers)(batch) <= bell._S_CEILING).all()


def _descent_reference(score, x, s, max_evals, step):
    """_descend's (used, events) for each row, from the one-trial loop."""
    out = []
    for row, s_row in zip(x, s):
        used, events = 0, []

        def objective(trial):
            nonlocal used
            used += 1
            return float(score(trial[None, :])[0])

        _descend_one_trial_at_a_time(objective, row, s_row, max_evals, step,
                                     lambda s_new, trial: events.append((used, s_new, trial)))
        out.append((used, events))
    return out


def _same_descent(got, reference):
    used, events = got
    assert used.tolist() == [u for u, _ in reference]
    for row, (_, ref_events) in zip(events, reference):
        assert [(u, s) for u, s, _ in row] == [(u, s) for u, s, _ in ref_events]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(row, ref_events))


def test_a_row_at_the_ceiling_is_charged_without_a_score_call():
    score = bell._mask_scorer(math.pi, SPIRAL_SETTINGS)
    quarter = np.array([[0.0, math.pi / 2]])
    s = score(quarter)
    assert s.tolist() == [4.0]

    def no_call(trials):
        raise AssertionError("a row at the ceiling was scored")

    # budgets that end inside the first sweep, a later one, and none
    for max_evals in (1, 3, 50, 10000):
        got = bell._descend(no_call, quarter, s, max_evals, math.pi / 8)
        _same_descent(got, _descent_reference(score, quarter, s, max_evals, math.pi / 8))
        # 39 sweeps of 4 trials, at steps pi/8 to pi/8 / 2**38 > 1e-12
        assert got[0].tolist() == [min(max_evals, 4 * 39)]


@pytest.mark.parametrize("max_evals", [2, 37, 150, 1000])
@pytest.mark.parametrize("step", [math.pi / 8, 1e-9])
def test_rows_at_and_below_the_ceiling_descend_as_one_trial_at_a_time(max_evals, step):
    # a row that starts at the ceiling, rows that may reach it, and one that
    # cannot, in one batch: charged once, looking ahead as the round empties
    score = bell._mask_scorer(math.pi, SPIRAL_SETTINGS)
    x = np.array([[0.0, math.pi / 2], [0.1, 1.4], [2.0, 3.0], [1.0, 4.5]])
    s = score(x)
    got = bell._descend(score, x, s, max_evals, step)
    _same_descent(got, _descent_reference(score, x, s, max_evals, step))


def test_no_covariogram_call_exceeds_the_element_cap(monkeypatch):
    # the largest inputs the CLI admits: 16 sectors, 100000 fringe samples
    sizes = []
    covariogram = overlap.covariogram

    def checked(starts, widths, deltas, period=TWO_PI, scratch=None):
        k = np.shape(starts)[-1]
        sizes.append(np.size(starts) * k * len(deltas))
        return covariogram(starts, widths, deltas, period, scratch)

    monkeypatch.setattr(overlap, "covariogram", checked)
    search_max_s(16, math.pi, budget=2000, seed=0)
    mask = BinarySectors(math.pi, tuple((0.3 * i, 0.3 * i + 0.2) for i in range(16)))
    sample_curve(mask, 100000)
    assert sizes and max(sizes) <= overlap._COVARIOGRAM_ELEMENTS


def test_bench_shaped_searches_score_in_few_full_rounds(monkeypatch):
    # a work ratchet on the six searches of a benchmark bell round: score
    # calls and scored rows may not grow back (rounds that neither look
    # ahead nor stop at the ceiling made 492 calls and 87175 rows here)
    calls, rows = 0, 0
    scorer = bell._mask_scorer

    def counting_scorer(phi, settings):
        score = scorer(phi, settings)

        def counted(trials):
            nonlocal calls, rows
            calls, rows = calls + 1, rows + len(trials)
            return score(trials)

        return counted

    monkeypatch.setattr(bell, "_mask_scorer", counting_scorer)
    for sector_count in (2, 3, 4):
        for settings in (SPIRAL_SETTINGS, POLARIZATION_SETTINGS):
            search_max_s(sector_count, math.pi, settings, budget=20000, seed=0)
    assert calls <= 229 and rows <= 79529


def test_search_is_deterministic():
    a = search_max_s(2, math.pi, budget=800, seed=7)
    b = search_max_s(2, math.pi, budget=800, seed=7)
    assert a.mask == b.mask
    assert a.s == b.s
    assert a.trace == b.trace


def test_search_improves_over_budget():
    small = search_max_s(3, math.pi, budget=500, seed=0)
    large = search_max_s(3, math.pi, budget=4000, seed=0)
    assert large.s >= small.s
    assert large.s > 3.2  # beats every single-sector plate law


def test_search_result_serialization(tmp_path):
    result = search_max_s(2, math.pi, budget=300, seed=1)
    path = tmp_path / "mask.json"
    result.write_json(path)
    text = path.read_text()
    assert '"S"' in text and '"mask"' in text

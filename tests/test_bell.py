"""Tests for CHSH correlations, the exact rational path, and the mask search."""

import inspect
import math
import random
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


def _climb(score, x, budget, step):
    """_maximise over the rows of x with every score call recorded: returns
    the rows' initial S and the rounds as (batch scored, trials, moved rows,
    their S, their points), each moved row being the one row its new point
    is a trial of."""
    calls = []

    def recording(trials):
        calls.append(trials.copy())
        return score(trials)

    s0, x = score(x), x.copy()
    rounds = []
    for trials, s_moved, x_moved in bell._maximise(recording, x, s0, budget, step):
        rows = []
        for point in x_moved:
            (i,) = [i for i, row in enumerate(x) if _trials_of(row, point[None, :]) == 1]
            rows.append(i)
        rounds.append((calls[-1], trials, np.array(rows, dtype=int), s_moved, x_moved))
        x[rows] = x_moved
    assert len(calls) == len(rounds)
    return s0, rounds


def _trials_of(point, batch):
    """The rows of a batch one coordinate step away from point: its trials."""
    return int(((batch != point).sum(axis=1) == 1).sum())


# a row at the ceiling, rows that reach it, and one that cannot, in one batch
_CLIMB_ROWS = np.array([[0.0, math.pi / 2], [0.1, 1.4], [2.0, 3.0], [1.0, 4.5]])


@pytest.mark.parametrize("budget", [1, 3, 37, 150, 1000])
@pytest.mark.parametrize("step", [math.pi / 8, 1e-9])
def test_each_move_strictly_improves_its_row_within_its_budget(budget, step):
    score = bell._mask_scorer(math.pi, SPIRAL_SETTINGS)
    s0, rounds = _climb(score, _CLIMB_ROWS, budget, step)
    s, x = s0.copy(), _CLIMB_ROWS.copy()
    used = np.zeros(len(x), dtype=int)
    for batch, trials, rows, s_moved, x_moved in rounds:
        counts = [_trials_of(point, batch) for point in x]
        assert sum(counts) == trials == len(batch)
        used += counts
        assert (np.diff(rows) > 0).all()
        for i, s_new, x_new in zip(rows.tolist(), s_moved.tolist(), x_moved):
            # a move is one of the row's trials, scoring strictly above it
            assert s_new > s[i]
            assert score(x_new[None, :]).tolist() == [s_new]
            s[i], x[i] = s_new, x_new
    assert used.max() <= budget
    assert used[0] == 0 and s.max() <= bell._S_CEILING


def test_a_row_at_the_ceiling_is_never_scored_again():
    def no_call(trials):
        raise AssertionError("a row at the ceiling was scored")

    quarter = _CLIMB_ROWS[:1]
    for budget in (1, 50, 10000):
        assert list(bell._maximise(no_call, quarter, [4.0], budget, math.pi / 8)) == []
    # a row that climbs to 4.0 leaves the later rounds' batches
    s0, rounds = _climb(bell._mask_scorer(math.pi, SPIRAL_SETTINGS), _CLIMB_ROWS, 1000,
                        math.pi / 8)
    reached = 0
    for n, (_, _, rows, s_moved, x_moved) in enumerate(rounds):
        for s_new, x_new in zip(s_moved.tolist(), x_moved):
            if s_new == 4.0:
                reached += 1
                assert all(_trials_of(x_new, later[0]) == 0 for later in rounds[n + 1:])
    assert reached >= 1 and s0[0] == 4.0


def test_a_round_moves_to_the_first_of_equal_best_trials():
    # all four trials of (0, 0) reach the unit circle, where S peaks at the
    # ceiling 4.0; the first, a step up coordinate 0, is taken and ends the climb
    rounds = bell._maximise(lambda x: 4.0 - abs((x ** 2).sum(axis=1) - 1), np.zeros((1, 2)),
                            [3.0], 100, 1.0)
    trials, s, x = next(rounds)
    assert (trials, s.tolist(), x.tolist()) == (4, [4.0], [[1.0, 0.0]])
    assert list(rounds) == []


def _recording_scorer(monkeypatch):
    """Record each score call of the mask search as (its batch, their S);
    returns the list the calls are appended to."""
    calls = []
    scorer = bell._mask_scorer

    def recording(phi, settings):
        score = scorer(phi, settings)

        def recorded(trials):
            s = score(trials)
            calls.append((trials.copy(), s))
            return s

        return recorded

    monkeypatch.setattr(bell, "_mask_scorer", recording)
    return calls


_SEARCH_CASES = pytest.mark.parametrize("sector_count, phi, settings, budget, seed, init", [
    (3, math.pi, SPIRAL_SETTINGS, 2000, 6, None),
    (2, math.pi, POLARIZATION_SETTINGS, 301, 8, ((0.0, 1.0), (2.0, 3.5))),
    (1, math.pi, SPIRAL_SETTINGS, 2, 0, ((0.0, math.pi / 3),)),
    (1, math.pi, SPIRAL_SETTINGS, 1, 3, None),
    (1, math.pi, SPIRAL_SETTINGS, 3, 3, None),
    (3, math.pi / 2, SPIRAL_SETTINGS, 1203, 9, None),
    (2, math.pi / 2, POLARIZATION_SETTINGS, 127, 10, None),
    # one sector at phi = 2 stays far below the ceiling, at S = 2.37
    (1, 2.0, POLARIZATION_SETTINGS, 2000, 12, None),
    (16, math.pi, SPIRAL_SETTINGS, 2000, 13, None),
    (1, math.pi, SPIRAL_SETTINGS, 301, 14, ((0.0, math.pi / 2),)),
    # two sectors reach 4.0 in the first round of the climb, with other starts still climbing
    (2, math.pi, SPIRAL_SETTINGS, 2000, 1, None),
], ids=["spiral", "init-then-search", "init-then-polish", "budget-one", "first-start-alone",
        "half-pi-spiral", "two-trials-a-start", "phi-2-below-ceiling", "sixteen-sectors",
        "init-at-ceiling", "four-in-the-climb"])


def _search_case(monkeypatch, sector_count, phi, settings, budget, seed, init):
    """One search of _SEARCH_CASES with its score calls recorded: (result, calls)."""
    calls = _recording_scorer(monkeypatch)
    init_mask = None if init is None else BinarySectors(phi, init)
    return search_max_s(sector_count, phi, settings, budget=budget, seed=seed,
                        init_mask=init_mask), calls


@_SEARCH_CASES
def test_the_trace_rises_strictly_within_the_budget(monkeypatch, sector_count, phi, settings,
                                                    budget, seed, init):
    result, calls = _search_case(monkeypatch, sector_count, phi, settings, budget, seed, init)
    counts, s = zip(*result.trace)
    assert all(a < b for a, b in zip(s, s[1:])) and s[-1] == result.s
    assert list(counts) == sorted(counts) and counts[-1] <= sum(len(b) for b, _ in calls) <= budget


@_SEARCH_CASES
def test_no_score_call_follows_one_that_reaches_the_ceiling(monkeypatch, sector_count, phi,
                                                          settings, budget, seed, init):
    # no float S exceeds 4.0, so a search whose best reaches it is done
    result, calls = _search_case(monkeypatch, sector_count, phi, settings, budget, seed, init)
    reached = [n for n, (_, s) in enumerate(calls) if (s == bell._S_CEILING).any()]
    assert reached == ([len(calls) - 1] if result.s == bell._S_CEILING else [])


def test_a_search_that_reaches_the_ceiling_at_once_scores_once(monkeypatch):
    # the default search reaches 4.0 among its starts, and a quarter-sector
    # initial mask scores 4.0 itself, before any start is drawn
    calls = _recording_scorer(monkeypatch)
    assert search_max_s(3, math.pi).s == bell._S_CEILING
    assert [len(batch) for batch, _ in calls] == [bell._N_STARTS]
    calls.clear()
    quarter = BinarySectors(math.pi, ((0.0, math.pi / 2),))
    result = search_max_s(1, math.pi, budget=301, seed=14, init_mask=quarter)
    assert [len(batch) for batch, _ in calls] == [1]
    assert result.mask == quarter and result.trace == ((1, bell._S_CEILING),)


def _least_sectors_start(sector_count, seed):
    """The sectors of the least of a search's random starts."""
    rng = random.Random(seed)
    starts = [sorted(TWO_PI * rng.random() for _ in range(2 * sector_count))
              for _ in range(bell._N_STARTS)]
    return min(tuple(zip(b[0::2], b[1::2])) for b in starts)


def test_equal_s_keeps_the_least_sectors(monkeypatch):
    # every mask scores alike, so no move improves, the result is the start
    # of the least sectors and the trace holds only the first best
    monkeypatch.setattr(bell, "_mask_scorer", lambda phi, settings: lambda x: np.ones(len(x)))
    result = search_max_s(2, math.pi, budget=400, seed=5)
    assert result.mask.sectors == _least_sectors_start(2, 5)
    assert result.trace == ((bell._N_STARTS, 1.0),)


def test_equal_s_at_the_ceiling_keeps_the_least_sectors_of_the_round(monkeypatch):
    # every mask scores 4.0, so the starts' one call ends the search, and
    # its whole batch is still offered to the least-sectors tie-break
    monkeypatch.setattr(bell, "_mask_scorer", lambda phi, settings: lambda x: np.full(len(x), 4.0))
    calls = _recording_scorer(monkeypatch)
    result = search_max_s(2, math.pi, budget=400, seed=5)
    assert [len(batch) for batch, _ in calls] == [bell._N_STARTS]
    assert result.mask.sectors == _least_sectors_start(2, 5)
    assert result.trace == ((bell._N_STARTS, 4.0),)


@pytest.mark.parametrize("budget", [2000, 20000])
@pytest.mark.parametrize("sector_count", [1, 2, 3, 4])
def test_every_spiral_search_of_few_sectors_reaches_four(sector_count, budget):
    assert {search_max_s(sector_count, math.pi, budget=budget, seed=seed).s
            for seed in range(20)} == {4.0}


def test_the_one_sector_polarization_optimum():
    result = search_max_s(1, math.pi, POLARIZATION_SETTINGS, budget=20000, seed=0)
    assert "%.12g" % result.s == "3.32057416268"


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
    # calls and scored rows may not grow back (a descent that replayed a
    # one-trial-at-a-time loop made 214 calls and 76479 rows here, and a
    # search that went on scoring past S = 4.0 164 calls and 49224 rows)
    calls = _recording_scorer(monkeypatch)
    for sector_count in (2, 3, 4):
        for settings in (SPIRAL_SETTINGS, POLARIZATION_SETTINGS):
            search_max_s(sector_count, math.pi, settings, budget=20000, seed=0)
    assert len(calls) <= 117 and sum(len(batch) for batch, _ in calls) <= 27244


def test_bench_shaped_searches_read_few_covariogram_elements(monkeypatch):
    # a work ratchet on the covariogram elements, rows * k**2 * angles, of
    # the six searches of a benchmark bell round: the mask law takes |M|
    # from the widths and reads C only at the distinct folded angles, 6 of
    # the spiral settings and 8 of the polarization ones, none of them zero
    # (a delta = 0 column for |M| and the unfolded 8 and 10 angles read
    # 7716965 elements here, the replayed descent 5447646, and the search
    # that went on scoring past S = 4.0 3425880)
    elements, angles = 0, set()
    covariogram = overlap.covariogram

    def counted(starts, widths, deltas, period=TWO_PI, scratch=None):
        nonlocal elements
        elements += np.size(starts) * np.shape(starts)[-1] * len(deltas)
        angles.add(len(deltas))
        assert np.all(np.asarray(deltas) > 0)
        return covariogram(starts, widths, deltas, period, scratch)

    monkeypatch.setattr(overlap, "covariogram", counted)
    for settings, n_angles in ((SPIRAL_SETTINGS, 6), (POLARIZATION_SETTINGS, 8)):
        angles.clear()
        for sector_count in (2, 3, 4):
            search_max_s(sector_count, math.pi, settings, budget=20000, seed=0)
        assert angles == {n_angles}
    assert elements <= 1895328


def test_first_start_is_pinned_to_the_random_stream():
    # at budget 1 the result is the first start: the first four draws of
    # random.Random(0), sorted; a Python whose random() changed its
    # sequence, or a search seeded another way, fails here (the next test
    # holds the order of the later starts' draws)
    assert search_max_s(2, math.pi, budget=1, seed=0).mask.sectors == tuple(
        tuple(float.fromhex(h) for h in ab) for ab in (
            ("0x1.a07766c4120e8p+0", "0x1.523e656599dc9p+1"),
            ("0x1.30caa304974b0p+2", "0x1.538feaa4932bap+2")))


def test_a_search_reaching_fewer_starts_draws_the_leading_starts(monkeypatch):
    # the starts are drawn in start order and only as many as the search
    # reaches, so a smaller budget's starts are the first rows of a larger one's
    calls = _recording_scorer(monkeypatch)
    starts = {}
    for budget in (20, 400):
        calls.clear()
        search_max_s(3, math.pi, budget=budget, seed=5)
        starts[budget] = calls[0][0]
    assert starts[20].shape == (10, 6) and starts[400].shape == (bell._N_STARTS, 6)
    np.testing.assert_array_equal(starts[20], starts[400][:10])


def test_search_leaves_the_global_random_states_alone():
    # the search draws from a generator of its own, so a caller's module-level
    # random and numpy streams go on where they were
    saved = random.getstate(), np.random.get_state()
    try:
        random.seed(11)
        np.random.seed(11)
        search_max_s(2, math.pi, budget=300, seed=3)
        after_search = random.random(), np.random.random()
        random.seed(11)
        np.random.seed(11)
        assert after_search == (random.random(), np.random.random())
    finally:
        random.setstate(saved[0])
        np.random.set_state(saved[1])


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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elections import tally

import reference

TURNOUT = tally.TOY_TURNOUT
HOUSE = tally.TOY_HOUSE


def test_state_winners():
    t = tally.electoral_totals([0.53, 0.47, 0.51], TURNOUT, HOUSE)
    assert t.carried == ("D", "R", "D")
    assert (t.dem_states, t.dem_house) == (2, HOUSE[0] + HOUSE[2])


def test_state_winners_tie_raises():
    with pytest.raises(tally.TiedState, match="exact 0.5 share in state index 1"):
        tally.electoral_totals([0.53, 0.5, 0.47], TURNOUT, HOUSE)


def test_state_winners_sweep():
    t = tally.electoral_totals([0.9, 0.9, 0.9], TURNOUT, HOUSE)
    assert t.carried == ("D", "D", "D")
    assert t.totals(tally.STATES_WON) == (3, 0)


def test_popular_totals():
    t = tally.electoral_totals([0.53, 0.47, 0.47], TURNOUT, HOUSE)
    assert t.dem_pop == pytest.approx(253.0)
    assert t.rep_pop == pytest.approx(247.0)
    assert type(t.dem_pop) is type(t.rep_pop) is float


def test_scenario_lw():
    t = tally.electoral_totals(tally.SCENARIOS["LW"].shares, TURNOUT, HOUSE)
    assert (round(t.dem_pop), round(t.rep_pop)) == (253, 247)
    assert t.totals(tally.FULL) == (5, 6)
    assert t.totals(tally.HOUSE_ONLY) == (3, 2)
    assert t.carried == ("D", "R", "R")


def test_scenario_ll():
    t = tally.electoral_totals(tally.SCENARIOS["LL"].shares, TURNOUT, HOUSE)
    assert (round(t.dem_pop), round(t.rep_pop)) == (261, 239)
    assert t.totals(tally.FULL) == (3, 8)
    assert t.totals(tally.HOUSE_ONLY) == (1, 4)
    assert t.carried == ("R", "R", "D")


def test_scenario_wl():
    t = tally.electoral_totals(tally.SCENARIOS["WL"].shares, TURNOUT, HOUSE)
    assert (round(t.dem_pop), round(t.rep_pop)) == (253, 247)
    assert t.totals(tally.FULL) == (6, 5)
    assert t.totals(tally.HOUSE_ONLY) == (2, 3)
    assert t.carried == ("R", "D", "D")


@pytest.mark.parametrize("code", ["LW", "LL", "WL"])
def test_scenario_rows_are_electoral_totals(code):
    """Every per-state row of the scenario table, and its total row, holds
    the scalar tally's numbers on the same shares."""
    shares = tally.SCENARIOS[code].shares
    worlds = [([share], slice(s, s + 1)) for s, share in enumerate(shares)]
    for part, states in worlds + [(shares, slice(None))]:
        t = tally.electoral_totals(part, TURNOUT[states], HOUSE[states])
        assert tally.scenario_totals(part, TURNOUT[states], HOUSE[states]) == (
            t.dem_pop, t.rep_pop, *t.totals(tally.FULL), *t.totals(tally.HOUSE_ONLY))


def test_rule_equivalences():
    # D carries state 1: 3 House electors
    t = tally.electoral_totals(tally.SCENARIOS["LW"].shares, TURNOUT, HOUSE)
    assert (t.dem_house, t.dem_states, t.house_total, t.n_states) == (3, 1, 5, 3)
    assert t.totals(tally.HOUSE_ONLY) == (3, 2)
    assert t.totals(tally.FULL) == (3 + 2 * 1, 2 + 2 * 2)
    assert t.totals(tally.STATES_WON) == (1, 2)
    assert tally.pool(np.array([3, 2]), np.array([1, 2]), 10).tolist() == [13, 22]


def test_rule_validation():
    t = tally.electoral_totals(tally.SCENARIOS["LW"].shares, TURNOUT, HOUSE)
    # a k of 2.5 once gave 17.5 electors, True 13 and totals(1.5) (4.5, 5.0)
    for k in (-1, np.int64(-2), 2.5, 1.5, True, np.bool_(True), np.float64(2), "2"):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            tally.pool(10, 3, k)
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            t.totals(k)
    assert tally.pool(10, 3, np.int64(2)) == 16 and type(tally.pool(10, 3, np.int64(2))) is int


def test_winner_and_exact_split():
    t = tally.electoral_totals(tally.SCENARIOS["WL"].shares, TURNOUT, HOUSE)
    assert t.totals(tally.FULL) == (6, 5)
    assert t.totals(tally.HOUSE_ONLY) == (2, 3)
    # equal split of a 4-elector toy pool has no winner
    split = tally.electoral_totals([0.6, 0.4], [100, 100], [2, 2])
    assert split.totals(tally.HOUSE_ONLY) == (2, 2)


shares_st = st.lists(
    st.floats(0.01, 0.99).filter(lambda x: abs(x - 0.5) > 1e-6),
    min_size=3, max_size=8)


@settings(max_examples=100, deadline=None)
@given(shares_st, st.integers(0, 10))
def test_conservation(shares, k):
    n = len(shares)
    turnout = np.full(n, 100)
    house = np.arange(1, n + 1)
    t = tally.electoral_totals(shares, turnout, house)
    dem, rep = t.totals(k)
    assert dem + rep == int(house.sum()) + n * k
    assert sum(t.totals(tally.STATES_WON)) == n
    assert t.dem_pop + t.rep_pop == pytest.approx(turnout.sum())


@settings(max_examples=100, deadline=None)
@given(shares_st, st.integers(0, 7), st.floats(0.001, 0.3))
def test_monotonicity(shares, idx, bump):
    idx = idx % len(shares)
    raised = list(shares)
    raised[idx] = min(0.99, raised[idx] + bump)
    if abs(raised[idx] - 0.5) < 1e-9:
        raised[idx] += 1e-3
    n = len(shares)
    turnout = np.full(n, 100)
    house = np.arange(1, n + 1)
    before = tally.electoral_totals(shares, turnout, house)
    after = tally.electoral_totals(raised, turnout, house)
    for rule in (tally.FULL, tally.HOUSE_ONLY,
                 tally.STATES_WON):
        assert after.totals(rule)[0] >= before.totals(rule)[0]
    assert after.dem_pop >= before.dem_pop


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 0.99).filter(lambda x: abs(x - 0.5) > 1e-6),
                min_size=51, max_size=51))
def test_states_won_never_ties(shares):
    t = tally.electoral_totals(shares, np.full(51, 100), np.full(51, 1))
    dem, rep = t.totals(tally.STATES_WON)
    assert dem != rep


def test_full_scale_totals(dataset):
    shares = dataset.shares[-1]  # 2008
    t = tally.electoral_totals(shares, dataset.turnout, dataset.house_electors)
    dem, rep = t.totals(tally.FULL)
    assert dem + rep == 538
    assert dem > 269  # 2008 was a Democratic electoral win
    assert t.dem_pop > t.rep_pop
    assert dem - t.totals(tally.HOUSE_ONLY)[0] == 2 * t.dem_states


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99).filter(lambda x: abs(x - 0.5) > 1e-6),
                          st.integers(1, 60)), min_size=1, max_size=51),
       st.one_of(st.integers(0, 10), st.none()))
def test_totals_match_per_state_loop(states, k):
    shares = [share for share, _ in states]
    house = [h for _, h in states]
    t = tally.electoral_totals(shares, np.full(len(states), 100), house)
    dem = rep = 0
    for share, h in states:
        electors = 1 if k is None else h + k
        if share > 0.5:
            dem += electors
        else:
            rep += electors
    assert t.totals(k) == (dem, rep)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 8) | st.just(51),
       rows=st.just(1) | st.integers(1, 60), half=st.sampled_from([0.0, 0.01, 0.1]))
def test_tabulate_matches_the_reference(seed, width, rows, half):
    """Every result of tabulate equals the per-state loop of tests/reference.py,
    row by row, on matrices of 1 to 8 states or of 51, whose cells include
    exact 0.5, 0 and 1 and whose small integer turnouts often split the
    popular vote exactly.  The inputs are read-only, so a write into them fails."""
    rng = np.random.default_rng(seed)
    turnout, house = rng.integers(1, 4, width), rng.integers(1, 6, width)
    u = rng.random((rows, width))
    shares = np.where(u < 0.3, rng.random((rows, width)),
                      rng.choice([0.0, 0.25, 0.75, 1.0], (rows, width)))
    shares[u > 1 - half] = 0.5
    for array in (shares, turnout, house):
        array.flags.writeable = False
    tied_state, tied_popular, keep, dem_pop, total_pop, dem_house, dem_states, won = (
        tally.tabulate(shares, turnout, house))

    outcomes = [reference.tally_row(row, turnout, house) for row in shares.tolist()]
    assert tied_state.tolist() == [r == "tied_state" for r in outcomes]
    assert tied_popular.tolist() == [r == "tied_popular" for r in outcomes]
    assert keep.tolist() == [not isinstance(r, str) for r in outcomes]
    kept = [(row, r) for row, r in zip(shares.tolist(), outcomes) if not isinstance(r, str)]
    assert dem_pop.tolist() == [r.dem_pop for _, r in kept]
    assert (total_pop - dem_pop).tolist() == [r.rep_pop for _, r in kept]
    assert (dem_pop * 2 > total_pop).tolist() == [r.dem for _, r in kept]
    assert dem_house.tolist() == [r.house if r.dem else r.house_total - r.house for _, r in kept]
    assert dem_states.tolist() == [r.states if r.dem else width - r.states for _, r in kept]
    assert won.tolist() == [[share > 0.5 for share in row] for row, _ in kept]

"""Popular and electoral tallies of share vectors under winner-take-all.

tabulate is the one tally: the kernel's 51-state trials and the three-state
teaching scenarios both go through it, so it takes share matrices of any
width.  Popular totals stay real-valued (share times turnout, unrounded);
exact ties are set apart instead of being silently broken, since a hidden
tie-break would make batch results depend on the seed in an undocumented way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import SENATE_PER_STATE
from .generator import check_integers

DEM = "D"
REP = "R"


class TiedState(Exception):
    """A state's share is exactly 0.5; winner-take-all is undefined."""


# Elector rules are the k of pool(): the full college, House electors
# alone, and the k -> infinity limit in which most states carried wins.
FULL = SENATE_PER_STATE
HOUSE_ONLY = 0
STATES_WON = None


def pool(house, states, k):
    """Electors in the pool House + k per state carried; k=None counts states.

    Elementwise on ints and numpy arrays.  Every elector rule of the study is
    one k, so a rule is just its k: None, or an integer >= 0 by check_integers.
    """
    if k is None:
        return states
    (k,) = check_integers(k=k)
    return house + k * states


def tabulate(clamped, turnout, house):
    """Tally each row of a (rows, states) share matrix.  Returns the bool row
    masks tied_state (a share is exactly 0.5), tied_popular (an exact popular
    split and no such share) and keep (neither); each kept row's dem_pop and
    the Democrat's House electors and states carried; total_pop; and won, the
    bool matrix of the states each kept row's Democrat carried."""
    clamped, turnout = np.asarray(clamped, float), np.asarray(turnout, float)
    # a row-wise sum, unlike a matrix-vector product, gives every row the
    # same bits wherever it sits in the matrix
    dem_pop = (clamped * turnout).sum(axis=1)
    total_pop = turnout.sum()
    ties = clamped == 0.5
    tied_state = ties.any(axis=1) if ties.any() else np.zeros(len(clamped), bool)
    tied_popular = (dem_pop * 2 == total_pop) & ~tied_state
    if not (keep := ~(tied_state | tied_popular)).all():
        clamped, dem_pop = clamped[keep], dem_pop[keep]
    won = clamped > 0.5
    # one float32 BLAS product, exact while every sum is below 2**24
    weights = np.stack([house, np.ones_like(house)], axis=1).astype(np.float32)
    dem_house, dem_states = (won @ weights).astype(np.int64).T
    return tied_state, tied_popular, keep, dem_pop, total_pop, dem_house, dem_states, won


class TallyResult(NamedTuple):
    """One election's Democratic tallies and the sizes of the whole pools."""

    dem_pop: float
    rep_pop: float
    dem_house: int
    dem_states: int
    house_total: int
    n_states: int
    senate_per_state: int
    carried: tuple[str, ...]  # per-state winner, DEM or REP

    def totals(self, k: int | None) -> tuple[int, int]:
        """(dem, rep) elector or state totals in the pool of rule k."""
        dem = pool(self.dem_house, self.dem_states, k)
        return dem, pool(self.house_total, self.n_states, k) - dem


def electoral_totals(clamped, turnout, house_electors,
                     senate_per_state: int = FULL) -> TallyResult:
    """Tally one share vector, raising TiedState on an exact 0.5 share; the
    result answers any rule via TallyResult.totals.  The scalar reference for
    perfbench's oracle and the tests: no program path calls it."""
    clamped, turnout = np.asarray(clamped, float), np.asarray(turnout, float)
    house = np.asarray(house_electors, dtype=np.int64)
    tied = np.nonzero(clamped == 0.5)[0]
    if len(tied):
        raise TiedState(f"exact 0.5 share in state index {int(tied[0])}")
    dem_won = clamped > 0.5
    dem_pop = float((clamped * turnout).sum())   # the kernel's row-wise sum, to the bit
    return TallyResult(
        dem_pop=dem_pop,
        rep_pop=float(turnout.sum() - dem_pop),
        dem_house=int(house[dem_won].sum()),
        dem_states=int(dem_won.sum()),
        house_total=int(house.sum()),
        n_states=len(clamped),
        senate_per_state=senate_per_state,
        carried=tuple(DEM if w else REP for w in dem_won),
    )


# The teaching scenarios' toy world: turnouts 300/100/100, 1 House elector per
# 100 voters and 2 Senate electors a state.  Candidate A, the Democrat, wins the
# popular vote in each; the code is A's result with House+Senate electors, then
# with House electors alone.
TOY_TURNOUT = np.array([300, 100, 100])
TOY_HOUSE = np.array([3, 1, 1])


class Scenario(NamedTuple):
    """A teaching scenario: its title, A's share in each toy state and the
    paper's totals, as scenario_totals gives them (rounded popular votes)."""

    title: str
    shares: tuple[float, float, float]
    paper: tuple[int, int, int, int, int, int]


SCENARIOS = {
    "LW": Scenario("unpopular with Senate electors only",
                   (0.53, 0.47, 0.47), (253, 247, 5, 6, 3, 2)),
    "LL": Scenario("unpopular under either method",
                   (0.49, 0.49, 0.65), (261, 239, 3, 8, 1, 4)),
    "WL": Scenario("unpopular with House electors only",
                   (0.49, 0.53, 0.53), (253, 247, 6, 5, 2, 3)),
}


def scenario_totals(shares, turnout=TOY_TURNOUT, house=TOY_HOUSE) -> tuple:
    """A's and B's popular votes, House+Senate electors and House electors."""
    *_, dem_pop, total_pop, dem_house, dem_states, _ = tabulate([shares], turnout, house)
    a, b = (dem_house[0], dem_states[0]), (house.sum() - dem_house[0], len(shares) - dem_states[0])
    return (float(dem_pop[0]), float(total_pop - dem_pop[0]),
            *(int(pool(*side, k)) for k in (FULL, HOUSE_ONLY) for side in (a, b)))


def format_scenarios(results: dict[str, tuple]) -> str:
    row = "{}{:5.0f}  {:5.0f}   {:5d}  {:5d}   {:3d}  {:3d}".format
    lines = []
    for code, totals in results.items():
        lines.append(f"{code}, {SCENARIOS[code].title}")
        lines.append("state  A%    pop A  pop B   H+S A  H+S B   H A  H B")
        for s, share in enumerate(SCENARIOS[code].shares):
            # each row is the tally of that state alone
            state = scenario_totals([share], TOY_TURNOUT[s:s + 1], TOY_HOUSE[s:s + 1])
            lines.append(row(f"{s + 1:>5}  {share:.0%}  ", *state))
        lines += [row("total        ", *totals), ""]
    return "\n".join(lines)

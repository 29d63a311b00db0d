"""Popular and electoral tallies for a share vector under winner-take-all.

Works on arrays of any length so the three-state teaching scenarios and the
full 51-state runs share one code path.  Popular totals stay real-valued
(share times turnout, unrounded); per-state exact ties raise instead of
being silently broken, since a hidden tie-break would make batch results
depend on the seed in an undocumented way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEM = "D"
REP = "R"


class TallyError(Exception):
    pass


class TiedState(TallyError):
    """A state's share is exactly 0.5; winner-take-all is undefined."""


@dataclass(frozen=True)
class ElectorRule:
    """The elector pool House + k electors per state carried.

    k=2 is the full college (FULL) and k=0 House electors alone
    (HOUSE_ONLY).  k=None is the k -> infinity limit (STATES_WON), in which
    the candidate carrying most states wins, so its totals count states.
    """

    k: int | None

    def __post_init__(self):
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")


FULL = ElectorRule(2)
HOUSE_ONLY = ElectorRule(0)
STATES_WON = ElectorRule(None)


@dataclass(frozen=True)
class TallyResult:
    """All per-rule totals for one election; rule-specific winners derive from these."""

    dem_pop: float
    rep_pop: float
    dem_house: int
    rep_house: int
    dem_senate: int
    rep_senate: int
    dem_states: int
    rep_states: int
    carried: tuple[str, ...]  # per-state winner, DEM or REP

    def totals(self, rule: ElectorRule) -> tuple[int, int]:
        """(dem, rep) elector or state totals under the given rule."""
        if rule.k is None:
            return self.dem_states, self.rep_states
        return (self.dem_house + rule.k * self.dem_states,
                self.rep_house + rule.k * self.rep_states)

    def winner(self, rule: ElectorRule) -> str | None:
        """DEM/REP for a strict majority of the pool, None on an exact split."""
        dem, rep = self.totals(rule)
        if dem > rep:
            return DEM
        if rep > dem:
            return REP
        return None


def state_winners(clamped: np.ndarray) -> np.ndarray:
    """Boolean vector: True where the Democrat carries the state (share > 0.5)."""
    clamped = np.asarray(clamped, dtype=float)
    tied = np.nonzero(clamped == 0.5)[0]
    if len(tied):
        raise TiedState(f"exact 0.5 share in state index {int(tied[0])}")
    return clamped > 0.5


def popular_totals(clamped: np.ndarray, turnout: np.ndarray) -> tuple[float, float]:
    """Real-valued (dem, rep) popular vote totals."""
    clamped = np.asarray(clamped, dtype=float)
    turnout = np.asarray(turnout, dtype=float)
    dem = float(clamped @ turnout)
    return dem, float(turnout.sum() - dem)


def electoral_totals(clamped, turnout, house_electors,
                     senate_per_state: int = 2) -> TallyResult:
    """Tally one share vector; the result answers any rule via TallyResult.totals."""
    clamped = np.asarray(clamped, dtype=float)
    house = np.asarray(house_electors, dtype=np.int64)
    dem_won = state_winners(clamped)
    dem_pop, rep_pop = popular_totals(clamped, turnout)
    dem_house = int(house[dem_won].sum())
    dem_states = int(dem_won.sum())
    n_states = len(clamped)
    return TallyResult(
        dem_pop=dem_pop,
        rep_pop=rep_pop,
        dem_house=dem_house,
        rep_house=int(house.sum()) - dem_house,
        dem_senate=senate_per_state * dem_states,
        rep_senate=senate_per_state * (n_states - dem_states),
        dem_states=dem_states,
        rep_states=n_states - dem_states,
        carried=tuple(DEM if w else REP for w in dem_won),
    )

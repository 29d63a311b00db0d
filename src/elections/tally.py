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


# Elector rules are the k of pool(): the full college, House electors
# alone, and the k -> infinity limit in which most states carried wins.
FULL = 2
HOUSE_ONLY = 0
STATES_WON = None


def pool(house, states, k):
    """Electors in the pool House + k per state carried; k=None counts states.

    Elementwise on ints and numpy arrays alike.  Every elector rule of the
    study is one k of this family, so a rule is just its k.
    """
    if k is None:
        return states
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return house + k * states


@dataclass(frozen=True)
class TallyResult:
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
    return TallyResult(
        dem_pop=dem_pop,
        rep_pop=rep_pop,
        dem_house=int(house[dem_won].sum()),
        dem_states=int(dem_won.sum()),
        house_total=int(house.sum()),
        n_states=len(clamped),
        senate_per_state=senate_per_state,
        carried=tuple(DEM if w else REP for w in dem_won),
    )

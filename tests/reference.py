"""An independent reference for the trial kernel: one clamped share row
tallied state by state in a plain Python loop.

It imports nothing from `elections`, so a test that compares the kernel's
columns and `trials.csv` fields with it checks winner-take-all, the two tie
rules, the elector pools and California's bit from their definitions.  Only
dem_pop is numpy's: the row's sum of share times turnout, which is the sum
the kernel documents, so that it compares exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SENATE = 2   # electors per state carried in the full college


class Outcome(NamedTuple):
    """One classified election, seen from its popular winner."""

    dem: bool          # the Democrat won the popular vote
    house: int         # House electors of the states the popular winner carried
    states: int        # states the popular winner carried
    carried_ca: bool   # the popular winner carried California
    dem_pop: float
    rep_pop: float
    house_total: int
    n_states: int

    def wins(self, k: int) -> bool:
        """The popular winner holds a strict majority of House + k per state."""
        return 2 * (self.house + k * self.states) > self.house_total + k * self.n_states

    @property
    def code(self) -> str:
        """W or L with the full college, then with House electors alone."""
        return "".join("W" if self.wins(k) else "L" for k in (SENATE, 0))

    @property
    def diff(self) -> int:
        """Democratic full-college electors minus Republican."""
        winner = self.house + SENATE * self.states
        loser = self.house_total + SENATE * self.n_states - winner
        return winner - loser if self.dem else loser - winner


def tally_row(row, turnout, house, california: int) -> Outcome | str:
    """The outcome of one clamped share row, or "tied_state" when some share
    is exactly 0.5, else "tied_popular" when the popular vote splits exactly."""
    if any(share == 0.5 for share in row):
        return "tied_state"
    dem_pop = float((np.asarray(row, float) * np.asarray(turnout, float)).sum())
    total = float(sum(int(votes) for votes in turnout))
    if 2 * dem_pop == total:
        return "tied_popular"
    dem = 2 * dem_pop > total
    won_house = won_states = 0
    for share, electors in zip(row, house):
        if (share > 0.5) == dem:
            won_house += int(electors)
            won_states += 1
    return Outcome(dem=dem, house=won_house, states=won_states,
                   carried_ca=(row[california] > 0.5) == dem, dem_pop=dem_pop,
                   rep_pop=total - dem_pop, house_total=sum(int(e) for e in house),
                   n_states=len(row))

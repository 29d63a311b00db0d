"""Three-state teaching scenarios showing how unpopular outcomes arise.

Toy world: states with turnouts 300/100/100 and 1 House seat per 100
voters (3/1/1), plus 2 Senate electors each.  Candidate A is the Democrat
and wins the popular vote in every scenario; the two-letter code gives A's
result with House+Senate electors, then with House electors alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tally import FULL, HOUSE_ONLY, TallyResult, electoral_totals

TOY_TURNOUT = np.array([300, 100, 100])
TOY_HOUSE = np.array([3, 1, 1])

SCENARIO_SHARES = {
    "LW": (0.53, 0.47, 0.47),
    "LL": (0.49, 0.49, 0.65),
    "WL": (0.49, 0.53, 0.53),
}

SCENARIO_TITLES = {
    "LW": "unpopular with Senate electors only",
    "LL": "unpopular under either method",
    "WL": "unpopular with House electors only",
}


class ScenarioResult(NamedTuple):
    code: str
    shares: tuple[float, ...]
    tally: TallyResult
    full_a: int
    full_b: int
    house_a: int
    house_b: int


def run_scenario(code: str) -> ScenarioResult:
    shares = np.array(SCENARIO_SHARES[code])
    tally = electoral_totals(shares, TOY_TURNOUT, TOY_HOUSE)
    return ScenarioResult(code, tuple(shares), tally,
                          *tally.totals(FULL), *tally.totals(HOUSE_ONLY))


def run_all_scenarios() -> dict[str, ScenarioResult]:
    return {code: run_scenario(code) for code in SCENARIO_SHARES}


def format_scenarios(results: dict[str, ScenarioResult]) -> str:
    lines = []
    for code, res in results.items():
        lines.append(f"{code}, {SCENARIO_TITLES[code]}")
        lines.append("state  A%    pop A  pop B   H+S A  H+S B   H A  H B")
        for s, share in enumerate(res.shares):
            # each row is the tally of that state alone
            state = electoral_totals([share], TOY_TURNOUT[s:s + 1], TOY_HOUSE[s:s + 1])
            hs_a, hs_b = state.totals(FULL)
            h_a, h_b = state.totals(HOUSE_ONLY)
            lines.append(f"{s + 1:>5}  {share:.0%}  {state.dem_pop:5.0f}  {state.rep_pop:5.0f}"
                         f"   {hs_a:5d}  {hs_b:5d}   {h_a:3d}  {h_b:3d}")
        lines.append(f"total        {res.tally.dem_pop:5.0f}  {res.tally.rep_pop:5.0f}"
                     f"   {res.full_a:5d}  {res.full_b:5d}"
                     f"   {res.house_a:3d}  {res.house_b:3d}")
        lines.append("")
    return "\n".join(lines)

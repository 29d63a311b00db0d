"""Three-state teaching scenarios showing how unpopular outcomes arise.

Toy world: states with turnouts 300/100/100 and 1 House seat per 100
voters (3/1/1), plus 2 Senate electors each.  Candidate A is the Democrat
and wins the popular vote in every scenario; the two-letter code gives A's
result with House+Senate electors, then with House electors alone.
"""

from __future__ import annotations

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


def run_scenario(code: str) -> TallyResult:
    return electoral_totals(SCENARIO_SHARES[code], TOY_TURNOUT, TOY_HOUSE)


def run_all_scenarios() -> dict[str, TallyResult]:
    return {code: run_scenario(code) for code in SCENARIO_SHARES}


def _row(label: str, tally: TallyResult) -> str:
    (full_a, full_b), (house_a, house_b) = tally.totals(FULL), tally.totals(HOUSE_ONLY)
    return (f"{label}{tally.dem_pop:5.0f}  {tally.rep_pop:5.0f}"
            f"   {full_a:5d}  {full_b:5d}   {house_a:3d}  {house_b:3d}")


def format_scenarios(results: dict[str, TallyResult]) -> str:
    lines = []
    for code, tally in results.items():
        lines.append(f"{code}, {SCENARIO_TITLES[code]}")
        lines.append("state  A%    pop A  pop B   H+S A  H+S B   H A  H B")
        for s, share in enumerate(SCENARIO_SHARES[code]):
            # each row is the tally of that state alone
            state = electoral_totals([share], TOY_TURNOUT[s:s + 1], TOY_HOUSE[s:s + 1])
            lines.append(_row(f"{s + 1:>5}  {share:.0%}  ", state))
        lines += [_row("total        ", tally), ""]
    return "\n".join(lines)

"""Output checks that survive a change of the program's random bit stream.

They are structural (identities between counters, row counts) and
statistical (the frozen headline bands), never hashes of one commit's output.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

# Acceptance criterion 5 (tests/test_acceptance.py), copied unchanged.  The
# bands were frozen for seed 0 at 20000 trials; at another seed, sampling
# error alone can leave a correct program outside one (unpopular_house is
# 0.05835 at seed 12), so other seeds are checked with a slack of
# BAND_SIGMAS binomial standard errors and seed 0 with none.
BANDS = {
    "unpopular_full": (0.039, 0.060),
    "unpopular_house": (0.059, 0.080),
    "states_won": (0.050, 0.072),
    "dem_win_rate": (0.40, 0.48),
}

BAND_SIGMAS = 4.0

ORACLE_TRIALS = 1024   # batch run the scalar oracle is compared against
ORACLE_STRIDE = 4      # every 4th of those trials is recomputed one by one


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def check_outputs(out: Path, trials: int, seed: int, emit_trials: bool,
                  sigmas: float = BAND_SIGMAS) -> list[str]:
    """Problems in one `simulate` output directory.

    A headline frequency f passes its band if it lies within `sigmas`
    standard errors sqrt(f(1-f)/n_classified) of it.
    """
    s = json.loads((out / "run_summary.json").read_text())
    sw = json.loads((out / "senate_sweep.json").read_text())
    n = s["n_classified"]
    counts = s["counts"]
    deg = s["degenerate"]
    unpopular = counts["LW"] + counts["LL"]
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(s["trials"] == trials and s["seed"] == seed, "trials/seed echoed wrong")
    need(sum(counts.values()) == n, "counts do not sum to n_classified")
    need(n + deg["tied_state"] + deg["tied_popular"] == trials,
         "n_classified + degenerate != trials")
    need(sw["by_k"]["0"] == s["unpopular_house"], "by_k[0] != unpopular_house")
    need(sw["by_k"]["2"] == s["unpopular_full"], "by_k[2] != unpopular_full")
    need(sw["states_won_limit"] == s["states_won_unpopular"],
         "states_won_limit != states_won_unpopular")
    headline = {"unpopular_full": s["unpopular_full"],
                "unpopular_house": s["unpopular_house"],
                "states_won": sw["states_won_limit"],
                "dem_win_rate": s["dem_win_rate"]}
    for name, (lo, hi) in BANDS.items():
        f = headline[name]
        slack = sigmas * math.sqrt(f * (1 - f) / n) if n else 0.0
        need(lo - slack <= f <= hi + slack,
             f"{name}={f} outside [{lo}, {hi}] by more than {sigmas} standard errors")

    scatter = _csv_rows(out / "scatter_hs.csv")
    need(len(scatter) == n, "scatter_hs.csv rows != n_classified")
    need(all(sum(r[2] == c for r in scatter) == counts[c] for c in counts),
         "scatter_hs.csv codes disagree with counts")
    need(len(_csv_rows(out / "california_scatter.csv")) == n,
         "california_scatter.csv rows != n_classified")
    hist = sum(int(r[2]) for r in _csv_rows(out / "diff_histogram.csv"))
    need(hist == unpopular, "diff_histogram.csv does not sum to LW+LL")
    if emit_trials:
        need(len(_csv_rows(out / "trials.csv")) == n, "trials.csv rows != n_classified")
    return problems


def oracle_check(model, data, seed: int, trials_csv: Path | None = None):
    """Batch records against the scalar path, on a fixed sample of trials.

    Returns (problems, scalar microseconds per trial).  With `trials_csv`
    the sampled rows of a `--emit-trials` output are compared too.
    """
    from elections import (classify, draw_noise, electoral_totals,
                           generate_shares, run_batch)
    from elections.montecarlo import ExactPopularTie
    from elections.tally import TiedState

    batch = run_batch(model, data, trials=ORACLE_TRIALS, seed=seed, keep_records=True)
    by_trial = {r.trial: r for r in batch.records}
    sample = range(0, ORACLE_TRIALS, ORACLE_STRIDE)
    scalar, dem_pop = {}, {}
    t0 = time.perf_counter()
    for t in sample:
        shares = generate_shares(model, draw_noise(seed, t, model.n_components))
        try:
            tally = electoral_totals(shares.clamped, data.turnout, data.house_electors,
                                     senate_per_state=data.senate_electors_base)
            scalar[t] = classify(tally, trial=t)
            dem_pop[t] = tally.dem_pop
        except (TiedState, ExactPopularTie):
            scalar[t] = None
    us_per_trial = (time.perf_counter() - t0) / len(sample) * 1e6

    problems = [f"trial {t}: batch {by_trial.get(t)} != scalar {scalar[t]}"
                for t in sample if by_trial.get(t) != scalar[t]]
    if trials_csv is not None:
        rows = {int(r[0]): r for r in _csv_rows(trials_csv) if int(r[0]) in scalar}
        for t, rec in scalar.items():
            row = rows.get(t)
            if rec is None:
                if row is not None:
                    problems.append(f"trials.csv has degenerate trial {t}")
                continue
            want = [str(t), rec.code, str(rec.popular_winner_H), str(rec.popular_winner_S),
                    str(rec.signed_electoral_diff), str(int(rec.carried_california))]
            if (row is None or [row[i] for i in (0, 1, 4, 5, 6, 7)] != want
                    or not math.isclose(float(row[2]), dem_pop[t], rel_tol=1e-9)):
                problems.append(f"trials.csv row {t}: {row} != scalar {want}")
    return problems, us_per_trial

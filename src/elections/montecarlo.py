"""Batches of simulated elections: one trial table and its reductions.

Each trial is a pure function of (seed, trial_index).  One kernel draws a
contiguous chunk of trials once and returns the columns of its classified
trials; the chunks are concatenated in trial order into a TrialTable, so
serial, threaded and any-chunk-size runs give the same table.  Every output
(the summary counters, the Senate sweep, the figure data and the per-trial
records) is a reduction over that one table, so every elector rule sees the
same noise per trial (paired comparison) and rule-to-rule differences are
not inflated by sampling noise.

Outcome codes: first letter is the popular winner's result with House and
Senate electors (W above 269 of 538), second letter with House electors
alone (W above 218 of 436).  An election is unpopular when the popular
winner fails to WIN, so an exact elector split counts as L for that
letter; exact splits are additionally reported in separate counters
(exact_full_splits / exact_house_splits), never silently dropped.  This
keeps the Senate-sweep identities (k=0 is unpopular_house, k=2 is
unpopular_full) exact: both sides are TrialTable.unpopular(k).  Per-state or exact popular-vote ties have
probability zero under the continuous model.  Such degenerate trials get no
row; they are counted and listed by number, not resampled, since
resampling would bias frequencies.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import CALIFORNIA, ElectionDataset
from .generator import draw_noise_batch, generate_shares_batch
from .pca import PcaModel
from .tally import DEM, FULL, HOUSE_ONLY, REP, STATES_WON, TallyResult, pool

CODES = ("WW", "WL", "LW", "LL")

DEFAULT_BIN_WIDTH = 20
_CHUNK = 2048   # a (chunk, 51) float64 array fits in a 2 MB L2 cache
_local = threading.local()   # each thread's _scratch buffers and its unpin mask


class MonteCarloError(Exception):
    pass


class ExactPopularTie(MonteCarloError):
    """Popular vote split exactly in half; no popular winner exists."""


@dataclass(frozen=True)
class OutcomeRecord:
    """Classification of a single simulated election."""

    trial: int
    code: str
    popular_winner: str
    electoral_winner_full: str | None
    signed_electoral_diff: int        # Democratic full electors - Republican
    popular_winner_H: int
    popular_winner_S: int
    carried_california: bool | None   # None when the tally is not 51 states


def classify(tally: TallyResult, trial: int = 0) -> OutcomeRecord:
    """Assign the two-letter outcome code to one tallied election.

    The scalar reference that the trial table's records are tested against.
    """
    if tally.dem_pop == tally.rep_pop:
        raise ExactPopularTie(f"popular vote tied at {tally.dem_pop}")
    pw = DEM if tally.dem_pop > tally.rep_pop else REP
    side = 0 if pw == DEM else 1
    full = tally.totals(tally.senate_per_state)
    house = tally.totals(HOUSE_ONLY)
    # exact splits count as L: the popular winner fails to win a majority
    code = "".join("W" if 2 * rule[side] > sum(rule) else "L" for rule in (full, house))
    diff = full[0] - full[1]
    carried_ca = tally.carried[CALIFORNIA] == pw if tally.n_states == 51 else None
    return OutcomeRecord(
        trial=trial,
        code=code,
        popular_winner=pw,
        electoral_winner_full=DEM if diff > 0 else REP if diff < 0 else None,
        signed_electoral_diff=diff,
        popular_winner_H=house[side],
        popular_winner_S=full[side] - house[side],
        carried_california=carried_ca,
    )


@dataclass(frozen=True)
class TrialTable:
    """One row per classified trial among trials 0..trials-1 of one seed, in order.

    pw_* columns belong to the popular winner.  A degenerate trial has no
    row; tied_state and tied_popular list their trial numbers.
    """

    seed: int
    trials: int
    house_total: int
    n_states: int
    total_pop: float
    tied_state: np.ndarray       # trials with some state's share exactly 0.5
    tied_popular: np.ndarray     # trials with the popular vote split exactly, no state tie
    pw_dem: np.ndarray           # bool: the Democrat won the popular vote
    pw_house: np.ndarray
    pw_states: np.ndarray
    carried_ca: np.ndarray       # bool
    dem_pop: np.ndarray          # float

    def numbers(self) -> np.ndarray:
        """Trial number of each row."""
        return np.delete(np.arange(self.trials),
                         np.concatenate([self.tied_state, self.tied_popular]))

    def margin(self, k: int | None) -> np.ndarray:
        """Popular winner's electors minus the rest in the pool of rule k
        (see tally.pool).  The popular winner wins the pool iff margin > 0."""
        return (2 * pool(self.pw_house, self.pw_states, k)
                - pool(self.house_total, self.n_states, k))

    def codes(self) -> np.ndarray:
        """Index into CODES per trial: 0=WW 1=WL 2=LW 3=LL."""
        return 2 * (self.margin(FULL) <= 0) + (self.margin(HOUSE_ONLY) <= 0)

    def diffs(self) -> np.ndarray:
        """Democratic full electors minus Republican, per trial."""
        full = self.margin(FULL)
        return np.where(self.pw_dem, full, -full)

    def unpopular(self, k: int | None) -> float:
        """Share of rows whose popular winner fails to win the pool of rule k."""
        return _rate(int((self.margin(k) <= 0).sum()), len(self.dem_pop))


def _scratch(name: str, rows: int, cols: int, dtype=float) -> np.ndarray:
    """This thread's reusable (rows, cols) array; no returned column may view it."""
    if len(buf := getattr(_local, name, ())) < rows:
        buf = np.empty((rows, cols), dtype)
        setattr(_local, name, buf)
    return buf[:rows]


def _electors_won(win: np.ndarray, house: np.ndarray) -> np.ndarray:
    """House electors and states carried per row of a bool (rows, states)
    matrix, from one float32 BLAS product: exact, as every sum is <= 436."""
    weights = np.stack([house, np.ones_like(house)], axis=1).astype(np.float32)
    return (win @ weights).astype(np.int64).T


def trial_columns(model: PcaModel, dataset: ElectionDataset,
                  seed: int, start: int, count: int) -> dict:
    """TrialTable columns for trials start..start+count-1, each drawn once."""
    z = draw_noise_batch(seed, start, count, model.n_components)
    n = len(dataset.house_electors)
    clamped = generate_shares_batch(model, z, out=_scratch("shares", count, n))
    np.clip(clamped, 0.0, 1.0, out=clamped)
    turnout = dataset.turnout.astype(float)
    # a row-wise sum, unlike a matrix-vector product, gives every row the
    # same bits wherever it sits in the chunk
    dem_pop = np.multiply(clamped, turnout, out=_scratch("votes", count, n)).sum(axis=1)
    total_pop = turnout.sum()
    ties = np.equal(clamped, 0.5, out=_scratch("win", count, n, bool))
    tied_state = ties.any(axis=1) if ties.any() else np.zeros(count, bool)
    tied_popular = (dem_pop * 2 == total_pop) & ~tied_state
    if not (keep := ~(tied_state | tied_popular)).all():
        clamped, dem_pop = clamped[keep], dem_pop[keep]
    pw_dem = dem_pop * 2 > total_pop
    win = np.greater(clamped, 0.5, out=ties[:len(clamped)])
    house_d, states_d = _electors_won(win, dataset.house_electors)
    return {
        "tied_state": start + np.flatnonzero(tied_state),
        "tied_popular": start + np.flatnonzero(tied_popular),
        "pw_dem": pw_dem,
        "pw_house": np.where(pw_dem, house_d, dataset.house_electors.sum() - house_d),
        "pw_states": np.where(pw_dem, states_d, n - states_d),
        "carried_ca": win[:, CALIFORNIA] == pw_dem,
        "dem_pop": dem_pop,
    }


def histogram(values: np.ndarray, bin_width: int) -> list:
    """[lo, lo + bin_width, count] rows for the occupied bins, in order."""
    los, counts = np.unique(bin_width * (values // bin_width), return_counts=True)
    return [[lo, lo + bin_width, c] for lo, c in zip(los.tolist(), counts.tolist())]


def _rate(count: int, n: int) -> float:
    return count / n if n else 0.0


@dataclass(frozen=True)
class RunSummary:
    """Aggregate results of one batch, a pure function of (dataset, seed, trials)."""

    trials: int
    seed: int
    n_classified: int
    counts: dict
    freq: dict
    unpopular_full: float
    unpopular_house: float
    dem_win_rate: float
    states_won_unpopular: float
    diff_histogram: list          # [lo, hi, count] rows, restricted to LW/LL trials
    bin_width: int
    california_crosstab: dict
    degenerate: dict
    exact_full_splits: int = 0
    exact_house_splits: int = 0
    records: tuple | None = field(default=None, repr=False, compare=False)
    table: TrialTable | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("records", "table")}
        out["diff_histogram"] = {"bin_width": out.pop("bin_width"),
                                 "bins": self.diff_histogram}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def summarize(table: TrialTable, bin_width: int = DEFAULT_BIN_WIDTH,
              keep_records: bool = False) -> RunSummary:
    """Counters and frequencies over the classified trials of a table."""
    n = len(table.dem_pop)

    def count(mask) -> int:
        return int(mask.sum())

    codes = table.codes()
    counts = {name: count(codes == i) for i, name in enumerate(CODES)}
    return RunSummary(
        trials=table.trials,
        seed=table.seed,
        n_classified=n,
        counts=counts,
        freq={c: _rate(counts[c], n) for c in CODES},
        unpopular_full=table.unpopular(FULL),
        unpopular_house=table.unpopular(HOUSE_ONLY),
        dem_win_rate=_rate(count(table.diffs() > 0), n),
        states_won_unpopular=table.unpopular(STATES_WON),
        diff_histogram=histogram(table.diffs()[codes >= 2], bin_width),
        bin_width=bin_width,
        california_crosstab={
            party: {"carried": count(is_party & table.carried_ca),
                    "missed": count(is_party & ~table.carried_ca)}
            for party, is_party in ((DEM, table.pw_dem), (REP, ~table.pw_dem))},
        degenerate={"tied_state": len(table.tied_state),
                    "tied_popular": len(table.tied_popular)},
        exact_full_splits=count(table.margin(FULL) == 0),
        exact_house_splits=count(table.margin(HOUSE_ONLY) == 0),
        records=_records(table) if keep_records else None,
        table=table,
    )


def _pin(cpus) -> None:
    """Run the calling thread on `cpus` if the OS agrees: only a hint."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def run_batch(model: PcaModel, dataset: ElectionDataset, trials: int, seed: int,
              threads: int = 1, bin_width: int = DEFAULT_BIN_WIDTH,
              keep_records: bool = False) -> RunSummary:
    """Simulate, tally, and classify `trials` elections, drawing each once.

    The summary carries the trial table for the sweep and the figure data.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    starts = range(0, trials, _CHUNK)
    # Linux keeps threads that wake each other through the GIL on one CPU, so
    # each pool thread runs its first chunk on its own CPU of this one's mask.
    mask = (sorted(os.sched_getaffinity(0))
            if threads > 1 and hasattr(os, "sched_setaffinity") else [])
    cpus = iter(mask * threads)   # round-robin; next() is atomic under the GIL

    def place():
        _pin({next(cpus)})
        _local.unpin = mask

    def work(start):
        columns = trial_columns(model, dataset, seed, start, min(_CHUNK, trials - start))
        if unpin := vars(_local).pop("unpin", None):
            _pin(unpin)
        return columns

    with ThreadPoolExecutor(threads, initializer=place if mask else None) as executor:
        parts = list(executor.map(work, starts))
    table = TrialTable(
        seed=seed,
        trials=trials,
        house_total=int(dataset.house_electors.sum()),
        n_states=len(dataset.house_electors),
        total_pop=float(dataset.turnout.astype(float).sum()),
        **{name: np.concatenate([p[name] for p in parts]) for name in parts[0]})
    return summarize(table, bin_width, keep_records)


@dataclass(frozen=True)
class SweepResult:
    """Unpopular-election frequency as the per-state Senate elector count grows."""

    trials: int
    seed: int
    by_k: dict                 # k -> frequency
    states_won_limit: float    # limiting rule: most states carried wins

    def to_dict(self) -> dict:
        return {"trials": self.trials, "seed": self.seed,
                "by_k": {str(k): v for k, v in self.by_k.items()},
                "states_won_limit": self.states_won_limit}


def senate_sweep(table: TrialTable, k_values=(0, 2, 10, 100)) -> SweepResult:
    """Unpopular frequency under the House + k per state rule for each k.

    A trial is unpopular when the popular winner fails to win a strict
    majority of the pool, so an exact split counts.  Hence by_k[0] equals
    unpopular_house and by_k[2] equals unpopular_full of the same table.
    A k < 0 raises ValueError (see tally.pool).
    """
    return SweepResult(trials=table.trials, seed=table.seed,
                       by_k={int(k): table.unpopular(k) for k in k_values},
                       states_won_limit=table.unpopular(STATES_WON))


def _records(table: TrialTable) -> tuple:
    """OutcomeRecord view of the classified trials."""
    return tuple(
        OutcomeRecord(trial=t, code=CODES[c], popular_winner=DEM if dem else REP,
                      electoral_winner_full=DEM if d > 0 else REP if d < 0 else None,
                      signed_electoral_diff=d, popular_winner_H=h,
                      popular_winner_S=FULL * s, carried_california=ca)
        for t, c, dem, d, h, s, ca in zip(*(column.tolist() for column in (
            table.numbers(), table.codes(), table.pw_dem, table.diffs(),
            table.pw_house, table.pw_states, table.carried_ca))))


def emit_figure_data(table: TrialTable, which: str):
    """Tabular data behind the scatter figures and the per-trial records.

    Returns (header, columns) for cli.write_csv: one column per header name
    over the classified trials, in trial order, each a numpy array or, for
    the code and party letters, an (index, labels) pair.  `which` is one of
    scatter_HS, california_scatter, trials.  The difference histogram is
    RunSummary.diff_histogram.
    """
    hs = [table.pw_house, FULL * table.pw_states]
    if which == "scatter_HS":
        return ["H", "S", "code"], [*hs, (table.codes(), CODES)]
    carried = table.carried_ca.astype(np.int8)
    if which == "california_scatter":
        return (["H", "S", "popular_winner", "carried_california"],
                [*hs, (table.pw_dem.astype(np.int8), (REP, DEM)), carried])
    if which == "trials":
        return (["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"],
                [table.numbers(), (table.codes(), CODES), table.dem_pop,
                 table.total_pop - table.dem_pop, *hs, table.diffs(), carried])
    raise ValueError(f"unknown figure kind {which!r}")

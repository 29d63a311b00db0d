"""Batches of simulated elections: one trial table and its reductions.

Each trial is a pure function of (seed, trial_index).  One kernel draws a
contiguous chunk of trials once and returns per-trial columns; the chunks
are concatenated in trial order into a TrialTable, so serial, threaded and
any-chunk-size runs give the same table.  Every output (the summary
counters, the Senate sweep, the figure data and the per-trial records) is
a reduction over that one table, so every elector rule sees the same noise
per trial (paired comparison) and rule-to-rule differences are not
inflated by sampling noise.

Outcome codes: first letter is the popular winner's result with House and
Senate electors (W above 269 of 538), second letter with House electors
alone (W above 218 of 436).  An election is unpopular when the popular
winner fails to WIN, so an exact elector split counts as L for that
letter; exact splits are additionally reported in separate counters
(exact_full_splits / exact_house_splits), never silently dropped.  This
keeps the Senate-sweep identities exact: the k=0 entry equals
unpopular_house and the k=2 entry equals unpopular_full.  Per-state or
exact popular-vote ties have probability zero under the continuous model
and are counted as degenerate trials rather than resampled, since
resampling would bias frequencies.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import CALIFORNIA, ElectionDataset
from .generator import draw_noise_batch, generate_shares_batch
from .pca import PcaModel
from .tally import DEM, HOUSE_ONLY, REP, TallyResult, pool

CODES = ("WW", "WL", "LW", "LL")

DEFAULT_BIN_WIDTH = 20
_CHUNK = 4096


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
    """Per-trial columns of trials 0..trials-1 of one seed, in trial order.

    pw_* columns belong to the popular winner.  Rows flagged tied_state or
    tied_popular are degenerate and enter no reduction.
    """

    seed: int
    house_total: int
    n_states: int
    senate_per_state: int
    total_pop: float
    tied_state: np.ndarray       # bool: some state's share is exactly 0.5
    tied_popular: np.ndarray     # bool: popular vote split exactly, no state tie
    pw_dem: np.ndarray           # bool: the Democrat won the popular vote
    pw_house: np.ndarray
    pw_states: np.ndarray
    carried_ca: np.ndarray       # bool
    dem_pop: np.ndarray          # float

    @property
    def trials(self) -> int:
        return len(self.dem_pop)

    @property
    def ok(self) -> np.ndarray:
        return ~(self.tied_state | self.tied_popular)

    def margin(self, k: int | None) -> np.ndarray:
        """Popular winner's electors minus the rest in the pool of rule k
        (see tally.pool).  The popular winner wins the pool iff margin > 0."""
        return (2 * pool(self.pw_house, self.pw_states, k)
                - pool(self.house_total, self.n_states, k))

    def codes(self) -> np.ndarray:
        """Index into CODES per trial: 0=WW 1=WL 2=LW 3=LL."""
        return 2 * (self.margin(self.senate_per_state) <= 0) + (self.margin(0) <= 0)

    def diffs(self) -> np.ndarray:
        """Democratic full electors minus Republican, per trial."""
        full = self.margin(self.senate_per_state)
        return np.where(self.pw_dem, full, -full)


def trial_columns(model: PcaModel, dataset: ElectionDataset,
                  seed: int, start: int, count: int) -> dict:
    """TrialTable columns for trials start..start+count-1, each drawn once."""
    z = draw_noise_batch(seed, start, count, model.n_components)
    clamped = np.clip(generate_shares_batch(model, z), 0.0, 1.0)
    turnout = dataset.turnout.astype(float)
    # a row-wise sum, unlike a matrix-vector product, gives every row the
    # same bits wherever it sits in the chunk
    dem_pop = (clamped * turnout).sum(axis=1)
    total_pop = turnout.sum()
    tied_state = np.any(clamped == 0.5, axis=1)
    pw_dem = dem_pop * 2 > total_pop
    win = clamped > 0.5
    house_d = win @ dataset.house_electors
    states_d = win.sum(axis=1)
    return {
        "tied_state": tied_state,
        "tied_popular": (dem_pop * 2 == total_pop) & ~tied_state,
        "pw_dem": pw_dem,
        "pw_house": np.where(pw_dem, house_d, dataset.house_electors.sum() - house_d),
        "pw_states": np.where(pw_dem, states_d, len(dataset.house_electors) - states_d),
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
    ok = table.ok
    n = int(ok.sum())

    def count(mask) -> int:
        return int((mask & ok).sum())

    codes = table.codes()
    counts = {name: count(codes == i) for i, name in enumerate(CODES)}
    return RunSummary(
        trials=table.trials,
        seed=table.seed,
        n_classified=n,
        counts=counts,
        freq={c: _rate(counts[c], n) for c in CODES},
        unpopular_full=_rate(counts["LW"] + counts["LL"], n),
        unpopular_house=_rate(counts["WL"] + counts["LL"], n),
        dem_win_rate=_rate(count(table.diffs() > 0), n),
        states_won_unpopular=_rate(count(table.margin(None) <= 0), n),
        diff_histogram=histogram(table.diffs()[ok & (codes >= 2)], bin_width),
        bin_width=bin_width,
        california_crosstab={
            party: {"carried": count(is_party & table.carried_ca),
                    "missed": count(is_party & ~table.carried_ca)}
            for party, is_party in ((DEM, table.pw_dem), (REP, ~table.pw_dem))},
        degenerate={"tied_state": int(table.tied_state.sum()),
                    "tied_popular": int(table.tied_popular.sum())},
        exact_full_splits=count(table.margin(table.senate_per_state) == 0),
        exact_house_splits=count(table.margin(0) == 0),
        records=_records(table) if keep_records else None,
        table=table,
    )


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

    def work(start):
        return trial_columns(model, dataset, seed, start, min(_CHUNK, trials - start))

    with ThreadPoolExecutor(max_workers=threads) as executor:
        parts = list(executor.map(work, starts))
    table = TrialTable(
        seed=seed,
        house_total=int(dataset.house_electors.sum()),
        n_states=len(dataset.house_electors),
        senate_per_state=dataset.senate_electors_base,
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
    ok = table.ok
    n = int(ok.sum())
    by_k = {int(k): _rate(int((ok & (table.margin(k) <= 0)).sum()), n)
            for k in k_values}
    limit = _rate(int((ok & (table.margin(None) <= 0)).sum()), n)
    return SweepResult(trials=table.trials, seed=table.seed, by_k=by_k,
                       states_won_limit=limit)


def _records(table: TrialTable) -> tuple:
    """OutcomeRecord view of the classified trials."""
    ok = table.ok
    return tuple(
        OutcomeRecord(trial=t, code=CODES[c], popular_winner=DEM if dem else REP,
                      electoral_winner_full=DEM if d > 0 else REP if d < 0 else None,
                      signed_electoral_diff=d, popular_winner_H=h,
                      popular_winner_S=table.senate_per_state * s, carried_california=ca)
        for t, c, dem, d, h, s, ca in zip(*(column.tolist() for column in (
            np.flatnonzero(ok), table.codes()[ok], table.pw_dem[ok], table.diffs()[ok],
            table.pw_house[ok], table.pw_states[ok], table.carried_ca[ok]))))


def emit_figure_data(table: TrialTable, which: str):
    """Tabular data behind the scatter figures and the per-trial records.

    Returns (header, columns) for cli.write_csv: one column per header name
    over the classified trials, in trial order, each a numpy array or, for
    the code and party letters, an (index, labels) pair.  `which` is one of
    scatter_HS, california_scatter, trials.  The difference histogram is
    RunSummary.diff_histogram.
    """
    ok = table.ok
    hs = [table.pw_house[ok], table.senate_per_state * table.pw_states[ok]]
    if which == "scatter_HS":
        return ["H", "S", "code"], [*hs, (table.codes()[ok], CODES)]
    carried = table.carried_ca[ok].astype(np.int8)
    if which == "california_scatter":
        return (["H", "S", "popular_winner", "carried_california"],
                [*hs, (table.pw_dem[ok].astype(np.int8), (REP, DEM)), carried])
    if which == "trials":
        dem = table.dem_pop[ok]
        return (["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"],
                [np.flatnonzero(ok), (table.codes()[ok], CODES), dem,
                 table.total_pop - dem, *hs, table.diffs()[ok], carried])
    raise ValueError(f"unknown figure kind {which!r}")

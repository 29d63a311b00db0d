"""Batches of simulated elections, counted by the four values every output reads.

Each trial is a pure function of (seed, trial_index), drawn once by a
kernel that returns the columns of a chunk's classified trials.  run_batch
counts each block of chunks into one array (see CELLS) and passes its rows
on for the figure files, so memory does not grow with the trials.  Every
summary counter and Senate-sweep rate is a sum over those cells: every
elector rule sees the same noise per trial (paired comparison), and serial,
threaded and any-chunk- or block-size runs give the same counts and rows.

Outcome codes: first letter is the popular winner's result with House and
Senate electors (W above 269 of 538), second letter with House electors
alone (W above 218 of 436).  An election is unpopular when the popular
winner fails to WIN, so an exact elector split counts as L, and is also
counted in exact_full_splits / exact_house_splits; so the Senate sweep's
k=0 and k=2 equal unpopular_house and unpopular_full exactly.  A state or
popular tie (probability zero under the continuous model) makes a trial
degenerate: it gets no row and no cell, and is counted, not resampled,
since resampling would bias frequencies.
"""

from __future__ import annotations

import json
import operator
import threading
from typing import NamedTuple

import numpy as np

from .dataset import CALIFORNIA, ELECTORS_TOTAL, HOUSE_TOTAL, N_STATES, ElectionDataset
from .generator import draw_noise_batch, generate_shares_batch
from .pca import PcaModel
from .tally import DEM, FULL, HOUSE_ONLY, REP, STATES_WON, TallyResult, pool

CODES = ("WW", "WL", "LW", "LL")
# the figure files of a run and their headers; trials.csv only with --emit-trials
FIGURES = {
    "scatter_hs.csv": ["H", "S", "code"],
    "california_scatter.csv": ["H", "S", "popular_winner", "carried_california"],
    "trials.csv": ["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"],
}
# every H, S and diff field: the ranges are fixed by the 436 House electors
# and 51 states that ElectionDataset enforces
H_FIELDS = tuple(map(str, range(HOUSE_TOTAL + 1)))
S_FIELDS = tuple(str(FULL * s) for s in range(N_STATES + 1))
DIFF_FIELDS = tuple(map(str, range(-ELECTORS_TOTAL, ELECTORS_TOTAL + 1)))
# the axes of RunSummary.cells: the popular winner's party (0 REP, 1 DEM),
# whether the winner carried California, House electors H and states carried S
CELLS = (2, 2, HOUSE_TOTAL + 1, N_STATES + 1)
_H, _S = np.ogrid[:HOUSE_TOTAL + 1, :N_STATES + 1]   # the (H, S) grid of the last two

DEFAULT_BIN_WIDTH = 20
_CHUNK = 2048   # alone, the kernel ran 340, 329, 321 and 321 ns a trial at chunks of 1024
# to 8192 (AMD EPYC, 1 MB of L2 a core), and larger chunks were no faster end to end
_BLOCK = 32 * _CHUNK   # trials per block: per-block work is rare, a block's rows a few MB
_AHEAD = 2   # blocks that a thread may draw ahead of the first trial not yet passed on
_local = threading.local()   # each thread's _scratch buffers


class ExactPopularTie(Exception):
    """Popular vote split exactly in half; no popular winner exists."""


class OutcomeRecord(NamedTuple):
    """Classification of a single simulated election."""

    trial: int
    code: str
    popular_winner: str
    signed_electoral_diff: int        # Democratic full electors - Republican
    popular_winner_H: int
    popular_winner_S: int
    carried_california: bool | None   # None when the tally is not 51 states


def classify(tally: TallyResult, trial: int = 0) -> OutcomeRecord:
    """Assign the two-letter outcome code to one tallied election.

    The scalar reference that run_batch's records are tested against.
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
        signed_electoral_diff=diff,
        popular_winner_H=house[side],
        popular_winner_S=full[side] - house[side],
        carried_california=carried_ca,
    )


def _margin(k: int | None, house=_H, states=_S) -> np.ndarray:
    """Popular winner's electors minus the rest in the pool of rule k (see
    tally.pool), over the (H, S) grid or per row of house and states.  The
    popular winner wins the pool iff margin > 0."""
    return 2 * pool(house, states, k) - pool(HOUSE_TOTAL, N_STATES, k)


def _code(house=_H, states=_S) -> np.ndarray:
    """Index into CODES, over the (H, S) grid or per row: 0=WW 1=WL 2=LW 3=LL."""
    return 2 * (_margin(FULL, house, states) <= 0) + (_margin(HOUSE_ONLY, house, states) <= 0)


def _diff(block: dict) -> np.ndarray:
    """Democratic full electors minus Republican, per row of a block."""
    full = _margin(FULL, block["pw_house"], block["pw_states"])
    return np.where(block["pw_dem"], full, -full)


def _unpopular(hs: np.ndarray, k: int | None) -> float:
    """Share of the trials counted on the (H, S) grid whose popular winner
    fails to win the pool of rule k."""
    return _rate(int((hs * (_margin(k) <= 0)).sum()), int(hs.sum()))


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
    """The columns of the classified trials among start..start+count-1, each
    drawn once: trial, the popular winner's pw_dem (the Democrat won),
    pw_house, pw_states and carried_ca, and dem_pop and rep_pop; and the
    numbers of the degenerate ones: tied_state, with some state's share
    exactly 0.5, and tied_popular, with an exact popular split and no state tie."""
    z = draw_noise_batch(seed, start, count, model.n_components)
    clamped = generate_shares_batch(model, z, out=_scratch("shares", count, N_STATES))
    np.clip(clamped, 0.0, 1.0, out=clamped)
    turnout = dataset.turnout.astype(float)
    # a row-wise sum, unlike a matrix-vector product, gives every row the
    # same bits wherever it sits in the chunk
    dem_pop = np.multiply(clamped, turnout, out=_scratch("votes", count, N_STATES)).sum(axis=1)
    total_pop = turnout.sum()
    ties = np.equal(clamped, 0.5, out=_scratch("win", count, N_STATES, bool))
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
        "trial": start + np.flatnonzero(keep),
        "pw_dem": pw_dem,
        "pw_house": np.where(pw_dem, house_d, HOUSE_TOTAL - house_d),
        "pw_states": np.where(pw_dem, states_d, N_STATES - states_d),
        "carried_ca": win[:, CALIFORNIA] == pw_dem,
        "dem_pop": dem_pop,
        "rep_pop": total_pop - dem_pop,
    }


def _count(block: dict) -> np.ndarray:
    """The classified trials of a block, counted into CELLS."""
    index = np.ravel_multi_index(
        (block["pw_dem"], block["carried_ca"], block["pw_house"], block["pw_states"]), CELLS)
    return np.bincount(index, minlength=np.prod(CELLS)).reshape(CELLS)


def histogram(values: np.ndarray, counts: np.ndarray, bin_width: int) -> list:
    """[lo, lo + bin_width, count] rows, in order, for the bins whose values,
    each occurring counts times, occur at all."""
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    los, index = np.unique(bin_width * (values // bin_width), return_inverse=True)
    sums = np.zeros(len(los), np.int64)
    np.add.at(sums, index, counts)
    return [[lo, lo + bin_width, c] for lo, c in zip(los.tolist(), sums.tolist()) if c]


def _rate(count: int, n: int) -> float:
    return count / n if n else 0.0


class RunSummary(NamedTuple):
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
    records: tuple | None = None
    cells: np.ndarray | None = None   # the classified trials counted, see CELLS

    def to_dict(self) -> dict:
        out = self._asdict()
        del out["records"], out["cells"]
        out["diff_histogram"] = {"bin_width": out.pop("bin_width"), "bins": self.diff_histogram}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def summarize(cells: np.ndarray, trials: int, seed: int, degenerate: dict,
              bin_width: int = DEFAULT_BIN_WIDTH) -> RunSummary:
    """Counters and frequencies of the trials counted in cells, each a sum
    over them; degenerate counts the trials that have no cell."""
    by_party = cells.sum(axis=1)   # [party, H, S]
    hs = by_party.sum(axis=0)
    n = int(hs.sum())
    codes, full = _code(), _margin(FULL)
    diffs = np.stack([-full, full])   # Democratic minus Republican, [party, H, S]
    unpopular = (codes >= 2) & (by_party > 0)   # the occupied cells of LW and LL
    code_counts = {name: int(hs[codes == i].sum()) for i, name in enumerate(CODES)}
    return RunSummary(
        trials=trials,
        seed=seed,
        n_classified=n,
        counts=code_counts,
        freq={c: _rate(code_counts[c], n) for c in CODES},
        unpopular_full=_unpopular(hs, FULL),
        unpopular_house=_unpopular(hs, HOUSE_ONLY),
        dem_win_rate=_rate(int(by_party[diffs > 0].sum()), n),
        states_won_unpopular=_unpopular(hs, STATES_WON),
        diff_histogram=histogram(diffs[unpopular], by_party[unpopular], bin_width),
        bin_width=bin_width,
        california_crosstab={
            party: {"carried": int(cells[i, 1].sum()), "missed": int(cells[i, 0].sum())}
            for party, i in ((DEM, 1), (REP, 0))},
        degenerate=degenerate,
        exact_full_splits=int(hs[full == 0].sum()),
        exact_house_splits=int(hs[_margin(HOUSE_ONLY) == 0].sum()),
        cells=cells,
    )


def run_batch(model: PcaModel, dataset: ElectionDataset, trials: int, seed: int,
              threads: int = 1, bin_width: int = DEFAULT_BIN_WIDTH,
              keep_records: bool = False, on_block=None) -> RunSummary:
    """Simulate, tally, and classify `trials` elections, drawing each once.

    The calling thread and up to `threads - 1` helpers, started once per run,
    draw chunks in trial order; none crosses a block's edge or starts _AHEAD
    blocks or more past the first trial not yet passed on.  As each block of
    _BLOCK trials is all in, the calling thread counts it into the cells and
    passes it to on_block(block), if given, so every row once and in order,
    while the helpers draw on.  A failed chunk's exception is raised once every
    thread is joined: the blocks before it are passed on, none after it."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells, records = np.zeros(CELLS, np.int64), []
    degenerate = {"tied_state": 0, "tied_popular": 0}
    parts, errors, ready = {}, {}, threading.Condition()   # ready guards pending and passed
    pending = passed = 0   # the next chunk's start; the first trial not yet passed on

    def work(until):   # draw chunks in order, each once within the look-ahead, until until()
        nonlocal pending
        while True:
            with ready:
                ready.wait_for(lambda: until() or pending < min(trials, passed + _AHEAD * _BLOCK))
                if until():
                    return
                start = pending   # its chunk ends at the next start, its block's end or the run's
                pending = end = min(start + _CHUNK, start - start % _BLOCK + _BLOCK, trials)
            try:
                parts[start] = trial_columns(model, dataset, seed, start, end - start)
            except BaseException as exc:   # it ends its block; raised once every thread is joined
                parts[start] = errors[start] = exc
            with ready:
                ready.notify_all()

    helpers = [threading.Thread(target=work, args=(lambda: pending == trials,))
               for _ in range(min(threads, -(-trials // _CHUNK)) - 1)]
    try:
        for thread in helpers:
            thread.start()
        for first in range(0, trials, _BLOCK):
            chunks = range(first, min(first + _BLOCK, trials), _CHUNK)
            work(lambda: all(start in parts for start in chunks))
            if any(start in errors for start in chunks):
                break
            columns = [parts.pop(start) for start in chunks]
            block = {name: np.concatenate([c[name] for c in columns]) for name in columns[0]}
            del columns   # frees the chunks' arrays before on_block runs
            cells += _count(block)
            for name in degenerate:
                degenerate[name] += len(block[name])
            if keep_records:
                records += _records(block)
            if on_block is not None:
                on_block(block)
            with ready:
                passed = chunks.stop
                ready.notify_all()
    finally:
        with ready:   # no chunk is left: each helper ends once its chunk in hand is drawn
            pending = trials
            ready.notify_all()
        for thread in filter(threading.Thread.is_alive, helpers):   # a failed start cannot join
            thread.join()
        vars(_local).clear()   # the calling thread's _scratch buffers
    if errors:   # the first failed chunk's, as when the chunks ran in order
        raise errors[min(errors)]
    summary = summarize(cells, trials, seed, degenerate, bin_width)
    return summary._replace(records=tuple(records)) if keep_records else summary


class SweepResult(NamedTuple):
    """Unpopular-election frequency as the per-state Senate elector count grows."""

    trials: int
    seed: int
    by_k: dict                 # k -> frequency
    states_won_limit: float    # limiting rule: most states carried wins

    def to_dict(self) -> dict:
        return {**self._asdict(), "by_k": {str(k): v for k, v in self.by_k.items()}}


def senate_sweep(summary: RunSummary, k_values=(0, 2, 10, 100)) -> SweepResult:
    """Unpopular frequency under the House + k per state rule for each k,
    from the summary's cells.

    A trial is unpopular when the popular winner fails to win a strict
    majority of the pool, so an exact split counts: by_k[0] is unpopular_house
    and by_k[2] unpopular_full.  Above HOUSE_TOTAL the margin has the sign of
    the odd 2S - 51, so every such k is counted as 437: the states-won rate.
    A k < 0 raises ValueError (see tally.pool), a non-integer k TypeError.
    """
    hs = summary.cells.sum(axis=(0, 1))
    by_k = {k: _unpopular(hs, min(k, HOUSE_TOTAL + 1)) for k in map(operator.index, k_values)}
    return SweepResult(trials=summary.trials, seed=summary.seed, by_k=by_k,
                       states_won_limit=_unpopular(hs, STATES_WON))


def _records(block: dict) -> list:
    """OutcomeRecord of each classified trial of a block."""
    house, states = block["pw_house"], block["pw_states"]
    return [
        OutcomeRecord(trial=t, code=CODES[c], popular_winner=DEM if dem else REP,
                      signed_electoral_diff=d, popular_winner_H=h,
                      popular_winner_S=FULL * s, carried_california=ca)
        for t, c, dem, d, h, s, ca in zip(*(column.tolist() for column in (
            block["trial"], _code(house, states), block["pw_dem"], _diff(block),
            house, states, block["carried_ca"])))]


def emit_figure_data(block: dict, emit_trials: bool) -> dict:
    """{name: columns} of one block's rows in the first two FIGURES, or all
    three with emit_trials, for csvout.write_csv.  Every bounded column is an
    (index, fields) pair whose fields cover its whole range: H, S, diff, the
    code, the party and California's 0/1; the trial number and the popular
    votes are numpy arrays."""
    house, states = block["pw_house"], block["pw_states"]
    hs = [(house, H_FIELDS), (states, S_FIELDS)]
    codes = (_code(house, states), CODES)
    carried = (block["carried_ca"].view(np.int8), ("0", "1"))
    files = [[*hs, codes], [*hs, (block["pw_dem"].view(np.int8), (REP, DEM)), carried]]
    if emit_trials:
        files.append([block["trial"], codes, block["dem_pop"], block["rep_pop"], *hs,
                      (_diff(block) + ELECTORS_TOTAL, DIFF_FIELDS), carried])
    return dict(zip(FIGURES, files))

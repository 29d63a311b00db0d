import csv
import io
import os
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elections import montecarlo as mc
from elections.csvout import write_csv
from elections.dataset import HOUSE_TOTAL, N_STATES, STATE_NAMES, ElectionDataset
from elections.generator import draw_noise, generate_shares
from elections.tally import (DEM, FULL, HOUSE_ONLY, REP, SCENARIO_SHARES, STATES_WON, TOY_HOUSE,
                             TOY_TURNOUT, TallyResult, electoral_totals, pool, tabulate)

import reference
from test_acceptance import HEADLINE_BANDS, headlines


def make_tally(dem_house, dem_states, dem_pop=6.0e7, rep_pop=5.9e7,
               house_total=436, n_states=51):
    carried = tuple([DEM] * dem_states + [REP] * (n_states - dem_states))
    return TallyResult(
        dem_pop=dem_pop, rep_pop=rep_pop, dem_house=dem_house,
        dem_states=dem_states, house_total=house_total, n_states=n_states,
        senate_per_state=2, carried=carried,
    )


TOTAL_POP = 1.2e8


def make_block(n, **columns):
    """Hand-built block of the kernel's columns: trials 0..n-1, identical WW
    trials and no degenerate one, overridden by columns."""
    none = np.zeros(0, np.intp)
    base = dict(tied_state=none, tied_popular=none, trial=np.arange(n), pw_dem=np.ones(n, bool),
                pw_house=np.full(n, 300), pw_states=np.full(n, 30),
                carried_ca=np.ones(n, bool), dem_pop=np.full(n, 6.1e7))
    block = {**base, **columns}
    return {**block, "rep_pop": TOTAL_POP - block["dem_pop"]}


def summarize_block(block, trials=None):
    """The summary of a run of `trials` trials (default: the block's rows) and one block."""
    degenerate = {name: len(block[name]) for name in ("tied_state", "tied_popular")}
    return mc.summarize(mc._count(block), len(block["trial"]) if trials is None else trials,
                        0, degenerate)


def run_blocks(*args, **kwargs):
    """run_batch's summary, and the columns of the blocks it passed on, joined."""
    blocks = []
    summary = mc.run_batch(*args, on_block=blocks.append, **kwargs)
    return summary, {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}


def test_classify_scenarios():
    for code in ("LW", "LL", "WL"):
        rec = mc.classify(electoral_totals(SCENARIO_SHARES[code], TOY_TURNOUT, TOY_HOUSE))
        assert rec.code == code
        assert rec.popular_winner == DEM


def test_classify_sweep_is_ww():
    t = electoral_totals([0.9] * 3, TOY_TURNOUT, TOY_HOUSE)
    rec = mc.classify(t)
    assert rec.code == "WW"
    assert rec.signed_electoral_diff > 0
    assert rec.carried_california is None  # not a 51-state tally


def test_classify_close_2000_style():
    # popular winner holds 225 House electors and 42 Senate electors:
    # loses the full college 267-271 but wins the House-only pool 225-211
    t = make_tally(dem_house=225, dem_states=21)
    rec = mc.classify(t, trial=9)
    assert rec.code == "LW"
    assert rec.trial == 9
    assert (rec.popular_winner_H, rec.popular_winner_S) == (225, 42)
    assert rec.signed_electoral_diff == 2 * 267 - 538 == -4
    assert rec.carried_california is True  # CA is index 4, inside the D block


def test_classify_exact_splits_count_as_l():
    t = make_tally(dem_house=219, dem_states=25)  # full pool splits 269-269
    rec = mc.classify(t)
    assert rec.code == "LW"
    assert rec.signed_electoral_diff == 0
    t2 = make_tally(dem_house=218, dem_states=25)  # house 218-218, full 268-270
    rec2 = mc.classify(t2)
    assert rec2.code == "LL"


def test_classify_popular_tie_raises():
    t = make_tally(dem_house=300, dem_states=30, dem_pop=5e7, rep_pop=5e7)
    with pytest.raises(mc.ExactPopularTie):
        mc.classify(t)


def test_single_trial_run(model, dataset):
    s = mc.run_batch(model, dataset, trials=1, seed=0)
    assert s.trials == 1 and s.n_classified == 1
    assert sorted(s.freq.values(), reverse=True)[0] == 1.0
    assert sum(s.counts.values()) == 1


def test_run_batch_counts_consistent(summary_20k):
    s = summary_20k
    assert s.trials == 20000
    assert s.n_classified + s.degenerate["tied_state"] + s.degenerate["tied_popular"] == 20000
    assert sum(s.counts.values()) == s.n_classified
    assert s.unpopular_full == (s.counts["LW"] + s.counts["LL"]) / s.n_classified
    assert s.unpopular_house == (s.counts["WL"] + s.counts["LL"]) / s.n_classified
    assert abs(sum(s.freq.values()) - 1.0) < 1e-12
    ct = s.california_crosstab
    assert sum(ct[p][k] for p in ("D", "R") for k in ("carried", "missed")) == s.n_classified
    assert sum(c for _, _, c in s.diff_histogram) == s.counts["LW"] + s.counts["LL"]


def test_records_match_per_trial_pipeline(model, dataset, summary_20k):
    """The records equal the scalar path's, called by the names and keywords
    that perfbench/checks.py's oracle_check uses."""
    from elections import classify, draw_noise, electoral_totals, generate_shares
    from elections.montecarlo import ExactPopularTie
    from elections.tally import TiedState

    by_trial = {r.trial: r for r in summary_20k.records}
    for trial in list(range(50)) + [4096, 11111, 19999]:
        shares = generate_shares(model, draw_noise(0, trial, model.n_components))
        try:
            t = electoral_totals(shares.clamped, dataset.turnout, dataset.house_electors,
                                 senate_per_state=dataset.senate_electors_base)
            record = classify(t, trial=trial)
        except (TiedState, ExactPopularTie):
            record = None
        assert record is not None and record == by_trial.get(trial)


def test_scalar_dem_pop_is_the_kernels_to_the_bit(model, dataset):
    """electoral_totals, fed one chunk's clamped shares, gives every row the
    kernel's dem_pop exactly: both are the row's sum of share times turnout,
    where a dot product rounds some rows differently."""
    from elections.generator import draw_noise_batch, generate_shares_batch

    z = draw_noise_batch(0, 0, mc._CHUNK, model.n_components)
    clamped = np.clip(generate_shares_batch(model, z), 0.0, 1.0)
    columns = mc.trial_columns(model, dataset, 0, 0, np.empty((mc._CHUNK, N_STATES)))
    scalar = [electoral_totals(clamped[t], dataset.turnout, dataset.house_electors).dem_pop
              for t in columns["trial"]]
    assert scalar == columns["dem_pop"].tolist()


def _with_chunk(monkeypatch, chunk, *args, **kwargs):
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    return mc.run_batch(*args, **kwargs)


def test_table_chunk_invariance(model, dataset, monkeypatch):
    """Every column of every block, and the counts, whatever the chunk and block sizes."""
    a_summary, a = run_blocks(model, dataset, trials=5000, seed=3)
    for chunk, block in ((777, 1000), (1, 3 * 777), (4096, 4096)):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        monkeypatch.setattr(mc, "_BLOCK", block)
        b_summary, b = run_blocks(model, dataset, trials=5000, seed=3)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), (chunk, name)
        assert np.array_equal(a_summary.cells, b_summary.cells)
        assert a_summary.to_json() == b_summary.to_json()


def test_one_row_last_chunk_matches_longer_run(model, dataset, monkeypatch):
    # trial 2048 of seed 4 is drawn alone in the last chunk; numpy's
    # matrix-vector product rounds its dem_pop differently from a matrix one
    monkeypatch.setattr(mc, "_CHUNK", 2048)
    short = run_blocks(model, dataset, trials=2049, seed=4)[1]
    long = run_blocks(model, dataset, trials=2100, seed=4)[1]
    for name in ("trial", "pw_dem", "pw_house", "pw_states", "carried_ca", "dem_pop", "rep_pop"):
        assert np.array_equal(short[name], long[name][:2049]), name


def test_kernel_columns_do_not_view_reused_buffers(model, dataset):
    """Two calls draw into one caller-owned matrix: the first call's columns
    are unchanged by the second, and no column of either views the matrix."""
    shares = np.empty((300, N_STATES))
    first = mc.trial_columns(model, dataset, 3, 0, shares)
    kept = {name: column.copy() for name, column in first.items()}
    second = mc.trial_columns(model, dataset, 4, 5000, shares)
    for name, column in first.items():
        assert np.array_equal(column, kept[name]), name
    for columns in (first, second):
        for name, column in columns.items():
            assert not np.shares_memory(column, shares), name


def test_electors_won_is_exact(dataset):
    """tabulate's float32 product gives the exact House electors and states
    the Democrat carried, on shares of 0 and 1 and an odd total turnout,
    which no row can split exactly."""
    house, turnout = dataset.house_electors, dataset.turnout.copy()
    turnout[0] += 1
    assert turnout.sum() % 2

    def electors(win):
        *_, keep, _, _, h, s, won = tabulate(win, turnout, house)
        assert keep.all() and np.array_equal(won, win)
        return h, s

    random = np.random.default_rng(0).random((1000, 51)) < 0.5
    for win in (random, np.ones((2, 51), bool), np.zeros((2, 51), bool)):
        h, s = electors(win)
        assert h.dtype == s.dtype == np.int64
        assert np.array_equal(h, win @ house) and np.array_equal(s, win.sum(axis=1))
    assert [v.tolist() for v in electors(np.ones((1, 51), bool))] == [[436], [51]]
    assert [v.tolist() for v in electors(np.zeros((1, 51), bool))] == [[0], [0]]


@pytest.mark.parametrize("threads", [2, 3, 7])
def test_serial_parallel_bit_identical(model, dataset, monkeypatch, threads):
    # small chunks give every pool thread work; 7 threads outnumber most CPUs
    monkeypatch.setattr(mc, "_CHUNK", 64)
    serial = mc.run_batch(model, dataset, trials=20000, seed=0, threads=1)
    parallel = mc.run_batch(model, dataset, trials=20000, seed=0, threads=threads)
    assert serial.to_json() == parallel.to_json()


def test_failed_chunk_raises_once_every_thread_is_joined(model, dataset, monkeypatch):
    kernel, threads = mc.trial_columns, threading.enumerate()

    def columns(model, dataset, seed, start, count):
        if start == 2 * mc._CHUNK:
            raise MemoryError("Unable to allocate chunk 2")
        return kernel(model, dataset, seed, start, count)

    monkeypatch.setattr(mc, "trial_columns", columns)
    with pytest.raises(MemoryError, match="chunk 2"):
        mc.run_batch(model, dataset, trials=6 * mc._CHUNK, seed=1, threads=3)
    assert threading.enumerate() == threads


def _small_blocks(monkeypatch):
    """Blocks of 4 chunks of 64 trials, so a run of a few blocks is quick."""
    monkeypatch.setattr(mc, "_CHUNK", 64)
    monkeypatch.setattr(mc, "_BLOCK", 4 * 64)


def test_the_first_failed_chunk_is_raised_though_it_fails_last(model, dataset, monkeypatch):
    _small_blocks(monkeypatch)
    kernel = mc.trial_columns

    def columns(model, dataset, seed, start, count):
        if start == mc._CHUNK:
            time.sleep(0.1)   # fails after the chunk behind it
            raise MemoryError("chunk 1")
        if start == 2 * mc._CHUNK:
            raise MemoryError("chunk 2")
        return kernel(model, dataset, seed, start, count)

    monkeypatch.setattr(mc, "trial_columns", columns)
    with pytest.raises(MemoryError, match="chunk 1"):
        mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=1, threads=3)


def test_every_chunk_is_drawn_once_under_fast_switching(model, dataset, monkeypatch):
    kernel, starts = mc.trial_columns, []

    def columns(model, dataset, seed, start, count):
        starts.append(start)
        return kernel(model, dataset, seed, start, count)

    serial = mc.run_batch(model, dataset, trials=1500, seed=5, threads=1)
    monkeypatch.setattr(mc, "_CHUNK", 1)
    monkeypatch.setattr(mc, "trial_columns", columns)
    for block in (mc._BLOCK, 100):   # one block, then 15 handed on in turn
        monkeypatch.setattr(mc, "_BLOCK", block)
        starts.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = mc.run_batch(model, dataset, trials=1500, seed=5, threads=16)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == list(range(1500))
        assert parallel.to_json() == serial.to_json()


def test_run_batch_rejects_zero_threads(model, dataset):
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        mc.run_batch(model, dataset, trials=100, seed=0, threads=0)


@pytest.mark.parametrize("name, value", [
    ("trials", True), ("trials", 100.0), ("seed", True), ("seed", -1), ("threads", 2.0),
    ("threads", True), ("bin_width", 2.5), ("bin_width", np.int64(0))])
def test_run_batch_rejects_a_non_integer_argument(model, dataset, monkeypatch, name, value):
    """A bool or a float is no count: trials=True once ran one trial and wrote
    "trials": true, and threads=2.0 and bin_width=2.5 ran.  Nothing is drawn."""
    monkeypatch.setattr(mc, "trial_columns", None)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
        mc.run_batch(model, dataset, **{"trials": 100, "seed": 0, name: value})


def test_run_batch_takes_numpy_integers(model, dataset):
    """A numpy integer counts as its value, and the summary still serializes."""
    expected = mc.run_batch(model, dataset, trials=100, seed=3, bin_width=7).to_json()
    summary = mc.run_batch(model, dataset, trials=np.int64(100), seed=np.int64(3),
                           threads=np.int32(2), bin_width=np.uint8(7))
    assert summary.to_json() == expected
    assert [type(summary.trials), type(summary.seed), type(summary.bin_width)] == [int] * 3


def test_threads_beyond_the_chunks_are_not_started(model, dataset, monkeypatch):
    kernel, start, counts, started = mc.trial_columns, threading.Thread.start, [], []

    def columns(*args):
        counts.append(threading.active_count())
        return kernel(*args)

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(mc, "trial_columns", columns)
    monkeypatch.setattr(threading.Thread, "start", counted)
    caller = threading.active_count()
    mc.run_batch(model, dataset, trials=100, seed=0, threads=200)
    assert counts and max(counts) <= caller + 1 and len(started) <= 1


def test_helpers_start_once_per_run_and_keep_their_buffers(model, dataset, monkeypatch):
    """A 5-block run at threads=3, the last block partial, starts two helper
    threads, and each draws all its chunks, across blocks, into the same
    share matrix, which no other thread draws into."""
    _small_blocks(monkeypatch)
    kernel, start, started, draws = mc.trial_columns, threading.Thread.start, [], []

    def columns(model, dataset, seed, first, shares):
        out = kernel(model, dataset, seed, first, shares)
        draws.append((threading.current_thread(), shares.base, first // mc._BLOCK))
        time.sleep(0.002)   # every thread gets chunks
        return out

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(mc, "trial_columns", columns)
    monkeypatch.setattr(threading.Thread, "start", counted)
    serial = mc.run_batch(model, dataset, trials=5 * mc._BLOCK - 100, seed=2, threads=1)
    assert started == []
    draws.clear()
    parallel = mc.run_batch(model, dataset, trials=5 * mc._BLOCK - 100, seed=2, threads=3)
    assert len(started) == 2 and parallel.to_json() == serial.to_json()
    helper_draws = [d for d in draws if d[0] in started]
    assert len({block for _, _, block in helper_draws}) > 1
    for thread in started:   # the matrices are held in draws, so no id is reused
        assert len({id(buf) for t, buf, _ in helper_draws if t is thread}) <= 1
    owners = {}   # no two threads, the calling thread among them, draw into one matrix
    for thread, buf, _ in draws:
        assert owners.setdefault(id(buf), thread) is thread


def test_on_block_holds_the_threads_at_the_look_ahead(model, dataset, monkeypatch):
    """While on_block waits on block 1, the threads draw every chunk that
    starts less than _AHEAD blocks past it, and none beyond."""
    _small_blocks(monkeypatch)
    kernel, drawn, passed = mc.trial_columns, [], []
    bound = mc._BLOCK + mc._AHEAD * mc._BLOCK

    def columns(model, dataset, seed, start, count):
        drawn.append(start)
        return kernel(model, dataset, seed, start, count)

    def on_block(block):
        if len(passed) == 1:
            deadline = time.monotonic() + 10
            while len(drawn) < bound // mc._CHUNK and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)   # time enough for a thread to overshoot
            passed.append(sorted(drawn))
        passed.append(block)

    monkeypatch.setattr(mc, "trial_columns", columns)
    mc.run_batch(model, dataset, trials=6 * mc._BLOCK, seed=2, threads=3, on_block=on_block)
    assert passed[1] == list(range(0, bound, mc._CHUNK))
    assert sorted(drawn) == list(range(0, 6 * mc._BLOCK, mc._CHUNK))


def test_the_calling_thread_keeps_to_the_look_ahead(model, dataset, monkeypatch):
    """With a slow helper, the calling thread runs ahead, but no chunk it
    takes starts _AHEAD blocks or more past the first trial not passed on."""
    _small_blocks(monkeypatch)
    kernel, passed, ahead = mc.trial_columns, [], []

    def columns(model, dataset, seed, start, count):
        # on_block appends as it returns, before run_batch moves the bound on
        ahead.append(start - len(passed) * mc._BLOCK)
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.01)
        return kernel(model, dataset, seed, start, count)

    monkeypatch.setattr(mc, "trial_columns", columns)
    mc.run_batch(model, dataset, trials=8 * mc._BLOCK, seed=2, threads=2,
                 on_block=passed.append)
    assert len(passed) == 8
    assert max(ahead) < mc._AHEAD * mc._BLOCK
    assert max(ahead) >= mc._BLOCK   # the calling thread did draw ahead


def test_a_failed_on_block_stops_the_run(model, dataset, monkeypatch):
    """An OSError from on_block at block 1 propagates, no later block is
    passed on, and every helper thread is joined."""
    _small_blocks(monkeypatch)
    threads, passed = threading.enumerate(), []

    def on_block(block):
        passed.append(block)
        if len(passed) == 2:
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        mc.run_batch(model, dataset, trials=5 * mc._BLOCK, seed=2, threads=3, on_block=on_block)
    assert len(passed) == 2
    assert threading.enumerate() == threads


def test_a_chunk_failing_during_on_block_raises_after_it(model, dataset, monkeypatch):
    """A helper's chunk of block 2 that fails while on_block(block 1) runs
    raises once that call has returned, and block 2 is not passed on."""
    _small_blocks(monkeypatch)
    kernel, threads, events = mc.trial_columns, threading.enumerate(), []
    landed, in_block_1, failed = set(), threading.Event(), threading.Event()

    def columns(model, dataset, seed, start, count):
        if start == 2 * mc._BLOCK:
            events.append(("failed while on_block(1) ran", in_block_1.wait(10)))
            failed.set()
            raise MemoryError("Unable to allocate a chunk of block 2")
        out = kernel(model, dataset, seed, start, count)
        landed.add(start)
        return out

    def on_block(block):
        n = sum(event[0] == "returned" for event in events)
        if n == 0:   # block 1 is all drawn, so the calling thread takes no chunk of block 2
            deadline = time.monotonic() + 10
            while not landed >= set(range(mc._BLOCK, 2 * mc._BLOCK, mc._CHUNK)):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            time.sleep(0.02)
        if n == 1:
            in_block_1.set()
            assert failed.wait(10)
        events.append(("returned", n))

    monkeypatch.setattr(mc, "trial_columns", columns)
    with pytest.raises(MemoryError, match="block 2"):
        mc.run_batch(model, dataset, trials=5 * mc._BLOCK, seed=2, threads=3, on_block=on_block)
    assert events == [("returned", 0), ("failed while on_block(1) ran", True), ("returned", 1)]
    assert threading.enumerate() == threads


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity API")
def test_calling_thread_keeps_its_mask(model, dataset):
    before = os.sched_getaffinity(0)
    mc.run_batch(model, dataset, trials=5000, seed=1, threads=3)
    assert os.sched_getaffinity(0) == before


MASK = {3, 5}


def _fake_affinity(monkeypatch, mask=MASK):
    """os.sched_getaffinity and os.sched_setaffinity on a made-up mask, each
    thread's set kept apart.  Returns calls, the (thread, cpus) of every call
    ("get" for a read), and current, each thread's set."""
    calls, current = [], {}

    def get(pid):
        assert pid == 0
        calls.append((threading.current_thread(), "get"))
        return set(current.get(threading.current_thread(), mask))

    def put(pid, cpus):
        assert pid == 0
        calls.append((threading.current_thread(), set(cpus)))
        current[threading.current_thread()] = set(cpus)

    monkeypatch.setattr(os, "sched_getaffinity", get, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", put, raising=False)
    return calls, current


def _started(monkeypatch):
    """The threads started from now on, in order."""
    start, started = threading.Thread.start, []

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _slow_chunks(monkeypatch):
    """Chunks that take a few ms each, so every drawing thread gets some."""
    kernel = mc.trial_columns

    def columns(*args):
        time.sleep(0.002)
        return kernel(*args)

    monkeypatch.setattr(mc, "trial_columns", columns)


@pytest.mark.parametrize("threads, firsts", [(2, [{3}, {5}]), (3, [{3}, {5}, {3}])])
def test_each_drawing_thread_starts_on_its_own_cpu(model, dataset, monkeypatch, threads, firsts):
    """Drawing thread i, the calling thread 0, draws its first chunk on the
    mask's i-th CPU alone, round-robin, and then gets the whole mask back."""
    _small_blocks(monkeypatch)
    _slow_chunks(monkeypatch)
    calls, current = _fake_affinity(monkeypatch)
    started, caller, at_block = _started(monkeypatch), threading.current_thread(), []
    mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=2, threads=threads,
                 on_block=lambda block: at_block.append(current[caller]))
    assert calls[0] == (caller, "get") and [c for _, c in calls].count("get") == 1
    assert at_block == [MASK] * 3   # the first chunk only
    for thread, first in zip([caller, *started], firsts, strict=True):
        assert [c for t, c in calls if t is thread and c != "get"][:2] == [first, MASK]
        assert current[thread] == MASK


@pytest.mark.parametrize("end", ["return", "failed chunk", "on_block", "placed"])
def test_the_calling_thread_gets_its_mask_back_however_the_run_ends(model, dataset, monkeypatch,
                                                                    end):
    """After a normal return, a chunk that raises, an on_block that raises
    KeyboardInterrupt, and a KeyboardInterrupt that lands as the calling
    thread is placed, before its first chunk, its set is the mask again."""
    _small_blocks(monkeypatch)
    _slow_chunks(monkeypatch)
    kernel, caller = mc.trial_columns, threading.current_thread()
    calls, current = _fake_affinity(monkeypatch)
    put = os.sched_setaffinity

    def columns(model, dataset, seed, start, shares):
        if start == mc._BLOCK:
            raise MemoryError("chunk of block 1")
        return kernel(model, dataset, seed, start, shares)

    def on_block(block):
        raise KeyboardInterrupt

    def placed(pid, cpus):
        put(pid, cpus)
        if threading.current_thread() is caller:
            monkeypatch.setattr(os, "sched_setaffinity", put)
            raise KeyboardInterrupt

    error = {"failed chunk": MemoryError, "on_block": KeyboardInterrupt,
             "placed": KeyboardInterrupt}.get(end)
    if end == "failed chunk":
        monkeypatch.setattr(mc, "trial_columns", columns)
    if end == "placed":
        monkeypatch.setattr(os, "sched_setaffinity", placed)
    with pytest.raises(error) if error else nullcontext():
        mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=2, threads=2,
                     on_block=on_block if end == "on_block" else None)
    assert [c for t, c in calls if t is caller][:2] == ["get", {3}]
    assert current[caller] == MASK


@pytest.mark.parametrize("mask, threads, trials", [
    (MASK, 1, 3 * 256), ({4}, 2, 3 * 256), (MASK, 3, 64)])
def test_no_thread_is_placed_alone_or_on_one_cpu(model, dataset, monkeypatch, mask, threads,
                                                 trials):
    """threads=1, a one-CPU mask and a run of one chunk place nothing; only
    the one-CPU mask is read."""
    _small_blocks(monkeypatch)
    calls, _ = _fake_affinity(monkeypatch, mask)
    expected = mc.run_batch(model, dataset, trials=trials, seed=4, threads=1).to_json()
    assert mc.run_batch(model, dataset, trials=trials, seed=4, threads=threads).to_json() \
        == expected
    assert [c for _, c in calls] == (["get"] if len(mask) == 1 else [])


def test_no_affinity_call_without_the_api(model, dataset, monkeypatch):
    _small_blocks(monkeypatch)
    calls, _ = _fake_affinity(monkeypatch)
    monkeypatch.delattr(os, "sched_setaffinity")
    mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=4, threads=2)
    assert calls == []


@pytest.mark.parametrize("broken", ["sched_setaffinity", "sched_getaffinity"])
def test_an_affinity_error_changes_no_output(model, dataset, monkeypatch, broken):
    _small_blocks(monkeypatch)
    expected = mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=4, threads=1).to_json()
    _fake_affinity(monkeypatch)

    def fails(*args):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, broken, fails)
    assert mc.run_batch(model, dataset, trials=3 * mc._BLOCK, seed=4,
                        threads=2).to_json() == expected


def test_chunk_size_invariance(model, dataset, monkeypatch):
    a = _with_chunk(monkeypatch, 4096, model, dataset, trials=5000, seed=1)
    b = _with_chunk(monkeypatch, 777, model, dataset, trials=5000, seed=1)
    assert a.to_json() == b.to_json()


def test_sweep_identities(summary_20k, sweep_20k):
    s, sw = summary_20k, sweep_20k
    assert sw.by_k[0] == s.unpopular_house
    assert sw.by_k[2] == s.unpopular_full
    assert sw.states_won_limit == s.states_won_unpopular
    assert sw.trials == s.trials and sw.seed == s.seed


def test_sweep_values_sane(sweep_20k):
    for k, freq in sweep_20k.by_k.items():
        assert 0.03 <= freq <= 0.09, (k, freq)
    assert 0.03 <= sweep_20k.states_won_limit <= 0.09


def test_sweep_rejects_negative_k(summary_20k):
    for ks in ((-1,), (2**64, -1)):   # a huge k beside it does not hide it
        with pytest.raises(ValueError):
            mc.senate_sweep(summary_20k, k_values=ks)
    with pytest.raises(ValueError):
        mc._unpopular(summary_20k.cells.sum(axis=(0, 1)), -1)


def test_sweep_rejects_non_integer_k(summary_20k, sweep_20k):
    """Each k is checked as tally.pool checks it, before the sweep's clamp to 437."""
    # a k of 2.9 once took the key 2 with its own rate, hiding k = 2's
    for ks in ((2, 2.5, 2.9), (2**64, 2.0**64), (1e20,), ("2",)):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            mc.senate_sweep(summary_20k, k_values=ks)
    # operator.index takes True as 1, so k = True once reported k = 1
    for ks in ((True,), (0, False), (2, np.bool_(True))):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            mc.senate_sweep(summary_20k, k_values=ks)
    sweep = mc.senate_sweep(summary_20k, k_values=np.array([0, 2, 10, 100]))
    assert sweep == sweep_20k and [type(k) for k in sweep.by_k] == [int] * 4


def test_sweep_at_the_largest_k(summary_20k, sweep_20k):
    """51 states never split evenly, so above k = 436 the states carried decide:
    at k = 10**16 - 1 and 10**17, and at k = 2**62, 10**18 and 2**64 too,
    where 436 + 51 k leaves int64."""
    ks = (437, 10**16 - 1, 10**17, 2**62, 10**18, 2**64)
    sweep = mc.senate_sweep(summary_20k, k_values=ks)
    assert sweep.by_k == dict.fromkeys(ks, sweep_20k.states_won_limit)


def test_model_headlines_lie_in_the_gate_bands(model, dataset):
    """The model's own headline frequencies, not only seed 0's, lie in acceptance
    criterion 5's frozen bands: at 2M trials the SE is about 0.00017, and the
    model's values lie at least 14 SE inside every edge, so any seed passes.
    Seed 52's 20k unpopular_house falls below the band's 0.059."""
    summary = mc.run_batch(model, dataset, trials=2_000_000, seed=52, threads=2)
    values = headlines(summary, mc.senate_sweep(summary))
    for name, (low, high) in HEADLINE_BANDS.items():
        assert low <= values[name] <= high, f"{name}={values[name]:.5f}"


def test_run_batch_rejects_zero_trials(model, dataset):
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=0, seed=0)
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=10, seed=0, bin_width=0)


@pytest.mark.parametrize("bin_width", [0, -5, 2.5, True])
def test_histogram_rejects_bin_width_below_one(summary_20k, bin_width):
    """The histogram checks the width it divides by, whoever calls it."""
    with pytest.raises(ValueError, match="bin_width must be an integer >= 1"):
        mc.histogram(np.array([-45, -3, 0, 17]), np.ones(4, np.int64), bin_width)
    with pytest.raises(ValueError, match="bin_width must be an integer >= 1"):
        mc.summarize(summary_20k.cells, 20000, 0, summary_20k.degenerate, bin_width)


def test_histogram_drops_empty_bins():
    """A bin whose values all have count 0 gets no row, as np.unique gives no
    bin for a value that is not there; a value counted twice counts twice."""
    values, counts = np.array([-45, -41, -3, 0, 17, 538]), np.array([2, 1, 0, 0, 1, 0])
    assert mc.histogram(values, counts, 20) == [[-60, -40, 3], [0, 20, 1]]
    assert mc.histogram(values, np.zeros(6, np.int64), 20) == []
    assert mc.histogram(values[:0], counts[:0], 7) == []


def test_all_degenerate_table_reductions():
    block = make_block(0, tied_state=np.array([0, 1]), tied_popular=np.array([2]))
    s = summarize_block(block, trials=3)
    assert s.trials == 3 and s.n_classified == 0
    assert s.degenerate == {"tied_state": 2, "tied_popular": 1}
    assert set(s.freq.values()) == {0.0}
    assert (s.unpopular_full, s.unpopular_house, s.dem_win_rate,
            s.states_won_unpopular) == (0.0, 0.0, 0.0, 0.0)
    assert s.diff_histogram == []
    sw = mc.senate_sweep(s)
    assert set(sw.by_k.values()) == {0.0} and sw.states_won_limit == 0.0


def test_trial_numbers_skip_degenerate_trials():
    # trials 1 and 3 are degenerate; rows 0..2 are trials 0, 2 and 4, and the
    # popular winner loses the full college in trial 2 only
    block = make_block(3, trial=np.array([0, 2, 4]), tied_state=np.array([1]),
                       tied_popular=np.array([3]), pw_house=np.array([300, 200, 300]))
    columns = mc.emit_figure_data(block, True)["trials.csv"]
    assert _values(columns[mc.FIGURES["trials.csv"].index("trial")]) == [0, 2, 4]
    records = mc._records(block)
    assert [(r.trial, r.code) for r in records] == [(0, "WW"), (2, "LL"), (4, "WW")]
    s = summarize_block(block, trials=5)
    assert (s.trials, s.n_classified) == (5, 3)
    assert s.degenerate == {"tied_state": 1, "tied_popular": 1}
    sw = mc.senate_sweep(s, k_values=(0, 2, 10**6))
    assert sw.by_k == {0: 1 / 3, 2: 1 / 3, 10**6: 0.0}
    assert sw.states_won_limit == 0.0 == s.states_won_unpopular
    assert (s.unpopular_house, s.unpopular_full) == (1 / 3, 1 / 3)


def test_kernel_drops_degenerate_trials(model, dataset, monkeypatch):
    """The first trial of each chunk is made a state tie: it gets no row and
    no cell, and the other rows are those of the untouched run."""
    monkeypatch.setattr(mc, "_CHUNK", 3)
    monkeypatch.setattr(mc, "_BLOCK", 6)
    clean = run_blocks(model, dataset, trials=8, seed=5)[1]
    original = mc.generate_shares_batch

    def tie_first_row(*args, **kwargs):
        shares = original(*args, **kwargs)
        shares[0, 0] = 0.5
        return shares

    monkeypatch.setattr(mc, "generate_shares_batch", tie_first_row)
    s, block = run_blocks(model, dataset, trials=8, seed=5)
    assert block["tied_state"].tolist() == [0, 3, 6] and block["tied_popular"].tolist() == []
    assert block["trial"].tolist() == [1, 2, 4, 5, 7]
    assert (s.trials, s.n_classified) == (8, 5) and s.cells.sum() == 5
    assert s.degenerate == {"tied_state": 3, "tied_popular": 0}
    for name in ("pw_dem", "pw_house", "pw_states", "carried_ca", "dem_pop", "rep_pop"):
        assert np.array_equal(block[name], clean[name][block["trial"]]), name


def _raw_shares(rng, rows, coin, half):
    """A raw share matrix for the kernel to clamp: cells spread around 0.5 and
    past both ends, or with coin cells of -0.25, 0, 1 and 1.25 only, which
    small turnouts can split exactly; 2% of cells set to 0.0 or 1.0, and the
    share `half` of them to exactly 0.5."""
    if coin:
        m = rng.choice([-0.25, 0.0, 1.0, 1.25], size=(rows, N_STATES))
    else:
        m = rng.normal(0.5, 0.3, (rows, N_STATES))
    u = rng.random((rows, N_STATES))
    m[u < 0.02] = rng.choice([0.0, 1.0], size=int((u < 0.02).sum()))
    m[u > 1 - half] = 0.5
    return m


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from([1, 2]) | st.integers(1, 299), min_size=1, max_size=4),
       coin=st.booleans(), bundled=st.booleans(), half=st.sampled_from([0.0, 0.005, 0.02]))
@example(seed=2, sizes=[1, 299, 1], coin=True, bundled=False, half=0.005)   # 14 popular ties
@example(seed=0, sizes=[2, 1, 299], coin=False, bundled=True, half=0.02)
def test_kernel_matches_the_reference(model, dataset, seed, sizes, coin, bundled, half):
    """Every trial_columns column, and every trials.csv field, equals the
    per-state loop of tests/reference.py, row by row, on drawn share matrices
    fed to the kernel in chunks of 1 to 299 rows, on the bundled turnouts and
    House electors or on drawn ones."""
    rng = np.random.default_rng(seed)
    if not bundled:   # small turnouts make exact popular splits common
        house = 1 + rng.multinomial(HOUSE_TOTAL - N_STATES, np.full(N_STATES, 1 / N_STATES))
        dataset = ElectionDataset(dataset.years, dataset.shares,
                                  rng.integers(1, 4, N_STATES), house)
    matrices = [_raw_shares(rng, rows, coin, half) for rows in sizes]
    starts = np.cumsum([7, *sizes[:-1]]).tolist()   # the chunks of one run, from trial 7 on

    def drawn(model, z, out=None):   # the share draw of the chunk after the last one kept
        out[:] = matrices[len(chunks)]
        return out

    chunks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "generate_shares_batch", drawn)
        for start, count in zip(starts, sizes):
            chunks.append(mc.trial_columns(model, dataset, seed, start,
                                           np.empty((count, N_STATES))))
    block = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}

    california = STATE_NAMES.index("California")
    expected = {"tied_state": [], "tied_popular": [], "trial": [], "outcome": []}
    for start, m in zip(starts, matrices):
        for i, raw in enumerate(m.tolist()):
            row = [min(max(share, 0.0), 1.0) for share in raw]
            ref = reference.tally_row(row, dataset.turnout, dataset.house_electors, california)
            if isinstance(ref, str):
                expected[ref].append(start + i)
            else:
                expected["trial"].append(start + i)
                expected["outcome"].append(ref)
    outcomes = expected.pop("outcome")
    for name, trials in expected.items():
        assert block[name].tolist() == trials, name
    for name, field in (("pw_dem", "dem"), ("pw_house", "house"), ("pw_states", "states"),
                        ("carried_ca", "carried_ca"), ("dem_pop", "dem_pop"),
                        ("rep_pop", "rep_pop")):
        assert block[name].tolist() == [getattr(r, field) for r in outcomes], name

    text = io.BytesIO()
    write_csv(text, mc.FIGURES["trials.csv"], mc.emit_figure_data(block, True)["trials.csv"])
    rows = list(csv.reader(io.StringIO(text.getvalue().decode())))
    assert rows[0] == mc.FIGURES["trials.csv"]
    assert rows[1:] == [
        [str(t), r.code, repr(r.dem_pop), repr(r.rep_pop), str(r.house),
         str(reference.SENATE * r.states),
         str(r.diff), str(int(r.carried_ca))]
        for t, r in zip(expected["trial"], outcomes)]


def test_summary_json_round_trip(summary_20k):
    import json

    d = json.loads(summary_20k.to_json())
    assert d["trials"] == 20000
    assert set(d["counts"]) == set(mc.CODES)
    assert d["diff_histogram"]["bin_width"] == mc.DEFAULT_BIN_WIDTH


def test_summary_json_keys(summary_20k):
    d = summary_20k.to_dict()
    assert set(d) == {
        "trials", "seed", "n_classified", "counts", "freq", "unpopular_full",
        "unpopular_house", "dem_win_rate", "states_won_unpopular", "diff_histogram",
        "california_crosstab", "degenerate", "exact_full_splits", "exact_house_splits"}
    assert set(d["diff_histogram"]) == {"bin_width", "bins"}


def _values(column) -> list:
    """A column's values; an (index, labels) pair stands for labels[index]."""
    if isinstance(column, tuple):
        index, labels = column
        return [labels[i] for i in index.tolist()]
    return column.tolist()


def _rows(columns) -> list:
    return list(zip(*map(_values, columns)))


FIELD_COUNTS = {"H": 437, "S": 52, "diff": 1077, "code": 4, "popular_winner": 2,
                "carried_california": 2, "california": 2}


def _field_counts(block) -> dict:
    """{header name: {number of fields}} of the (index, fields) pairs of the
    three figure files; the other columns are numpy arrays."""
    counts = {}
    for name, columns in mc.emit_figure_data(block, True).items():
        for field, column in zip(mc.FIGURES[name], columns):
            if isinstance(column, tuple):
                counts.setdefault(field, set()).add(len(column[1]))
            else:
                assert field in ("trial", "dem_pop", "rep_pop")
                assert isinstance(column, np.ndarray)
    return counts


HEADERS = {
    "scatter_hs.csv": ["H", "S", "code"],
    "california_scatter.csv": ["H", "S", "popular_winner", "carried_california"],
    "trials.csv": ["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"]}


def test_emit_figure_data(model, dataset):
    """Each pair's fields cover its whole range, whatever the block holds."""
    summary, block = run_blocks(model, dataset, trials=20000, seed=0, keep_records=True)
    for b in (block, make_block(1)):
        assert _field_counts(b) == {name: {n} for name, n in FIELD_COUNTS.items()}
    assert mc.FIGURES == HEADERS
    records = summary.records
    for emit_trials, names in ((False, list(HEADERS)[:2]), (True, list(HEADERS))):
        files = mc.emit_figure_data(block, emit_trials)
        assert list(files) == names
        assert all(len(columns) == len(HEADERS[name]) for name, columns in files.items())
    columns = files["scatter_hs.csv"]
    assert columns[2][1] == mc.CODES
    assert _rows(columns) == [(str(r.popular_winner_H), str(r.popular_winner_S), r.code)
                              for r in records]
    columns = files["california_scatter.csv"]
    assert _rows(columns) == [(str(r.popular_winner_H), str(r.popular_winner_S), r.popular_winner,
                               str(int(r.carried_california))) for r in records]
    rows = _rows(files["trials.csv"])
    assert len(rows) == len(records) == summary.n_classified
    for (trial, code, dem_pop, rep_pop, h, s, diff, ca), rec in zip(rows, records):
        assert (trial, code, h, s, diff, ca) == (
            rec.trial, rec.code, str(rec.popular_winner_H), str(rec.popular_winner_S),
            str(rec.signed_electoral_diff), str(int(rec.carried_california)))
        assert (dem_pop > rep_pop) == (rec.popular_winner == DEM)


def test_figure_files_at_the_ends_of_each_range():
    """Rows at both ends of H, S and diff, with both parties, both California
    values and all four codes, are written as csv.writer writes their values."""
    import csv
    import io

    from elections.csvout import write_csv

    # pw_house, pw_states, pw_dem, carried_ca, and the code and diff they give
    rows = [(436, 51, True, True, "WW", 538), (0, 0, True, False, "LL", -538),
            (436, 51, False, False, "WW", -538), (0, 0, False, True, "LL", 538),
            (200, 51, True, True, "WL", 66), (250, 0, False, False, "LW", 38)]
    house, states, dem, ca, codes, diffs = (np.array(c) for c in zip(*rows))
    block = make_block(len(rows), trial=np.array([0, 1, 3, 4, 5, 6]),
                       tied_popular=np.array([2]), pw_house=house, pw_states=states,
                       pw_dem=dem, carried_ca=ca, dem_pop=np.where(dem, 6.1e7, 5.9e7))
    party, s = np.where(dem, DEM, REP), 2 * states
    ca, rep_pop = ca.astype(int), TOTAL_POP - block["dem_pop"]
    expected = {
        "scatter_hs.csv": zip(house, s, codes),
        "california_scatter.csv": zip(house, s, party, ca),
        "trials.csv": zip([0, 1, 3, 4, 5, 6], codes, map(repr, block["dem_pop"].tolist()),
                          map(repr, rep_pop.tolist()), house, s, diffs, ca)}
    files = mc.emit_figure_data(block, True)
    for name, values in expected.items():
        header = mc.FIGURES[name]
        out, buf = io.BytesIO(), io.StringIO()
        write_csv(out, header, files[name])
        csv.writer(buf, lineterminator="\n").writerows([header, *values])
        assert out.getvalue().decode() == buf.getvalue()
    assert [mc.CODES[c] for c in mc._code(house, states)] == codes.tolist()
    assert mc._diff(block).tolist() == diffs.tolist()


def test_field_tables_are_built_once_and_read_only(model, dataset, monkeypatch):
    """Writing two blocks with one schema builds each distinct (index, fields)
    table once, and a table is read-only, so no caller can change the text of
    a later file."""
    import io

    from elections import csvout

    monkeypatch.setattr(mc, "_BLOCK", 3000)
    blocks = []
    mc.run_batch(model, dataset, trials=5000, seed=1, on_block=blocks.append)
    assert len(blocks) == 2
    files = [mc.emit_figure_data(block, True) for block in blocks]
    pairs = [c[1] for f in files for columns in f.values() for c in columns
             if isinstance(c, tuple)]
    csvout._fields.cache_clear()
    for f in files:
        for columns in f.values():
            csvout.write_csv(io.BytesIO(), None, columns)
    info = csvout._fields.cache_info()
    assert (info.misses, info.hits) == (len(set(pairs)), len(pairs) - len(set(pairs))) == (6, 18)
    table = csvout._fields(mc.H_FIELDS)
    with pytest.raises(ValueError):
        table[:, 0] = ord("9")
    assert csvout._fields(mc.H_FIELDS) is table
    assert bytes(table[:, 0]) == b"0\xff\xff"


def test_emit_figure_data_errors():
    import io

    from elections.csvout import write_csv

    degenerate = make_block(0, tied_state=np.array([0]))
    for name, columns in mc.emit_figure_data(degenerate, True).items():
        header = HEADERS[name]
        assert len(columns) == len(header) and all(_values(c) == [] for c in columns)
        for head, text in ((header, ",".join(header) + "\n"), (None, "")):
            out = io.BytesIO()
            write_csv(out, head, columns)   # the header only, or nothing
            assert out.getvalue().decode() == text
        out = io.BytesIO()
        write_csv(out, header, [])
        assert out.getvalue().decode() == ",".join(header) + "\n"


def test_emit_histogram_empty_when_all_ww():
    block = make_block(1)
    assert mc.CODES[mc._code(block["pw_house"], block["pw_states"])[0]] == "WW"
    s = summarize_block(block)
    assert s.n_classified == 1 and s.diff_histogram == []


# (H, S) of the popular winner: any pair, or one of the exact splits (H + 2 S = 269
# for the full college, H = 218 for House electors alone) and the ends
HS = (st.tuples(st.integers(0, 436), st.integers(0, 51))
      | st.sampled_from([(219, 25), (269, 0), (218, 26), (218, 25), (0, 0), (436, 51)]))
ROWS = st.lists(st.tuples(st.booleans(), st.booleans(), HS), max_size=40)


@settings(max_examples=200, deadline=None)
@given(blocks=st.lists(ROWS, min_size=1, max_size=4), tied=st.tuples(st.integers(0, 3),
       st.integers(0, 3)), bin_width=st.integers(1, 40) | st.just(10**9 - 1),
       k_values=st.lists(st.integers(0, 600) | st.just(10**16 - 1), max_size=5))
def test_counts_match_per_trial_reductions(blocks, tied, bin_width, k_values):
    """Every summary field and sweep rate from the counts of random blocks equals
    the per-trial reduction of the trial table the counts replaced."""
    columns = [{"pw_dem": np.array([r[0] for r in rows], bool),
                "carried_ca": np.array([r[1] for r in rows], bool),
                "pw_house": np.array([r[2][0] for r in rows], np.int64),
                "pw_states": np.array([r[2][1] for r in rows], np.int64)} for rows in blocks]
    cells = sum(mc._count(block) for block in columns)
    s = mc.summarize(cells, int(cells.sum()) + sum(tied), 0,
                     {"tied_state": tied[0], "tied_popular": tied[1]}, bin_width)
    sweep = mc.senate_sweep(s, k_values)

    # the trial table's columns and formulas
    dem, ca, house, states = (np.concatenate([block[name] for block in columns]) for name in
                              ("pw_dem", "carried_ca", "pw_house", "pw_states"))
    n = len(dem)

    def margin(k):
        return 2 * pool(house, states, k) - pool(436, 51, k)

    def rate(count):
        return count / n if n else 0.0

    def unpopular(k):
        return rate(int((margin(k) <= 0).sum()))

    codes = 2 * (margin(FULL) <= 0) + (margin(HOUSE_ONLY) <= 0)
    diffs = np.where(dem, margin(FULL), -margin(FULL))
    code_counts = {name: int((codes == i).sum()) for i, name in enumerate(mc.CODES)}
    los, hist = np.unique(bin_width * (diffs[codes >= 2] // bin_width), return_counts=True)
    assert s.to_dict() == {
        "trials": n + sum(tied), "seed": 0, "n_classified": n, "counts": code_counts,
        "freq": {c: rate(code_counts[c]) for c in mc.CODES},
        "unpopular_full": unpopular(FULL), "unpopular_house": unpopular(HOUSE_ONLY),
        "dem_win_rate": rate(int((diffs > 0).sum())),
        "states_won_unpopular": unpopular(STATES_WON),
        "diff_histogram": {"bin_width": bin_width, "bins": [
            [lo, lo + bin_width, c] for lo, c in zip(los.tolist(), hist.tolist())]},
        "california_crosstab": {
            party: {"carried": int((is_party & ca).sum()), "missed": int((is_party & ~ca).sum())}
            for party, is_party in ((DEM, dem), (REP, ~dem))},
        "degenerate": {"tied_state": tied[0], "tied_popular": tied[1]},
        "exact_full_splits": int((margin(FULL) == 0).sum()),
        "exact_house_splits": int((margin(HOUSE_ONLY) == 0).sum())}
    assert sweep.by_k == {k: unpopular(k) for k in k_values}
    assert sweep.states_won_limit == unpopular(STATES_WON)

import os
import sys
import threading

import numpy as np
import pytest

from elections import montecarlo as mc
from elections import scenarios
from elections.generator import draw_noise, generate_shares
from elections.tally import DEM, REP, TallyResult, electoral_totals


def make_tally(dem_house, dem_states, dem_pop=6.0e7, rep_pop=5.9e7,
               house_total=436, n_states=51):
    carried = tuple([DEM] * dem_states + [REP] * (n_states - dem_states))
    return TallyResult(
        dem_pop=dem_pop, rep_pop=rep_pop, dem_house=dem_house,
        dem_states=dem_states, house_total=house_total, n_states=n_states,
        senate_per_state=2, carried=carried,
    )


def make_table(n, **columns):
    """Hand-built TrialTable of n identical WW trials and no degenerate one,
    overridden by columns."""
    none = np.zeros(0, np.intp)
    base = dict(seed=0, trials=n, total_pop=1.2e8, tied_state=none, tied_popular=none,
                pw_dem=np.ones(n, bool),
                pw_house=np.full(n, 300), pw_states=np.full(n, 30),
                carried_ca=np.ones(n, bool), dem_pop=np.full(n, 6.1e7))
    return mc.TrialTable(**{**base, **columns})


def test_classify_scenarios():
    for code in ("LW", "LL", "WL"):
        rec = mc.classify(scenarios.run_scenario(code).tally)
        assert rec.code == code
        assert rec.popular_winner == DEM


def test_classify_sweep_is_ww():
    t = electoral_totals([0.9] * 3, scenarios.TOY_TURNOUT, scenarios.TOY_HOUSE)
    rec = mc.classify(t)
    assert rec.code == "WW"
    assert rec.electoral_winner_full == DEM
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
    assert rec.electoral_winner_full == REP
    assert rec.carried_california is True  # CA is index 4, inside the D block


def test_classify_exact_splits_count_as_l():
    t = make_tally(dem_house=219, dem_states=25)  # full pool splits 269-269
    rec = mc.classify(t)
    assert rec.code == "LW"
    assert rec.electoral_winner_full is None
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
    by_trial = {r.trial: r for r in summary_20k.records}
    for trial in list(range(50)) + [4096, 11111, 19999]:
        z = draw_noise(0, trial, model.n_components)
        shares = generate_shares(model, z).clamped
        t = electoral_totals(shares, dataset.turnout, dataset.house_electors)
        assert mc.classify(t, trial=trial) == by_trial[trial]


def _with_chunk(monkeypatch, chunk, *args, **kwargs):
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    return mc.run_batch(*args, **kwargs)


def test_table_chunk_invariance(model, dataset, monkeypatch):
    a = _with_chunk(monkeypatch, 4096, model, dataset, trials=5000, seed=3).table
    for chunk in (777, 1):
        b = _with_chunk(monkeypatch, chunk, model, dataset, trials=5000, seed=3).table
        for name in mc.TrialTable._fields:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (chunk, name)


def test_one_row_last_chunk_matches_longer_run(model, dataset, monkeypatch):
    # trial 2048 of seed 4 is drawn alone in the last chunk; numpy's
    # matrix-vector product rounds its dem_pop differently from a matrix one
    short = _with_chunk(monkeypatch, 2048, model, dataset, trials=2049, seed=4).table
    long = _with_chunk(monkeypatch, 2048, model, dataset, trials=2100, seed=4).table
    for name in ("pw_dem", "pw_house", "pw_states", "carried_ca", "dem_pop"):
        assert np.array_equal(getattr(short, name), getattr(long, name)[:2049]), name


def test_kernel_columns_do_not_view_reused_buffers(model, dataset):
    first = mc.trial_columns(model, dataset, 3, 0, 300)
    kept = {name: column.copy() for name, column in first.items()}
    mc.trial_columns(model, dataset, 4, 5000, 300)
    buffers = vars(mc._local).values()
    assert buffers
    for name, column in first.items():
        assert np.array_equal(column, kept[name]), name
        assert not any(np.shares_memory(column, buf) for buf in buffers), name


def test_electors_won_is_exact(dataset):
    house = dataset.house_electors
    random = np.random.default_rng(0).random((1000, 51)) < 0.5
    for win in (random, np.ones((2, 51), bool), np.zeros((2, 51), bool)):
        h, s = mc._electors_won(win, house)
        assert h.dtype == s.dtype == np.int64
        assert np.array_equal(h, win @ house) and np.array_equal(s, win.sum(axis=1))
    assert mc._electors_won(np.ones((1, 51), bool), house).tolist() == [[436], [51]]
    assert mc._electors_won(np.zeros((1, 51), bool), house).tolist() == [[0], [0]]


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


def test_every_chunk_is_drawn_once_under_fast_switching(model, dataset, monkeypatch):
    kernel, starts = mc.trial_columns, []

    def columns(model, dataset, seed, start, count):
        starts.append(start)
        return kernel(model, dataset, seed, start, count)

    serial = mc.run_batch(model, dataset, trials=1500, seed=5, threads=1)
    monkeypatch.setattr(mc, "_CHUNK", 1)
    monkeypatch.setattr(mc, "trial_columns", columns)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = mc.run_batch(model, dataset, trials=1500, seed=5, threads=16)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(starts) == list(range(1500))
    assert parallel.to_json() == serial.to_json()


def test_run_batch_rejects_zero_threads(model, dataset):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        mc.run_batch(model, dataset, trials=100, seed=0, threads=0)


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity API")
def test_calling_thread_keeps_its_mask(model, dataset):
    before = os.sched_getaffinity(0)
    mc.run_batch(model, dataset, trials=5000, seed=1, threads=3)
    assert os.sched_getaffinity(0) == before


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
    with pytest.raises(ValueError):
        mc.senate_sweep(summary_20k.table, k_values=(-1,))
    with pytest.raises(ValueError):
        summary_20k.table.margin(-1)


def test_sweep_rejects_non_integer_k(summary_20k, sweep_20k):
    # a k of 2.9 once took the key 2 with its own rate, hiding k = 2's
    with pytest.raises(TypeError):
        mc.senate_sweep(summary_20k.table, k_values=(2, 2.5, 2.9))
    sweep = mc.senate_sweep(summary_20k.table, k_values=np.array([0, 2, 10, 100]))
    assert sweep == sweep_20k and [type(k) for k in sweep.by_k] == [int] * 4


def test_run_batch_rejects_zero_trials(model, dataset):
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=0, seed=0)
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=10, seed=0, bin_width=0)


@pytest.mark.parametrize("bin_width", [0, -5])
def test_histogram_rejects_bin_width_below_one(summary_20k, bin_width):
    """The histogram checks the width it divides by, whoever calls it."""
    with pytest.raises(ValueError, match="bin_width must be >= 1"):
        mc.histogram(np.array([-45, -3, 0, 17]), bin_width)
    with pytest.raises(ValueError, match="bin_width must be >= 1"):
        mc.summarize(summary_20k.table, bin_width)


def test_all_degenerate_table_reductions():
    table = make_table(0, trials=3, tied_state=np.array([0, 1]), tied_popular=np.array([2]))
    s = mc.summarize(table)
    assert s.trials == 3 and s.n_classified == 0
    assert s.degenerate == {"tied_state": 2, "tied_popular": 1}
    assert set(s.freq.values()) == {0.0}
    assert (s.unpopular_full, s.unpopular_house, s.dem_win_rate,
            s.states_won_unpopular) == (0.0, 0.0, 0.0, 0.0)
    assert s.diff_histogram == []
    sw = mc.senate_sweep(table)
    assert set(sw.by_k.values()) == {0.0} and sw.states_won_limit == 0.0


def test_trial_numbers_skip_degenerate_trials():
    # trials 1 and 3 are degenerate; rows 0..2 are trials 0, 2 and 4, and the
    # popular winner loses the full college in trial 2 only
    table = make_table(3, trials=5, tied_state=np.array([1]), tied_popular=np.array([3]),
                       pw_house=np.array([300, 200, 300]))
    assert table.numbers().tolist() == [0, 2, 4]
    header, columns = mc.emit_figure_data(table, True)["trials.csv"]
    assert _values(columns[header.index("trial")]) == [0, 2, 4]
    s = mc.summarize(table, keep_records=True)
    assert [(r.trial, r.code) for r in s.records] == [(0, "WW"), (2, "LL"), (4, "WW")]
    assert (s.trials, s.n_classified) == (5, 3)
    assert s.degenerate == {"tied_state": 1, "tied_popular": 1}
    sw = mc.senate_sweep(table, k_values=(0, 2, 10**6))
    assert sw.by_k == {0: 1 / 3, 2: 1 / 3, 10**6: 0.0}
    assert sw.states_won_limit == 0.0 == s.states_won_unpopular
    assert (s.unpopular_house, s.unpopular_full) == (1 / 3, 1 / 3)


def test_kernel_drops_degenerate_trials(model, dataset, monkeypatch):
    """The first trial of each chunk is made a state tie: it gets no row,
    and the other rows are those of the untouched run."""
    clean = _with_chunk(monkeypatch, 3, model, dataset, trials=8, seed=5).table
    original = mc.generate_shares_batch

    def tie_first_row(*args, **kwargs):
        shares = original(*args, **kwargs)
        shares[0, 0] = 0.5
        return shares

    monkeypatch.setattr(mc, "generate_shares_batch", tie_first_row)
    table = _with_chunk(monkeypatch, 3, model, dataset, trials=8, seed=5).table
    assert table.tied_state.tolist() == [0, 3, 6] and table.tied_popular.tolist() == []
    assert table.trials == 8 and table.numbers().tolist() == [1, 2, 4, 5, 7]
    for name in ("pw_dem", "pw_house", "pw_states", "carried_ca", "dem_pop"):
        assert np.array_equal(getattr(table, name), getattr(clean, name)[table.numbers()])


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


def _field_counts(table) -> dict:
    """{header name: {number of fields}} of the (index, fields) pairs of the
    three figure files; the other columns are numpy arrays."""
    counts = {}
    for header, columns in mc.emit_figure_data(table, True).values():
        for name, column in zip(header, columns):
            if isinstance(column, tuple):
                counts.setdefault(name, set()).add(len(column[1]))
            else:
                assert name in ("trial", "dem_pop", "rep_pop")
                assert isinstance(column, np.ndarray)
    return counts


HEADERS = {
    "scatter_hs.csv": ["H", "S", "code"],
    "california_scatter.csv": ["H", "S", "popular_winner", "carried_california"],
    "trials.csv": ["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"]}


def test_emit_figure_data(summary_20k):
    """Each pair's fields cover its whole range, whatever the table holds."""
    for table in (summary_20k.table, make_table(1)):
        assert _field_counts(table) == {name: {n} for name, n in FIELD_COUNTS.items()}
    table, records = summary_20k.table, summary_20k.records
    for emit_trials, names in ((False, mc.FIGURES[:2]), (True, mc.FIGURES)):
        files = mc.emit_figure_data(table, emit_trials)
        assert tuple(files) == names
        assert {name: header for name, (header, _) in files.items()} == {
            name: HEADERS[name] for name in names}
    columns = files["scatter_hs.csv"][1]
    assert columns[2][1] == mc.CODES
    assert _rows(columns) == [(str(r.popular_winner_H), str(r.popular_winner_S), r.code)
                              for r in records]
    columns = files["california_scatter.csv"][1]
    assert _rows(columns) == [(str(r.popular_winner_H), str(r.popular_winner_S), r.popular_winner,
                               str(int(r.carried_california))) for r in records]
    header, columns = files["trials.csv"]
    assert len(header) == len(columns) == 8
    rows = _rows(columns)
    assert len(rows) == len(records) == summary_20k.n_classified
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
    table = make_table(len(rows), trials=len(rows) + 1, tied_popular=np.array([2]),
                       pw_house=house, pw_states=states, pw_dem=dem, carried_ca=ca,
                       dem_pop=np.where(dem, 6.1e7, 5.9e7))
    party, s = np.where(dem, DEM, REP), 2 * states
    ca, rep_pop = ca.astype(int), table.total_pop - table.dem_pop
    expected = {
        "scatter_hs.csv": zip(house, s, codes),
        "california_scatter.csv": zip(house, s, party, ca),
        "trials.csv": zip([0, 1, 3, 4, 5, 6], codes, map(repr, table.dem_pop.tolist()),
                          map(repr, rep_pop.tolist()), house, s, diffs, ca)}
    files = mc.emit_figure_data(table, True)
    for name, values in expected.items():
        header, columns = files[name]
        out, buf = io.BytesIO(), io.StringIO()
        write_csv(out, header, columns)
        csv.writer(buf, lineterminator="\n").writerows([header, *values])
        assert out.getvalue().decode() == buf.getvalue()
    assert [mc.CODES[c] for c in table.codes()] == codes.tolist()
    assert table.diffs().tolist() == diffs.tolist()


def test_emit_figure_data_errors():
    import io

    from elections.csvout import write_csv

    degenerate = make_table(0, trials=1, tied_state=np.array([0]))
    for name, (header, columns) in mc.emit_figure_data(degenerate, True).items():
        assert header == HEADERS[name]
        assert len(columns) == len(header) and all(_values(c) == [] for c in columns)
        out = io.BytesIO()
        write_csv(out, header, columns)   # the header only
        assert out.getvalue().decode() == ",".join(header) + "\n"


def test_emit_histogram_empty_when_all_ww():
    table = make_table(1)
    assert mc.CODES[table.codes()[0]] == "WW"
    s = mc.summarize(table)
    assert s.n_classified == 1 and s.diff_histogram == []

import dataclasses
import os
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
    base = dict(seed=0, trials=n, house_total=436, n_states=51,
                total_pop=1.2e8, tied_state=none, tied_popular=none,
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
        for f in dataclasses.fields(mc.TrialTable):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (chunk, f.name)


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


def test_serial_parallel_bit_identical(model, dataset):
    serial = mc.run_batch(model, dataset, trials=20000, seed=0, threads=1)
    parallel = mc.run_batch(model, dataset, trials=20000, seed=0, threads=4)
    assert serial.to_json() == parallel.to_json()


def _placed_run(monkeypatch, model, dataset, threads, mask=(3, 5), setaffinity=None):
    """(serial JSON, JSON on `threads` pool threads, affinity calls as
    (thread, pid, cpus)) with a fake mask; `setaffinity` replaces the
    recording fake, and False removes the call.  Each thread gets one chunk
    and holds it until every thread has one, so the pool starts all of them."""
    monkeypatch.setattr(mc, "_CHUNK", 64)
    serial = mc.run_batch(model, dataset, trials=64 * threads, seed=5, threads=1)
    calls = []
    barrier = threading.Barrier(threads, timeout=30)
    kernel = mc.trial_columns

    def chunk(*args):
        barrier.wait()
        return kernel(*args)

    def record(pid, cpus):
        calls.append((threading.get_ident(), pid, set(cpus)))

    monkeypatch.setattr(mc, "trial_columns", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    if setaffinity is False:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity or record, raising=False)
    placed = mc.run_batch(model, dataset, trials=64 * threads, seed=5, threads=threads)
    return serial.to_json(), placed.to_json(), calls


@pytest.mark.parametrize("mask, threads", [((3, 5), 2), ((4,), 3)])
def test_pool_threads_start_on_separate_cpus(model, dataset, monkeypatch, mask, threads):
    serial, placed, calls = _placed_run(monkeypatch, model, dataset, threads, mask)
    assert placed == serial
    by_thread = {}
    for ident, pid, cpus in calls:
        assert pid == 0   # the calling thread, never the process
        by_thread.setdefault(ident, []).append(cpus)
    assert len(by_thread) == threads and threading.get_ident() not in by_thread
    firsts = []
    for asked in by_thread.values():
        assert len(asked) == 2 and len(asked[0]) == 1 and asked[1] == set(mask)
        firsts += asked[0]
    # round-robin over the mask, wrapping when threads outnumber its CPUs
    assert sorted(firsts) == sorted(mask[i % len(mask)] for i in range(threads))


def test_one_thread_makes_no_affinity_call(model, dataset, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append(pid) or {0},
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(pid),
                        raising=False)
    mc.run_batch(model, dataset, trials=5000, seed=1, threads=1)
    assert calls == []


def _refuse(pid, cpus):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("api", ["refused", "missing"])
def test_unplaced_threads_give_the_same_output(model, dataset, monkeypatch, api):
    serial, placed, calls = _placed_run(monkeypatch, model, dataset, 2,
                                        setaffinity=_refuse if api == "refused" else False)
    assert placed == serial and calls == []


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


def test_run_batch_rejects_zero_trials(model, dataset):
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=0, seed=0)
    with pytest.raises(ValueError):
        mc.run_batch(model, dataset, trials=10, seed=0, bin_width=0)


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
    header, columns = mc.emit_figure_data(table, "trials")
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


def test_emit_figure_data(summary_20k):
    table, records = summary_20k.table, summary_20k.records
    header, columns = mc.emit_figure_data(table, "scatter_HS")
    assert header == ["H", "S", "code"]
    assert all(isinstance(c, np.ndarray) for c in columns[:2])
    assert columns[2][1] == mc.CODES
    assert _rows(columns) == [(r.popular_winner_H, r.popular_winner_S, r.code)
                              for r in records]
    header, columns = mc.emit_figure_data(table, "california_scatter")
    assert header == ["H", "S", "popular_winner", "carried_california"]
    assert _rows(columns) == [(r.popular_winner_H, r.popular_winner_S, r.popular_winner,
                               int(r.carried_california)) for r in records]
    header, columns = mc.emit_figure_data(table, "trials")
    assert len(header) == len(columns) == 8
    rows = _rows(columns)
    assert len(rows) == len(records) == summary_20k.n_classified
    for (trial, code, dem_pop, rep_pop, h, s, diff, ca), rec in zip(rows, records):
        assert (trial, code, h, s, diff, ca) == (
            rec.trial, rec.code, rec.popular_winner_H, rec.popular_winner_S,
            rec.signed_electoral_diff, int(rec.carried_california))
        assert (dem_pop > rep_pop) == (rec.popular_winner == DEM)


def test_emit_figure_data_errors(summary_20k, tmp_path):
    from elections.cli import write_csv

    degenerate = make_table(0, trials=1, tied_state=np.array([0]))
    for kind in ("scatter_HS", "california_scatter", "trials"):
        header, columns = mc.emit_figure_data(degenerate, kind)
        assert header == mc.emit_figure_data(summary_20k.table, kind)[0]
        assert len(columns) == len(header) and all(_values(c) == [] for c in columns)
        write_csv(tmp_path / "empty.csv", header, columns)   # the header only
        assert (tmp_path / "empty.csv").read_text() == ",".join(header) + "\n"
    for kind in ("pie_chart", "diff_histogram"):  # the histogram is the summary's
        with pytest.raises(ValueError):
            mc.emit_figure_data(summary_20k.table, kind)


def test_emit_histogram_empty_when_all_ww():
    table = make_table(1)
    assert mc.CODES[table.codes()[0]] == "WW"
    s = mc.summarize(table)
    assert s.n_classified == 1 and s.diff_histogram == []

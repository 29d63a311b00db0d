import contextlib
import csv
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from elections.cli import build_parser, main
from elections.csvout import DIGITS, SLICE_ROWS, write_csv
from elections.generator import RANGES

import reference

# the exclusive upper bounds of simulate's bounded integer flags, from the library's table
TRIALS_LIMIT, SEED_LIMIT, THREADS_LIMIT, BINS_LIMIT = (
    RANGES[name][1] for name in ("trials", "seed", "threads", "bin_width"))


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


SCENARIO_STDOUT = """\
LW, unpopular with Senate electors only
state  A%    pop A  pop B   H+S A  H+S B   H A  H B
    1  53%    159    141       5      0     3    0
    2  47%     47     53       0      3     0    1
    3  47%     47     53       0      3     0    1
total          253    247       5      6     3    2

LL, unpopular under either method
state  A%    pop A  pop B   H+S A  H+S B   H A  H B
    1  49%    147    153       0      5     0    3
    2  49%     49     51       0      3     0    1
    3  65%     65     35       3      0     1    0
total          261    239       3      8     1    4

WL, unpopular with House electors only
state  A%    pop A  pop B   H+S A  H+S B   H A  H B
    1  49%    147    153       0      5     0    3
    2  53%     53     47       3      0     1    0
    3  53%     53     47       3      0     1    0
total          253    247       6      5     2    3

LW: popular 253-247, full 5-6, house 3-2  [ok]
LL: popular 261-239, full 3-8, house 1-4  [ok]
WL: popular 253-247, full 6-5, house 2-3  [ok]
"""


def test_scenario_command(capsys):
    """The whole table, every per-state and total row, and the three checks."""
    code, out, err = run(["scenario"], capsys)
    assert code == 0
    assert out == SCENARIO_STDOUT


def test_scenario_mismatch_is_exit_1(capsys, monkeypatch):
    """The check reads the paper's totals from the one scenario table: a total
    that the tally does not give is a MISMATCH line, after which it stops."""
    from elections import tally

    wrong = tally.SCENARIOS["LL"]._replace(paper=(261, 239, 3, 8, 1, 5))
    monkeypatch.setitem(tally.SCENARIOS, "LL", wrong)
    stopped = SCENARIO_STDOUT.replace("1-4  [ok]", "1-4  [MISMATCH]").split("WL: popular")[0]
    assert run(["scenario"], capsys) == (1, stopped, "")


def test_pca_json(capsys):
    code, out, err = run(["pca"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 12
    assert len(d["eigenvalues"]) == 11
    assert len(d["mean"]) == 51
    assert len(d["variance_explained"]) == 11
    assert d["variance_explained"][-1] == pytest.approx(1.0)


def test_pca_loadings_csv(capsys):
    code, out, err = run(["pca", "--loadings", "2"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["state", "eigenvec2"]
    assert len(rows) == 52
    coeffs = [float(r[1]) for r in rows[1:]]
    assert coeffs == sorted(coeffs)


@pytest.mark.parametrize("start_year, components", [(1964, 11), (1992, 4)])
def test_pca_loadings_are_csv_writers_text(capsys, start_year, components):
    """Every component's table is what csv.writer writes of the repr'd coefficients,
    on pytest's stdout and on a text-only one, which has no binary buffer."""
    from elections import fit_pca, load_bundled_dataset
    from elections.pca import loadings_report

    model = fit_pca(load_bundled_dataset().restrict_years(start_year))
    assert model.n_components == components
    for j in range(1, components + 1):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["state", f"eigenvec{j}"])
        for name, coeff in loadings_report(model, j):
            writer.writerow([name, repr(coeff)])
        argv = ["pca", "--start-year", str(start_year), "--loadings", str(j)]
        assert run(argv, capsys)[:2] == (0, buf.getvalue())
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue() == buf.getvalue()


def test_pca_loadings_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--loadings", "12"])
    assert exc.value.code == 2


def test_invalid_start_year(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--start-year", "2100"])
    assert exc.value.code == 2


@pytest.mark.parametrize("year, same_as", [("1966", ["--start-year", "1968"]), ("1900", [])])
def test_start_year_is_a_lower_bound(capsys, year, same_as):
    """Any year drops the elections before it: 1966 fits 1968's model and a year
    before the bundled history fits the default one, byte for byte."""
    assert run(["pca", "--start-year", year], capsys) == run(["pca", *same_as], capsys)


def test_start_year_too_few_elections(capsys):
    # 2004 leaves only 2 elections
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--start-year", "2004"])
    assert exc.value.code == 2


def test_start_year_warning(capsys):
    code, out, err = run(["pca", "--start-year", "1988"], capsys)
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["n"] == 6


def test_mismatched_data_flags(tmp_path, capsys, save_dataset):
    """Either data flag may come alone: the other is then the bundled file, so
    the run equals one given that file by path, and differs from the default."""
    from pathlib import Path

    import elections

    data = Path(elections.__file__).parent / "data"
    bundled = {"--shares": data / "elections_1964_2008.csv",
               "--structure": data / "structure_2008.csv"}
    default = elections.load_bundled_dataset()
    shares, structure = _saved_pair(save_dataset, tmp_path, shares=default.shares[::-1],
                                    turnout=default.turnout // 7)
    argv = ["simulate", "--trials", "500", "--emit-trials", "--out"]
    assert run([*argv, str(tmp_path / "default")], capsys)[0] == 0
    for flag, other, path in (("--shares", "--structure", shares),
                              ("--structure", "--shares", structure)):
        alone, paired = tmp_path / f"{flag}-alone", tmp_path / f"{flag}-paired"
        assert run([*argv, str(alone), flag, str(path)], capsys)[0] == 0
        assert run([*argv, str(paired), flag, str(path), other, str(bundled[other])],
                   capsys)[0] == 0
        assert _files(alone) == _files(paired) != _files(tmp_path / "default")


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, out, err = run(["simulate", "--trials", "300", "--seed", "5",
                          "--out", str(out1)], capsys)
    assert code == 0
    assert "unpopular_full=" in out
    code, _, _ = run(["simulate", "--trials", "300", "--seed", "5",
                      "--out", str(out2)], capsys)
    assert code == 0
    for name in ("run_summary.json", "senate_sweep.json", "scatter_hs.csv",
                 "diff_histogram.csv", "california_scatter.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "run_summary.json").read_text())
    assert summary["trials"] == 300 and summary["seed"] == 5
    rows = list(csv.reader(io.StringIO((out1 / "diff_histogram.csv").read_text())))
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert [[int(x) for x in r] for r in rows[1:]] == summary["diff_histogram"]["bins"] != []
    sweep = json.loads((out1 / "senate_sweep.json").read_text())
    assert sweep["by_k"]["0"] == summary["unpopular_house"]
    assert sweep["by_k"]["2"] == summary["unpopular_full"]


def test_simulate_threads_match_serial(tmp_path, capsys):
    outputs = {}
    for threads in ("1", "2", "4"):
        out = tmp_path / threads
        assert run(["simulate", "--trials", "9000", "--seed", "2", "--threads",
                    threads, "--out", str(out), "--emit-trials"], capsys)[0] == 0
        outputs[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert len(outputs["1"]) == 6  # the five figure/summary files and trials.csv
    assert outputs["1"] == outputs["2"] == outputs["4"]


@pytest.mark.parametrize("trials", [2049, 6145])
def test_simulate_block_size_and_threads_match(tmp_path, capsys, monkeypatch, trials):
    """Every output byte is the same whatever the block size and the thread
    count: blocks of one chunk and of three chunks, on 1, 2 and 7 threads."""
    from elections import montecarlo

    def files(name, threads):
        out = tmp_path / name
        assert run(["simulate", "--trials", str(trials), "--seed", "20", "--threads",
                    str(threads), "--emit-trials", "--out", str(out)], capsys)[0] == 0
        return _files(out)

    expected = files("default", 1)
    assert len(expected) == 6
    for block in (montecarlo._CHUNK, 3 * montecarlo._CHUNK):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        for threads in (1, 2, 7):
            assert files(f"{block}-{threads}", threads) == expected, (block, threads)


def test_simulate_draws_each_trial_once(tmp_path, capsys, monkeypatch):
    from elections import generator, montecarlo

    drawn = []
    original = generator.draw_noise_batch

    def counting(*args, **kwargs):
        z = original(*args, **kwargs)
        drawn.append(len(z))
        return z

    for module in (generator, montecarlo):
        monkeypatch.setattr(module, "draw_noise_batch", counting)
    assert run(["simulate", "--trials", "5000", "--out", str(tmp_path),
                "--emit-trials"], capsys)[0] == 0
    assert sum(drawn) == 5000


def test_simulate_emit_trials(tmp_path, capsys):
    out_dir = tmp_path / "r"
    code, _, _ = run(["simulate", "--trials", "50", "--seed", "0",
                      "--out", str(out_dir), "--emit-trials"], capsys)
    assert code == 0
    with open(out_dir / "trials.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["trial", "code", "dem_pop", "rep_pop", "H", "S",
                       "diff", "california"]
    assert len(rows) == 51  # header + 50 classified trials
    for r in rows[1:]:
        assert r[1] in ("WW", "WL", "LW", "LL")
        assert float(r[2]) > 0 and float(r[3]) > 0


@pytest.mark.parametrize("trials, seed, start_year, n_clamped", [
    (20000, 0, 1964, 41), (5000, 1, 1964, 20), (5000, 2**128 - 1, 1964, 10), (5000, 2, 1992, 0)])
def test_trials_csv_matches_the_reference(tmp_path, capsys, trials, seed, start_year, n_clamped):
    """Every 10th trial, and each of the n_clamped trials that the clip changes,
    drawn, projected, clamped and tallied by tests/reference.py alone: its
    trials.csv row has the same code, H, S, diff and California bit, and dem_pop
    and rep_pop to rel 1e-12.  BLAS sums in its own order, so no compared share
    may lie within 1e-12 of 0.5."""
    import numpy as np

    from elections import fit_pca, load_bundled_dataset
    from elections.dataset import STATE_NAMES
    from elections.generator import draw_noise_batch

    assert run(["simulate", "--trials", str(trials), "--seed", str(seed), "--emit-trials",
                "--start-year", str(start_year), "--out", str(tmp_path)], capsys)[0] == 0
    with open(tmp_path / "trials.csv", newline="") as f:
        rows = {int(row[0]): row for row in list(csv.reader(f))[1:]}
    data = load_bundled_dataset().restrict_years(start_year)
    model = fit_pca(data)
    mean, lam, vecs = model.mean.tolist(), model.eigenvalues.tolist(), model.eigenvectors.tolist()
    # the trials that the clip changes: the sample alone might miss them all
    raw = model.mean + (draw_noise_batch(seed, 0, trials, len(lam)) * np.sqrt(model.eigenvalues)
                        @ model.eigenvectors)
    clamped = np.flatnonzero(((raw < 0) | (raw > 1)).any(axis=1)).tolist()
    assert len(clamped) == n_clamped
    nearest = 1.0
    for t in sorted({*range(0, trials, 10), *clamped}):
        row = reference.project(reference.normals(seed, t, len(lam)), mean, lam, vecs)
        ref = reference.tally_row(row, data.turnout, data.house_electors,
                                  STATE_NAMES.index("California"))
        assert not isinstance(ref, str) and t in rows, t   # no tie in these runs
        nearest = min(nearest, *(abs(share - 0.5) for share in row))
        assert rows[t][1:2] + rows[t][4:] == [
            ref.code, str(ref.house), str(reference.SENATE * ref.states), str(ref.diff),
            str(int(ref.carried_ca))], t
        assert float(rows[t][2]) == pytest.approx(ref.dem_pop, rel=1e-12, abs=0)
        assert float(rows[t][3]) == pytest.approx(ref.rep_pop, rel=1e-12, abs=0)
    assert nearest > 1e-12


def test_report_command(tmp_path, capsys):
    out_dir = tmp_path / "r"
    assert run(["simulate", "--trials", "500", "--seed", "1",
                "--out", str(out_dir)], capsys)[0] == 0
    code, out, err = run(["report", str(out_dir / "run_summary.json")], capsys)
    assert code == 0
    assert "Simulated elections: 500" in out
    assert "Unpopular, full electoral college" in out
    assert "California effect" in out


@pytest.mark.parametrize("args", [
    ["--trials", "0"], ["--seed", "-1"], ["--k-values", "0", "-1"],
    ["--bins", "0"], ["--bins", "-5"], ["--threads", "-3"], ["--trials", "x"],
    ["--seed", str(2**128)],
], ids=["trials=0", "seed=-1", "k-values=-1", "bins=0", "bins=-5", "threads=-3",
        "trials=x", "seed=2**128"])
def test_simulate_usage_errors(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "5000", "--out", str(tmp_path / "r"), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and args[0] in err
    assert not (tmp_path / "r").exists()


# only invalid values: a valid --threads would start that many threads, and one
# at or above THREADS_LIMIT fails at parse time and starts none
OUT_OF_RANGE = st.one_of(
    st.tuples(st.just("--trials"),
              st.integers(max_value=0) | st.integers(min_value=TRIALS_LIMIT)),
    st.tuples(st.just("--seed"), st.integers(max_value=-1) | st.integers(min_value=2**128)),
    st.tuples(st.just("--bins"), st.integers(max_value=0) | st.integers(min_value=BINS_LIMIT)),
    st.tuples(st.just("--k-values"), st.integers(max_value=-1)),
    st.tuples(st.just("--threads"),
              st.integers(max_value=0) | st.integers(min_value=THREADS_LIMIT)),
)


@settings(max_examples=100, deadline=None)
@given(OUT_OF_RANGE)
def test_simulate_out_of_range_integers(tmp_path_factory, flag_value):
    flag, value = flag_value
    out = tmp_path_factory.getbasetemp() / "never-written"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "5000", "--out", str(out), flag, str(value)])
    assert exc.value.code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and flag in lines[0] and "Traceback" not in lines[0]
    assert not out.exists()


def test_simulate_largest_k_and_bins(tmp_path, capsys):
    """--k-values has no upper bound, as tally.pool has none; the bin width just
    below its bound still runs.  --k-values 10**16 once exited 2."""
    out = tmp_path / "r"
    assert run(["simulate", "--trials", "2000", "--out", str(out), "--k-values", "0", "2",
                str(10**16), str(2**64), "--bins", str(BINS_LIMIT - 1)], capsys)[0] == 0
    summary = json.loads((out / "run_summary.json").read_text())
    sweep = json.loads((out / "senate_sweep.json").read_text())
    # 51 states never split evenly, so a k above 436 follows the states won
    assert set(sweep["by_k"]) == {"0", "2", str(10**16), str(2**64)}
    assert sweep["by_k"][str(10**16)] == sweep["by_k"][str(2**64)] == sweep["states_won_limit"]
    bins = summary["diff_histogram"]["bins"]
    assert {lo for lo, _, _ in bins} <= {-(BINS_LIMIT - 1), 0}
    assert sum(c for _, _, c in bins) == summary["counts"]["LW"] + summary["counts"]["LL"]


def test_simulate_largest_trials_parses():
    """The trial bound is checked by parsing alone: no test runs a huge job."""
    args = build_parser().parse_args(["simulate", "--trials", str(TRIALS_LIMIT - 1)])
    assert args.trials == TRIALS_LIMIT - 1 == 2**53 - 1
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--trials", str(TRIALS_LIMIT)])
    assert exc.value.code == 2


def test_simulate_largest_threads_parses():
    args = build_parser().parse_args(["simulate", "--threads", str(THREADS_LIMIT - 1)])
    assert args.threads == THREADS_LIMIT - 1


@pytest.mark.parametrize("below_file", [False, True], ids=["file", "below-file"])
def test_simulate_bad_out(tmp_path, capsys, monkeypatch, below_file):
    from elections import montecarlo

    def never(*args, **kwargs):
        raise AssertionError("simulated before the output directory was made")

    monkeypatch.setattr(montecarlo, "run_batch", never)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "r" if below_file else blocker
    code, stdout, err = run(["simulate", "--trials", "100", "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1 and str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("taken", ["run_summary.json", "trials.csv", "senate_sweep.json",
                                   "scatter_hs.csv", "california_scatter.csv",
                                   "diff_histogram.csv"])
def test_simulate_unwritable_output(tmp_path, capsys, monkeypatch, taken):
    """An output target that is not a regular file is one stderr line and exit 1,
    found before simulating, so nothing is written."""
    from elections import montecarlo

    def never(*args, **kwargs):
        raise AssertionError("simulated though an output cannot be written")

    monkeypatch.setattr(montecarlo, "run_batch", never)
    (tmp_path / taken).mkdir()
    code, stdout, err = run(["simulate", "--trials", "100", "--emit-trials",
                             "--out", str(tmp_path)], capsys)
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1 and taken in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def test_simulate_ignores_trials_target_without_emit_trials(tmp_path, capsys):
    """Without --emit-trials, trials.csv is no output: a directory of that
    name neither stops the run nor is touched."""
    (tmp_path / "trials.csv").mkdir()
    (tmp_path / "trials.csv" / "keep").write_text("keep\n")
    assert run(["simulate", "--trials", "100", "--out", str(tmp_path)], capsys)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["run_summary.json", "senate_sweep.json", "scatter_hs.csv",
         "california_scatter.csv", "diff_histogram.csv", "trials.csv"])
    assert [p.name for p in (tmp_path / "trials.csv").iterdir()] == ["keep"]
    assert (tmp_path / "trials.csv" / "keep").read_text() == "keep\n"


def test_simulate_csv_text(tmp_path, capsys, model, dataset):
    """Every CSV line is csv.writer's rendering of the scalar records' values."""
    for trials in (3000, 1, 2, 7):
        _check_csv_text(tmp_path / str(trials), capsys, model, dataset, trials)


def _check_csv_text(out, capsys, model, dataset, trials):
    from elections import run_batch

    assert run(["simulate", "--trials", str(trials), "--seed", "4", "--bins", "7",
                "--out", str(out), "--emit-trials"], capsys)[0] == 0
    blocks = []
    summary = run_batch(model, dataset, trials=trials, seed=4, bin_width=7,
                        keep_records=True, on_block=blocks.append)

    def text(name):
        return (out / name).read_bytes().decode("utf-8")

    records, total_pop = summary.records, float(dataset.turnout.astype(float).sum())
    assert text("scatter_hs.csv") == rendered(
        ["H", "S", "code"],
        [(r.popular_winner_H, r.popular_winner_S, r.code) for r in records])
    assert text("california_scatter.csv") == rendered(
        ["H", "S", "popular_winner", "carried_california"],
        [(r.popular_winner_H, r.popular_winner_S, r.popular_winner,
          int(r.carried_california)) for r in records])
    assert text("diff_histogram.csv") == rendered(
        ["bin_lo", "bin_hi", "count"], summary.diff_histogram)
    dem_pop = [d for block in blocks for d in block["dem_pop"].tolist()]
    assert len(dem_pop) == len(records) == trials
    assert text("trials.csv") == rendered(
        ["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"],
        [(r.trial, r.code, repr(d), repr(total_pop - d), r.popular_winner_H,
          r.popular_winner_S, r.signed_electoral_diff, int(r.carried_california))
         for r, d in zip(records, dem_pop)])
    if trials == 7:   # no unpopular trial among them
        assert text("diff_histogram.csv") == "bin_lo,bin_hi,count\n"


def rendered(header, rows) -> str:
    """csv.writer's text for header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# columns of a few distinct values each: (index, fields) pairs of short texts
# that need no quoting, int64 arrays over their whole range, and float arrays
# with -0.0 and 17 digits
FLOATS = st.sampled_from([-0.0, 0.1 + 0.2, 1 / 3, 1.2e8 + 1 / 7, 5e-324]) | st.floats()
FIELDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
                 min_size=1, max_size=3)
COLUMN_VALUES = st.one_of(
    st.tuples(st.just("pair"), st.lists(FIELDS, min_size=1, max_size=6)),
    st.tuples(st.just("int"), st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                                       max_size=6)),
    st.tuples(st.just("float"), st.lists(FLOATS, min_size=1, max_size=6)),
)
# one column with "" among its fields: csv.writer writes a lone empty field as ""
ONE_COLUMN_WITH_EMPTY = st.lists(FIELDS, max_size=5).map(lambda fields: [("pair", ["", *fields])])


def _table(specs, n, seed):
    """write_csv columns of n rows drawn from each spec's values, and the rows."""
    import numpy as np

    rng = np.random.default_rng(seed)
    columns, values = [], []
    for kind, pool in specs:
        index = rng.integers(len(pool), size=n)
        if kind == "pair":
            columns.append((index, tuple(pool)))
            values.append([pool[i] for i in index.tolist()])
        else:
            columns.append(np.array(pool, dtype={"int": np.int64, "float": float}[kind])[index])
            values.append(columns[-1].tolist())
    return columns, list(zip(*values))


def _check_write_csv(specs, n, seed):
    """The stream gets csv.writer's text."""
    columns, rows = _table(specs, n, seed)
    header = [f"c{i}" for i in range(len(columns))]
    out = io.BytesIO()
    write_csv(out, header, columns)
    assert out.getvalue().decode("utf-8") == rendered(header, rows)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
@settings(max_examples=40, deadline=None)
@given(st.lists(COLUMN_VALUES, min_size=1, max_size=5) | ONE_COLUMN_WITH_EMPTY,
       st.integers(0, 2**32))
@example([("pair", [""])], 0)
def test_write_csv_matches_csv_writer(n, specs, seed):
    from unittest import mock

    from elections import csvout

    # slices of 3 rows, so that n = 7 and 50 span several
    with mock.patch.object(csvout, "SLICE_ROWS", 3):
        _check_write_csv(specs, n, seed)


def test_digits_table_holds_four_digits_of_each_value():
    import numpy as np

    assert DIGITS.shape == (4, 10**4) and DIGITS.dtype == np.uint8
    assert [bytes(column).decode() for column in DIGITS.T] == [f"{v:04d}" for v in range(10**4)]


def test_write_csv_above_one_slice():
    pairs = [("pair", ["0", "436", "-538"]), ("pair", ["WW", "D"]), ("pair", ["x"])]
    for specs in (pairs, pairs + [("float", [-0.0, 0.1 + 0.2]), ("int", [3, -2, 10**8])]):
        _check_write_csv(specs, SLICE_ROWS + 5, 0)


# floats of 10 bytes each: two rendered from their bits, two repr'd (below 2**23)
FLOATS_10 = ("float", [12345678.5, 1e7, -1234567.5, 1234567.25])


@pytest.mark.parametrize("n", [1, 7, 8, 9, SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1])
@pytest.mark.parametrize("width, specs", [
    (2, [("pair", ["y", "z"])]),   # csv.writer quotes a line of one empty field
    (11, [FLOATS_10]),
    (12, [("pair", ["y", "z" * 11])]),
    (13, [FLOATS_10, ("pair", ["", "z"])]),
    (24, [FLOATS_10, ("int", [-12, 34]), ("pair", ["", "z" * 8])]),
    (25, [FLOATS_10, ("int", [-12, 34]), ("pair", ["", "z" * 9])]),
    (62, [FLOATS_10, ("int", [-12, 34]), ("pair", ["", "zé" * 4]), FLOATS_10,
          ("int", [-9 * 10**18, 8 * 10**18]), ("pair", ["", "z"])]),
], ids=lambda v: str(v) if isinstance(v, int) else None)
def test_write_csv_across_band_edges(width, specs, n):
    """Slices as wide as one band, or with rows on each side of a band edge;
    with an empty field among the pairs, some byte positions hold only PAD."""
    from elections import csvout

    columns, _ = _table(specs, n, width)
    columns = [(csvout._fields(c[1]), c[0]) if isinstance(c, tuple) else c for c in columns]
    assert csvout._render(columns, slice(0, SLICE_ROWS)).shape[0] == width
    _check_write_csv(specs, n, width)


def test_write_csv_appends_to_what_the_stream_holds(tmp_path):
    """On a stream that already holds bytes, write_csv keeps them and appends
    exactly what it writes to a fresh file, without a seek or a truncate."""
    class AppendOnly(io.BytesIO):
        def seek(self, *args):
            raise AssertionError("seek")

        def truncate(self, *args):
            raise AssertionError("truncate")

    specs = [("pair", ["WW", "LL"]), ("float", [1e8 + 0.1, -0.0]), ("int", [-2, 10**8])]
    columns, _ = _table(specs, SLICE_ROWS + 5, 0)
    with open(tmp_path / "fresh.csv", "wb") as f:
        write_csv(f, ["code", "pop", "n"], columns)
    held = AppendOnly()
    held.write(b"kept,bytes\n")
    write_csv(held, ["code", "pop", "n"], columns)
    assert held.getvalue() == b"kept,bytes\n" + (tmp_path / "fresh.csv").read_bytes()


# floats that write_csv renders from their bits, in [2**23, 2**53): powers of two,
# integers, 17-significant-digit values and 2**e + (2k + 1) * 2**-t, whose
# fraction ends in 5 at digit t, so that when 2**(52 - e) < 10**(t - 1) both
# (t - 1)-digit neighbours read back and repr takes the even one
FAST = st.floats(2.0**23, 2.0**53, exclude_max=True)
TIES = st.integers(23, 52).flatmap(lambda e: st.integers(1, max(52 - e, 1)).flatmap(
    lambda t: st.integers(0, 2**(t - 1) - 1).map(lambda k: 2.0**e + (2 * k + 1) / 2**t)))
RENDERED = st.one_of(
    FAST, TIES, st.integers(0, 60).map(lambda e: 2.0**e),
    st.integers(2**23, 2**53 - 1).map(float),
    FAST.filter(lambda x: len(repr(x)) == 18),
    st.sampled_from([2.0**23, 2.0**53 - 1, 2.0**53 - 0.5, 2**23 + 2**-29, 1e7,
                     math.nextafter(1e7, 0), 10**7 + 2**-29]))
# and the values around them, which go through repr; below 2**23, as in 1e7 / 3,
# 17 significant digits can take 10 fraction digits
REPRD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e7, -2.0**52 - 0.5,
                     1e7 / 3, math.nextafter(2.0**23, 0), 2.0**53, 2.0**53 + 2, 1e16,
                     1.7976931348623157e308]),
    st.floats(1e6, 2.0**23, exclude_max=True), st.floats(max_value=2.0**23, exclude_max=True),
    st.floats(min_value=2.0**53))


def _written(columns) -> list:
    """The lines write_csv writes for columns, without the header."""
    out = io.BytesIO()
    write_csv(out, [f"c{i}" for i in range(len(columns))], columns)
    return out.getvalue().decode("utf-8").split("\n")[1:-1]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(RENDERED, REPRD), min_size=1, max_size=30))
def test_float_column_is_repr(values):
    """A float column, mixing rendered and repr'd rows, is repr's text."""
    import numpy as np

    assert _written([np.array(values)]) == list(map(repr, values))


def test_float_edges_and_ties():
    """Halfway ties go to the even digit; each edge of [2**23, 2**53) is repr's."""
    import numpy as np

    values = [2.0**43 + 1 / 16, 2.0**43 + 3 / 16, 2.0**44 + 1 / 32, 2.0**23,
              math.nextafter(2.0**23, 0), 2**23 + 2**-29, 1e7, math.nextafter(1e7, 0),
              2.0**53 - 1, 2.0**53, 2.0**52, 2.0**52 + 1, 2.0**24, 12345678.5, 10**7 + 2**-29,
              99999999.99999999, 1e7 / 3, math.nan, -0.0]
    assert _written([np.array(values)]) == [
        "8796093022208.062", "8796093022208.188", "17592186044416.03", "8388608.0",
        "8388607.999999999", "8388608.000000002", "10000000.0", "9999999.999999998",
        "9007199254740991.0", "9007199254740992.0", "4503599627370496.0",
        "4503599627370497.0", "16777216.0", "12345678.5", "10000000.000000002",
        "99999999.99999999", "3333333.3333333335", "nan", "-0.0"]


def test_int64_edges_and_non_ascii_fields():
    import numpy as np

    ints = np.array([-2**63, 2**63 - 1, 0, -1, 10**4, -9999], dtype=np.int64)
    fields = ("é", "中文", "\U0001f5f3", "x\x00y", "", "ÿ")
    index = np.array([0, 1, 2, 3, 4, 5])
    rows = list(zip(ints.tolist(), [fields[i] for i in index.tolist()], [1e8 + 0.1] * 6))
    assert _written([ints, (index, fields), np.full(6, 1e8 + 0.1)]) == \
        rendered(["c0", "c1", "c2"], rows).split("\n")[1:-1]
    assert _written([(index, fields), (index[::-1], fields)]) == \
        [f"{fields[i]},{fields[j]}" for i, j in zip(index.tolist(), index[::-1].tolist())]


def _child_env(drop=()) -> dict:
    """This environment without `drop`, with these sources first on PYTHONPATH."""
    import os
    from pathlib import Path

    import elections

    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(elections.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    return env


def test_blas_threads_default_to_one():
    """Importing elections sets one BLAS thread, unless the user chose a count."""
    import subprocess
    import sys

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = _child_env(names)
    probe = "import os, elections; print(*(os.environ[n] for n in %r))" % (names,)
    for user, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")):
        out = subprocess.run([sys.executable, "-c", probe], env={**env, **user},
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == want.split()


def test_package_exports_only_what_is_imported_from_it():
    """elections re-exports the eight names that perfbench, the study script and
    the tests' fixtures import from the package, and nothing else: every other
    name lives in its module alone.  The rest of what perfbench reads resolves."""
    import inspect

    import elections
    from elections.dataset import ElectionDataset
    from elections.montecarlo import ExactPopularTie
    from elections.tally import TiedState

    exported = {"classify", "draw_noise", "electoral_totals", "generate_shares", "run_batch",
                "load_bundled_dataset", "fit_pca", "senate_sweep"}
    assert set(elections.__all__) == exported | {"__version__"}
    public = {name for name, value in vars(elections).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported
    assert issubclass(ExactPopularTie, Exception) and issubclass(TiedState, Exception)
    assert ElectionDataset.senate_electors_base == 2


@pytest.mark.parametrize("argv", [["pca"], ["pca", "--loadings", "1"], ["scenario"]])
def test_closed_stdout_is_a_clean_exit(argv):
    """Output to a pipe nobody reads is exit status 1 with nothing on stderr."""
    import os
    import subprocess
    import sys

    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "elections.cli", *argv], env=_child_env(),
                              stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.parametrize("stdout", ["full", "closed"])
@pytest.mark.parametrize("argv", [["pca"], ["pca", "--loadings", "1"], ["scenario"],
                                  ["simulate", "--trials", "100"], ["report"]],
                         ids=["pca", "loadings", "scenario", "simulate", "report"])
def test_failed_stdout_is_one_line(tmp_path, capsys, stdout, argv):
    """stdout on /dev/full, or fd 1 closed at start, is exit 1 with one stderr
    line; simulate with no stdout writes no file, and into a directory that
    holds a previous run's outputs it leaves them byte-identical."""
    import os
    import subprocess
    import sys

    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    if argv == ["report"]:
        assert run(["simulate", "--trials", "100", "--out", str(tmp_path / "r")], capsys)[0] == 0
        argv = ["report", str(tmp_path / "r" / "run_summary.json")]
    elif argv[0] == "simulate":
        argv = [*argv, "--out", str(tmp_path / "s")]
        if stdout == "full":   # a previous run's outputs, from another seed
            assert run([*argv, "--seed", "1"], capsys)[0] == 0
    before = _files(tmp_path / "s")
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "elections.cli", *argv], env=_child_env(),
            stdout=full if stdout == "full" else None, stderr=subprocess.PIPE, text=True,
            preexec_fn=None if stdout == "full" else lambda: os.close(1))
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert "error: cannot write to stdout: [Errno" in done.stderr
    if stdout == "closed" and argv[0] == "simulate":
        assert not (tmp_path / "s").exists()
    assert _files(tmp_path / "s") == before


def _files(directory) -> dict:
    """{name: bytes} of every file in directory, hidden ones too; {} if it is not there."""
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


def test_failed_simulate_leaves_previous_outputs(tmp_path, capsys):
    """A simulate that fails writing trials.csv, under a file-size limit set on its
    own process, leaves the previous run's six files byte-identical and no
    temporary file."""
    import signal
    import subprocess
    import sys

    resource = pytest.importorskip("resource")
    limit = 600_000
    out = tmp_path / "o"
    argv = ["simulate", "--trials", "20000", "--emit-trials", "--out", str(out)]
    assert run([*argv, "--seed", "5"], capsys)[0] == 0
    before = _files(out)
    assert len(before) == 6 and len(before["trials.csv"]) > limit

    def limited():   # runs in the child only, before exec
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    done = subprocess.run([sys.executable, "-m", "elections.cli", *argv, "--seed", "6"],
                          env=_child_env(), capture_output=True, text=True, preexec_fn=limited)
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert f"cannot write to {out}" in done.stderr
    assert _files(out) == before


@pytest.mark.parametrize("target, threads", [
    ("elections.montecarlo.run_batch", "1"), ("elections.cli.write_csv", "1"),
    ("elections.montecarlo.trial_columns", "2"),
], ids=["run_batch", "write_csv", "trial_columns"])
def test_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, target, threads):
    """A simulate that runs out of memory, in the kernel, in one of its threads
    or in the CSV writer, exits 1 with one stderr line and leaves the previous
    outputs as they were."""
    out = tmp_path / "o"
    argv = ["simulate", "--trials", "5000", "--threads", threads, "--emit-trials",
            "--out", str(out)]
    assert run([*argv, "--seed", "5"], capsys)[0] == 0
    before = _files(out)

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 91.6 MiB")

    monkeypatch.setattr(target, exhausted)
    assert run([*argv, "--seed", "6"], capsys) == (
        1, "", "MemoryError: Unable to allocate 91.6 MiB\n")
    assert _files(out) == before
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.00 MiB"),
                                   OSError(28, "No space left on device")],
                         ids=["MemoryError", "OSError"])
def test_failure_after_a_block_leaves_previous_outputs(tmp_path, capsys, monkeypatch, error):
    """A run that fails in its second block, after the first block's rows are
    in the staged files, exits 1 with one stderr line, leaves the previous
    outputs as they were and leaves no temporary file."""
    from elections import montecarlo

    out = tmp_path / "o"
    argv = ["simulate", "--trials", "5000", "--threads", "2", "--emit-trials", "--out", str(out)]
    assert run([*argv, "--seed", "5"], capsys)[0] == 0
    before = _files(out)
    emit, blocks = montecarlo.emit_figure_data, []

    def failing(block, emit_trials):
        blocks.append(len(block["trial"]))
        if len(blocks) == 2:
            raise error
        return emit(block, emit_trials)

    monkeypatch.setattr(montecarlo, "_BLOCK", montecarlo._CHUNK)
    monkeypatch.setattr(montecarlo, "emit_figure_data", failing)
    code, stdout, err = run([*argv, "--seed", "6"], capsys)
    assert (code, stdout) == (1, "") and len(blocks) == 2
    assert len(err.splitlines()) == 1 and type(error).__name__ in err
    assert _files(out) == before
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def _renames_onto_nothing(monkeypatch, fail=None):
    """Patch os.rename and os.replace so that a call whose target path exists
    fails the test, and a rename of a path whose name ends in `fail` raises."""
    import os

    rename, calls = os.rename, []

    def checked(src, dst):
        assert not os.path.lexists(dst), f"rename onto the existing {dst}"
        calls.append((str(src), str(dst)))
        if fail is not None and str(src).endswith(fail):
            raise OSError(5, "Input/output error")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", checked)
    monkeypatch.setattr(os, "replace", checked)
    return calls


def test_rerun_into_one_out_renames_onto_nothing(tmp_path, capsys, monkeypatch):
    """Reruns into an --out that holds the last run's files install every file
    on a free name: the old one is renamed aside and unlinked.  The files equal
    a fresh run's, and no dot-file is left."""
    argv = ["simulate", "--trials", "3000", "--emit-trials", "--out"]
    assert run([*argv, str(tmp_path / "fresh"), "--seed", "6"], capsys)[0] == 0
    fresh = _files(tmp_path / "fresh")
    out = tmp_path / "o"
    assert run([*argv, str(out), "--seed", "5"], capsys)[0] == 0
    calls = _renames_onto_nothing(monkeypatch)
    for _ in range(2):
        assert run([*argv, str(out), "--seed", "6"], capsys)[0] == 0
        assert _files(out) == fresh
    assert len(calls) == 2 * 2 * len(fresh)   # each file: the old one aside, the new one in


def test_failed_install_puts_the_old_file_back(tmp_path, capsys, monkeypatch):
    """A rename that fails to install trials.csv, after the old trials.csv was
    renamed aside, exits 1 with one stderr line and renames the old file back:
    each name holds its old or its new file, trials.csv its old one, and no
    dot-file is left."""
    import os

    argv = ["simulate", "--trials", "3000", "--emit-trials", "--out"]
    assert run([*argv, str(tmp_path / "fresh"), "--seed", "6"], capsys)[0] == 0
    new = _files(tmp_path / "fresh")
    out = tmp_path / "o"
    assert run([*argv, str(out), "--seed", "5"], capsys)[0] == 0
    old = _files(out)
    _renames_onto_nothing(monkeypatch, fail=f".trials.csv.{os.getpid()}.tmp")
    code, _, err = run([*argv, str(out), "--seed", "6"], capsys)
    assert code == 1 and len(err.splitlines()) == 1
    assert f"cannot write to {out}: OSError: [Errno 5]" in err
    after = _files(out)
    assert after.keys() == old.keys() and after["trials.csv"] == old["trials.csv"]
    assert all(after[name] in (old[name], new[name]) for name in after)


def _staged_size(path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM", "SIGHUP"])
def test_interrupted_simulate_leaves_the_previous_outputs(tmp_path, capsys, name):
    """A signal in mid-run, once the staged trials.csv passes 100 kB, exits 128 +
    its number with one stderr line and no traceback, leaves no staged file and
    leaves the previous run's files byte-identical.  SIGTERM once left six
    staged files, and SIGINT a 28-line traceback."""
    import signal
    import subprocess
    import sys
    import time

    signum = signal.Signals[name]
    if signal.getsignal(signum) == signal.SIG_IGN:   # and so in the child, as nohup asks
        pytest.skip(f"{name} is ignored in this process")
    out = tmp_path / "o"
    assert run(["simulate", "--trials", "20000", "--emit-trials", "--out", str(out)],
               capsys)[0] == 0
    before = _files(out)
    child = subprocess.Popen([sys.executable, "-m", "elections.cli", "simulate", "--trials",
                              "3000000", "--emit-trials", "--out", str(out)], env=_child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while _staged_size(out / f".trials.csv.{child.pid}.tmp") <= 100_000:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        child.send_signal(signum)
        err = child.communicate(timeout=60)[1]
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 128 + signum
    assert err.splitlines() == [f"error: interrupted by {name}"]
    assert _files(out) == before


CHILD_DROPPED = """\
import signal, sys
from elections import cli, montecarlo

draw, signum = montecarlo.trial_columns, signal.Signals[sys.argv.pop(1)]

def dropping(*args):   # C code that clears the interrupt, once
    if not hasattr(dropping, "done"):
        dropping.done = True
        try:
            signal.raise_signal(signum)
        except KeyboardInterrupt:
            pass
    return draw(*args)

montecarlo.trial_columns = dropping
cli.run()
"""


@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM", "SIGHUP"])
def test_dropped_interrupt_is_raised_again(tmp_path, capsys, name):
    """An interrupt that C code clears, as Cython's module set-up does in
    numpy.random's import, is raised again when the block is passed on: the
    run exits 128 + its number with one stderr line and changes nothing."""
    import signal
    import subprocess
    import sys

    argv = ["simulate", "--trials", "3000", "--emit-trials", "--out"]
    out = tmp_path / "o"
    assert run([*argv, str(out), "--seed", "5"], capsys)[0] == 0
    before = _files(out)
    done = subprocess.run([sys.executable, "-c", CHILD_DROPPED, name, *argv, str(out),
                           "--seed", "6"], env=_child_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (128 + signal.Signals[name], "")
    assert done.stderr.splitlines() == [f"error: interrupted by {name}"]
    assert _files(out) == before


CHILD_INSTALL = """\
import os, signal, sys
from elections import cli

rename, renames, signum = os.rename, [], signal.Signals[sys.argv.pop(1)]

def interrupted(src, dst):   # the third: the first file is in, the second's old one goes aside
    renames.append(dst)
    if len(renames) == 3:
        signal.raise_signal(signum)
    rename(src, dst)

os.rename = interrupted
cli.run()
"""


@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM", "SIGHUP"])
def test_signal_in_the_install_waits_for_the_new_set(tmp_path, capsys, name):
    """A signal raised between two renames of the install takes effect once every
    file is in: the run exits 128 + its number with one stderr line, and --out
    holds the complete new set and no dot-file.  It runs in a child, where the
    interrupt ends the process rather than the test session."""
    import signal
    import subprocess
    import sys

    argv = ["simulate", "--trials", "3000", "--emit-trials", "--out"]
    assert run([*argv, str(tmp_path / "fresh"), "--seed", "6"], capsys)[0] == 0
    out = tmp_path / "o"
    assert run([*argv, str(out), "--seed", "5"], capsys)[0] == 0
    done = subprocess.run([sys.executable, "-c", CHILD_INSTALL, name, *argv, str(out),
                           "--seed", "6"], env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 128 + signal.Signals[name]
    assert done.stderr.splitlines() == [f"error: interrupted by {name}"]
    assert _files(out) == _files(tmp_path / "fresh")


def test_bytes_depend_on_the_simd_dispatch_only_in_the_popular_votes(tmp_path):
    """With numpy's AVX-512 loops turned off, its float64 log rounds a few
    uniforms differently, so a few trials.csv rows differ in the last digits
    of dem_pop and rep_pop.  The other five files are byte-identical, and
    acceptance 5's bands hold."""
    import subprocess
    import sys

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512F"):
        pytest.skip("the CPU has no AVX-512")
    env = _child_env(["NPY_DISABLE_CPU_FEATURES"])
    argv = [sys.executable, "-m", "elections.cli", "simulate", "--trials", "20000",
            "--emit-trials", "--out"]
    subprocess.run([*argv, str(tmp_path / "default")], env=env, capture_output=True, check=True)
    subprocess.run([*argv, str(tmp_path / "off")], capture_output=True, check=True,
                   env={**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    default, off = _files(tmp_path / "default"), _files(tmp_path / "off")
    assert len(default) == 6 and default.keys() == off.keys()
    for name in default.keys() - {"trials.csv"}:
        assert off[name] == default[name], name
    rows = [list(csv.reader(io.StringIO(files["trials.csv"].decode()))) for files in (default, off)]
    assert len(rows[0]) == len(rows[1]) == 20001
    for a, b in zip(*rows):
        assert a[:2] + a[4:] == b[:2] + b[4:]
    summary, sweep = json.loads(off["run_summary.json"]), json.loads(off["senate_sweep.json"])
    assert 0.039 <= summary["unpopular_full"] <= 0.060
    assert 0.059 <= summary["unpopular_house"] <= 0.080
    assert 0.050 <= sweep["states_won_limit"] <= 0.072
    assert 0.40 <= summary["dem_win_rate"] <= 0.48


def _cli(argv):
    """`python -m elections.cli argv` in a child process, through cli.run."""
    import subprocess
    import sys

    return subprocess.run([sys.executable, "-m", "elections.cli", *argv], env=_child_env(),
                          capture_output=True, text=True)


def test_process_writes_what_main_writes(tmp_path, capsys):
    """The files of a process, which run() ends with os._exit, are byte-identical
    to main's in-process files: no output waits for a finalizer at exit."""
    argv = ["simulate", "--trials", "2049", "--seed", "6", "--emit-trials", "--out"]
    done = _cli([*argv, str(tmp_path / "process")])
    assert (done.returncode, done.stderr) == (0, "")
    assert run([*argv, str(tmp_path / "main")], capsys)[0] == 0
    files = {p.name: p.read_bytes() for p in (tmp_path / "process").iterdir()}
    assert len(files) == 6
    assert files == {p.name: p.read_bytes() for p in (tmp_path / "main").iterdir()}


@pytest.mark.parametrize("flag, value, code", [
    ("--trials", "0", 2), ("--shares", "missing.csv", 1), ("--structure", "missing.csv", 1),
], ids=["trials=0", "missing-shares", "missing-structure"])
def test_process_errors_are_one_line(tmp_path, flag, value, code):
    from pathlib import Path

    import elections

    data = Path(elections.__file__).parent / "data"
    args = {"--trials": "100", "--shares": str(data / "elections_1964_2008.csv"),
            "--structure": str(data / "structure_2008.csv"), "--out": str(tmp_path / "r")}
    args[flag] = str(tmp_path / value) if value.endswith(".csv") else value
    done = _cli(["simulate", *itertools.chain(*args.items())])
    assert done.returncode == code and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert not (tmp_path / "r").exists()


def test_main_never_freezes(tmp_path, capsys, monkeypatch):
    """Nothing in the package freezes the collector, so pytest's ResourceWarning
    and unraisable-exception gates see every object cycle in-process; os._exit is
    run()'s only.  Nothing in the package registers an atexit handler, which
    os._exit would skip."""
    import ast
    import gc
    from pathlib import Path

    import elections

    monkeypatch.chdir(tmp_path)
    for argv in (["scenario"], ["pca"], ["simulate", "--trials", "100", "--emit-trials"],
                 ["report", "results/run_summary.json"], ["simulate", "--trials", "0"],
                 ["report", "missing.json"]):
        with contextlib.suppress(SystemExit):
            main(argv)
        assert gc.get_freeze_count() == 0, argv

    sites = {"freeze": [], "_exit": []}
    for path in sorted(Path(elections.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):   # outer functions first, so the innermost one wins
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), func.name) for n in ast.walk(func))
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and n.attr in sites:
                sites[n.attr].append((path.name, owner.get(id(n), "<module>"), n.lineno))
            assert not (isinstance(n, ast.alias) and n.name in ("atexit", *sites)), path.name
            assert not (isinstance(n, ast.ImportFrom) and n.module == "atexit"), path.name
    assert sites["freeze"] == []
    assert [site[:2] for site in sites["_exit"]] == [("cli.py", "run")]


def test_main_leaves_no_thread_or_open_file(tmp_path, capsys):
    """When main returns, run_batch's pool is joined and every output file is
    closed, so ending the process with os._exit loses nothing."""
    import os
    import threading
    from pathlib import Path

    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    threads, opened = threading.enumerate(), sorted(os.listdir(fds))
    assert run(["simulate", "--trials", "5000", "--threads", "3", "--emit-trials",
                "--out", str(tmp_path)], capsys)[0] == 0
    assert threading.enumerate() == threads
    assert sorted(os.listdir(fds)) == opened


def test_failed_stdout_leaves_no_open_file(monkeypatch):
    """main's handler of a failed stdout closes the devnull file it puts under fd 1."""
    import os
    import sys
    from pathlib import Path

    fds = Path("/proc/self/fd")
    if not fds.is_dir() or not os.path.exists("/dev/full"):
        pytest.skip("needs /proc/self/fd and /dev/full")
    opened = len(os.listdir(fds))
    for _ in range(5):
        with open("/dev/full", "w") as full, contextlib.redirect_stderr(io.StringIO()):
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["scenario"]) == 1
    assert len(os.listdir(fds)) == opened


@pytest.mark.parametrize("status, out_fault, err_fault, code", [
    (0, None, None, 0), (1, None, None, 1), (0, BrokenPipeError(), None, 1),
    (0, None, ValueError("I/O operation on closed file"), 1), (0, OSError(28, "full"), None, 1),
], ids=["ok", "main-fails", "stdout-pipe-closed", "stderr-closed", "stdout-disk-full"])
def test_run_flushes_then_exits(monkeypatch, status, out_fault, err_fault, code):
    """run() flushes stdout and stderr after main and ends with os._exit: main's
    status, or 1 if a flush fails, never a traceback.  It never freezes the
    collector, which would log "freeze".  It leaves the signal handlers as they were."""
    import gc
    import os
    import signal
    import sys

    from elections import cli

    log = []

    class Exit(Exception):
        pass

    class Stream:
        def __init__(self, fault):
            self.fault = fault

        def flush(self):
            log.append("flush")
            if self.fault:
                raise self.fault

    def _exit(value):
        log.append(value)
        raise Exit

    handlers = [signal.getsignal(signum) for signum in cli.INTERRUPTS]
    monkeypatch.setattr(gc, "freeze", lambda: log.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: log.append("main") or status)
    monkeypatch.setattr(os, "_exit", _exit)
    monkeypatch.setattr(sys, "stdout", Stream(out_fault))
    monkeypatch.setattr(sys, "stderr", Stream(err_fault))
    with pytest.raises(Exit):
        cli.run()
    assert log == ["main", "flush", "flush", code]
    assert [signal.getsignal(signum) for signum in cli.INTERRUPTS] == handlers


def test_run_unwinds_only_signals_at_their_default(monkeypatch):
    """While main runs, run() makes SIGINT and SIGTERM, at Python's default,
    raise KeyboardInterrupt with the signal, and leaves SIGHUP ignored, as nohup
    asks; then it restores all three."""
    import os
    import signal

    from elections import cli

    class Exit(Exception):
        pass

    def _exit(value):
        raise Exit

    seen, saved = {}, {signum: signal.getsignal(signum) for signum in cli.INTERRUPTS}
    monkeypatch.setattr(cli, "main", lambda: seen.update(
        {signum: signal.getsignal(signum) for signum in saved}) or 0)
    monkeypatch.setattr(os, "_exit", _exit)
    before = {signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL,
              signal.SIGHUP: signal.SIG_IGN}
    try:
        for signum, handler in before.items():
            signal.signal(signum, handler)
        with pytest.raises(Exit):
            cli.run()
        assert seen == {signal.SIGINT: cli._unwind, signal.SIGTERM: cli._unwind,
                        signal.SIGHUP: signal.SIG_IGN}
        assert {signum: signal.getsignal(signum) for signum in before} == before
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)


@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM", "SIGHUP"])
def test_main_reports_an_interrupt_in_one_line(monkeypatch, capsys, name):
    """An interrupt out of a command is one stderr line and status 128 + the
    signal's number, which run()'s handler gives the KeyboardInterrupt; without
    one, as from Python's own SIGINT handler, it is SIGINT's."""
    import signal

    from elections import cli

    signum = signal.Signals[name]
    interrupt = KeyboardInterrupt() if signum == signal.SIGINT else KeyboardInterrupt(signum)

    def interrupted(args, parser):
        raise interrupt

    monkeypatch.setattr(cli, "cmd_scenario", interrupted)
    assert run(["scenario"], capsys) == (128 + signum, "", f"error: interrupted by {name}\n")


def test_process_stdout_to_a_file(tmp_path, capsys):
    """stdout into a file is block-buffered: run() flushes it before os._exit."""
    import subprocess
    import sys

    argv = ["simulate", "--trials", "2000", "--out", str(tmp_path / "o")]
    with open(tmp_path / "log", "wb") as log:
        done = subprocess.run([sys.executable, "-m", "elections.cli", *argv],
                              env=_child_env(), stdout=log, stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    code, out, _ = run(argv, capsys)
    assert code == 0 and len(out.splitlines()) == 3
    assert (tmp_path / "log").read_text() == out


def test_process_scenario_is_mains(capsys):
    done = _cli(["scenario"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run(["scenario"], capsys)[1]


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe", "{}", "[]",
                                     "[" * 100_000, '{"a":' * 100_000],
                         ids=["missing", "not-json", "not-utf8", "empty-object",
                              "empty-list", "deep-list", "deep-object"])
def test_report_unreadable(tmp_path, capsys, content):
    path = tmp_path / "summary.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(["report", str(path)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and str(path) in err


def test_bad_structure_file(tmp_path, capsys, save_dataset):
    from elections import load_bundled_dataset

    data = load_bundled_dataset()
    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(data, shares_path, struct_path)
    text = struct_path.read_text().replace("California,", "Pacifica,")
    struct_path.write_text(text)
    code, out, err = run(["pca", "--shares", str(shares_path),
                          "--structure", str(struct_path)], capsys)
    assert code == 1
    assert "MalformedRow" in err


@pytest.mark.parametrize("command", ["pca", "simulate"])
def test_house_electors_whose_int64_sum_wraps(tmp_path, save_dataset, command):
    """House electors 2**63 - 1, 2**63 - 1, 390 and 48 ones sum to 436 in
    int64: the structure file is still one error line and exit 1."""
    from elections import load_bundled_dataset

    shares, structure = tmp_path / "shares.csv", tmp_path / "structure.csv"
    save_dataset(load_bundled_dataset(), shares, structure)
    rows = list(csv.reader(structure.read_text().splitlines()))
    for row, electors in zip(rows[1:], [2**63 - 1, 2**63 - 1, 390] + [1] * 48):
        row[2] = str(electors)
    with structure.open("w", newline="") as f:
        csv.writer(f).writerows(rows)
    argv = [command, "--shares", str(shares), "--structure", str(structure)]
    if command == "simulate":
        argv += ["--trials", "100", "--out", str(tmp_path / "r")]
    done = _cli(argv)
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
    assert "ElectorSumMismatch" in done.stderr
    assert not (tmp_path / "r").exists()


def _saved_pair(save_dataset, directory, **changes):
    """Write the bundled data, with `changes` to its fields, as a CSV pair."""
    from elections import load_bundled_dataset
    from elections.dataset import ElectionDataset

    bundled = load_bundled_dataset()
    data = ElectionDataset(**{name: changes.get(name, getattr(bundled, name))
                              for name in ElectionDataset.__slots__})
    paths = directory / "shares.csv", directory / "structure.csv"
    save_dataset(data, *paths)
    return paths


@pytest.mark.parametrize("command", ["pca", "simulate"])
def test_zero_variance_history_rejected(tmp_path, capsys, save_dataset, command):
    import numpy as np

    shares, structure = _saved_pair(save_dataset, tmp_path, shares=np.full((12, 51), 0.5))
    out = tmp_path / "r"
    argv = [command, "--shares", str(shares), "--structure", str(structure)]
    if command == "simulate":
        argv += ["--trials", "100", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and "DegenerateSample" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pca", "simulate"])
@pytest.mark.parametrize("start_year, left", [(1996, 2), (2000, 1), (2004, 0)])
def test_start_year_leaving_under_two_elections(tmp_path, capsys, save_dataset,
                                                 command, start_year, left):
    # the bundled history shifted back 8 years (1956-2000): the usage error,
    # not the MissingState, a data error, that the cut dataset would raise
    years = tuple(range(1956, 2004, 4))
    shares, structure = _saved_pair(save_dataset, tmp_path, years=years)
    out = tmp_path / "r"
    argv = [command, "--shares", str(shares), "--structure", str(structure),
            "--start-year", str(start_year)]
    if command == "simulate":
        argv += ["--trials", "100", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"leaves only {left} elections (need >= 3)" in capsys.readouterr().err
    assert not out.exists()


def test_a_short_history_fits_what_start_year_fits(tmp_path, capsys, save_dataset):
    """A shares file of the five elections 1992-2008 is no data error: pca prints
    the model of --start-year 1992 byte for byte, with one warning, and
    simulate writes the same files."""
    from elections import load_bundled_dataset

    recent = load_bundled_dataset().restrict_years(1992)
    shares, structure = _saved_pair(save_dataset, tmp_path, years=recent.years,
                                    shares=recent.shares)
    data = ["--shares", str(shares), "--structure", str(structure)]
    code, out, err = run(["pca", *data], capsys)
    assert (code, out) == run(["pca", "--start-year", "1992"], capsys)[:2]
    assert code == 0 and json.loads(out)["n"] == 5
    assert err.splitlines() == ["warning: only 5 elections from 1964 on"]
    for name, argv in (("file", data), ("cut", ["--start-year", "1992"])):
        code, _, err = run(["simulate", "--trials", "2000", "--out", str(tmp_path / name), *argv],
                           capsys)
        assert code == 0 and len(err.splitlines()) == 1 and err.startswith("warning: only ")
    files = sorted(path.name for path in (tmp_path / "file").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "cut").iterdir())
    for name in files:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "cut" / name).read_bytes()


@pytest.mark.parametrize("command", ["pca", "simulate"])
def test_a_two_election_history_is_a_data_error(tmp_path, capsys, save_dataset, command):
    """A shares file of 2004 and 2008 alone exits 1 with one MissingState line."""
    shares, structure = _saved_pair(save_dataset, tmp_path)
    with open(shares, newline="") as f:
        rows = [row for row in csv.reader(f) if row[1] in ("year", "2004", "2008")]
    with open(shares, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    out = tmp_path / "r"
    argv = [command, "--shares", str(shares), "--structure", str(structure)]
    if command == "simulate":
        argv += ["--trials", "100", "--out", str(out)]
    code, stdout, err = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert err == "MissingState: need at least 3 elections, got 2\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, n", [([], 10), (["--start-year", "1964"], 10),
                                     (["--start-year", "1968"], 9),
                                     (["--start-year", "1960"], 11),
                                     (["--start-year", "1966"], 9)])
def test_start_year_is_a_value_not_a_flag(tmp_path, capsys, save_dataset, argv, n):
    # on the bundled history shifted back 8 years (1956-2000), the default
    # start year and an explicit 1964 both drop 1956 and 1960; 1960 keeps 1960,
    # and 1966, which is no election year, drops up to 1964
    shares, structure = _saved_pair(save_dataset, tmp_path, years=tuple(range(1956, 2004, 4)))
    code, out, _ = run(["pca", "--shares", str(shares), "--structure", str(structure), *argv],
                       capsys)
    assert code == 0 and json.loads(out)["n"] == n


@pytest.mark.parametrize("flag", ["--shares", "--structure"])
@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
def test_unreadable_input_file(tmp_path, capsys, save_dataset, flag, fault):
    shares, structure = _saved_pair(save_dataset, tmp_path)
    bad = tmp_path / "bad.csv"
    if fault == "directory":
        bad.mkdir()
    elif fault == "not-utf8":
        bad.write_bytes(b"state,year,dem_share\n\xff\xfe\n")
    argv = ["pca", "--shares", str(shares), "--structure", str(structure)]
    argv[argv.index(flag) + 1] = str(bad)
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "MalformedRow" in err and str(bad) in err


# edits to a valid CSV pair: (kind, line, field, text); indices wrap around
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "duplicate"]), st.integers(0, 700)),
    st.tuples(st.just("truncate"), st.integers(0, 700), st.integers(0, 40)),
    st.tuples(st.just("field"), st.integers(0, 700), st.integers(0, 3), st.text(max_size=12)),
    st.tuples(st.just("prepend"), st.binary(min_size=1, max_size=12)),
), min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, *args in mutations:
        lines = data.splitlines(keepends=True)
        if kind == "prepend":
            data = args[0] + data
            continue
        if not lines:
            continue
        i = args[0] % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:args[1]]
        else:
            fields = lines[i].rstrip(b"\n").split(b",")
            fields[args[1] % len(fields)] = args[2].encode("utf-8")
            lines[i] = b",".join(fields) + b"\n"
        data = b"".join(lines)
    return data


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([0, 1]), MUTATIONS)
def test_malformed_csv_fails_cleanly(tmp_path_factory, save_dataset, target, mutations):
    # a fresh directory per example: rewriting a file written moments before can stall
    paths = _saved_pair(save_dataset, tmp_path_factory.mktemp("malformed"))
    paths[target].write_bytes(_mutate(paths[target].read_bytes(), mutations))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["pca", "--shares", str(paths[0]), "--structure", str(paths[1])])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (lines == [])


def _values(*values):
    return st.sampled_from([str(v) for v in values])


def _flag(name, values):
    return values.map(lambda value: [name, value])


# every command's flags, each with valid, boundary and invalid values; the upper
# case tokens stand for paths made per example.  A valid --trials stays small, so
# a valid --threads, even THREADS_LIMIT - 1, starts at most one thread beside the caller
DATA_FLAGS = [
    st.just(["--shares", "SHARES", "--structure", "STRUCTURE"]),
    _flag("--shares", st.sampled_from(["SHARES", "MISSING"])),
    _flag("--structure", st.sampled_from(["STRUCTURE", "MISSING"])),
    _flag("--start-year", _values(1964, 1988, 1992, 2000, 2004, 1965, 2100, "x")),
]
GRAMMAR = {
    "pca": DATA_FLAGS + [_flag("--loadings", _values(1, 4, 11, 0, 12, -1, "x"))],
    "simulate": DATA_FLAGS + [
        _flag("--trials", st.integers(1, 3000).map(str) | _values(1, 0, -1, TRIALS_LIMIT, "x")),
        _flag("--seed", _values(0, 7, SEED_LIMIT - 1, SEED_LIMIT, -1)),
        _flag("--threads", _values(1, 2, THREADS_LIMIT - 1, THREADS_LIMIT, 0)),
        _flag("--bins", _values(1, 20, BINS_LIMIT - 1, BINS_LIMIT, 0)),
        _flag("--k-values", _values(0, 2, 2**64, -1)),
        _flag("--out", st.sampled_from(["OUT", "FILE"])),
        st.just(["--emit-trials"]),
    ],
    "scenario": [],
    "report": [],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["pca", "simulate", "simulate", "scenario", "report"]))
    argv = [command]
    if command == "report":
        argv += draw(st.sampled_from([["SUMMARY"], ["MISSING"], ["SHARES"], []]))
    flags = draw(st.permutations(GRAMMAR[command]))
    for flag in flags[:draw(st.integers(0, len(flags)))]:
        argv += draw(flag)
    if command == "simulate":   # never the default 20000 trials, nor the default --out
        argv += [] if "--trials" in argv else ["--trials", "2000"]
        argv += [] if "--out" in argv else ["--out", "OUT"]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv(), st.sampled_from([None, 0, 1]), MUTATIONS)
def test_main_fails_cleanly_on_any_argv(tmp_path_factory, save_dataset, argv, target,
                                        mutations):
    """In-process main, on argv from every command's flags and on valid or mutated
    data files: status 0, 1 or 2, no exception, at most one stderr line beside
    --start-year's warning, and no staged file left in any --out."""
    summary = tmp_path_factory.getbasetemp() / "summary" / "run_summary.json"
    if not summary.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--trials", "100", "--out", str(summary.parent)]) == 0
    directory = tmp_path_factory.mktemp("argv")
    paths = _saved_pair(save_dataset, directory)
    if target is not None:
        paths[target].write_bytes(_mutate(paths[target].read_bytes(), mutations))
    (directory / "file").write_text("keep\n")
    tokens = {"SHARES": paths[0], "STRUCTURE": paths[1], "MISSING": directory / "missing.csv",
              "OUT": directory / "out", "FILE": directory / "file", "SUMMARY": summary}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(tokens.get(token, token)) for token in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if not line.startswith("warning: only ")]
    assert len(errors) <= 1 and len(lines) - len(errors) <= 1
    assert (code == 0) == (errors == [])
    assert not [p for p in directory.rglob("*") if p.name.endswith(".tmp")]
    assert (directory / "file").read_text() == "keep\n"


def test_run_study_imports_elections_before_numpy():
    """The study script imports elections first, so numpy's BLAS starts with the
    one thread that elections sets: after the script's imports the process
    still has one OS thread, not one per CPU."""
    import subprocess
    import sys
    from pathlib import Path

    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc/self/task")
    script = Path(__file__).parents[1] / "scripts" / "run_study.py"
    probe = ("import os, runpy; runpy.run_path(%r, run_name='run_study'); "
             "print(len(os.listdir('/proc/self/task')))" % str(script))
    env = _child_env(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["1"]


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--threads", "0"], ["--seed", "-1"],
                                  ["--trials", str(10**20)]])
def test_run_study_usage_errors(argv, capsys):
    """scripts/run_study.py rejects out-of-range integers before running anything."""
    import runpy
    import sys
    from pathlib import Path
    from unittest import mock

    script = Path(__file__).parents[1] / "scripts" / "run_study.py"
    study = runpy.run_path(str(script), run_name="run_study")
    with mock.patch.object(sys, "argv", ["run_study.py", *argv]), \
            pytest.raises(SystemExit) as exc:
        study["main"]()
    assert exc.value.code == 2
    assert f"argument {argv[0]}: {argv[0][2:]} must be an integer >= " in capsys.readouterr().err


@pytest.mark.parametrize("when", ["at-start", "after-first-line"])
def test_run_study_closed_pipe_is_a_silent_exit_1(when):
    """scripts/run_study.py on a pipe that its reader closes, before it starts
    or after the first line, exits 1 with nothing on stderr, as the CLI does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).parents[1] / "scripts" / "run_study.py"
    # unbuffered, so the first line reaches the pipe while the run is still to come
    argv = [sys.executable, "-u", str(script), "--trials", "200000"]
    if when == "at-start":
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(argv, env=_child_env(), stdout=write, stderr=subprocess.PIPE,
                                  text=True)
        finally:
            os.close(write)
        status, err = done.returncode, done.stderr
    else:
        with subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            assert child.stdout.readline().startswith("Elections 1964-2008")
            child.stdout.close()
            err = child.stderr.read()
        status = child.returncode
    assert "Traceback" not in err
    assert (status, err) == (1, "")

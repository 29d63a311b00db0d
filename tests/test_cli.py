import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from elections.cli import (BINS_LIMIT, K_LIMIT, SLICE_ROWS, THREADS_LIMIT, TRIALS_LIMIT,
                           build_parser, main, write_csv)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_scenario_command(capsys):
    code, out, err = run(["scenario"], capsys)
    assert code == 0
    assert "LW: popular 253-247, full 5-6, house 3-2  [ok]" in out
    assert "LL: popular 261-239, full 3-8, house 1-4  [ok]" in out
    assert "WL: popular 253-247, full 6-5, house 2-3  [ok]" in out
    assert "MISMATCH" not in out


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


def test_pca_loadings_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--loadings", "12"])
    assert exc.value.code == 2


def test_invalid_start_year(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--start-year", "2100"])
    assert exc.value.code == 2


def test_start_year_too_few_elections(capsys):
    # 2004 is a legal grid year but leaves only 2 elections
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--start-year", "2004"])
    assert exc.value.code == 2


def test_start_year_warning(capsys):
    code, out, err = run(["pca", "--start-year", "1988"], capsys)
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["n"] == 6


def test_mismatched_data_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pca", "--shares", "only_one.csv"])
    assert exc.value.code == 2


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
    rows = list(csv.reader(open(out_dir / "trials.csv")))
    assert rows[0] == ["trial", "code", "dem_pop", "rep_pop", "H", "S",
                       "diff", "california"]
    assert len(rows) == 51  # header + 50 classified trials
    for r in rows[1:]:
        assert r[1] in ("WW", "WL", "LW", "LL")
        assert float(r[2]) > 0 and float(r[3]) > 0


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
    st.tuples(st.just("--k-values"),
              st.integers(max_value=-1) | st.integers(min_value=K_LIMIT)),
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
    # just below their bounds, k and the bin width still fit in int64
    out = tmp_path / "r"
    assert run(["simulate", "--trials", "2000", "--out", str(out), "--k-values", "2",
                str(K_LIMIT - 1), "--bins", str(BINS_LIMIT - 1)], capsys)[0] == 0
    summary = json.loads((out / "run_summary.json").read_text())
    sweep = json.loads((out / "senate_sweep.json").read_text())
    # 51 states never split evenly, so a k above 436 follows the states won
    assert sweep["by_k"][str(K_LIMIT - 1)] == sweep["states_won_limit"]
    bins = summary["diff_histogram"]["bins"]
    assert {lo for lo, _, _ in bins} <= {-(BINS_LIMIT - 1), 0}
    assert sum(c for _, _, c in bins) == summary["counts"]["LW"] + summary["counts"]["LL"]


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


def test_simulate_csv_text(tmp_path, capsys, model, dataset):
    """Every CSV line is csv.writer's rendering of the scalar records' values."""
    for trials in (3000, 1, 2, 7):
        _check_csv_text(tmp_path / str(trials), capsys, model, dataset, trials)


def _check_csv_text(out, capsys, model, dataset, trials):
    from elections import run_batch

    assert run(["simulate", "--trials", str(trials), "--seed", "4", "--bins", "7",
                "--out", str(out), "--emit-trials"], capsys)[0] == 0
    summary = run_batch(model, dataset, trials=trials, seed=4, bin_width=7,
                        keep_records=True)

    def text(name):
        return (out / name).read_bytes().decode("utf-8")

    records, table = summary.records, summary.table
    assert text("scatter_hs.csv") == rendered(
        ["H", "S", "code"],
        [(r.popular_winner_H, r.popular_winner_S, r.code) for r in records])
    assert text("california_scatter.csv") == rendered(
        ["H", "S", "popular_winner", "carried_california"],
        [(r.popular_winner_H, r.popular_winner_S, r.popular_winner,
          int(r.carried_california)) for r in records])
    assert text("diff_histogram.csv") == rendered(
        ["bin_lo", "bin_hi", "count"], summary.diff_histogram)
    dem_pop = table.dem_pop[table.ok].tolist()
    assert len(dem_pop) == len(records) == trials
    assert text("trials.csv") == rendered(
        ["trial", "code", "dem_pop", "rep_pop", "H", "S", "diff", "california"],
        [(r.trial, r.code, repr(d), repr(table.total_pop - d), r.popular_winner_H,
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


# columns of a few distinct values each: small and negative ints, int8, wide ints,
# short texts as (index, labels), and floats with -0.0 and 17 digits
FLOATS = st.sampled_from([-0.0, 0.1 + 0.2, 1 / 3, 1.2e8 + 1 / 7, 5e-324]) | st.floats()
COLUMN_VALUES = st.one_of(
    st.tuples(st.just("int"), st.lists(st.integers(-300, 300), min_size=1, max_size=6)),
    st.tuples(st.just("int8"), st.lists(st.integers(-128, 127), min_size=1, max_size=6)),
    st.tuples(st.just("int"), st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                                       max_size=6)),
    st.tuples(st.just("float"), st.lists(FLOATS, min_size=1, max_size=6)),
    st.tuples(st.just("text"), st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
        min_size=1, max_size=6)),
)


def _table(specs, n, seed):
    """write_csv columns of n rows drawn from each spec's values, and the rows."""
    import numpy as np

    rng = np.random.default_rng(seed)
    columns, values = [], []
    for kind, pool in specs:
        index = rng.integers(len(pool), size=n)
        if kind == "text":
            columns.append((index, tuple(pool)))
            values.append([pool[i] for i in index.tolist()])
        else:
            dtype = {"int": np.int64, "int8": np.int8, "float": float}[kind]
            columns.append(np.array(pool, dtype=dtype)[index])
            values.append(columns[-1].tolist())
    return columns, list(zip(*values))


def _check_write_csv(path, specs, n, seed):
    columns, rows = _table(specs, n, seed)
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(path, header, columns)
    assert path.read_bytes().decode("utf-8") == rendered(header, rows)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
@settings(max_examples=40, deadline=None)
@given(st.lists(COLUMN_VALUES, min_size=1, max_size=5), st.integers(0, 2**32))
def test_write_csv_matches_csv_writer(tmp_path_factory, n, specs, seed):
    from unittest import mock

    from elections import cli

    # slices of 3 rows, so that n = 7 and 50 span several
    with mock.patch.object(cli, "SLICE_ROWS", 3):
        _check_write_csv(tmp_path_factory.getbasetemp() / "property.csv", specs, n, seed)


def test_write_csv_above_one_slice(tmp_path):
    specs = [("int", [0, 5000, -7]), ("text", ["", "WW", 'a,"b']), ("float", [-0.0, 0.1 + 0.2]),
             ("int", [3, -2, 9]), ("text", ["", "x"])]
    _check_write_csv(tmp_path / "big.csv", specs, SLICE_ROWS + 5, 0)


def test_blas_threads_default_to_one():
    """Importing elections sets one BLAS thread, unless the user chose a count."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import elections

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(elections.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    probe = "import os, elections; print(*(os.environ[n] for n in %r))" % (names,)
    for user, want in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")):
        out = subprocess.run([sys.executable, "-c", probe], env={**env, **user},
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == want.split()


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe", "{}", "[]"],
                         ids=["missing", "not-json", "not-utf8", "empty-object",
                              "empty-list"])
def test_report_unreadable(tmp_path, capsys, content):
    path = tmp_path / "summary.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(["report", str(path)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and str(path) in err


def test_bad_structure_file(tmp_path, capsys):
    from elections import load_bundled_dataset, save_dataset

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


def _saved_pair(directory, shares=None):
    """Write the bundled data (shares optionally replaced) as a CSV pair."""
    import dataclasses

    from elections import load_bundled_dataset, save_dataset

    data = load_bundled_dataset()
    if shares is not None:
        data = dataclasses.replace(data, shares=shares)
    paths = directory / "shares.csv", directory / "structure.csv"
    save_dataset(data, *paths)
    return paths


@pytest.mark.parametrize("command", ["pca", "simulate"])
def test_zero_variance_history_rejected(tmp_path, capsys, command):
    import numpy as np

    shares, structure = _saved_pair(tmp_path, np.full((12, 51), 0.5))
    out = tmp_path / "r"
    argv = [command, "--shares", str(shares), "--structure", str(structure)]
    if command == "simulate":
        argv += ["--trials", "100", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and "DegenerateSample" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--shares", "--structure"])
@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
def test_unreadable_input_file(tmp_path, capsys, flag, fault):
    shares, structure = _saved_pair(tmp_path)
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
def test_malformed_csv_fails_cleanly(tmp_path_factory, target, mutations):
    directory = tmp_path_factory.getbasetemp() / "malformed"
    directory.mkdir(exist_ok=True)
    paths = _saved_pair(directory)
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

"""Command-line front end: model fitting, simulation, and report emission.

Outputs are a pure function of the input files and flags; there are no
environment-variable overrides and no timestamps, so repeated invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import montecarlo as mc
from . import pca as pc
from .generator import SEED_LIMIT
from .scenarios import format_scenarios, run_all_scenarios

VALID_START_YEARS = tuple(range(1964, 2008, 4))
MIN_ELECTIONS = 3
WARN_ELECTIONS = 8
# exclusive bounds of simulate's integer flags: a 10**8-trial table is ~3 GB, and
# below them 2 * (436 + 51 k) and bin_width * (diff // bin_width) fit in int64
TRIALS_LIMIT, K_LIMIT, BINS_LIMIT = 10**8, 10**16, 10**9
# and --threads, the number of OS threads run_batch may start, is below
THREADS_LIMIT = 256
# write_csv looks up integer columns spanning fewer values than KEYED_RANGE
# (H, S, diff, codes), formats the rest per row and writes SLICE_ROWS lines at a time
KEYED_RANGE, SLICE_ROWS = 1 << 12, 1 << 16


def _load(args, parser) -> ds.ElectionDataset:
    if args.shares or args.structure:
        if not (args.shares and args.structure):
            parser.error("--shares and --structure must be given together")
        data = ds.load_dataset(args.shares, args.structure)
    else:
        data = ds.load_bundled_dataset()
    if args.start_year != 1964:
        data = data.restrict_years(args.start_year)
        if data.n_years < MIN_ELECTIONS:
            parser.error(f"--start-year {args.start_year} leaves only "
                         f"{data.n_years} elections (need >= {MIN_ELECTIONS})")
        if data.n_years < WARN_ELECTIONS:
            print(f"warning: only {data.n_years} elections remain after "
                  f"--start-year {args.start_year}", file=sys.stderr)
    return data


def _add_data_args(sub):
    sub.add_argument("--shares", help="share history CSV (default: bundled data)")
    sub.add_argument("--structure", help="turnout/elector CSV (default: bundled data)")
    sub.add_argument("--start-year", type=int, default=1964,
                     choices=VALID_START_YEARS, metavar="YEAR",
                     help="first election year to include (default 1964)")


def cmd_pca(args, parser) -> int:
    data = _load(args, parser)
    model = pc.fit_pca(data)
    if args.loadings is not None:
        if not 1 <= args.loadings <= model.n_components:
            parser.error(f"--loadings must be in 1..{model.n_components}")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["state", f"eigenvec{args.loadings}"])
        for name, coeff in pc.loadings_report(model, args.loadings):
            writer.writerow([name, repr(coeff)])
        return 0
    out = {
        "n": model.n,
        "years": list(data.years),
        "mean": [float(x) for x in model.mean],
        "eigenvalues": [float(x) for x in model.eigenvalues],
        "eigenvectors": [[float(x) for x in row] for row in model.eigenvectors],
        "variance_explained": [pc.variance_explained(model, k)
                               for k in range(1, model.n_components + 1)],
    }
    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


class _Echo:
    """A file whose write returns its text, so csv.writer.writerow returns the line."""

    def write(self, text: str) -> str:
        return text


def _keyed(column) -> bool:
    """Is the column looked up per distinct row?  Labels and integers spanning
    fewer than KEYED_RANGE values are; floats and wider integers, such as
    the trial number, are formatted per row."""
    if isinstance(column, tuple):
        return True
    if column.dtype.kind in "iu":
        return int(column.max()) - int(column.min()) < KEYED_RANGE
    if column.dtype.kind == "f":
        return False
    raise TypeError(f"cannot write a {column.dtype} column; pass text as (index, labels)")


def _relabel(key: np.ndarray, size: int, cap: int):
    """(ids, d): the d distinct values of `key`, all in [0, size), as 0..d-1."""
    if size > cap:
        values, ids = np.unique(key, return_inverse=True)
        return ids, len(values)
    seen = np.zeros(size, bool)
    seen[key] = True
    return (np.cumsum(seen) - 1)[key], int(seen.sum())


def _distinct_rows(columns, n: int):
    """(ids, d): equal rows of the integer `columns` share one of d ids.

    The mixed-radix key is relabelled through a presence table while its
    range stays within a few times `n`, and by a sort only beyond that.
    """
    cap = 4 * n + (1 << 16)
    ids, size = np.zeros(n, np.intp), 1
    for column in columns:
        column = column.astype(np.intp)   # a wrapped value still gives the right offset
        offset = column - column.min()
        radix = int(offset.max()) + 1
        if size * radix > cap:
            ids, size = _relabel(ids, size, cap)
        ids, size = ids * radix + offset, size * radix
    return _relabel(ids, size, cap)


def _values(column, rows: np.ndarray) -> list:
    if isinstance(column, tuple):
        index, labels = column
        return [labels[i] for i in index[rows].tolist()]
    return column[rows].tolist()


def write_csv(path: Path, header: list, columns) -> None:
    """Write `header` and one CSV line per row of the equal-length `columns`.

    A column is an integer or float numpy array, or an (index, labels)
    pair standing for labels[index].  The text is what csv.writer writes for
    the same rows.  Each run of repeating columns (see _keyed) is formatted
    by csv.writer once per distinct row and looked up; the other columns are
    formatted per row with repr, as csv.writer formats them.  Lines are
    written SLICE_ROWS at a time, so the text of a file is never held whole.
    """
    n = len(columns[0][0] if isinstance(columns[0], tuple) else columns[0])
    # the file's own terminator, cut from each line: csv.writer quotes a field
    # holding "\n" only when "\n" is in its lineterminator
    line = csv.writer(_Echo(), lineterminator="\n").writerow

    def fmt(row) -> str:
        return line(row)[:-1]

    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(fmt(header) + "\n")
        if n == 0:
            return
        keyed = [_keyed(c) for c in columns]
        ids, d = _distinct_rows([c[0] if isinstance(c, tuple) else c
                                 for c, k in zip(columns, keyed) if k], n)
        first = np.empty(d, np.intp)
        first[ids] = np.arange(n)   # one row of each distinct id
        # csv.writer renders a line of one empty field as "", and an empty
        # field next to others as nothing: a run that is not the whole line
        # is rendered with one more field, whose delimiter is then cut
        whole = all(keyed)
        parts = []   # per run of keyed columns its lookup table, else the column
        for is_keyed, run in itertools.groupby(zip(keyed, columns), lambda kc: kc[0]):
            run = [c for _, c in run]
            if not is_keyed:
                parts += [(None, c) for c in run]
                continue
            distinct = zip(*(_values(c, first) for c in run))
            parts.append((np.array([fmt(r) if whole else fmt([*r, ""])[:-1] for r in distinct],
                                   dtype=object), None))
        for lo in range(0, n, SLICE_ROWS):
            rows = slice(lo, lo + SLICE_ROWS)
            fields = [lut[ids[rows]].tolist() if lut is not None
                      else list(map(repr, column[rows].tolist())) for lut, column in parts]
            f.write("\n".join(fields[0] if len(fields) == 1
                              else map(",".join, zip(*fields))) + "\n")


def cmd_simulate(args, parser) -> int:
    data = _load(args, parser)
    model = pc.fit_pca(data)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    summary = mc.run_batch(model, data, trials=args.trials, seed=args.seed,
                           threads=args.threads, bin_width=args.bins)
    sweep = mc.senate_sweep(summary.table, k_values=args.k_values)
    (out_dir / "run_summary.json").write_text(summary.to_json() + "\n")
    (out_dir / "senate_sweep.json").write_text(
        json.dumps(sweep.to_dict(), sort_keys=True, indent=2) + "\n")
    outputs = [("scatter_HS", "scatter_hs.csv"),
               ("california_scatter", "california_scatter.csv")]
    if args.emit_trials:
        outputs.append(("trials", "trials.csv"))
    for kind, fname in outputs:
        write_csv(out_dir / fname, *mc.emit_figure_data(summary.table, kind))
    write_csv(out_dir / "diff_histogram.csv", ["bin_lo", "bin_hi", "count"],
              np.array(summary.diff_histogram, dtype=np.int64).reshape(-1, 3).T)
    print(f"trials={summary.trials} seed={summary.seed}")
    print(f"unpopular_full={summary.unpopular_full:.4f} "
          f"unpopular_house={summary.unpopular_house:.4f} "
          f"states_won={sweep.states_won_limit:.4f} "
          f"dem_win_rate={summary.dem_win_rate:.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_scenario(args, parser) -> int:
    print(format_scenarios())
    results = run_all_scenarios()
    expected = {"LW": (253, 247, 5, 6, 3, 2),
                "LL": (261, 239, 3, 8, 1, 4),
                "WL": (253, 247, 6, 5, 2, 3)}
    for code, (pa, pb, fa, fb, ha, hb) in expected.items():
        r = results[code]
        got = (round(r.tally.dem_pop), round(r.tally.rep_pop),
               r.full_a, r.full_b, r.house_a, r.house_b)
        status = "ok" if got == (pa, pb, fa, fb, ha, hb) else "MISMATCH"
        print(f"{code}: popular {got[0]}-{got[1]}, full {got[2]}-{got[3]}, "
              f"house {got[4]}-{got[5]}  [{status}]")
        if status == "MISMATCH":
            return 1
    return 0


REPORT = """\
Simulated elections: {trials} (seed {seed}, {n_classified} classified)
Outcome codes (popular winner with full / house-only electors):
  WW        {counts[WW]:7d}  ({freq[WW]:.4f})
  WL        {counts[WL]:7d}  ({freq[WL]:.4f})
  LW        {counts[LW]:7d}  ({freq[LW]:.4f})
  LL        {counts[LL]:7d}  ({freq[LL]:.4f})
Unpopular, full electoral college:  {unpopular_full:.4f}
Unpopular, House electors only:     {unpopular_house:.4f}
Unpopular, states-won limit rule:   {states_won_unpopular:.4f}
Democratic win rate (full rule):    {dem_win_rate:.4f}
California effect (popular winner x carried California):
  D: carried {california_crosstab[D][carried]}, missed {california_crosstab[D][missed]}
  R: carried {california_crosstab[R][carried]}, missed {california_crosstab[R][missed]}"""


def cmd_report(args, parser) -> int:
    try:
        with open(args.summary, encoding="utf-8") as f:
            s = json.load(f)
        lines = [REPORT.format_map(s)]
        bins = s["diff_histogram"]["bins"]
        if bins:
            pos = sum(c for lo, hi, c in bins if lo >= 0)
            tot = sum(c for _, _, c in bins)
            lines.append(f"Signed electoral differences in unpopular trials: "
                         f"{tot} total, {pos} in nonnegative bins")
        deg = s["degenerate"]
        if deg["tied_state"] or deg["tied_popular"]:
            lines.append(f"Degenerate trials: {deg}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read {args.summary}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(lo: int, below: float = float("inf")):
    """argparse type: an integer in [lo, below)."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value < below:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {below}), got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elections",
        description="Monte Carlo study of unpopular presidential elections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pca", help="fit and print the principal-components model")
    _add_data_args(p)
    p.add_argument("--loadings", type=int, metavar="J",
                   help="emit sorted state coefficients of component J as CSV")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("simulate", help="run a simulation batch and write outputs")
    _add_data_args(p)
    p.add_argument("--trials", type=_at_least(1, TRIALS_LIMIT), default=20000)
    p.add_argument("--seed", type=_at_least(0, SEED_LIMIT), default=0)
    p.add_argument("--threads", type=_at_least(1, THREADS_LIMIT), default=1)
    p.add_argument("--bins", type=_at_least(1, BINS_LIMIT), default=mc.DEFAULT_BIN_WIDTH,
                   help="electoral-difference histogram bin width (default 20)")
    p.add_argument("--k-values", type=_at_least(0, K_LIMIT), nargs="+",
                   default=[0, 2, 10, 100],
                   help="Senate elector counts for the sweep")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--emit-trials", action="store_true",
                   help="also write per-trial records to trials.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="print the three-state teaching scenarios")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("report", help="render a human-readable summary")
    p.add_argument("summary", help="path to a run_summary.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ds.DatasetError, pc.PcaError, mc.MonteCarloError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: model fitting, simulation, and report emission.

Outputs are a pure function of the input files and flags; there are no
environment-variable overrides and no timestamps, so repeated invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import montecarlo as mc
from . import pca as pc
from .csvout import write_csv
from .generator import check_integers
from .tally import SCENARIOS, format_scenarios, scenario_totals

WARN_ELECTIONS = 8
# the signals that end a run: under run() each raises KeyboardInterrupt with itself
INTERRUPTS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
_caught = []   # the interrupts _unwind raised


def _unwind(signum, frame):
    _caught.append(signal.Signals(signum))
    raise KeyboardInterrupt(_caught[0])


def _reraise():
    """Raise again an interrupt that C code cleared: Cython's module set-up
    drops one taken in numpy.random's import, which the first draw runs."""
    if _caught:
        raise KeyboardInterrupt(_caught[0])


def _load(args, parser) -> ds.ElectionDataset:
    if args.shares or args.structure:   # the flag left out is the bundled file
        data = ds.load_dataset(args.shares, args.structure)
    else:
        data = ds.load_bundled_dataset()
    # counted first: restrict_years would raise MissingState, a data error
    kept = sum(year >= args.start_year for year in data.years)
    if kept < ds.MIN_ELECTIONS:
        parser.error(f"--start-year {args.start_year} leaves only "
                     f"{kept} elections (need >= {ds.MIN_ELECTIONS})")
    if kept < WARN_ELECTIONS:
        print(f"warning: only {kept} elections from {args.start_year} on", file=sys.stderr)
    return data.restrict_years(args.start_year)


def _failed(what: str, exc: Exception) -> int:
    """Status 1 after one stderr line naming what failed and why."""
    print(f"error: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def _add_data_args(sub):
    sub.add_argument("--shares", help="share history CSV (default: bundled data)")
    sub.add_argument("--structure", help="turnout/elector CSV (default: bundled data)")
    sub.add_argument("--start-year", type=int, default=1964, metavar="YEAR",
                     help="drop the elections before YEAR (default %(default)s)")


def cmd_pca(args, parser) -> int:
    data = _load(args, parser)
    model = pc.fit_pca(data)
    if args.loadings is not None:
        if not 1 <= args.loadings <= model.n_components:
            parser.error(f"--loadings must be in 1..{model.n_components}")
        names, coeffs = zip(*pc.loadings_report(model, args.loadings))
        table = io.BytesIO()   # sys.stdout may be any text stream
        write_csv(table, ["state", f"eigenvec{args.loadings}"],
                  [(np.arange(len(names)), names), np.array(coeffs)])
        sys.stdout.write(table.getvalue().decode())
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


def cmd_simulate(args, parser) -> int:
    data = _load(args, parser)
    model = pc.fit_pca(data)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _failed(f"cannot create {out_dir}", exc)
    # a target that is there but is no file fails before anything is written
    figures = list(mc.FIGURES)[:2 + args.emit_trials]
    names = ["run_summary.json", "senate_sweep.json", *figures, "diff_histogram.csv"]
    if taken := [p for p in (out_dir / n for n in names) if p.exists() and not p.is_file()]:
        print(f"error: cannot write {taken[0]}: not a regular file", file=sys.stderr)
        return 1
    # staged files replace the outputs only once all are written: a failed run changes nothing
    staged = {name: out_dir / f".{name}.{os.getpid()}.tmp" for name in names}
    aside = out_dir / f".aside.{os.getpid()}.tmp"
    try:
        try:
            with contextlib.ExitStack() as stack:
                files = {name: stack.enter_context(open(path, "wb"))
                         for name, path in staged.items()}
                for name in figures:
                    write_csv(files[name], mc.FIGURES[name], [])

                def append(block):   # each block's figure rows, after the last block's
                    _reraise()
                    for name, columns in mc.emit_figure_data(block, args.emit_trials).items():
                        write_csv(files[name], None, columns)

                summary = mc.run_batch(model, data, trials=args.trials, seed=args.seed,
                                       threads=args.threads, bin_width=args.bins,
                                       on_block=append)
                sweep = mc.senate_sweep(summary, k_values=args.k_values)
                files["run_summary.json"].write((summary.to_json() + "\n").encode())
                files["senate_sweep.json"].write(
                    (json.dumps(sweep.to_dict(), sort_keys=True, indent=2) + "\n").encode())
                write_csv(files["diff_histogram.csv"], ["bin_lo", "bin_hi", "count"], np.array(
                    summary.diff_histogram, dtype=np.int64).reshape(-1, 3).T)
        except OSError as exc:
            return _failed(f"cannot write to {out_dir}", exc)
        print(f"trials={summary.trials} seed={summary.seed}")
        print(f"unpopular_full={summary.unpopular_full:.4f} "
              f"unpopular_house={summary.unpopular_house:.4f} "
              f"states_won={sweep.states_won_limit:.4f} "
              f"dem_win_rate={summary.dem_win_rate:.4f}")
        print(f"outputs in {out_dir}")
        sys.stdout.flush()   # a stdout that fails is main's error, raised before any rename
        # no rename lands on a file: on ext4 one onto a file that an earlier rename
        # installed waits for that file's writeback, about 60 ms a file.  An interrupt
        # waits until all are in, so it leaves the old set or the new; the helper
        # threads, which could take it, are joined
        _reraise()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, INTERRUPTS)
        try:
            for name, path in staged.items():
                if held := os.path.lexists(target := out_dir / name):
                    os.rename(target, aside)
                try:
                    os.rename(path, target)
                except OSError:   # the old file takes its name back
                    if held:
                        os.rename(aside, target)
                    raise
                if held:
                    os.unlink(aside)
        except OSError as exc:
            return _failed(f"cannot write to {out_dir}", exc)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)
    return 0


def cmd_scenario(args, parser) -> int:
    results = {code: scenario_totals(s.shares) for code, s in SCENARIOS.items()}
    print(format_scenarios(results))
    for code, r in results.items():
        got = (round(r[0]), round(r[1]), *r[2:])
        status = "ok" if got == SCENARIOS[code].paper else "MISMATCH"
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
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        return _failed(f"cannot read {args.summary}", exc)
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _integer(name: str):
    """argparse type: an integer that check_integers takes as `name`."""
    def integer(text: str) -> int:
        value = int(text)
        try:
            return check_integers(**{name: value})[0]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
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
    p.add_argument("--trials", type=_integer("trials"), default=20000)
    p.add_argument("--seed", type=_integer("seed"), default=0)
    p.add_argument("--threads", type=_integer("threads"), default=1)
    p.add_argument("--bins", type=_integer("bin_width"), default=mc.DEFAULT_BIN_WIDTH,
                   help="electoral-difference histogram bin width (default %(default)s)")
    p.add_argument("--k-values", type=_integer("k"), nargs="+", default=mc.DEFAULT_K_VALUES,
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
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if sys.stdout is None:   # started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        status = args.func(args, parser)
        sys.stdout.flush()
        return status
    except KeyboardInterrupt as exc:   # every finally has run: no staged file is left
        signum = exc.args[0] if exc.args else signal.SIGINT   # see _unwind
        print(f"error: interrupted by {signum.name}", file=sys.stderr)
        return 128 + signum
    except (ds.DatasetError, pc.DegenerateSample, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # stdout's: each command catches its own files' errors
        sys.stdout = sys.stdout or open(os.devnull, "w")
        with open(os.devnull, "wb") as null:   # what is still buffered goes nowhere at exit
            os.dup2(null.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):   # a closed pipe stays silent
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with main's status once stdout and stderr are flushed.

    While main runs, SIGINT, SIGTERM and SIGHUP, each at Python's default,
    raise KeyboardInterrupt with the signal, so every finally runs and main
    exits 128 + its number; an ignored one, as under nohup, stays ignored.
    When main returns, its files are closed and its threads joined, so once
    stdio is flushed os._exit skips interpreter teardown.  A failed flush is
    status 1, as a closed stdout is in main; a SystemExit or an exception out
    of main takes the normal exit path.
    """
    handlers = {signum: signal.signal(signum, _unwind) for signum in INTERRUPTS
                if signal.getsignal(signum) in (signal.SIG_DFL, signal.default_int_handler)}
    try:
        status = main()
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            status = 1
    os._exit(status)


if __name__ == "__main__":
    run()

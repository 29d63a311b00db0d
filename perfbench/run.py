"""Closed-loop benchmark of `elections simulate`.

    python3 perfbench/run.py --workload emit-trials --seed 1 --seconds 55 --trace 0

One client starts `simulate` in a fresh process, waits for it, checks its
outputs and starts the next, while another run fits in `--seconds`.  Every run of
one invocation has the same inputs, so their outputs must be byte-identical.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates plain and
traced runs and reports the per-layer metrics.  The last stdout line is one
JSON object; a result file with every sample and the environment is written
to `.perfbench_out/results/`.  perfbench/README.md says why each workload
exists and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.pycache_prefix = str(OUT / "pycache")   # write bytecode only inside the checkout
# OpenBLAS starts one worker per CPU, and they spin while they wait.  With the
# program's own threads that is more runnable threads than CPUs, and the
# timings then measure the scheduler.  Every process here, children included,
# gets one BLAS thread; the program's matrices are small.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from checks import check_outputs, oracle_check  # noqa: E402
from tracer import summarize  # noqa: E402

WORKLOADS = {
    "paper-20k": {"trials": 20000, "threads": 1, "emit_trials": False},
    "bulk-2t": {"trials": 100000, "threads": 2, "emit_trials": False},
    "emit-trials": {"trials": 20000, "threads": 1, "emit_trials": True},
}
# Acceptance criterion 5's configuration: its bands are checked here exactly.
ACCEPTANCE = {"trials": 20000, "threads": 1, "emit_trials": False}
ACCEPTANCE_SEED = 0

HARD_LIMIT_S = 170     # every child is killed by then; an invocation must end in 180 s
MIN_SETUP_PROBES = 5
IMPORTTIME_RUNS = 5

SETUP_PROBE = """\
import sys, time
import elections
elections.fit_pca(elections.load_bundled_dataset())
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[1]))
"""

# Other tenants of the shared machine slow it by up to about 70%, in bursts
# that come and go within a second, and how often they come drifts over
# minutes.  The reference is a fixed loop of small numpy calls from Python,
# the shape of the program's inner loop, that no change to the program can
# touch.  It runs in this process after each timed run, for REFERENCE_SHARE
# of that run's wall time: half of that in one thread, and half in as many
# threads as the workload asks for, which meets the same GIL hand-offs
# between CPUs.  Each half's mean wall time per iteration is divided by
# REFERENCE_ITER_S times its thread count (the threads hand the GIL to each
# other, so two take about twice as long per iteration as one), and times are
# divided by the mean of the two quotients.  So they read as on a machine
# where one thread runs an iteration in REFERENCE_ITER_S.  Means, not
# medians: a burst slows a run in proportion to the share of time it covers,
# and the mean of the reference moves the same way.
REFERENCE_ITER_S = 2e-6
REFERENCE_CHUNK = 2000     # iterations between clock reads
REFERENCE_SHARE = 0.25


def reference_loop(seconds: float, threads: int = 1) -> tuple[float, int]:
    """Run the reference loop in `threads` threads for about `seconds`;
    (seconds taken, iterations over all threads)."""
    import numpy as np

    counts = [0] * threads
    t0 = time.perf_counter()

    def loop(i: int) -> None:
        rng = np.random.Generator(np.random.PCG64(12345 + i))
        while not counts[i] or time.perf_counter() - t0 < seconds:
            for _ in range(REFERENCE_CHUNK):
                rng.standard_normal(11).sum()
            counts[i] += REFERENCE_CHUNK

    workers = [threading.Thread(target=loop, args=(i,)) for i in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0, sum(counts)


# metric name -> unit, for every end-to-end and per-layer metric
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path


class Runner:
    """Starts child processes one at a time and reaps each before returning."""

    def __init__(self, work: Path):
        self.work = work
        self.t_start = now_ns()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # cached bytecode, as a user has it, kept inside the checkout
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")

    def elapsed_s(self) -> float:
        return (now_ns() - self.t_start) / 1e9

    def another_fits(self, t0: float, seconds: float, cycles: list[float]) -> bool:
        """Whether one more loop cycle, as long as the median one so far,
        ends within `seconds` of t0.  The first cycle always runs."""
        return not cycles or self.elapsed_s() - t0 + statistics.median(cycles) <= seconds

    def run(self, argv: list[str], tag: str) -> Proc:
        """Run argv; the string "{T0}" in it becomes the spawn time in ns."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed_s())
        t0 = now_ns()
        argv = [a.replace("{T0}", str(t0)) for a in argv]
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = (now_ns() - t0) / 1e9
        return Proc(os.waitstatus_to_exitcode(status), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out, err)


def simulate_args(cfg: dict, seed: int, out: Path) -> list[str]:
    args = ["simulate", "--trials", str(cfg["trials"]), "--seed", str(seed),
            "--threads", str(cfg["threads"]), "--out", str(out)]
    return args + (["--emit-trials"] if cfg["emit_trials"] else [])


class Bench:
    """One invocation: its inputs, the runs it made and the problems found."""

    def __init__(self, workload: str, seed: int, trace: int):
        cfg = WORKLOADS[workload]
        self.cfg = dict(cfg, threads=min(cfg["threads"], len(os.sched_getaffinity(0))))
        self.trials = cfg["trials"]
        self.seed = seed % 2**32   # simulate takes seeds >= 0
        self.name = f"{workload}-seed{seed}-trace{trace}"
        self.work = OUT / "work" / self.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.runner = Runner(self.work)
        self.problems: list[str] = []
        self.runs: list[Proc] = []
        self.traced_runs: list[Proc] = []
        self.failed = 0
        self._outputs: bytes | None = None

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.traced_runs)

    def child(self, argv: list[str], tag: str) -> Proc:
        return self.runner.run([sys.executable, *argv], tag)

    def acceptance_run(self) -> None:
        """Untimed: checks the frozen bands with no slack, compiles bytecode
        and fills the page cache before anything is timed."""
        out = self.work / "acceptance"
        p = self.child(["-m", "elections.cli",
                        *simulate_args(ACCEPTANCE, ACCEPTANCE_SEED, out)], "acceptance")
        found = ([f"exit code {p.rc}"] if p.rc else
                 check_outputs(out, ACCEPTANCE["trials"], ACCEPTANCE_SEED,
                               emit_trials=False, sigmas=0))
        self.problems += [f"acceptance run: {f}" for f in found]

    def simulate(self, traced: bool) -> None:
        """One timed closed-loop run, with every output check."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = simulate_args(self.cfg, self.seed, self.out)
        runs = self.traced_runs if traced else self.runs
        tag = f"{'traced' if traced else 'run'}{len(runs)}"
        if traced:
            (self.work / "spans.json").unlink(missing_ok=True)
            argv = [str(HERE / "traced_simulate.py"), str(self.work / "spans.json"), *argv]
        else:
            argv = ["-m", "elections.cli", *argv]
        p = self.child(argv, tag)
        runs.append(p)
        found = []
        if p.rc != 0:
            found.append(f"exit code {p.rc}: {p.stderr.read_text()[-300:]!r}")
        else:
            try:
                found += check_outputs(self.out, self.trials, self.seed,
                                       self.cfg["emit_trials"])
                outputs = b"".join((self.out / f).read_bytes()
                                   for f in ("run_summary.json", "senate_sweep.json"))
                self._outputs = self._outputs or outputs
                if outputs != self._outputs:
                    found.append("run_summary.json/senate_sweep.json differ between runs")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if found:
            self.failed += 1
            self.problems += [f"{tag}: {f}" for f in found]

    def probe(self, code: str, tag: str) -> float | None:
        """Seconds from spawning `python -c code` until the code prints its clock."""
        p = self.child(["-c", code, "{T0}"], tag)
        if p.rc != 0:
            self.problems.append(f"{tag}: exit code {p.rc}")
            return None
        return int(p.stdout.read_text()) / 1e9

    def end_to_end(self, seconds: float, report: dict) -> dict:
        """Timed runs, each followed by a set-up probe and the reference loop,
        while another one fits in `seconds`.  Times are scaled to the
        reference's speed."""
        setups: list[float | None] = []
        ref: dict[int, list] = {}   # threads -> [seconds, iterations]
        cycles: list[float] = []
        t0 = self.runner.elapsed_s()
        while self.runner.another_fits(t0, seconds, cycles):
            c0 = self.runner.elapsed_s()
            self.simulate(traced=False)
            setups.append(self.probe(SETUP_PROBE, f"setup{len(setups)}"))
            for threads in (1, self.cfg["threads"]):
                taken, iters = reference_loop(REFERENCE_SHARE / 2 * self.runs[-1].wall_s,
                                              threads)
                total = ref.setdefault(threads, [0.0, 0])
                total[0] += taken
                total[1] += iters
            cycles.append(self.runner.elapsed_s() - c0)
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(self.probe(SETUP_PROBE, f"setup{len(setups)}"))
        setups = [s for s in setups if s is not None] or [0.0]
        slowdown = statistics.mean(taken / iters / (REFERENCE_ITER_S * threads)
                                   for threads, (taken, iters) in ref.items())
        raw_wall_s = statistics.median(p.wall_s for p in self.runs)
        wall_s = raw_wall_s / slowdown
        setup_s = statistics.median(setups) / slowdown
        report.update(setup_s_samples=setups, reference=ref, scale=1 / slowdown,
                      raw_wall_s=raw_wall_s, raw_setup_s=statistics.median(setups))
        return {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "trials_per_s": self.trials / (wall_s - setup_s),
            "peak_rss_mb": statistics.median(p.rss_mb for p in self.runs),
        }

    def per_layer(self, seconds: float, model, data, report: dict) -> dict:
        """Plain and traced runs alternate while another pair fits in `seconds`."""
        import_s, import_scipy_s = self.import_times()
        layers, summaries = [], []
        cycles: list[float] = []
        t0 = self.runner.elapsed_s()
        while self.runner.another_fits(t0, seconds, cycles):
            c0 = self.runner.elapsed_s()
            self.simulate(traced=False)
            self.simulate(traced=True)
            cycles.append(self.runner.elapsed_s() - c0)
            try:
                dumped = json.loads((self.work / "spans.json").read_text())
            except (OSError, ValueError) as exc:
                self.problems.append(f"traced{len(self.traced_runs) - 1}: no spans: {exc}")
                continue
            if Path(dumped["elections_file"]).resolve().parent != (SRC / "elections").resolve():
                self.problems.append(f"traced run imported {dumped['elections_file']}")
            summaries.append(summarize(dumped["spans"]))
            layers.append(layer_metrics(summaries[-1], self.trials))
            shutil.copyfile(self.work / "spans.json",
                            OUT / "results" / f"{self.name}-spans.json")
        m = ({k: statistics.median(d[k] for d in layers) for k in layers[0]}
             if layers else layer_metrics({}, self.trials))

        # run_batch again on one thread: the output must not change, and the
        # time against the traced run_batch span gives the thread scaling
        from elections import run_batch

        t, c = time.perf_counter(), time.process_time()
        one = run_batch(model, data, trials=self.trials, seed=self.seed, threads=1,
                        keep_records=True)
        one_s, one_cpu = time.perf_counter() - t, time.process_time() - c
        written = self.out / "run_summary.json"
        if not written.is_file() or (one.to_json() + "\n").encode() != written.read_bytes():
            self.problems.append(
                f"run_batch threads=1 differs from the threads={self.cfg['threads']} output")

        m["elections.import_s"] = import_s
        m["elections.import_scipy_s"] = import_scipy_s
        rb = m["montecarlo.run_batch_s"]
        m["montecarlo.thread_speedup"] = one_s / rb if rb else 0.0
        m["cli.output_bytes"] = sum(f.stat().st_size for f in self.out.glob("*"))
        m["trace.overhead_frac"] = (statistics.median(p.wall_s for p in self.traced_runs)
                                    / statistics.median(p.wall_s for p in self.runs) - 1)
        report.update(run_batch_1t={"wall_s": one_s, "busy_cores": one_cpu / one_s},
                      traced_runs=[vars_of(p) for p in self.traced_runs],
                      span_summaries=summaries)
        if summaries:
            top = sorted(summaries[-1].items(), key=lambda kv: -kv[1]["self_s"])[:5]
            report["largest_self_s"] = [(k, v["self_s"]) for k, v in top]
        return m

    def import_times(self) -> tuple[float, float]:
        """Median cumulative import seconds of `elections`, and of scipy in it."""
        totals, scipys = [], []
        for i in range(IMPORTTIME_RUNS):
            p = self.child(["-X", "importtime", "-c", "import elections"], f"importtime{i}")
            root = import_tree(p.stderr.read_text()).get("elections")
            if p.rc != 0 or root is None:
                self.problems.append(f"importtime{i}: exit code {p.rc}")
                continue
            totals.append(root["us"] / 1e6)
            scipys.append(outermost(root, "scipy") / 1e6)
        return (statistics.median(totals or [0.0]), statistics.median(scipys or [0.0]))


def vars_of(p: Proc) -> dict:
    return {"rc": p.rc, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb}


def import_tree(text: str) -> dict:
    """Top-level nodes of `python -X importtime` output, by module name.

    The output is a post-order walk: each line adopts the lines printed
    since the last line at its own depth, one level deeper.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "us": int(cumulative),
                "kids": pending.pop(depth + 1, [])}
        pending.setdefault(depth, []).append(node)
    return {n["name"]: n for n in pending.get(0, [])}


def outermost(node: dict, package: str) -> int:
    """Cumulative microseconds of the outermost imports of `package` under node."""
    if node["name"] == package or node["name"].startswith(package + "."):
        return node["us"]
    return sum(outermost(k, package) for k in node["kids"])


def layer_metrics(spans: dict, trials: int) -> dict:
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    batch_s = get("generator.draw_noise_batch", "total_s")
    batch_rows = get("generator.draw_noise_batch", "work")
    drawn = batch_rows + get("generator.draw_noise", "work")
    run_batch_s = get("montecarlo.run_batch", "total_s")
    return {
        "dataset.load_bundled_dataset_s": get("dataset.load_bundled_dataset", "total_s"),
        "pca.fit_pca_s": get("pca.fit_pca", "total_s"),
        "generator.draw_noise_batch_s": batch_s,
        "generator.draw_us_per_trial": batch_s * 1e6 / batch_rows if batch_rows else 0.0,
        "generator.generate_shares_batch_s": get("generator.generate_shares_batch", "total_s"),
        "generator.draw_noise_batch_calls": get("generator.draw_noise_batch", "calls"),
        "generator.trials_drawn": drawn,
        "generator.draws_per_trial": drawn / trials,
        "montecarlo.run_batch_s": run_batch_s,
        "montecarlo.partial_batch_self_s": get("montecarlo.partial_batch", "self_s"),
        "montecarlo.partial_batch_calls": get("montecarlo.partial_batch", "calls"),
        "montecarlo.senate_sweep_self_s": get("montecarlo.senate_sweep", "self_s"),
        "montecarlo.finalize_s": get("montecarlo.finalize", "total_s"),
        "montecarlo.run_batch_busy_cores":
            get("montecarlo.run_batch", "cpu_s") / run_batch_s if run_batch_s else 0.0,
        "montecarlo.records_kept": get("montecarlo.run_batch", "work"),
        "montecarlo.emit_figure_data_s": get("montecarlo.emit_figure_data", "total_s"),
        "cli.cmd_simulate_self_s": get("cli.cmd_simulate", "self_s"),
    }


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the program's source files, for checkouts without .git."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so Runner.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "elections" / "cli.py").is_file():
        print(f"perfbench: no elections sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import elections

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.trace)
    report: dict = {
        "env": {"python": platform.python_version(), "numpy": version("numpy"),
                "scipy": version("scipy"), "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "platform": platform.platform(), "git_commit": git_commit(),
                "src_sha256": src_digest()},
        "workload": args.workload, "seed": args.seed, "program_seed": bench.seed,
        "acceptance_seed": ACCEPTANCE_SEED,
        "config": dict(bench.cfg, seconds=args.seconds, trace=args.trace),
    }
    bench.acceptance_run()
    data = elections.load_bundled_dataset()
    model = elections.fit_pca(data)
    if args.trace == 0:
        metrics = bench.end_to_end(args.seconds, report)
    else:
        layers = bench.per_layer(args.seconds, model, data, report)
    oracle_problems, oracle_us = oracle_check(
        model, data, bench.seed,
        bench.out / "trials.csv" if bench.cfg["emit_trials"] else None)
    bench.problems += [f"oracle: {p}" for p in oracle_problems]
    if args.trace == 1:
        layers["tally.oracle_us_per_trial"] = oracle_us
        metrics = layers
    shutil.rmtree(bench.out, ignore_errors=True)

    correct = not bench.problems
    failed_frac = bench.failed / bench.attempted
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    report.update(runs=[vars_of(p) for p in bench.runs], attempted=bench.attempted,
                  failed=bench.failed, failed_frac=failed_frac,
                  problems=bench.problems, correct=correct, metrics=metrics)
    result_file = OUT / "results" / f"{bench.name}.json"
    result_file.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} (program seed {bench.seed}): "
          f"trials {bench.trials}, threads {bench.cfg['threads']}, "
          f"{len(bench.runs)} plain and {len(bench.traced_runs)} traced closed-loop runs "
          f"in {bench.runner.elapsed_s():.1f} s")
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed_frac:14.6g} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    if "largest_self_s" in report:
        print("  largest self times: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in report["largest_self_s"]))
    for p in bench.problems[:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)
    print(f"  result file {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

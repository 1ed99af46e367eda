"""cyclesat benchmark: whole enumerations through the public path.

    python3 perfbench/run.py --workload n6-backtrack --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each repetition calls `cyclesat.run.run_enumerate` and `write_solutions`,
the path `cyclesat enumerate` takes, and the written file goes through the
output gate (gate.py).  With `--trace 0`, until `--seconds` is spent, the
run sets the workload up from a fresh import of cyclesat (timed as
setup_s: the import plus, per labelled diagonal, encoding, solver load
and minimality hooks) and then enumerates (timed as wall_s and cpu_s).
Every time is scaled to a reference host speed by a calibration loop
sampled during it (see CALIB_REF_S), and each time metric is a median
over the run: the median set-up, or the sum of the median of each piece
of a repetition (see `measure`).  With `--trace 1`, until `--seconds` is
spent, untraced and traced repetitions alternate (spans.py); it prints
the median per-module metrics of the traced ones, writes the spans of the
first to .perfbench-out/, and fails if the work counters of any two
traced repetitions differ.  The last line of output is one JSON object.

A repetition enumerates LABELLINGS labellings one after the other.
Labelling 0 is `representative_diagonals(n)`; labelling k > 0 conjugates
each diagonal by a permutation drawn from k, so the same isomorphism
classes are found under another labelling, with different search work.
Seed s runs labellings s * LABELLINGS to s * LABELLINGS + LABELLINGS - 1,
so seed 0 runs the canonical one; the repetitions of a run are replicates.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
import typing
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time

import gate
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


@dataclass(frozen=True)
class Workload:
    n: int
    backend: str
    workers: int


# Why each workload is there is recorded in BENCHMARK.json.  The full n=7
# runs take about a minute each on two cores, longer than one timed run may
# last, so every workload is a complete enumeration that fits many
# repetitions into a run.  Each optimisation target runs in one workload and
# is bypassed in the other: the backtracking check only in n6-backtrack, the
# SAT check and the process pool only in n5-incremental-w2.
WORKLOADS = {
    "n6-backtrack": Workload(6, "backtrack", 1),
    "n5-incremental-w2": Workload(5, "incremental", 2),
}

END_TO_END = [
    ("wall_s", "s"),
    ("solutions_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

MIN_REPS = 3
MIN_TRACED = 2
# One labelling's work varies across labellings: at n=6 the solver's
# propagations have a standard deviation of 3.6% of their mean, which
# alone would spread the runs of different seeds by about 0.05 (IQR /
# median).  Two labellings per repetition cut that by a factor of 1.4.
LABELLINGS = 2

# This benchmark runs on shared hosts whose speed drifts by up to 1.6x, within
# a second and for minutes at a time, and CPU time drifts with it.  So every
# timed piece is scaled to a reference host speed: it is multiplied by
# CALIB_REF_S over the mean time of a fixed calibration loop sampled during
# it (see HostSpeed).  CALIB_REF_S is the loop's time at full speed on a
# two-vCPU 2.1 GHz Xeon, so the figures read as seconds on that host at full
# speed.  On that host, over seven 55 s windows of n6-backtrack in one
# process, the sum of each diagonal's median time varied with a standard
# deviation of 4.4% of its median raw, 3.0% scaled by calibrations taken
# just before and after each diagonal, and 1.6% scaled by samples taken
# during it.
CALIB_REF_S = 0.00072
SAMPLE_EVERY_S = 0.05
SAMPLE_MARGIN_S = 0.1
BURST = 20


def calibration_loop() -> float:
    """Time a fixed piece of interpreter work that does not touch cyclesat."""
    t0 = perf_counter()
    table = {}
    x = 12345
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + 1
    return perf_counter() - t0


class HostSpeed:
    """The host's speed over time, from samples of the calibration loop.

    While sampling is on, an interval timer runs the loop in this process
    every SAMPLE_EVERY_S, so the samples fall inside the timed work; `net`
    takes their cost out.  With a process pool the samples would compete
    with the workers for the cores, so sampling is off and a burst of
    samples is taken right before and after each repetition instead.
    """

    def __init__(self):
        self.times, self.loops = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self.on = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        t0, c0 = perf_counter(), process_time()
        self.loops.append(calibration_loop())
        self.times.append(t0)
        self.spent_wall += perf_counter() - t0
        self.spent_cpu += process_time() - c0

    def sampling(self, on: bool):
        interval = SAMPLE_EVERY_S if on else 0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self.on = on

    def burst(self):
        for _ in range(BURST):
            self._sample()

    def mark(self) -> tuple:
        """(wall s, cpu s, sampling wall s, sampling cpu s) now, read without a sample between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return perf_counter(), cpu_seconds(), self.spent_wall, self.spent_cpu
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @staticmethod
    def net(start: tuple, end: tuple) -> tuple:
        """Wall and CPU seconds between two marks, less the sampling."""
        return end[0] - start[0] - (end[2] - start[2]), end[1] - start[1] - (end[3] - start[3])

    def factor(self, start: tuple, end: tuple) -> float:
        """Reference over measured speed, from the samples within SAMPLE_MARGIN_S of the span."""
        lo = bisect_left(self.times, start[0] - SAMPLE_MARGIN_S)
        hi = bisect_right(self.times, end[0] + SAMPLE_MARGIN_S)
        return CALIB_REF_S / statistics.fmean(self.loops[lo:hi])

    def scaled(self, start: tuple, end: tuple) -> tuple:
        """Wall and CPU seconds between two marks, less the sampling, at the reference speed."""
        f = self.factor(start, end)
        wall, cpu = self.net(start, end)
        return wall * f, cpu * f


def median_sum(pieces: dict) -> float:
    """Sum over the pieces of a run of each piece's median."""
    return sum(statistics.median(v) for v in pieces.values())


def import_cyclesat(fresh: bool):
    """Import cyclesat from this checkout's src/, re-executing it when `fresh`."""
    if fresh:
        for name in [m for m in sys.modules if m == "cyclesat" or m.startswith("cyclesat.")]:
            del sys.modules[name]
        # typing caches the Union types the modules build, which would keep
        # every earlier import's classes alive: peak RSS would then grow
        # with the number of set-ups a run fits in, that is with speed.
        for clear in getattr(typing, "_cleanups", ()):
            clear()
    importlib.import_module("cyclesat")
    return importlib.import_module("cyclesat.run")


def workload_diagonals(symmetry, n: int, labelling: int) -> list:
    """representative_diagonals(n), each conjugated by a permutation drawn from `labelling`."""
    reps = symmetry.representative_diagonals(n)
    if labelling == 0:
        return reps
    rng = random.Random(labelling)
    out = []
    for d in reps:
        pi = list(range(1, n + 1))
        rng.shuffle(pi)  # x -> pi[x-1]; the conjugate maps pi(x) to pi(d(x))
        values = [0] * n
        for x in range(1, n + 1):
            values[pi[x - 1] - 1] = pi[d.value(x) - 1]
        out.append(symmetry.Diagonal.from_values(values))
    return out


def labellings(seed: int) -> range:
    return range(seed * LABELLINGS, (seed + 1) * LABELLINGS)


def config_for(run, w: Workload):
    return run.RunConfig(n=w.n, backend=w.backend, workers=w.workers)


def setup_once(w: Workload, seed: int):
    """Import cyclesat afresh and build every labelled diagonal's encoding, solver and hooks."""
    run = import_cyclesat(fresh=True)
    config = config_for(run, w)
    symmetry = sys.modules["cyclesat.symmetry"]
    for d in (d for k in labellings(seed) for d in workload_diagonals(symmetry, w.n, k)):
        cnf = run.encode_axioms(w.n, d, config.eo_method)
        solver = run.Solver(cnf.num_vars, num_static=cnf.varmap.num_matrix_vars, seed=config.seed)
        solver.add_cnf(cnf.clauses)
        run.MinimalityHooks(cnf, d, config)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus, with a pool, workers x the largest worker's peak (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * kids) / 1024.0


class Runner:
    """Repetitions of one workload, each gated, failures counted."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.reference = gate.load_reference()
        self.paths = {k: os.path.join(OUT_DIR, f"solutions-{name}-{k}.txt") for k in labellings(seed)}
        self.labelling = None
        self.attempted = 0
        self.failed = 0

    def prepare(self, run):
        self.run = run
        self.config = config_for(run, self.w)
        symmetry = sys.modules["cyclesat.symmetry"]
        self.diagonals = {k: workload_diagonals(symmetry, self.w.n, k) for k in self.paths}

    def time_diagonals(self, hs: HostSpeed) -> list:
        """Mark the start and end of each enumerate_diagonal call into the returned list."""
        marks = []
        inner = self.run.enumerate_diagonal

        def timed(config, d):
            start = hs.mark()
            result = inner(config, d)
            marks.append((f"{self.labelling}:{d.label()}", start, hs.mark()))
            return result

        self.run.enumerate_diagonal = timed
        return marks

    def repetition(self, hs: HostSpeed):
        """One gated enumeration per labelling: the start and end marks and the stats of
        each enumeration, or None if one failed."""
        self.attempted += 1
        gc.collect()
        if not hs.on:
            hs.burst()
        start = hs.mark()
        stats = []
        try:
            for self.labelling, path in self.paths.items():
                diagonals = self.diagonals[self.labelling]
                self.run.representative_diagonals = lambda n: list(diagonals)
                solutions, st = self.run.run_enumerate(self.config)
                self.run.write_solutions(solutions, path)
                stats.append(st)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        end = hs.mark()
        if not hs.on:
            hs.burst()
        problems = [p for k, path in self.paths.items()
                    for p in gate.check_file(path, self.w.n, k, self.reference)]
        if problems:
            print(f"OUTPUT GATE FAILED ({self.name}, seed {self.seed}): " + "; ".join(problems),
                  file=sys.stderr)
            self.failed += 1
            return None
        return start, end, stats

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def measure(runner: Runner, seconds: float) -> dict:
    """Set-ups and repetitions alternate, so both sample the whole run.

    In one process the pieces of a repetition are its diagonals and the
    rest (merge, sort, write), each scaled by the samples taken during it.
    With a process pool the diagonals overlap, so the whole repetition is
    one piece.  Each time metric is the sum of the pieces' medians.
    """
    hs = HostSpeed()
    deadline = perf_counter() + seconds
    walls, cpus, setups, raw = defaultdict(list), defaultdict(list), [], []
    last = 0.0
    try:
        while runner.attempted < MIN_REPS or perf_counter() + last < deadline:
            t0 = perf_counter()
            hs.sampling(True)
            gc.collect()
            start = hs.mark()
            setup_once(runner.w, runner.seed)
            setups.append(hs.scaled(start, hs.mark())[0])
            runner.prepare(import_cyclesat(fresh=False))
            diagonals = runner.time_diagonals(hs) if runner.w.workers == 1 else []
            hs.sampling(runner.w.workers == 1)
            rep = runner.repetition(hs)
            last = perf_counter() - t0
            if rep is None:
                continue
            start, end, _ = rep
            wall, cpu = hs.net(start, end)
            for label, d0, d1 in diagonals:
                w, c = hs.scaled(d0, d1)
                walls[label].append(w)
                cpus[label].append(c)
                dw, dc = hs.net(d0, d1)
                wall, cpu = wall - dw, cpu - dc
            f = hs.factor(start, end)
            walls["rest"].append(wall * f)
            cpus["rest"].append(cpu * f)
            raw.append(hs.net(start, end)[0])
    finally:
        hs.sampling(False)
    if not raw:
        return runner.result({})
    wall = median_sum(walls)
    count = gate.KNOWN_COUNTS[runner.w.n] * LABELLINGS
    values = {
        "wall_s": wall,
        "solutions_per_s": count / wall,
        "setup_s": statistics.median(setups),
        "cpu_s": median_sum(cpus),
        "peak_rss_mb": peak_rss_mb(runner.w.workers),
    }
    print(f"{runner.name}: {len(raw)} timed repetitions; unscaled repetition wall time median "
          f"{statistics.median(raw):.4f} s (fastest {min(raw):.4f} s, slowest {max(raw):.4f} s), "
          f"scaled {wall:.4f} s")
    return runner.result({name: (values[name], unit) for name, unit in END_TO_END})


TRACE_LEVEL = [("run.core_busy_fraction", "ratio"), ("trace.overhead_ratio", "ratio")]


def traced(runner: Runner, seconds: float) -> dict:
    """Untraced and traced repetitions alternate, so both see the same host.

    The host's speed is sampled in bursts around each repetition only, so
    the samples fall outside the traced spans.
    """
    runner.prepare(import_cyclesat(fresh=False))
    hs = HostSpeed()
    tracer = spans.Tracer("")
    deadline = perf_counter() + seconds
    untraced, overheads, metrics, last = [], [], [], 0.0
    while len(metrics) < MIN_TRACED or perf_counter() + last < deadline:
        t0 = perf_counter()
        plain = runner.repetition(hs)
        uninstall = spans.install(runner.run, tracer)
        try:
            tracer.reset(f"{runner.name}-seed{runner.seed}-rep{len(metrics)}")
            rep = runner.repetition(hs)
        finally:
            uninstall()
        last = perf_counter() - t0
        if plain is None or rep is None:
            continue
        roots = [i for i, sp in enumerate(tracer.spans) if sp[spans.NAME] == "run.run_enumerate"]
        for root, st in zip(roots, rep[2]):
            tracer.absorb_workers(st, parent=root)
        untraced.append(hs.net(plain[0], plain[1]))
        overheads.append(hs.scaled(rep[0], rep[1])[0] / hs.scaled(plain[0], plain[1])[0])
        metrics.append(spans.layer_metrics(tracer.spans, tracer.counters))
        if len(metrics) == 1:
            with open(os.path.join(OUT_DIR, f"spans-{runner.name}-seed{runner.seed}.jsonl"),
                      "w", encoding="utf-8") as fh:
                tracer.write_jsonl(fh)
            for label, secs in sorted(spans.diagonal_times(tracer.spans).items()):
                print(f"run.diag.{label}.s = {secs:.4f} s (summed over {LABELLINGS} labellings)")
    if len(metrics) < 2:
        return runner.result({})
    first = metrics[0]
    differ = sorted({k for m in metrics[1:] for k, (v, u) in m.items() if u == "count" and v != first[k][0]})
    if differ:
        print("WORK COUNTERS DIFFER BETWEEN TRACED RUNS: "
              + ", ".join(f"{k} {[m[k][0] for m in metrics]}" for k in differ), file=sys.stderr)
        runner.failed += 1
    overhead = statistics.median(overheads)
    if overhead < 1:
        print(f"trace.overhead_ratio {overhead:.4f} is below 1: the tracing cost is below the "
              f"host's noise (unresolved)")
    values = {k: (v if u == "count" else statistics.median(m[k][0] for m in metrics), u)
              for k, (v, u) in first.items()}
    values["run.core_busy_fraction"] = (
        sum(u[1] for u in untraced) / (runner.w.workers * sum(u[0] for u in untraced)), "ratio")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"{runner.name}: {len(metrics)} traced and {len(untraced)} untraced repetitions")
    return runner.result(values)


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}  {line}")
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cyclesat", "__init__.py")):
        print(f"error: no cyclesat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    res = traced(runner, args.seconds) if args.trace else measure(runner, args.seconds)
    print(f"failed_fraction = {runner.failed / max(runner.attempted, 1):.4g} "
          f"({runner.failed} of {runner.attempted} repetitions)")
    for key, m in res["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

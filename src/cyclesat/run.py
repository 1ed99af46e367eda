"""Per-diagonal enumeration: wiring the engine, minimality hooks, and stats.

Each selected diagonal is an independent subproblem: its axioms are
encoded, static lex-leader clauses are added for aligned swaps of its
equal-length cycles and a one-step rotation of each cycle, and one `solve`
call of a fresh solver enumerates it.  The propagator hooks run a
minimality backend on every full assignment and, at the configured
frequency, the backtracking check on partial ones; a minimal model is
recorded and blocked, a non-minimal one cut off with a breaking clause.
Diagonals can run in separate processes; results are merged and sorted
afterwards, so the worker count never changes the output.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional

from .cycleset import CycleSet, PartialCycleSet, extract_partial
from .encoding import Cnf, encode_axioms, decode_model, lex_leader_clauses
from .errors import NotPropagatingError
from .learning import blocking_clause, breaking_clause, optimize_clause, propagation_clause
from .mincheck import Minimal, Propagate, SearchBudget, Unknown, Witness
from .mincheck import check as backtrack_check
from .sat_mincheck import OracleInstance
from .sat_mincheck import check as oracle_check
from .solver import PropagatorHooks, Solver
from .symmetry import PARTITIONS_MAX_N, Diagonal, representative_diagonals

BACKENDS = ("backtrack", "incremental")
# partial minimality check every FREQ-th decision
DEFAULT_FREQ = 50


@dataclass
class RunConfig:
    n: int
    diagonal: Optional[str] = None  # cycle notation, or None/"all" for every class
    backend: str = "incremental"
    freq: int = DEFAULT_FREQ
    node_limit: int = 200
    eo_method: str = "binary"
    workers: int = 1
    out_path: Optional[str] = None
    stats_path: Optional[str] = None
    seed: int = 0
    dimacs_dir: Optional[str] = None
    trace_path: Optional[str] = None
    sorted_output: bool = True

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.eo_method not in ("binary", "commander"):
            raise ValueError(f"unknown ExactlyOne method {self.eo_method!r}")
        if not 2 <= self.n <= PARTITIONS_MAX_N:
            raise ValueError(f"size must be between 2 and {PARTITIONS_MAX_N}")
        if self.diagonal not in (None, "all"):
            Diagonal.parse(self.diagonal, self.n)
        for name in ("workers", "freq", "node_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class DiagStats:
    """Counts and per-category times for one diagonal's enumeration."""

    diagonal: str
    solutions: int = 0
    partial_checks: int = 0
    complete_checks: int = 0
    outcomes: dict = field(default_factory=lambda: {
        "partial_witness": 0,
        "partial_propagate": 0,
        "partial_minimal": 0,
        "partial_unknown": 0,
        "complete_witness": 0,
        "complete_minimal": 0,
    })
    time: dict = field(default_factory=lambda: {
        "partial_nonminimal": 0.0,
        "partial_noconclusion": 0.0,
        "complete_nonminimal": 0.0,
        "complete_minimal": 0.0,
    })
    total_time: float = 0.0
    engine: dict = field(default_factory=dict)
    # lex-leader clauses loaded for the diagonal beside its axioms
    static_clauses: int = 0
    # incremental backend: complete checks a recent witness answered, and
    # the complete oracle's solver counters over the remaining solves
    recent_hits: int = 0
    complete_oracle: dict = field(default_factory=dict)


class MinimalityHooks:
    """Propagator callbacks running the configured minimality backend on
    complete assignments and the backtracking check on partial ones.

    `solutions` collects the minimal models in the order the solver finds them.
    """

    def __init__(self, cnf: Cnf, diagonal: Diagonal, config: RunConfig):
        self.varmap = cnf.varmap
        self.diagonal = diagonal
        self.config = config
        self.stats = DiagStats(diagonal=diagonal.label())
        self.solutions: list[CycleSet] = []
        self._complete_oracle = None
        if config.backend == "incremental":
            self._complete_oracle = OracleInstance(config.n, diagonal, config.eo_method)

    def _check_complete(self, p: PartialCycleSet):
        if self.config.backend == "backtrack":
            return backtrack_check(p, self.diagonal, complete=True)
        return oracle_check(p, self._complete_oracle)

    def on_complete(self, model) -> list[int]:
        """Record a minimal model and block it, or break a non-minimal one."""
        t0 = time.perf_counter()
        c = decode_model(model, self.varmap)
        p = PartialCycleSet.from_cycle_set(c)
        out = self._check_complete(p)
        st = self.stats
        st.complete_checks += 1
        if isinstance(out, Minimal):
            st.outcomes["complete_minimal"] += 1
            st.time["complete_minimal"] += time.perf_counter() - t0
            self.solutions.append(c)
            return blocking_clause(c, self.varmap)
        assert isinstance(out, Witness)
        clause = optimize_clause(breaking_clause(p, out.perm, out.cell, self.varmap), self.varmap)
        st.outcomes["complete_witness"] += 1
        st.time["complete_nonminimal"] += time.perf_counter() - t0
        return clause

    def on_partial(self, view) -> Optional[list[int]]:
        t0 = time.perf_counter()
        p = extract_partial(view, self.varmap)
        out = backtrack_check(p, self.diagonal, SearchBudget(self.config.node_limit), complete=False)
        st = self.stats
        st.partial_checks += 1
        clause = None
        if isinstance(out, Witness):
            clause = optimize_clause(breaking_clause(p, out.perm, out.cell, self.varmap), self.varmap)
            st.outcomes["partial_witness"] += 1
        elif isinstance(out, Propagate):
            try:
                clause = propagation_clause(p, out.perm, out.cell, out.literal, self.varmap)
                st.outcomes["partial_propagate"] += 1
            except NotPropagatingError:
                st.outcomes["partial_minimal"] += 1
        elif isinstance(out, Unknown):
            st.outcomes["partial_unknown"] += 1
        else:
            st.outcomes["partial_minimal"] += 1
        key = "partial_nonminimal" if clause is not None else "partial_noconclusion"
        st.time[key] += time.perf_counter() - t0
        return clause


def enumerate_diagonal(config: RunConfig, diagonal: Diagonal) -> tuple[list[CycleSet], DiagStats]:
    """Enumerate all lexicographically minimal cycle sets for one diagonal."""
    t0 = time.perf_counter()
    cnf = encode_axioms(config.n, diagonal, config.eo_method)
    if config.dimacs_dir:
        _dump_dimacs(cnf, config, diagonal)
    symmetry_clauses, num_vars = lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)
    solver = Solver(num_vars, num_static=cnf.varmap.num_matrix_vars, seed=config.seed)
    trace_fh = None
    if config.trace_path:
        trace_fh = open(config.trace_path, "a", encoding="utf-8")
        trace_fh.write(f"# diagonal {diagonal.label()}\n")
        solver.trace = trace_fh
    solver.add_cnf(cnf.clauses)
    solver.add_cnf(symmetry_clauses)
    hooks_impl = MinimalityHooks(cnf, diagonal, config)
    hooks = PropagatorHooks(
        on_complete=hooks_impl.on_complete,
        on_partial=hooks_impl.on_partial,
        partial_frequency=config.freq,
    )
    try:
        solver.solve(hooks=hooks)  # unsat once every minimal model is blocked
    finally:
        if trace_fh is not None:
            trace_fh.close()
    st = hooks_impl.stats
    st.solutions = len(hooks_impl.solutions)
    st.total_time = time.perf_counter() - t0
    st.engine = solver.stats()
    st.static_clauses = len(symmetry_clauses)
    oracle = hooks_impl._complete_oracle
    if oracle is not None:
        st.recent_hits = oracle.recent_hits
        st.complete_oracle = oracle.solver.stats()
    return hooks_impl.solutions, st


def _dump_dimacs(cnf: Cnf, config: RunConfig, diagonal: Diagonal):
    os.makedirs(config.dimacs_dir, exist_ok=True)
    # "id" -> "_id", "(1 2)(3 4)" -> "_12_34"
    tag = diagonal.label().replace(" ", "").replace(")(", "_").strip("()")
    base = os.path.join(config.dimacs_dir, f"axioms_n{config.n}_{tag}")
    with open(base + ".cnf", "w", encoding="utf-8") as fh:
        fh.write(cnf.to_dimacs())
    with open(base + ".vars", "w", encoding="utf-8") as fh:
        fh.write(cnf.varmap.sidecar_text())


def selected_diagonals(config: RunConfig) -> list[Diagonal]:
    if config.diagonal in (None, "all"):
        return representative_diagonals(config.n)
    return [Diagonal.parse(config.diagonal, config.n)]


def _worker(payload: tuple) -> tuple[str, list[str], dict]:
    config_dict, label = payload
    config = RunConfig(**config_dict)
    diagonal = Diagonal.parse(label, config.n)
    sols, st = enumerate_diagonal(config, diagonal)
    return label, [c.to_line() for c in sols], asdict(st)


def run_enumerate(config: RunConfig) -> tuple[list[CycleSet], dict]:
    """Enumerate over the selected diagonals, merge, sort, and report stats."""
    diagonals = selected_diagonals(config)
    per_diag: dict[str, list[CycleSet]] = {}
    stats: dict[str, dict] = {}
    if config.workers > 1 and len(diagonals) > 1:
        # longest first, with centralizer order as the length: the identity
        # diagonal, by far the longest, must not start last
        longest_first = sorted(diagonals, key=Diagonal.centralizer_order, reverse=True)
        payloads = [(asdict(config), d.label()) for d in longest_first]
        with ProcessPoolExecutor(max_workers=min(config.workers, len(diagonals))) as pool:
            for label, lines, st in pool.map(_worker, payloads):
                per_diag[label] = [CycleSet.from_line(s) for s in lines]
                stats[label] = st
        stats = {d.label(): stats[d.label()] for d in diagonals}
    else:
        for d in diagonals:
            sols, st = enumerate_diagonal(config, d)
            per_diag[d.label()] = sols
            stats[d.label()] = asdict(st)
    merged: list[CycleSet] = []
    for d in diagonals:
        merged.extend(per_diag[d.label()])
    if config.sorted_output:
        merged.sort()
    return merged, stats


def write_solutions(solutions: list[CycleSet], path: Optional[str]):
    """One line per cycle set, to `path` or, for None or "-", to stdout.

    A file is written under a temporary name in the same directory and
    renamed onto `path`, so an interrupted write leaves no partial file and
    whatever was at `path` before stays as it was.
    """
    lines = (c.to_line() + "\n" for c in solutions)
    if path is None or path == "-":
        sys.stdout.writelines(lines)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_stats(stats: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_stats_table(stats: dict) -> str:
    """Per-diagonal table mirroring the four check-time categories."""
    header = [
        "diagonal", "#sols", "time(s)", "%total",
        "#partial", "p-nonmin%", "p-noconc%",
        "#complete", "c-nonmin%", "c-min%", "mincheck%",
    ]
    total_time = sum(st["total_time"] for st in stats.values()) or 1.0
    rows = []
    for label in sorted(stats, key=lambda s: (len(s), s)):
        st = stats[label]
        t = st["total_time"] or 1e-12
        tm = st["time"]
        mc = sum(tm.values())
        rows.append([
            label,
            str(st["solutions"]),
            f"{st['total_time']:.2f}",
            f"{100.0 * st['total_time'] / total_time:.1f}",
            str(st["partial_checks"]),
            f"{100.0 * tm['partial_nonminimal'] / t:.2f}",
            f"{100.0 * tm['partial_noconclusion'] / t:.2f}",
            str(st["complete_checks"]),
            f"{100.0 * tm['complete_nonminimal'] / t:.2f}",
            f"{100.0 * tm['complete_minimal'] / t:.2f}",
            f"{100.0 * mc / t:.2f}",
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"

"""Traced runs: a span around every call `cyclesat.run` makes into a module.

`install` rebinds the names that `cyclesat.run` looks up at call time
(encode_axioms, Solver, OracleInstance, the two minimality checks, the
clause builders, decode_model, extract_partial, enumerate_diagonal, the
pool worker, run_enumerate and write_solutions) to wrappers that append a
span per call: name, start, end, parent span and a tag describing the
result.  Nothing under src/ changes.  Spans stay in memory; `write_jsonl`
writes them out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover, so the self time of `run.enumerate_diagonal` is the solver's
search: the diagonal's wall time minus encoding, loading, the minimality
checks, clause building and decoding.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import gate

NAME, START, END, PARENT, TAG = range(5)

# Key under which a pool worker ships its spans back inside the stats dict
# that cyclesat.run returns unchanged from the worker.
WORKER_PAYLOAD = "_perfbench_trace"

# The names of cyclesat.run that install() rebinds.
PATCHED = ("run_enumerate", "enumerate_diagonal", "write_solutions", "encode_axioms", "decode_model",
           "extract_partial", "backtrack_check", "oracle_check", "breaking_clause", "optimize_clause",
           "propagation_clause", "blocking_clause", "Solver", "OracleInstance", "_worker")

# The process pool pickles its worker function by name, so the wrapper it
# runs in a forked worker finds the tracer here.
_active: "Tracer | None" = None


class Tracer:
    """In-memory span buffer of one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.oracles: list = []
        self.original_worker = None

    def reset(self, run_id: str):
        # cleared in place: the wrappers hold these lists
        self.run_id = run_id
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.oracles.clear()

    def wrap(self, fn, name, on_return=None):
        """`fn` recording a span per call.

        `name` is a string or a function of (args, kwargs); `on_return`
        maps (args, kwargs, result) to the span's tag.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_return is not None:
                rec[TAG] = on_return(args, kwargs, result)
            return result

        return traced

    def absorb_workers(self, stats: dict, parent: int):
        """Move spans and counters shipped by pool workers into this buffer."""
        for st in stats.values():
            payload = st.pop(WORKER_PAYLOAD, None)
            if payload is None:
                continue
            offset = len(self.spans)
            for name, start, end, par, tag in payload["spans"]:
                self.spans.append([name, start, end, par + offset if par >= 0 else parent, tag])
            self.counters.update(payload["counters"])

    def write_jsonl(self, fh):
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "tag": tag}) + "\n")


def _traced_worker(payload):
    tracer = _active
    tracer.reset(tracer.run_id)
    label, lines, st = tracer.original_worker(payload)
    st[WORKER_PAYLOAD] = {"spans": [list(s) for s in tracer.spans], "counters": dict(tracer.counters)}
    return label, lines, st


def _outcome(args, kwargs, result):
    return type(result).__name__


def install(run, tracer: Tracer):
    """Rebind the module names `run` calls; returns a function undoing it."""
    global _active
    saved = {name: getattr(run, name) for name in PATCHED}

    def encoded(args, kwargs, cnf):
        return [len(cnf.clauses), cnf.num_vars, sum(1 for c in cnf.clauses if len(c) == 4)]

    def diagonal_done(args, kwargs, result):
        _, st = result
        for key, value in st.engine.items():
            tracer.counters["solver." + key] += value
        for inst in tracer.oracles:
            for key, value in inst.solver.stats().items():
                tracer.counters["sat_mincheck.solver." + key] += value
        tracer.oracles.clear()
        return gate.cycle_type_key(args[1].values())

    def oracle_built(args, kwargs, result):
        tracer.oracles.append(args[0])

    w = tracer.wrap
    run.run_enumerate = w(run.run_enumerate, "run.run_enumerate")
    run.enumerate_diagonal = w(run.enumerate_diagonal, "run.enumerate_diagonal", diagonal_done)
    run.write_solutions = w(run.write_solutions, "run.write_solutions")
    run.encode_axioms = w(run.encode_axioms, "encoding.encode_axioms", encoded)
    run.decode_model = w(run.decode_model, "encoding.decode_model")
    run.extract_partial = w(run.extract_partial, "cycleset.extract_partial")
    run.backtrack_check = w(
        run.backtrack_check,
        lambda a, k: "mincheck.complete" if k["complete"] else "mincheck.partial",
        _outcome)
    run.oracle_check = w(run.oracle_check, lambda a, k: "sat_mincheck." + a[1].kind, _outcome)
    run.breaking_clause = w(run.breaking_clause, "learning.breaking_clause")
    run.optimize_clause = w(run.optimize_clause, "learning.optimize_clause",
                            lambda a, k, r: [len(a[0]), len(r)])
    run.propagation_clause = w(run.propagation_clause, "learning.propagation_clause")
    run.blocking_clause = w(run.blocking_clause, "learning.blocking_clause")
    solver_cls = run.Solver
    run.Solver = type("Solver", (solver_cls,), {
        "__init__": w(solver_cls.__init__, "solver.init"),
        "add_cnf": w(solver_cls.add_cnf, "solver.add_cnf"),
    })
    oracle_cls = run.OracleInstance
    run.OracleInstance = type("OracleInstance", (oracle_cls,), {
        "__init__": w(oracle_cls.__init__, "sat_mincheck.build", oracle_built),
    })
    tracer.original_worker = run._worker
    run._worker = _traced_worker
    _active = tracer

    def uninstall():
        global _active
        for key, value in saved.items():
            setattr(run, key, value)
        _active = None

    return uninstall


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(spans[c][START], start), min(spans[c][END], end)) for c in children[i]):
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list, counters: Counter) -> dict:
    """Per-module metrics of one traced repetition, as {name: (value, unit)}."""
    self_s = self_times(spans)
    secs: Counter = Counter()
    calls: Counter = Counter()
    tags = defaultdict(list)
    durations = defaultdict(list)
    for s, own in zip(spans, self_s):
        secs[s[NAME]] += own
        calls[s[NAME]] += 1
        tags[s[NAME]].append(s[TAG])
        durations[s[NAME]].append(s[END] - s[START])

    def outcomes(name, *kinds):
        return sum(1 for t in tags[name] if t in kinds)

    enc = [sum(col) for col in zip(*tags["encoding.encode_axioms"])] or [0, 0, 0]
    opt = tags["learning.optimize_clause"]
    complete = calls["mincheck.complete"] + calls["sat_mincheck.complete"]
    wasted = outcomes("mincheck.complete", "Witness") + outcomes("sat_mincheck.complete", "Witness")
    diag = durations["run.enumerate_diagonal"]
    identity = [d for d, t in zip(diag, tags["run.enumerate_diagonal"]) if set(t.split("-")) == {"1"}]
    total = sum(durations["run.run_enumerate"])
    search = secs["run.enumerate_diagonal"]
    m = {
        "encoding.encode_s": (secs["encoding.encode_axioms"], "s"),
        "encoding.clauses": (enc[0], "count"),
        "encoding.vars": (enc[1], "count"),
        "encoding.len4_clause_share": (_ratio(enc[2], enc[0]), "ratio"),
        "solver.load_s": (secs["solver.init"] + secs["solver.add_cnf"], "s"),
        "solver.search_s": (search, "s"),
        "solver.propagations_per_s": (_ratio(counters["solver.propagations"], search), "1/s"),
    }
    for key in ("decisions", "conflicts", "propagations", "restarts", "learned"):
        m["solver." + key] = (counters["solver." + key], "count")
    for kind in ("complete", "partial"):
        m[f"mincheck.{kind}.calls"] = (calls["mincheck." + kind], "count")
        m[f"mincheck.{kind}.s"] = (secs["mincheck." + kind], "s")
    m["mincheck.partial.unknown"] = (outcomes("mincheck.partial", "Unknown"), "count")
    m["mincheck.partial.useful_ratio"] = (
        _ratio(outcomes("mincheck.partial", "Witness", "Propagate"), calls["mincheck.partial"]), "ratio")
    m["sat_mincheck.build_s"] = (secs["sat_mincheck.build"], "s")
    for kind in ("complete", "partial"):
        m[f"sat_mincheck.{kind}.calls"] = (calls["sat_mincheck." + kind], "count")
        m[f"sat_mincheck.{kind}.s"] = (secs["sat_mincheck." + kind], "s")
    m["sat_mincheck.partial.unknown_ratio"] = (
        _ratio(outcomes("sat_mincheck.partial", "Unknown"), calls["sat_mincheck.partial"]), "ratio")
    for key in ("conflicts", "propagations"):
        m["sat_mincheck.solver." + key] = (counters["sat_mincheck.solver." + key], "count")
    m.update({
        "learning.breaking.calls": (calls["learning.breaking_clause"], "count"),
        "learning.breaking.s": (secs["learning.breaking_clause"], "s"),
        "learning.optimize.s": (secs["learning.optimize_clause"], "s"),
        "learning.optimize.len_in_mean": (_ratio(sum(t[0] for t in opt), len(opt)), "literals"),
        "learning.optimize.len_out_mean": (_ratio(sum(t[1] for t in opt), len(opt)), "literals"),
        "learning.propagation.calls": (calls["learning.propagation_clause"], "count"),
        "learning.blocking.calls": (calls["learning.blocking_clause"], "count"),
        "learning.blocking.s": (secs["learning.blocking_clause"], "s"),
        "cycleset.extract_partial.s": (secs["cycleset.extract_partial"], "s"),
        "encoding.decode_model.s": (secs["encoding.decode_model"], "s"),
        "run.complete_waste_ratio": (_ratio(wasted, complete), "ratio"),
        "run.diag.id.s": (sum(identity), "s"),
        "run.max_diag_s": (max(diag, default=0.0), "s"),
        "run.max_diag_share": (_ratio(max(diag, default=0.0), total), "ratio"),
        "run.merge_s": (secs["run.run_enumerate"], "s"),
        "run.output_s": (secs["run.write_solutions"], "s"),
    })
    return m


def diagonal_times(spans: list) -> dict:
    """Wall time per diagonal cycle type, from the run.enumerate_diagonal spans."""
    out: dict[str, float] = {}
    for s in spans:
        if s[NAME] == "run.enumerate_diagonal":
            out[s[TAG]] = out.get(s[TAG], 0.0) + s[END] - s[START]
    return out

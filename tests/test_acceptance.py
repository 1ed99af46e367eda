"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The n=8 checks and the n=7 orbit sums of the diagonals with the largest
labelled counts are enabled with CYCLESAT_EXTENDED=1 (they take minutes in
pure Python); everything else runs by default.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from cyclesat.cycleset import (
    CycleSet,
    PartialCycleSet,
    apply_permutation,
    mask_of,
    strictly_below,
)
from cyclesat.encoding import encode_axioms
from cyclesat.learning import breaking_clause, optimize_clause, propagation_clause
from cyclesat.mincheck import Minimal, Propagate, Witness
from cyclesat.mincheck import check as backtrack_check
from cyclesat.oracle import (
    brute_force_all,
    brute_force_diagonal,
    extensions,
    is_lex_min,
    labelled_count,
    lex_min_reps,
    verify_database,
)
from cyclesat.run import RunConfig, run_enumerate
from cyclesat.sat_mincheck import OracleInstance
from cyclesat.sat_mincheck import check as oracle_check
from cyclesat.symmetry import Diagonal, representative_diagonals

pytestmark = pytest.mark.acceptance

EXTENDED = os.environ.get("CYCLESAT_EXTENDED") == "1"

TABLE_COUNTS = {2: 2, 3: 5, 4: 23, 5: 88, 6: 595, 7: 3456}
N8_TOTAL = 34530
# sha256 of the sorted output file, one line per solution
OUTPUT_SHA256 = {
    5: "66ed32029794463dfac6872e52f316f664617179ae31ae2131d22fd7a15c6899",
    6: "1fe94e56f965d77d2d7abc24e230ce372cb95827f849b13475a2563752c9ea80",
    7: "bdc8f571d051c8c1997a7725c4ed02a09401d6db221b97add4b16b15ce24c3b4",
}
N8_PER_DIAGONAL = {"id": 2041, "(1 2)": 4988, "(1 2)(3 4)": 7030}


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


ENGINE_KEYS = ("decisions", "conflicts", "propagations", "restarts", "learned")
OUTCOME_KEYS = ("partial_witness", "partial_propagate", "partial_minimal", "partial_unknown", "complete_witness")


@lru_cache(maxsize=None)
def enumerate_run(n, backend):
    """Sorted output lines of a full run, with its engine counters and
    check outcomes summed over the diagonals (in ENGINE_KEYS and
    OUTCOME_KEYS order), and the backtracking search's nodes summed over
    the diagonals, (complete, partial)."""
    t0 = time.perf_counter()
    sols, stats = run_enumerate(RunConfig(n=n, backend=backend))
    elapsed = time.perf_counter() - t0
    print(f"  [n={n} {backend}] {len(sols)} solutions in {elapsed:.1f}s")
    engine = tuple(sum(st["engine"][k] for st in stats.values()) for k in ENGINE_KEYS)
    outcomes = tuple(sum(st["outcomes"][k] for st in stats.values()) for k in OUTCOME_KEYS)
    nodes = tuple(sum(st["check_nodes"][k] for st in stats.values()) for k in ("complete", "partial"))
    return tuple(c.to_line() for c in sols), (engine, outcomes), nodes


def enumerate_lines(n, backend):
    return enumerate_run(n, backend)[0]


def test_criterion_1_total_counts():
    with criterion(1, "total counts n=2..7, both backends"):
        for backend in ("backtrack", "incremental"):
            for n, expect in TABLE_COUNTS.items():
                got = len(enumerate_lines(n, backend))
                assert got == expect, (backend, n, got, expect)


def test_sorted_output_bytes_pinned():
    # the files criterion 1 counted, byte for byte: an encoding or engine
    # change may alter the search, never the output
    with criterion("1h", "sorted output sha256 n=5..7, both backends"):
        for backend in ("backtrack", "incremental"):
            for n, digest in OUTPUT_SHA256.items():
                data = "".join(line + "\n" for line in enumerate_lines(n, backend)).encode()
                assert hashlib.sha256(data).hexdigest() == digest, (backend, n)


# (ENGINE_KEYS, OUTCOME_KEYS) totals of criterion 1's runs, labelling 0.
# Like PINNED_N5_SEARCH in test_solver.py they pin the search, here on the
# sizes where the partial check finds witnesses and propagations: a change
# meant to leave the search alone must reproduce them exactly.
PINNED_SEARCH = {
    (6, "backtrack"): ((2327, 1895, 253327, 6, 1826), (1, 3, 31, 7, 31)),
    (6, "incremental"): ((2321, 1898, 253457, 6, 1829), (2, 4, 29, 6, 33)),
    (7, "backtrack"): ((16384, 12617, 2353759, 60, 12485), (19, 20, 218, 65, 190)),
    (7, "incremental"): ((16381, 12656, 2358960, 60, 12523), (17, 24, 219, 61, 193)),
}


def test_search_pinned_n6_n7():
    with criterion("1s", "search counters n=6 and n=7, both backends"):
        for (n, backend), want in PINNED_SEARCH.items():
            assert enumerate_run(n, backend)[1] == want, (n, backend)


# (complete, partial) nodes of the backtracking search in criterion 1's
# runs, labelling 0; the incremental backend sends it partial states only.
# A change to the search that keeps its branching order must reproduce them.
PINNED_CHECK_NODES = {
    (5, "backtrack"): (4325, 122),
    (5, "incremental"): (0, 122),
    (6, "backtrack"): (75328, 2609),
    (6, "incremental"): (0, 2271),
    (7, "backtrack"): (1664252, 21926),
    (7, "incremental"): (0, 21542),
}


def test_check_nodes_pinned():
    with criterion("1n", "backtracking-search nodes n=5..7, both backends"):
        for (n, backend), want in PINNED_CHECK_NODES.items():
            assert enumerate_run(n, backend)[2] == want, (n, backend)


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CYCLESAT_EXTENDED=1 for the n=8 checks")
def test_criterion_1_extended_n8_total():
    with criterion("1x", "n=8 total count (extended)"):
        assert len(enumerate_lines(8, "incremental")) == N8_TOTAL


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set CYCLESAT_EXTENDED=1 for the n=8 checks")
def test_criterion_2_per_diagonal_n8():
    with criterion(2, "n=8 per-diagonal counts id/(12)/(12)(34)"):
        for label, expect in N8_PER_DIAGONAL.items():
            t0 = time.perf_counter()
            sols, _ = run_enumerate(RunConfig(n=8, diagonal=label, backend="backtrack"))
            print(f"  [n=8 {label}] {len(sols)} solutions in {time.perf_counter() - t0:.1f}s")
            assert len(sols) == expect, (label, len(sols), expect)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "oracle equivalence n<=4, per diagonal and aggregate"):
        for n in (2, 3, 4):
            whole = brute_force_all(n)
            aggregate = []
            for d in representative_diagonals(n):
                per = {c for c in whole if c.diagonal_values() == d.values()}
                want = sorted(lex_min_reps(per))
                got, _ = run_enumerate(RunConfig(n=n, diagonal=d.label(), backend="backtrack"))
                assert [c.to_line() for c in got] == [c.to_line() for c in want], (n, d.label())
                aggregate.extend(want)
            merged, _ = run_enumerate(RunConfig(n=n, backend="backtrack"))
            assert [c.to_line() for c in merged] == [c.to_line() for c in sorted(aggregate)]


def test_criterion_4_backend_equivalence():
    with criterion(4, "backend equivalence n<=6, per diagonal and aggregate"):
        for n in range(2, 7):
            a = enumerate_lines(n, "backtrack")
            b = enumerate_lines(n, "incremental")
            assert a == b, n
            by_diag_a = {}
            by_diag_b = {}
            for line in a:
                by_diag_a.setdefault(CycleSet.from_line(line).diagonal_values(), []).append(line)
            for line in b:
                by_diag_b.setdefault(CycleSet.from_line(line).diagonal_values(), []).append(line)
            assert by_diag_a == by_diag_b


def test_orbit_sums_match_labelled_counts(tmp_path):
    # orbit-stabilizer completeness beyond brute force: on every diagonal,
    # the centralizer orbits of the emitted representatives must cover
    # every labelled cycle set, counted without symmetry breaking or
    # minimality checks
    with criterion("1o", "orbit sums equal labelled counts n<=6, every diagonal"):
        for n in range(2, 7):
            path = tmp_path / f"n{n}.txt"
            path.write_text("".join(line + "\n" for line in enumerate_lines(n, "backtrack")))
            report = verify_database(str(path), n)
            assert report.clean, n
            for d in representative_diagonals(n):
                assert report.orbit_sums.get(d.label(), 0) == labelled_count(n, d), (n, d.label())


# n=7 diagonals with the smallest labelled counts, whose orbit sums run by
# default; the others take up to minutes each and run with
# CYCLESAT_EXTENDED=1.  The identity diagonal is left out: its 214 320
# labelled cycle sets take the counter over an hour on a 2-vCPU host (a run
# was stopped unfinished after 60 minutes; the 25 680 of (1 2) took about
# 3 minutes), and it gets only the fixed-point swaps the whole-size test
# already covers at n <= 6.
N7_ORBIT_SUMS_DEFAULT = ("(1 2 3 4 5 6 7)", "(1 2 3 4 5 6)", "(1 2 3 4 5)(6 7)", "(1 2 3 4 5)",
                         "(1 2 3 4)(5 6 7)")
EXTENDED_ONLY = [pytest.mark.extended,
                 pytest.mark.skipif(not EXTENDED, reason="set CYCLESAT_EXTENDED=1 for the longer checks")]


@pytest.mark.parametrize("label", [
    label if label in N7_ORBIT_SUMS_DEFAULT else pytest.param(label, marks=EXTENDED_ONLY)
    for label in (d.label() for d in representative_diagonals(7)) if label != "id"
])
def test_n7_orbit_sum_matches_labelled_count(tmp_path, label):
    # the orbit-sum check above the sizes of the whole-size test, one
    # diagonal at a time: each of these gets rotation clauses
    d = Diagonal.parse(label, 7)
    with criterion("1o7", f"n=7 orbit sum equals labelled count, {label}"):
        t0 = time.perf_counter()
        sols, _ = run_enumerate(RunConfig(n=7, diagonal=label, backend="backtrack"))
        path = tmp_path / "n7.txt"
        path.write_text("".join(c.to_line() + "\n" for c in sols))
        report = verify_database(str(path), 7, per_diagonal=d)
        assert report.clean
        assert report.orbit_sums.get(label, 0) == labelled_count(7, d)
        print(f"  [n=7 {label}] {len(sols)} solutions, orbit sum {report.orbit_sums.get(label, 0)},"
              f" {time.perf_counter() - t0:.1f}s")


def test_criterion_5_minimality_vs_exhaustive_centralizer():
    with criterion(5, "minimality checks match exhaustive centralizer search n<=5"):
        for n in range(2, 6):
            for d in representative_diagonals(n):
                mats = (
                    brute_force_diagonal(n, d)
                    if n == 5
                    else {c for c in brute_force_all(n) if c.diagonal_values() == d.values()}
                )
                inst = OracleInstance(d)
                for c in sorted(mats):
                    p = PartialCycleSet.from_cycle_set(c)
                    truth = is_lex_min(c, d)
                    bt = backtrack_check(p, d, complete=True)
                    inc = oracle_check(c, inst)
                    assert isinstance(bt, Minimal) == truth, ("backtrack", n, d.label(), c.to_line())
                    assert isinstance(inc, Minimal) == truth, ("incremental", n, d.label(), c.to_line())
                    for out in (bt, inc):
                        if isinstance(out, Witness):
                            assert apply_permutation(out.perm, c).entries < c.entries


def _random_partial(c, rnd):
    n = c.n
    doms = list(PartialCycleSet.from_cycle_set(c).domains)
    for _ in range(rnd.randrange(1, n + 1)):
        i = rnd.randrange(1, n + 1)
        j = rnd.randrange(1, n + 1)
        if i == j:
            continue
        extra = rnd.randrange(1, 1 << n) & ~mask_of([c.diagonal_values()[i - 1]])
        if extra:
            doms[(i - 1) * n + (j - 1)] |= extra
    return PartialCycleSet(n, doms)


def _matrix_valuation(c, vm):
    val = {}
    for i in range(1, c.n + 1):
        for j in range(1, c.n + 1):
            if i == j:
                continue
            for k, var in vm.cell_vars(i, j):
                val[var] = c.entry(i, j) == k
    return val


def _satisfied(clause, val):
    return any((l > 0) == val[abs(l)] for l in clause)


def test_criterion_6_clause_soundness_1000_pairs():
    with criterion(6, "1000 randomized clause soundness checks n<=4"):
        rnd = random.Random(2024)
        contexts = []
        for n in (3, 4):
            for d in representative_diagonals(n):
                vm = encode_axioms(n, d).varmap
                mats = [c for c in brute_force_all(n) if c.diagonal_values() == d.values()]
                minimal = [m for m in mats if is_lex_min(m, d)]
                contexts.append((n, d, vm, mats, minimal))
        checked = 0
        while checked < 1000:
            n, d, vm, mats, minimal = contexts[rnd.randrange(len(contexts))]
            c = mats[rnd.randrange(len(mats))]
            p = _random_partial(c, rnd)
            out = backtrack_check(p, d, complete=False)
            if isinstance(out, Witness):
                clause = breaking_clause(p, out.perm, vm)
                # falsified by the triggering assignment
                for l in clause:
                    i, j, k = vm.triple_of(abs(l))
                    assert not (l > 0 and p.domain(i, j) & (1 << (k - 1)))
            elif isinstance(out, Propagate):
                clause = propagation_clause(p, out.perm, out.cell, out.value, vm)
                open_lits = [
                    l for l in clause
                    if p.domain(*vm.triple_of(abs(l))[:2]) & (1 << (vm.triple_of(abs(l))[2] - 1))
                ]
                assert open_lits == [vm.matrix_var(*out.cell, out.value)]
            else:
                continue
            opt = optimize_clause(clause, vm)
            assert len(opt) <= len(clause)
            for m in minimal:
                mv = _matrix_valuation(m, vm)
                assert _satisfied(clause, mv), (n, d.label(), m.to_line())
            for m in mats:  # optimization preserves the projected model sets
                mv = _matrix_valuation(m, vm)
                assert _satisfied(clause, mv) == _satisfied(opt, mv)
            checked += 1
        assert checked == 1000


def _partial_family_n3():
    """Complete cycle sets of size 3 plus systematic single/double-cell widenings."""
    out = []
    for d in representative_diagonals(3):
        mats = [c for c in brute_force_all(3) if c.diagonal_values() == d.values()]
        for c in mats:
            base = PartialCycleSet.from_cycle_set(c)
            out.append(base)
            cells = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
            full = {i: mask_of(set(range(1, 4)) - {c.diagonal_values()[i - 1]}) for i in range(1, 4)}
            for cell in cells:
                out.append(base.with_domain(cell, full[cell[0]]))
            for c1, c2 in itertools.combinations(cells[:4], 2):
                out.append(base.with_domain(c1, full[c1[0]]).with_domain(c2, full[c2[0]]))
    seen = set()
    family = []
    for p in out:
        if p.domains not in seen:
            seen.add(p.domains)
            family.append(p)
    return family


def _check_prop1(p, q, exts_p, exts_q):
    cell = strictly_below(p, q)
    if cell is not None:  # Prop 1(1)
        for a in exts_p:
            for b in exts_q:
                assert a.entries < b.entries
    at_most = cell is not None or all(
        pd.bit_length() <= (qd & -qd).bit_length() for pd, qd in zip(p.domains, q.domains)
    )
    if at_most:  # Prop 1(2)
        for a in exts_p:
            for b in exts_q:
                assert a.entries <= b.entries
    return at_most


def test_criterion_7_partial_order_properties():
    with criterion(7, "partial-order properties, exhaustive n=3 + randomized n=4,5"):
        family = _partial_family_n3()
        exts = {p.domains: sorted(extensions(p)) for p in family}
        for p in family:
            for q in family:
                le_pq = _check_prop1(p, q, exts[p.domains], exts[q.domains])
                le_qp = _check_prop1(q, p, exts[q.domains], exts[p.domains])
                if le_pq and le_qp:  # Prop 1(3)
                    assert p == q and p.is_complete()
        rnd = random.Random(97)
        for n in (4, 5):
            pool = []
            for d in representative_diagonals(n):
                found = sorted(brute_force_diagonal(n, d))[:3] if n == 5 else [
                    c for c in brute_force_all(n) if c.diagonal_values() == d.values()
                ][:4]
                pool.extend(found)
            partials = [_random_partial(c, rnd) for c in pool for _ in range(2)]
            sample_exts = {p.domains: sorted(extensions(p))[:40] for p in partials}
            for _ in range(300):
                p = partials[rnd.randrange(len(partials))]
                q = partials[rnd.randrange(len(partials))]
                le_pq = _check_prop1(p, q, sample_exts[p.domains], sample_exts[q.domains])
                le_qp = _check_prop1(q, p, sample_exts[q.domains], sample_exts[p.domains])
                if le_pq and le_qp:
                    assert p == q and p.is_complete()


def test_criterion_8_determinism():
    with criterion(8, "byte-identical reruns with a fixed config and seed"):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for tag in ("a", "b"):
                out = os.path.join(tmp, f"{tag}.txt")
                proc = subprocess.run(
                    [sys.executable, "-m", "cyclesat.cli", "enumerate", "--size", "4",
                     "--backend", "incremental", "--seed", "7", "--out", out],
                    capture_output=True, text=True,
                    env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
                )
                assert proc.returncode == 0, proc.stderr
                paths.append(out)
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                assert fa.read() == fb.read()


def test_criterion_9_out_of_scope_note():
    with criterion(9, "n=9..11 counts substituted by criteria 3-7"):
        # desk-scale substitute: the property/oracle-based criteria above
        # stand in for the large tables; nothing to run here
        assert True

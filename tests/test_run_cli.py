import argparse
import errno
import json
import os
import re
import stat
import subprocess
import sys
import threading

import pytest

from cyclesat import cli, encoding, run
from cyclesat.cli import main
from cyclesat.cycleset import CycleSet
from cyclesat.encoding import encode_axioms, lex_leader_clauses, reference_cnf
from cyclesat.oracle import brute_force_all, is_lex_min, lex_min_reps
from cyclesat.run import BACKENDS, RunConfig, render_stats_table, run_enumerate
from cyclesat.solver import Solver
from cyclesat.symmetry import PARTITIONS_MAX_N, Diagonal, representative_diagonals


@pytest.mark.parametrize("backend", ["backtrack", "incremental"])
def test_small_counts(backend):
    for n, expect in ((2, 2), (3, 5), (4, 23)):
        sols, stats = run_enumerate(RunConfig(n=n, backend=backend))
        assert len(sols) == expect
        assert sum(st["solutions"] for st in stats.values()) == expect


def test_stats_show_the_incremental_check_solves(monkeypatch):
    # every complete check is exactly one solve of the diagonal's oracle
    solves = []
    inner = Solver.solve

    def counting(self, *args, **kwargs):
        solves.append(self)
        return inner(self, *args, **kwargs)

    hooks_made = []

    class RecordingHooks(run.MinimalityHooks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hooks_made.append(self)

    monkeypatch.setattr(Solver, "solve", counting)
    monkeypatch.setattr(run, "MinimalityHooks", RecordingHooks)
    _, stats = run_enumerate(RunConfig(n=5, backend="incremental"))
    for hooks in hooks_made:
        st = stats[hooks.diagonal.label()]
        oracle = hooks._complete_oracle
        assert solves.count(oracle.solver) == st["complete_checks"] > 0
        assert st["complete_oracle"] == oracle.solver.stats()
        assert "recent_hits" not in st
    monkeypatch.undo()
    _, stats = run_enumerate(RunConfig(n=4, backend="backtrack"))
    assert all(st["complete_oracle"] == {} for st in stats.values())


def test_one_oracle_instance_per_incremental_diagonal(monkeypatch):
    # partial states go to the backtracking search: the only SAT instance a
    # diagonal builds is the one answering its complete checks
    built = []

    class CountingOracle(run.OracleInstance):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.diagonal.label())

    monkeypatch.setattr(run, "OracleInstance", CountingOracle)
    # at the fixed schedule n=4 ends before a partial check
    monkeypatch.setattr(run, "PARTIAL_FREQUENCY", 1)
    _, stats = run_enumerate(RunConfig(n=4, backend="incremental"))
    assert sum(st["partial_checks"] for st in stats.values()) > 0
    assert sorted(built) == sorted(stats)


def test_outcome_counts_sum_to_check_counts():
    _, stats = run_enumerate(RunConfig(n=4, backend="backtrack"))
    for st in stats.values():
        oc = st["outcomes"]
        partial = oc["partial_witness"] + oc["partial_propagate"] + oc["partial_minimal"] + oc["partial_unknown"]
        complete = oc["complete_witness"] + oc["complete_minimal"]
        assert partial == st["partial_checks"]
        assert complete == st["complete_checks"]


def test_partial_check_runs_before_every_scheduled_decision():
    # per diagonal: the hooks check before each PARTIAL_FREQUENCY-th
    # decision the solver counts, and before no other
    for backend in BACKENDS:
        _, stats = run_enumerate(RunConfig(n=6, backend=backend))
        for label, st in stats.items():
            assert st["partial_checks"] == st["engine"]["decisions"] // run.PARTIAL_FREQUENCY, (backend, label)


def test_single_diagonal_matches_per_diagonal_oracle():
    n = 4
    for d in representative_diagonals(n):
        sols, _ = run_enumerate(RunConfig(n=n, diagonal=d.label(), backend="backtrack"))
        want = sorted(
            c for c in brute_force_all(n)
            if c.diagonal_values() == d.values() and is_lex_min(c, d)
        )
        assert sols == want


def test_non_representative_diagonal_same_count():
    # (2 3) is conjugate to (1 2): the solution count per class is invariant
    a, _ = run_enumerate(RunConfig(n=3, diagonal="(1 2)", backend="backtrack"))
    b, _ = run_enumerate(RunConfig(n=3, diagonal="(2 3)", backend="backtrack"))
    assert len(a) == len(b) == 2


def test_workers_do_not_change_output():
    for n, backend in ((4, "backtrack"), (5, "incremental")):
        # solver order, which also shows the per-diagonal merge order
        solo, solo_stats = run_enumerate(RunConfig(n=n, backend=backend, workers=1, sorted_output=False))
        multi, multi_stats = run_enumerate(RunConfig(n=n, backend=backend, workers=3, sorted_output=False))
        assert [c.to_line() for c in solo] == [c.to_line() for c in multi]
        assert list(multi_stats) == list(solo_stats)
        for label, st in solo_stats.items():
            assert multi_stats[label]["solutions"] == st["solutions"]
            assert multi_stats[label]["engine"] == st["engine"]


@pytest.fixture
def inline_pool(monkeypatch):
    """Runs the pool's work in this process; records the pool sizes asked
    for and the diagonals submitted, in order."""
    seen = {"max_workers": [], "submitted": []}

    class InlinePool:
        def __init__(self, max_workers):
            seen["max_workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            seen["submitted"].extend(label for _, label in payloads)
            return map(fn, payloads)

    monkeypatch.setattr(run, "ProcessPoolExecutor", InlinePool)
    return seen


def test_pool_dispatches_largest_centralizer_first(inline_pool):
    _, stats = run_enumerate(RunConfig(n=4, backend="backtrack", workers=2))
    # centralizer orders 24, 8, 4, 4, 3; ties keep partition order
    assert inline_pool["submitted"] == ["id", "(1 2)(3 4)", "(1 2 3 4)", "(1 2)", "(1 2 3)"]
    assert list(stats) == [d.label() for d in representative_diagonals(4)]


def test_pool_never_outnumbers_the_diagonals(inline_pool):
    sols, _ = run_enumerate(RunConfig(n=3, backend="backtrack", workers=64))
    assert inline_pool["max_workers"] == [3]  # id, (1 2), (1 2 3)
    assert len(sols) == 5


@pytest.mark.parametrize("backend", ["backtrack", "incremental"])
def test_one_decode_per_full_assignment(backend, monkeypatch):
    calls = {"decode_model": 0, "blocking_clause": 0}
    for name in calls:
        def counted(*args, _fn=getattr(run, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(run, name, counted)
    sols, stats = run_enumerate(RunConfig(n=4, backend=backend))
    assert calls["decode_model"] == sum(st["complete_checks"] for st in stats.values())
    assert calls["blocking_clause"] == len(sols) == 23


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        RunConfig(n=4, backend="magic")
    with pytest.raises(ValueError):
        RunConfig(n=1)
    with pytest.raises(ValueError):
        RunConfig(n=4, eo_method="unary")
    with pytest.raises(ValueError, match="out of range"):
        RunConfig(n=4, diagonal="(1 9)")
    # above the partition table's limit there are no diagonals to enumerate
    for n in (PARTITIONS_MAX_N + 1, 40):
        with pytest.raises(ValueError, match="size must be between 2 and"):
            RunConfig(n=n)
        with pytest.raises(ValueError, match="size must be between 2 and"):
            RunConfig(n=n, diagonal="(1 2)")
    RunConfig(n=PARTITIONS_MAX_N)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(n=4, workers=bad)


def test_backtrack_is_the_default_backend():
    assert RunConfig(n=4).backend == "backtrack"


def run_cli(*args):
    return main(list(args))


def test_cli_enumerate_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "n4.txt"
    stats = tmp_path / "n4.json"
    rc = run_cli("enumerate", "--size", "4", "--backend", "backtrack",
                 "--out", str(out), "--stats-out", str(stats))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 23
    want = []
    for d in representative_diagonals(4):
        per = {c for c in brute_force_all(4) if c.diagonal_values() == d.values()}
        want.extend(lex_min_reps(per))
    assert lines == [c.to_line() for c in sorted(want)]
    rc = run_cli("verify", str(out), "--size", "4")
    assert rc == 0
    data = json.loads(stats.read_text())
    assert set(data) == {d.label() for d in representative_diagonals(4)}
    capsys.readouterr()
    rc = run_cli("stats", str(stats))
    assert rc == 0
    table = capsys.readouterr().out
    assert "id" in table and "#sols" in table


def test_stats_out_counts_the_static_clauses(tmp_path):
    stats = tmp_path / "n4.json"
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--out", "-",
                   "--stats-out", str(stats)) == 0
    data = json.loads(stats.read_text())
    for d in representative_diagonals(4):
        cnf = encode_axioms(4, d)
        clauses, _ = lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)
        assert data[d.label()]["static_clauses"] == len(clauses) > 0, d.label()


def test_stats_out_counts_the_variables_and_axiom_clauses(tmp_path):
    stats = tmp_path / "n4.json"
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--out", "-",
                   "--stats-out", str(stats)) == 0
    data = json.loads(stats.read_text())
    for d in representative_diagonals(4):
        cnf = encode_axioms(4, d)
        _, num_vars = lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)
        assert data[d.label()]["variables"] == num_vars, d.label()
        assert data[d.label()]["axiom_clauses"] == len(cnf.clauses), d.label()
        # every ExactlyOne group has 3 literals, so no auxiliaries: the
        # axiom CNF has the matrix variables alone
        assert cnf.num_vars == cnf.varmap.num_matrix_vars


@pytest.mark.parametrize("backend", BACKENDS)
def test_commander_encoding_finds_the_same_n5_lines(backend):
    lines = {}
    for eo in ("binary", "commander"):
        sols, _ = run_enumerate(RunConfig(n=5, backend=backend, eo_method=eo))
        lines[eo] = [c.to_line() for c in sols]
    assert len(lines["binary"]) == 88
    assert lines["commander"] == lines["binary"]


class HalfWrittenFile:
    """A file whose first write stores half its text, then raises as a
    Ctrl-C would."""

    def __init__(self, fh):
        self.fh = fh
        self.buffer = fh.buffer  # bytes copied through it are written whole

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise KeyboardInterrupt

    def writelines(self, lines):
        self.write("".join(lines))


def test_interrupted_write_keeps_the_previous_output(tmp_path, monkeypatch):
    # the solutions, the stats, the trace and the DIMACS dump alike
    sols, stats = run_enumerate(RunConfig(n=4, backend="backtrack"))
    fresh = tmp_path / "fresh.log"
    run_enumerate(RunConfig(n=3, trace_path=str(fresh)))
    blocks = fresh.read_text()
    fresh.unlink()
    dump = RunConfig(n=3, diagonal="(1 2)")
    writes = [
        ("out.txt", lambda path: run.write_solutions(sols, path),
         "".join(c.to_line() + "\n" for c in sols), []),
        ("stats.json", lambda path: run.write_stats(stats, path),
         json.dumps(stats, indent=2, sort_keys=True) + "\n", []),
        # the trace is appended to: the old content, then the new blocks
        ("trace.log", lambda path: run_enumerate(RunConfig(n=3, trace_path=path)),
         "kept\n" + blocks, []),
        # the first of the dump's two files; the second follows it
        ("axioms_n3_12.cnf", lambda path: run.dump_dimacs(dump, os.path.dirname(path)),
         reference_cnf(3, Diagonal.parse("(1 2)", 3), dump.eo_method).to_dimacs(), ["axioms_n3_12.vars"]),
    ]
    for name, write, text, also in writes:
        out = tmp_path / name
        out.write_text("kept\n")
        opened = []

        def half_written_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if "w" not in mode:  # the trace's previous content, read back
                return fh
            opened.append(file)
            return HalfWrittenFile(fh)

        monkeypatch.setattr(run, "open", half_written_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            write(str(out))
        assert len(opened) == 1
        assert out.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]
        monkeypatch.undo()
        write(str(out))
        assert out.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, *also])
        for p in tmp_path.iterdir():
            p.unlink()


def test_out_through_a_symlink_replaces_the_file_it_names(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    sols, _ = run_enumerate(RunConfig(n=3, backend="backtrack"))
    run.write_solutions(sols, str(link))
    assert link.is_symlink()
    assert target.read_text() == "".join(c.to_line() + "\n" for c in sols)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_out_onto_a_fifo_writes_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, encoding="utf-8") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert run_cli("enumerate", "--size", "3", "--backend", "backtrack", "--out", str(fifo)) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    sols, _ = run_enumerate(RunConfig(n=3, backend="backtrack"))
    assert got == ["".join(c.to_line() + "\n" for c in sols)]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_cli_verify_tampered_exits_1(tmp_path, capsys):
    out = tmp_path / "n3.txt"
    assert run_cli("enumerate", "--size", "3", "--backend", "backtrack", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    lines.append(lines[-1])  # duplicate entry
    out.write_text("".join(s + "\n" for s in lines))
    assert run_cli("verify", str(out), "--size", "3") == 1


def test_cli_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    assert run_cli("verify", str(bad), "--size", "2") == 2


def test_cli_verify_invalid_diagonal_exits_2(tmp_path, capsys):
    db = tmp_path / "n3.txt"
    db.write_text("1 1 1 2 2 2 3 3 3\n")
    for path in (db, tmp_path / "missing.txt"):  # refused before the file is read
        assert run_cli("verify", str(path), "-n", "3", "--diagonal", "(1 5)") == 2
        assert "invalid diagonal:" in capsys.readouterr().err


def test_cli_verify_size_below_one_exits_2(tmp_path, capsys):
    db = tmp_path / "n1.txt"
    db.write_text("1\n")
    for size in ("0", "-1"):
        for path in (db, tmp_path / "missing.txt"):  # refused before the file is read
            assert run_cli("verify", str(path), "--size", size) == 2
            captured = capsys.readouterr()
            assert "invalid size:" in captured.err and captured.out == ""


def test_cli_invalid_config_exits_2(capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert run_cli("enumerate", "--size", "1") == 2
    assert run_cli("enumerate", "--size", "4", "--diagonal", "(1 9)") == 2
    for diagonal in ("all", "(1 2)"):
        capsys.readouterr()
        assert run_cli("enumerate", "--size", "17", "--diagonal", diagonal) == 2
        assert "invalid configuration: size must be between 2 and 16" in capsys.readouterr().err


def test_cli_stats_malformed_exits_2(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1, 2]")
    assert run_cli("stats", str(f)) == 2


def _no_enumeration(monkeypatch):
    def fail(config):
        raise AssertionError("enumerated despite a command line that must be refused")

    monkeypatch.setattr(cli, "run_enumerate", fail)


def test_cli_limit_below_one_exits_2_before_enumerating(capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert run_cli("enumerate", "--size", "5", "--workers", "0") == 2
    assert "invalid configuration: " in capsys.readouterr().err


def test_cli_refuses_the_partial_check_schedule_flags(capsys, monkeypatch):
    # the schedule is fixed: run.PARTIAL_FREQUENCY and mincheck.PARTIAL_NODE_LIMIT
    _no_enumeration(monkeypatch)
    for flag in ("--freq", "--node-limit"):
        with pytest.raises(SystemExit) as exc:
            run_cli("enumerate", "--size", "4", flag, "50")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 50" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2_before_enumerating(tmp_path, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    out = tmp_path / "missing" / "x.txt"
    assert run_cli("enumerate", "--size", "3", "--out", str(out)) == 2
    assert f"cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_cli_out_without_room_for_its_temp_file_exits_2(tmp_path, capsys, monkeypatch):
    # a writable file in a directory where no new file can be created
    _no_enumeration(monkeypatch)
    out = tmp_path / "old.txt"
    out.write_text("kept\n")
    tmp = run.solutions_temp_path(str(out))

    def refusing_open(file, *args, **kwargs):
        if file == tmp:
            raise PermissionError(errno.EACCES, "Permission denied", file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    for flag in ("--out", "--stats-out", "--trace"):
        assert run_cli("enumerate", "--size", "3", flag, str(out)) == 2
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]


def test_cli_out_onto_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert run_cli("enumerate", "--size", "3", "--out", str(tmp_path)) == 2
    assert f"cannot write {tmp_path}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_contract_violation_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a "blocking" clause of the decisions themselves is satisfied by the
    # model it should exclude, which the solver refuses
    monkeypatch.setattr(run, "blocking_clause", lambda decisions: list(decisions))
    out, stats = tmp_path / "out.txt", tmp_path / "stats.json"
    assert main(["enumerate", "--size", "4", "--out", str(out), "--stats-out", str(stats)]) == 3
    assert "internal contract violation" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no solutions, no stats, no temporary file


def test_cli_unwritable_stats_out_exits_2_and_keeps_out(tmp_path, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    fresh = tmp_path / "fresh.txt"
    old = tmp_path / "old.txt"
    old.write_text("kept\n")
    for out in (fresh, old):
        # a directory cannot be opened as a file
        assert run_cli("enumerate", "--size", "3", "--out", str(out), "--stats-out", str(tmp_path)) == 2
        assert f"cannot write {tmp_path}: " in capsys.readouterr().err
    assert not fresh.exists()
    assert old.read_text() == "kept\n"


def test_cli_unwritable_dash_stats_out_or_trace_exits_2(tmp_path, capsys, monkeypatch):
    # only --out reads "-" as stdout; the stats and the trace would be
    # written to a file named "-", here a directory
    _no_enumeration(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").mkdir()
    for flag in ("--stats-out", "--trace"):
        assert run_cli("enumerate", "--size", "3", flag, "-") == 2
        assert "cannot write -: " in capsys.readouterr().err


def test_cli_dimacs_dump_onto_a_file_exits_2(tmp_path, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    f = tmp_path / "f"
    f.write_text("kept\n")
    for dump in (f, f / "sub"):
        assert run_cli("enumerate", "--size", "3", "--dimacs-dump", str(dump)) == 2
        assert f"cannot write {dump}: " in capsys.readouterr().err
    assert f.read_text() == "kept\n"


def test_cli_dimacs_dump(tmp_path):
    out = tmp_path / "n3.txt"
    dump = tmp_path / "cnf"
    rc = run_cli("enumerate", "--size", "3", "--backend", "backtrack",
                 "--out", str(out), "--dimacs-dump", str(dump))
    assert rc == 0
    bases = ["axioms_n3_id", "axioms_n3_12", "axioms_n3_123"]  # id, (1 2), (1 2 3)
    assert sorted(f.name for f in dump.iterdir()) == sorted(b + ext for b in bases for ext in (".cnf", ".vars"))
    for b in bases:
        assert (dump / (b + ".cnf")).read_text().startswith("p cnf ")
        assert (dump / (b + ".vars")).read_text().startswith("v ")


def test_cli_dimacs_dump_is_written_apart_from_the_search(tmp_path, monkeypatch):
    # the CLI writes the dump before enumerating, and the search builds no
    # reference CNF
    monkeypatch.setattr(cli, "run_enumerate", lambda config: ([], {}))
    dump = tmp_path / "cnf"
    assert run_cli("enumerate", "--size", "4", "--dimacs-dump", str(dump)) == 0
    bases = ["axioms_n4_id", "axioms_n4_12", "axioms_n4_12_34", "axioms_n4_123", "axioms_n4_1234"]
    assert sorted(f.name for f in dump.iterdir()) == sorted(b + ext for b in bases for ext in (".cnf", ".vars"))

    def refuse(*args):
        raise AssertionError("the search built the reference CNF")

    monkeypatch.setattr(encoding, "reference_cnf", refuse)
    monkeypatch.setattr(run, "reference_cnf", refuse)
    sols, st = run.enumerate_diagonal(RunConfig(n=4), Diagonal.parse("id", 4))
    assert st.solutions == len(sols) > 0


def dumped_models(base, diag):
    """The cycle sets that are models of a dumped DIMACS file, decoded
    through its variable map, each model blocked on its matrix variables."""
    header, *lines = base.with_suffix(".cnf").read_text().splitlines()
    clauses = [[int(t) for t in line.split()[:-1]] for line in lines]
    cells = {}  # matrix variable -> (i, j, k)
    for line in base.with_suffix(".vars").read_text().splitlines():
        i, j, k, var = map(int, line.split()[1:])
        cells[var] = (i, j, k)
    solver = Solver(int(header.split()[2]))
    solver.add_cnf(clauses)
    found = []

    def record_and_block(model):
        entries = {(i, i): diag.value(i) for i in range(1, diag.n + 1)}
        entries.update({(i, j): k for var, (i, j, k) in cells.items() if model[var]})
        found.append(CycleSet(diag.n, [entries[(i, j)] for i in range(1, diag.n + 1)
                                       for j in range(1, diag.n + 1)]))
        return [-var for var in cells if model[var]]

    solver.solve(on_complete=record_and_block)
    return found


@pytest.mark.parametrize("n", [3, 4])
def test_cli_dimacs_dump_is_the_complete_axiom_cnf(tmp_path, n):
    # the search leaves the cycloid equation for k outside {i, j} to its
    # propagator; the dumped CNF carries it, so its models alone are the
    # cycle sets of the diagonal (at n = 4 the search's CNF alone has 56
    # more on the identity)
    dump = tmp_path / "cnf"
    assert run_cli("enumerate", "--size", str(n), "--out", str(tmp_path / "out.txt"),
                   "--dimacs-dump", str(dump)) == 0
    everything = brute_force_all(n)
    for diag in representative_diagonals(n):
        tag = diag.label().replace(" ", "").replace(")(", "_").strip("()")
        got = sorted(dumped_models(dump / f"axioms_n{n}_{tag}", diag))
        assert got == sorted(c for c in everything if c.diagonal_values() == diag.values()), diag.label()


def test_cli_trace_log(tmp_path):
    # one block per diagonal, header first, in selection order, whichever
    # worker ran it
    logs = []
    for workers in (1, 2):
        trace = tmp_path / f"trace-w{workers}.log"
        rc = run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--workers", str(workers),
                     "--out", str(tmp_path / f"n4-w{workers}.txt"), "--trace", str(trace))
        assert rc == 0
        logs.append(trace.read_text())
    assert logs[0] == logs[1]
    assert "conflict" in logs[0]
    headers = [line for line in logs[0].splitlines() if line.startswith("#")]
    assert headers == [f"# diagonal {d.label()}" for d in representative_diagonals(4)]


def test_trace_logs_each_counted_conflict_once(tmp_path):
    # a block holds one "conflict <k> level <l>" line per counted conflict
    # and nothing else; an asserted hook clause is no conflict
    trace = tmp_path / "trace.log"
    _, stats = run_enumerate(RunConfig(n=6, backend="backtrack", trace_path=str(trace)))
    blocks = trace.read_text().split("# diagonal ")[1:]
    assert [b.split("\n", 1)[0] for b in blocks] == list(stats)
    for block in blocks:
        label, *lines = block.splitlines()
        numbers = []
        for line in lines:
            m = re.fullmatch(r"conflict (\d+) level (\d+)", line)
            assert m, (label, line)
            numbers.append(int(m[1]))
        assert numbers == list(range(1, len(lines) + 1)), label
        assert len(lines) == stats[label]["engine"]["conflicts"], label


def test_cli_raw_order_flag(tmp_path):
    sorted_out = tmp_path / "sorted.txt"
    raw_out = tmp_path / "raw.txt"
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--out", str(sorted_out)) == 0
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--raw-order", "--out", str(raw_out)) == 0
    assert sorted(sorted_out.read_text().splitlines()) == sorted(raw_out.read_text().splitlines())


def test_readme_command_line_names_every_long_option():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        (command, option)
        for command in ("enumerate", "verify", "stats")
        for action in commands.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section)
    ]
    assert missing == []


def test_package_exports_resolve():
    import cyclesat

    assert len(set(cyclesat.__all__)) == len(cyclesat.__all__)
    assert [name for name in cyclesat.__all__ if not hasattr(cyclesat, name)] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclesat.cli", "enumerate", "--size", "2", "--backend", "backtrack"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1 2 1 2", "2 1 2 1"]


def test_render_stats_table_empty():
    assert render_stats_table({}).startswith("diagonal")


def test_render_stats_table_oracle_columns_per_complete_check():
    _, stats = run_enumerate(RunConfig(n=4, backend="backtrack"))
    header, *rows = render_stats_table(stats).splitlines()
    assert header.split() == ["diagonal", "#sols", "time(s)", "%total", "#partial", "p-nonmin%", "p-noconc%",
                              "#complete", "c-nonmin%", "c-min%", "mincheck%"]
    _, stats = run_enumerate(RunConfig(n=4, backend="incremental"))
    header, *rows = render_stats_table(stats).splitlines()
    assert header.split()[-2:] == ["o-confl/chk", "o-props/chk"]
    assert len(rows) == len(stats)
    for row in rows:
        cols = row.split()
        st = stats[" ".join(cols[:-12])]
        confl, props = cols[-2:]
        checks = st["complete_checks"]
        assert confl == f"{st['complete_oracle']['conflicts'] / checks:.2f}"
        assert props == f"{st['complete_oracle']['propagations'] / checks:.1f}"

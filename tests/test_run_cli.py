import errno
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from cyclesat import cli, run
from cyclesat.cli import main
from cyclesat.encoding import encode_axioms, lex_leader_clauses
from cyclesat.oracle import brute_force_all, is_lex_min, lex_min_reps
from cyclesat.run import BACKENDS, RunConfig, render_stats_table, run_enumerate
from cyclesat.solver import Solver
from cyclesat.symmetry import PARTITIONS_MAX_N, representative_diagonals


@pytest.mark.parametrize("backend", ["backtrack", "incremental"])
def test_small_counts(backend):
    for n, expect in ((2, 2), (3, 5), (4, 23)):
        sols, stats = run_enumerate(RunConfig(n=n, backend=backend))
        assert len(sols) == expect
        assert sum(st["solutions"] for st in stats.values()) == expect


def test_stats_show_the_incremental_check_solves(monkeypatch):
    # a complete check either takes a recent witness or solves once
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
    assert sum(st["recent_hits"] for st in stats.values()) > 0
    for hooks in hooks_made:
        st = stats[hooks.diagonal.label()]
        oracle = hooks._complete_oracle
        assert solves.count(oracle.solver) == st["complete_checks"] - st["recent_hits"]
        assert st["recent_hits"] <= st["outcomes"]["complete_witness"]
        assert st["complete_oracle"] == oracle.solver.stats()
    monkeypatch.undo()
    _, stats = run_enumerate(RunConfig(n=4, backend="backtrack"))
    assert all(st["recent_hits"] == 0 and st["complete_oracle"] == {} for st in stats.values())


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
        # every ExactlyOne group has at most 4 literals, so no auxiliaries
        assert cnf.num_vars == cnf.varmap.num_matrix_vars + 6 * 4 * 4


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
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    sols, _ = run_enumerate(RunConfig(n=4, backend="backtrack"))
    opened = []

    def half_written_open(*args, **kwargs):
        opened.append(args[0])
        return HalfWrittenFile(open(*args, **kwargs))

    monkeypatch.setattr(run, "open", half_written_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        run.write_solutions(sols, str(out))
    assert len(opened) == 1
    assert out.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    monkeypatch.undo()
    run.write_solutions(sols, str(out))
    assert out.read_text() == "".join(c.to_line() + "\n" for c in sols)
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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
    assert run_cli("enumerate", "--size", "3", "--out", str(out)) == 2
    assert f"cannot write {out}: " in capsys.readouterr().err
    assert out.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]


def test_cli_out_onto_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    _no_enumeration(monkeypatch)
    assert run_cli("enumerate", "--size", "3", "--out", str(tmp_path)) == 2
    assert f"cannot write {tmp_path}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_cli_trace_log(tmp_path):
    out = tmp_path / "n4.txt"
    trace = tmp_path / "trace.log"
    rc = run_cli("enumerate", "--size", "4", "--diagonal", "id", "--backend", "backtrack",
                 "--out", str(out), "--trace", str(trace))
    assert rc == 0
    assert "conflict" in trace.read_text()


def test_cli_raw_order_flag(tmp_path):
    sorted_out = tmp_path / "sorted.txt"
    raw_out = tmp_path / "raw.txt"
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--out", str(sorted_out)) == 0
    assert run_cli("enumerate", "--size", "4", "--backend", "backtrack", "--raw-order", "--out", str(raw_out)) == 0
    assert sorted(sorted_out.read_text().splitlines()) == sorted(raw_out.read_text().splitlines())


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

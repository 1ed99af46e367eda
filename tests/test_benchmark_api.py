"""The parts of cyclesat that the benchmark under perfbench/ drives.

perfbench/spans.py rebinds names in `cyclesat.run` to trace them, and
perfbench/run.py builds each diagonal's encoding, solver and hooks itself.
A change that renames or drops one of these breaks the benchmark, so they
are checked here against the package.
"""

import importlib
import os

import pytest

from cyclesat import run
from cyclesat.run import RunConfig, run_enumerate
from cyclesat.symmetry import representative_diagonals

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans")


def test_run_has_every_name_the_tracer_rebinds(spans):
    assert [name for name in spans.PATCHED if not hasattr(run, name)] == []


def test_setup_calls_of_the_benchmark():
    config = RunConfig(n=4, backend="incremental")
    for d in representative_diagonals(4):
        cnf = run.encode_axioms(4, d, config.eo_method)
        solver = run.Solver(cnf.num_vars, num_static=cnf.varmap.num_matrix_vars, seed=config.seed)
        solver.add_cnf(cnf.clauses)
        run.MinimalityHooks(cnf, d, config)


@pytest.mark.parametrize("backend", ["backtrack", "incremental"])
def test_traced_run_matches_untraced(spans, backend):
    config = RunConfig(n=4, backend=backend)
    plain, plain_stats = run_enumerate(config)
    tracer = spans.Tracer("test")
    uninstall = spans.install(run, tracer)
    try:
        traced, stats = run.run_enumerate(config)
    finally:
        uninstall()
    assert traced == plain
    assert {k: st["engine"] for k, st in stats.items()} == {k: st["engine"] for k, st in plain_stats.items()}
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("run.enumerate_diagonal") == len(representative_diagonals(4))
    assert names.count("learning.blocking_clause") == len(traced) == 23

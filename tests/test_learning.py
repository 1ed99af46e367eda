import random

import pytest

import cyclesat.run as run
from cyclesat.cycleset import CycleSet, Permutation, apply_permutation
from cyclesat.encoding import encode_axioms, lex_leader_family
from cyclesat.errors import NotAWitnessError
from cyclesat.learning import (
    blocking_clause,
    breaking_clause,
    optimize_clause,
    propagation_clause,
)
from cyclesat.mincheck import Propagate, Witness, check
from cyclesat.oracle import brute_force_all, is_lex_min
from cyclesat.run import RunConfig, enumerate_diagonal
from cyclesat.symmetry import Diagonal, representative_diagonals
from test_mincheck import complete_partial, random_partial


def assignment_of(c, vm):
    """var -> bool valuation of a complete cycle set's matrix layer."""
    val = {}
    for i in range(1, c.n + 1):
        for j in range(1, c.n + 1):
            if i == j:
                continue
            for k, var in vm.cell_vars(i, j):
                val[var] = c.entry(i, j) == k
    return val


def satisfied_by(clause, valuation):
    return any((l > 0) == valuation[abs(l)] for l in clause)


def falsified_by_partial(clause, p, vm):
    """No literal can still become true under the partial cycle set."""
    for l in clause:
        i, j, k = vm.triple_of(abs(l))
        in_dom = bool(p.domain(i, j) & (1 << (k - 1)))
        if l > 0 and in_dom:
            return False
        if l < 0 and not (p.domain(i, j) & ~(1 << (k - 1))):
            return False
    return True


def test_optimize_worked_example():
    vm = encode_axioms(4, Diagonal.identity(4)).varmap
    clause = [vm.matrix_var(1, 2, 2), vm.matrix_var(1, 2, 3)]
    assert optimize_clause(clause, vm) == [-vm.matrix_var(1, 2, 4)]


def test_optimize_no_rule_applies():
    vm = encode_axioms(4, Diagonal.identity(4)).varmap
    clause = [vm.matrix_var(1, 2, 2), vm.matrix_var(2, 1, 3)]
    assert optimize_clause(clause, vm) == clause


def test_optimize_idempotent_and_never_longer():
    rnd = random.Random(4)
    vm = encode_axioms(4, Diagonal.identity(4)).varmap
    all_vars = sorted(v for v in range(1, vm.num_matrix_vars + 1))
    for _ in range(200):
        lits = [v if rnd.random() < 0.8 else -v for v in rnd.sample(all_vars, rnd.randrange(1, 9))]
        once = optimize_clause(lits, vm)
        assert len(once) <= len(set(lits))
        assert optimize_clause(once, vm) == once


def test_optimize_preserves_models():
    # relative to the axioms: evaluate both clause versions on every
    # complete cycle set with the instance's diagonal
    rnd = random.Random(9)
    n = 3
    for diag in representative_diagonals(n):
        vm = encode_axioms(n, diag).varmap
        mats = [c for c in brute_force_all(n) if c.diagonal_values() == diag.values()]
        all_vars = list(range(1, vm.num_matrix_vars + 1))
        for _ in range(120):
            lits = [v if rnd.random() < 0.7 else -v for v in rnd.sample(all_vars, rnd.randrange(1, 7))]
            opt = optimize_clause(lits, vm)
            for c in mats:
                val = assignment_of(c, vm)
                assert satisfied_by(lits, val) == satisfied_by(opt, val)


def collect_witness_cases(n, rnd, count):
    cases = []
    for diag in representative_diagonals(n):
        vm = encode_axioms(n, diag).varmap
        mats = [c for c in brute_force_all(n) if c.diagonal_values() == diag.values()]
        minimal = [c for c in mats if is_lex_min(c, diag)]
        for c in mats:
            out = check(complete_partial(c), diag, complete=True)
            if isinstance(out, Witness):
                cases.append((diag, vm, minimal, complete_partial(c), out))
            for _ in range(2):
                p = random_partial(c, rnd)
                o2 = check(p, diag, complete=False)
                if isinstance(o2, (Witness, Propagate)):
                    cases.append((diag, vm, minimal, p, o2))
            if len(cases) >= count:
                return cases
    return cases


def test_breaking_clause_sound_and_falsified():
    rnd = random.Random(31)
    for n in (3, 4):
        for diag, vm, minimal, p, out in collect_witness_cases(n, rnd, 60):
            if isinstance(out, Witness):
                clause = breaking_clause(p, out.perm, vm)
            else:
                clause = propagation_clause(p, out.perm, out.cell, out.value, vm)
            opt = optimize_clause(clause, vm)
            if isinstance(out, Witness):
                assert falsified_by_partial(clause, p, vm)
            for m in minimal:
                val = assignment_of(m, vm)
                assert satisfied_by(clause, val), (n, diag.label(), m.to_line())
                assert satisfied_by(opt, val)


def test_breaking_clause_rejects_non_witness():
    diag = Diagonal.identity(3)
    vm = encode_axioms(3, diag).varmap
    c = CycleSet.from_rows([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
    from cyclesat.cycleset import Permutation

    with pytest.raises(NotAWitnessError):
        breaking_clause(complete_partial(c), Permutation.identity(3), vm)


def test_propagation_clause_is_unit():
    rnd = random.Random(41)
    found = 0
    for n in (3, 4):
        for diag in representative_diagonals(n):
            vm = encode_axioms(n, diag).varmap
            mats = [c for c in brute_force_all(n) if c.diagonal_values() == diag.values()]
            for c in mats:
                for _ in range(3):
                    p = random_partial(c, rnd)
                    out = check(p, diag, complete=False)
                    if not isinstance(out, Propagate):
                        continue
                    clause = propagation_clause(p, out.perm, out.cell, out.value, vm)
                    target = vm.matrix_var(*out.cell, out.value)
                    open_lits = []
                    for l in clause:
                        i, j, k = vm.triple_of(abs(l))
                        if p.domain(i, j) & (1 << (k - 1)):
                            open_lits.append(l)
                    assert open_lits == [target]
                    found += 1
    assert found > 10


@pytest.fixture
def returned_clauses(monkeypatch):
    """Every clause the minimality hooks of a run return, in order, each
    with the model it blocks, or None for a breaking or propagation clause."""
    returned = []

    class RecordingHooks(run.MinimalityHooks):
        def on_complete(self, model):
            found = len(self.solutions)
            clause = super().on_complete(model)
            returned.append((clause, self.solutions[-1] if len(self.solutions) > found else None))
            return clause

        def on_partial(self):
            clause = super().on_partial()
            if clause is not None:
                returned.append((clause, None))
            return clause

    monkeypatch.setattr(run, "MinimalityHooks", RecordingHooks)
    return returned


def lex_leaders(n, diag):
    """The cycle sets of the diagonal that satisfy its lex-leader clauses."""
    family = [Permutation(tau[1:]) for tau in lex_leader_family(diag)]
    return [c for c in brute_force_all(n) if c.diagonal_values() == diag.values()
            and all(apply_permutation(t, c).entries >= c.entries for t in family)]


def test_blocking_clause_excludes_exactly_one_solution(returned_clauses):
    # the decisions fix the model relative to the clauses the search holds:
    # among the cycle sets that satisfy the lex-leader clauses and every
    # clause returned before, the blocking clause is falsified by that
    # model alone
    for n in (3, 4):
        for method in ("binary", "commander"):
            for diag in representative_diagonals(n):
                vm = encode_axioms(n, diag, method).varmap
                leaders = lex_leaders(n, diag)
                returned_clauses.clear()
                sols, _ = enumerate_diagonal(RunConfig(n=n, eo_method=method), diag)
                assert sorted(sols) == sorted(c for c in leaders if is_lex_min(c, diag))
                live = [(c, assignment_of(c, vm)) for c in leaders]
                blocked = []
                for clause, model in returned_clauses:
                    assert all(0 < abs(l) <= vm.num_matrix_vars for l in clause)
                    if model is not None:
                        assert [c for c, val in live if not satisfied_by(clause, val)] == [model]
                        blocked.append(model)
                    live = [(c, val) for c, val in live if satisfied_by(clause, val)]
                assert blocked == sols, (n, method, diag.label())


def test_blocking_clause_empty_for_n2(returned_clauses):
    # propagation alone fixes the one model of each n=2 diagonal, so
    # nothing is decided, its blocking clause is empty and the search ends
    for diag in representative_diagonals(2):
        returned_clauses.clear()
        sols, stats = enumerate_diagonal(RunConfig(n=2), diag)
        assert returned_clauses == [([], sols[0])]
        assert stats.complete_checks == 1 and stats.engine["decisions"] == 0
    assert blocking_clause([]) == []
    assert blocking_clause([3, -5, 7]) == [-3, 5, -7]

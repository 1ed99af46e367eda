import itertools
import random

import pytest

from cyclesat.cycleset import CycleSet, PartialCycleSet, Permutation, apply_permutation
from cyclesat.encoding import encode_axioms, matrix_literals
from cyclesat.learning import breaking_clause
from cyclesat.mincheck import Minimal, Witness
from cyclesat.oracle import brute_force_all, is_lex_min
from cyclesat.run import RunConfig, enumerate_diagonal
from cyclesat.sat_mincheck import OracleInstance, check
from cyclesat.solver import Solver
from cyclesat.symmetry import Diagonal, fixes_diagonal, representative_diagonals


def test_n2_identity_lexmin_is_unsat():
    inst = OracleInstance(Diagonal.identity(2))
    out = check(CycleSet.from_rows([[1, 2], [1, 2]]), inst)
    assert isinstance(out, Minimal)


def test_complete_kind_matches_ground_truth_small():
    # every diagonal that occurs, not only the representatives: the chain
    # skips each row's last cell, which must hold wherever the fixed points
    # sit between the moved ones
    for n in (2, 3, 4):
        by_diagonal = {}
        for c in brute_force_all(n):
            by_diagonal.setdefault(tuple(c.diagonal_values()), []).append(c)
        for (values, mats), method in itertools.product(by_diagonal.items(), ("binary", "commander")):
            diag = Diagonal.from_values(values)
            inst = OracleInstance(diag, method)
            for c in mats:
                out = check(c, inst)
                assert isinstance(out, Minimal) == is_lex_min(c, diag), (values, c.to_line())
                if isinstance(out, Witness):
                    assert out.perm != Permutation.identity(n)
                    assert fixes_diagonal(out.perm, diag)
                    assert apply_permutation(out.perm, c).entries < c.entries
                    breaking_clause(PartialCycleSet.from_cycle_set(c), out.perm, inst.varmap)


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_n2_instances_answer_minimal_for_every_input(method):
    # every row of an n=2 matrix is its last cell, so nothing is compared
    for diag in representative_diagonals(2):
        inst = OracleInstance(diag, method)
        num = inst.varmap.num_matrix_vars
        for signs in itertools.product((1, -1), repeat=num):
            model = inst.solver.solve([s * v for s, v in zip(signs, range(1, num + 1))])
            assert model is None, (diag.label(), signs)


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_every_oracle_variable_occurs_in_a_clause(monkeypatch, method):
    # a variable no clause mentions is still decided after every witness
    loaded = []
    add_cnf = Solver.add_cnf

    def recording(self, clauses):
        clauses = [list(cl) for cl in clauses]
        loaded.extend(clauses)
        return add_cnf(self, clauses)

    monkeypatch.setattr(Solver, "add_cnf", recording)
    for n in range(2, 8):
        for diag in representative_diagonals(n):
            loaded.clear()
            inst = OracleInstance(diag, method)
            used = {abs(lit) for cl in loaded for lit in cl}
            above_w = range(inst.varmap.num_matrix_vars + 1, inst.num_vars + 1)
            assert [v for v in above_w if v not in used] == [], (n, diag.label())


def test_instance_reuse_is_sound():
    rnd = random.Random(29)
    n = 4
    all_mats = brute_force_all(n)
    for diag in representative_diagonals(n):
        inst = OracleInstance(diag)
        mats = [c for c in all_mats if c.diagonal_values() == diag.values()]
        seq = mats * 2
        rnd.shuffle(seq)
        for c in seq:
            out = check(c, inst)
            assert isinstance(out, Minimal) == is_lex_min(c, diag), c.to_line()
            if isinstance(out, Witness):
                assert fixes_diagonal(out.perm, diag)
                assert apply_permutation(out.perm, c).entries < c.entries


def test_minimal_after_witnesses_on_the_same_instance():
    # n=5 identity: relabelled representatives are non-minimal; after at
    # least 8 witnesses, whose learned clauses the instance keeps, the
    # representatives must still be proven minimal
    diag = Diagonal.identity(5)
    reps, _ = enumerate_diagonal(RunConfig(n=5, backend="backtrack"), diag)
    inst = OracleInstance(diag)
    perms = [Permutation(list(t)) for t in itertools.permutations(range(1, 6))]
    rnd = random.Random(1)
    witnesses = 0
    for c in reps:
        for pi in rnd.sample(perms, 3):
            img = apply_permutation(pi, c)
            if not is_lex_min(img, diag):
                assert isinstance(check(img, inst), Witness)
                witnesses += 1
        if witnesses >= 8:
            break
    assert witnesses >= 8
    for c in reps:
        assert isinstance(check(c, inst), Minimal), c.to_line()


def test_w_layer_is_the_axiom_matrix_numbering():
    # one matrix_literals call pins the main solver and the oracle alike;
    # the permutation layer is numbered right after the matrix
    for n in range(2, 8):
        for diag in representative_diagonals(n):
            vm = encode_axioms(n, diag).varmap
            inst = OracleInstance(diag)
            triples = list(itertools.product(range(1, n + 1), repeat=3))
            assert [inst.varmap.matrix_var(*t) for t in triples] == [vm.matrix_var(*t) for t in triples]
            assert inst.varmap.num_matrix_vars == vm.num_matrix_vars, diag.label()
            assert sorted(inst.p.values()) == list(range(vm.num_matrix_vars + 1, inst.num_static + 1))


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_w2_layer_is_the_image_in_every_model(method):
    # the channels run one way only, so w2 is the image because its per-cell
    # ExactlyOne excludes every other value: a model's w2 layer (the copy of
    # matrix variable v is num_static + v) must pin exactly pi(c)
    for n in (2, 3, 4):
        all_mats = brute_force_all(n)
        for diag in representative_diagonals(n):
            inst = OracleInstance(diag, method)
            vm = inst.varmap
            for c in all_mats:
                if c.diagonal_values() != diag.values():
                    continue
                model = inst.solver.solve(matrix_literals(c, vm))
                assert (model is None) == is_lex_min(c, diag), c.to_line()
                if model is None:
                    continue
                pi = inst.decode_permutation(model)
                w2 = [v if model[inst.num_static + v] else -v for v in range(1, vm.num_matrix_vars + 1)]
                assert w2 == matrix_literals(apply_permutation(pi, c), vm), c.to_line()

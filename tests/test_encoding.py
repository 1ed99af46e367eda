import itertools

import pytest

from cyclesat.cycleset import CycleSet, satisfies_axioms
from cyclesat.encoding import VarAllocator, decode_model, encode_axioms, exactly_one
from cyclesat.errors import MalformedModelError
from cyclesat.oracle import brute_force_all
from cyclesat.solver import PropagatorHooks, Solver
from cyclesat.symmetry import Diagonal, representative_diagonals


def models_of(clauses, num_vars):
    out = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = (None,) + bits
        if all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            out.append(bits)
    return out


@pytest.mark.parametrize("method", ["binary", "commander"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_exactly_one_truth_table(method, m):
    alloc = VarAllocator(m + 1)
    clauses = exactly_one(list(range(1, m + 1)), method, alloc)
    num_vars = alloc.next_var - 1
    models = models_of(clauses, num_vars)
    projections = sorted(set(bits[:m] for bits in models))
    assert projections == sorted(tuple(i == k for i in range(m)) for k in range(m))


def test_exactly_one_rejects_bad_input():
    with pytest.raises(ValueError):
        exactly_one([], "binary", VarAllocator())
    with pytest.raises(ValueError):
        exactly_one([1, 1], "binary", VarAllocator())
    with pytest.raises(ValueError):
        exactly_one([1, 2], "unary", VarAllocator())


def test_matrix_variable_count():
    vm = encode_axioms(3, Diagonal.identity(3)).varmap
    assert vm.num_matrix_vars == 3 * 2 * 2
    assert vm.matrix_var(1, 1, 1) is None  # diagonal cells carry no variables
    assert vm.matrix_var(1, 2, 1) is None  # row value is taken by the diagonal
    assert vm.matrix_var(1, 2, 2) is not None


def test_varmap_determinism():
    a = encode_axioms(4, Diagonal.parse("(1 2)", 4))
    b = encode_axioms(4, Diagonal.parse("(1 2)", 4))
    assert a.to_dimacs() == b.to_dimacs()
    assert a.varmap.sidecar_text() == b.varmap.sidecar_text()


def test_dimacs_format():
    cnf = encode_axioms(2, Diagonal.identity(2))
    text = cnf.to_dimacs()
    head = text.splitlines()[0].split()
    assert head[:2] == ["p", "cnf"]
    assert int(head[2]) == cnf.num_vars
    assert int(head[3]) == len(cnf.clauses)
    assert all(line.endswith(" 0") for line in text.splitlines()[1:])
    assert cnf.varmap.sidecar_text().startswith("v 1 2 2 1")


def enumerate_matrices(cnf, with_aux_check=False):
    """All models of the axiom encoding, decoded to matrices."""
    solver = Solver(cnf.num_vars, num_static=cnf.varmap.num_matrix_vars)
    solver.add_cnf(cnf.clauses)
    models = []

    def record_and_block(model):
        models.append(model)
        lits = []
        for (i, j, k), var in cnf.varmap._matrix.items():
            if model[var]:
                lits.append(-var)
        return lits

    solver.solve(hooks=PropagatorHooks(on_complete=record_and_block))
    return [decode_model(m, cnf.varmap) for m in models]


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_models_match_brute_force(method):
    for n in (2, 3, 4):
        reference = brute_force_all(n)
        for diag in representative_diagonals(n):
            cnf = encode_axioms(n, diag, method)
            got = sorted(enumerate_matrices(cnf))
            want = sorted(c for c in reference if c.diagonal_values() == diag.values())
            assert got == want, (n, diag.label(), method)
            assert all(satisfies_axioms(c) for c in got)


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_no_clause_repeats_a_literal(method):
    for n in range(2, 7):
        for diag in representative_diagonals(n):
            for cl in encode_axioms(n, diag, method).clauses:
                assert len(set(cl)) == len(cl), (n, diag.label(), cl)


def test_n2_unique_models():
    got = enumerate_matrices(encode_axioms(2, Diagonal.identity(2)))
    assert got == [CycleSet.from_rows([[1, 2], [1, 2]])]
    got = enumerate_matrices(encode_axioms(2, Diagonal.parse("(1 2)", 2)))
    assert got == [CycleSet.from_rows([[2, 1], [2, 1]])]


def test_decode_model_malformed():
    cnf = encode_axioms(2, Diagonal.identity(2))
    model = [False] * (cnf.num_vars + 1)
    with pytest.raises(MalformedModelError):
        decode_model(model, cnf.varmap)
    model[cnf.varmap.matrix_var(1, 2, 2)] = True
    model[cnf.varmap.matrix_var(2, 1, 1)] = True
    assert decode_model(model, cnf.varmap) == CycleSet.from_rows([[1, 2], [1, 2]])

import functools
import hashlib
import itertools
import math
import random

import pytest

from cyclesat.cycleset import CycleSet, Permutation, apply_permutation, satisfies_axioms
from cyclesat.encoding import (VarAllocator, decode_model, encode_axioms, exactly_one, lex_leader_clauses,
                               lex_leader_family, matrix_literals)
from cyclesat.errors import MalformedModelError
from cyclesat.oracle import brute_force_all, brute_force_diagonal, is_lex_min
from cyclesat.sat_mincheck import OracleInstance
from cyclesat.solver import PropagatorHooks, Solver
from cyclesat.symmetry import Diagonal, fixes_diagonal, representative_diagonals


def models_of(clauses, num_vars):
    out = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = (None,) + bits
        if all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            out.append(bits)
    return out


@pytest.mark.parametrize("method", ["binary", "commander"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 9])
def test_exactly_one_truth_table(method, m):
    alloc = VarAllocator(m + 1)
    clauses = exactly_one(list(range(1, m + 1)), method, alloc)
    num_vars = alloc.next_var - 1
    models = models_of(clauses, num_vars)
    projections = sorted(set(bits[:m] for bits in models))
    assert projections == sorted(tuple(i == k for i in range(m)) for k in range(m))


@pytest.mark.parametrize("m", range(2, 12))
def test_binary_exactly_one_needs_bits_only_above_seven(m):
    alloc = VarAllocator(m + 1)
    clauses = exactly_one(list(range(1, m + 1)), "binary", alloc)
    aux = alloc.next_var - (m + 1)
    nbits = math.ceil(math.log2(m))
    if m <= 7:
        assert aux == 0
        assert len(clauses) == 1 + m * (m - 1) // 2 <= 1 + m * nbits
    else:
        assert aux == nbits
        assert len(clauses) == 1 + m * nbits


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


@pytest.mark.parametrize("n", range(2, 8))
def test_heads_only_for_k_outside_the_pair(n):
    # binary writes every group up to n = 7 without auxiliaries, so the
    # variables are the matrix and the heads y(i,j,k,b), i < j, k not in {i, j}
    heads = math.comb(n, 2) * (n - 2) * n
    for diag in representative_diagonals(n):
        cnf = encode_axioms(n, diag, "binary")
        assert cnf.num_vars == cnf.varmap.num_matrix_vars + heads, diag.label()


def test_direct_clauses_are_the_diagonal_instances_of_the_equation():
    # The clauses over matrix variables alone are the cell and row
    # ExactlyOne clauses, which every matrix below satisfies, and the
    # direct clauses for k in {i, j}: a matrix must satisfy them exactly
    # when C[C[x,y], C[x,z]] = C[C[y,x], C[y,z]] holds for z in {x, y}.
    for n in (3, 4):
        for diag in representative_diagonals(n):
            cnf = encode_axioms(n, diag, "binary")
            vm = cnf.varmap
            matrix_only = [cl for cl in cnf.clauses if all(abs(l) <= vm.num_matrix_vars for l in cl)]
            t = diag.values()
            rows = [[p for p in itertools.permutations(range(1, n + 1)) if p[i] == t[i]] for i in range(n)]
            outcomes = set()
            for choice in itertools.product(*rows):
                c = CycleSet.from_rows(choice)
                true = set(matrix_literals(c, vm))
                satisfied = all(any(l in true for l in cl) for cl in matrix_only)
                e = c.entry
                holds = all(e(e(x, y), e(x, z)) == e(e(y, x), e(y, z))
                            for x in range(1, n + 1) for y in range(1, n + 1) for z in (x, y))
                assert satisfied == holds, (diag.label(), c.to_line())
                outcomes.add(holds)
            assert outcomes == {False, True}, diag.label()


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
            cnf = encode_axioms(n, diag, method)
            symmetry, _ = lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)
            for cl in cnf.clauses + symmetry:
                assert len(set(cl)) == len(cl), (n, diag.label(), cl)



@pytest.mark.parametrize("method", ["binary", "commander"])
def test_no_clause_holds_a_binary_clause(method):
    # such a clause holds wherever the binary clause does
    for n in range(2, 7):
        for diag in representative_diagonals(n):
            clauses = encode_axioms(n, diag, method).clauses
            binary = {frozenset(cl) for cl in clauses if len(cl) == 2}
            for cl in clauses:
                if len(cl) > 2:
                    assert not any(frozenset(pair) in binary for pair in itertools.combinations(cl, 2)), \
                        (n, diag.label(), cl)

def breaking_family(diag):
    """Aligned swaps of equal-length cycles and one-step cycle rotations,
    each cycle written from its least element."""
    n = diag.n
    cycles = []
    for x in range(1, n + 1):
        if all(x not in c for c in cycles):  # the least element of its cycle
            cycle = [x]
            while diag.value(cycle[-1]) != x:
                cycle.append(diag.value(cycle[-1]))
            cycles.append(cycle)
    family = []
    for ca, cb in itertools.combinations(cycles, 2):
        if len(ca) == len(cb):
            swap = dict(zip(ca, cb)) | dict(zip(cb, ca))
            family.append(Permutation(swap.get(x, x) for x in range(1, n + 1)))
    for cyc in cycles:
        if len(cyc) > 1:
            family.append(Permutation(diag.value(x) if x in cyc else x for x in range(1, n + 1)))
    return family


def symmetry_broken_solver(n, diag):
    cnf = encode_axioms(n, diag)
    symmetry, num_vars = lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)
    assert num_vars >= cnf.num_vars
    solver = Solver(num_vars, num_static=cnf.varmap.num_matrix_vars)
    solver.add_cnf(cnf.clauses)
    solver.add_cnf(symmetry)
    return solver, cnf.varmap


def test_lex_leader_clauses_keep_exactly_the_family_leaders():
    # every diagonal of every size <= 4, not only the representatives, so
    # fixed points also sit between moved points
    by_diag = {}
    for n in (2, 3, 4):
        for c in brute_force_all(n):
            by_diag.setdefault(c.diagonal_values(), []).append(c)
    for values, mats in by_diag.items():
        diag = Diagonal.from_values(values)
        solver, varmap = symmetry_broken_solver(diag.n, diag)
        family = breaking_family(diag)
        assert all(fixes_diagonal(tau, diag) for tau in family)
        for c in mats:
            leader = all(apply_permutation(tau, c).entries >= c.entries for tau in family)
            decisions = solver.decisions
            status = solver.solve(matrix_literals(c, varmap)).status
            assert status == ("sat" if leader else "unsat"), (diag.label(), c.to_line())
            # the matrix fixes every chain variable: nothing is left to branch on
            assert solver.decisions == decisions


def perturbed_fixed_matrix(diag, tau, rng):
    """A matrix with the diagonal's values that tau maps to itself, then one
    cell redrawn at random; None if some cell has no value tau allows.

    tau(M) = M means M[tau c] = tau(M[c]) on every cell, so the comparison
    of M with tau(M) runs equal up to the redrawn cell.  These are not
    cycle sets: the chains compare any matrix, and on cycle sets of small
    size they rarely get that far."""
    n = diag.n
    entries = {(i, i): diag.value(i) for i in range(1, n + 1)}
    for c in itertools.product(range(1, n + 1), repeat=2):
        if c in entries:
            continue
        orbit = [c]
        while (nxt := (tau(orbit[-1][0]), tau(orbit[-1][1]))) != c:
            orbit.append(nxt)
        # going round the orbit applies tau once per cell to the value
        allowed = [k for k in range(1, n + 1)
                   if k != diag.value(c[0]) and functools.reduce(lambda x, _: tau(x), orbit, k) == k]
        if not allowed:
            return None
        k = rng.choice(allowed)
        for cell in orbit:
            entries[cell] = k
            k = tau(k)
    i, j = rng.choice([c for c in entries if c[0] != c[1]])
    entries[(i, j)] = rng.choice([k for k in range(1, n + 1) if k != diag.value(i)])
    return CycleSet(n, [entries[(i, j)] for i in range(1, n + 1) for j in range(1, n + 1)])


def test_lex_leader_clauses_compare_any_matrix_exactly():
    # the clauses alone, with the chain variables right after the matrix
    # variables, on matrices a family member maps almost to themselves
    rng = random.Random(0)
    diagonals = [d for n in (3, 4, 5, 6) for d in representative_diagonals(n)]
    diagonals += [Diagonal.parse(text, 6) for text in ("(2 5 4)(3 6)", "(1 4)(2 6)", "(3 6 5 4)")]
    for diag in diagonals:
        vm = encode_axioms(diag.n, diag).varmap
        clauses, num_vars = lex_leader_clauses(vm, vm.num_matrix_vars + 1)
        solver = Solver(num_vars, num_static=vm.num_matrix_vars)
        solver.add_cnf(clauses)
        family = breaking_family(diag)
        for tau in family:
            for _ in range(15):
                m = perturbed_fixed_matrix(diag, tau, rng)
                if m is None:
                    break
                leader = all(apply_permutation(t, m).entries >= m.entries for t in family)
                status = solver.solve(matrix_literals(m, vm)).status
                assert status == ("sat" if leader else "unsat"), (diag.label(), m.to_line())
        assert solver.decisions == 0


def test_lex_leader_clauses_keep_every_n5_representative():
    for diag in representative_diagonals(5):
        solver, varmap = symmetry_broken_solver(5, diag)
        reps = [c for c in brute_force_diagonal(5, diag) if is_lex_min(c, diag)]
        assert reps
        for c in reps:
            assert solver.solve(matrix_literals(c, varmap)).status == "sat", (diag.label(), c.to_line())


def test_lex_leader_clauses_number_chain_variables_from_first_var():
    cnf = encode_axioms(4, Diagonal.identity(4))
    first = cnf.num_vars + 1
    clauses, num_vars = lex_leader_clauses(cnf.varmap, first)
    new = {abs(l) for cl in clauses for l in cl if abs(l) > cnf.varmap.num_matrix_vars}
    assert new == set(range(first, num_vars + 1))
    # (1 2 3)(4) has no two cycles of equal length: its only chain is the
    # rotation's, which is no involution and so compares all 12 off-diagonal
    # cells, with a chain variable after each but the last
    rotated = encode_axioms(4, Diagonal.parse("(1 2 3)", 4))
    assert lex_leader_family(rotated.varmap.diagonal) == [[0, 2, 3, 1, 4]]
    clauses, num_vars = lex_leader_clauses(rotated.varmap, rotated.num_vars + 1)
    assert clauses and num_vars == rotated.num_vars + 11


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


# sha256 over every representative diagonal of the size, in
# `representative_diagonals` order, of the axiom DIMACS, the variable map,
# the lex-leader clauses with their variable count, and the clauses the
# incremental check's instance loads with its variable count.  A change to
# how any of these instances is built must leave them byte-identical, or
# say why they move.
PINNED_CNF_DIGESTS = {
    (2, "binary"): "cee7ec21148c12f8fe153ad859bafe9d96e7a6684e9cda21eb6951872ea77ebb",
    (2, "commander"): "cee7ec21148c12f8fe153ad859bafe9d96e7a6684e9cda21eb6951872ea77ebb",
    (3, "binary"): "8163b03438a3c28eccb513f17578f6fbf05ecc448c351bc7ffc24c5649f709f2",
    (3, "commander"): "8163b03438a3c28eccb513f17578f6fbf05ecc448c351bc7ffc24c5649f709f2",
    (4, "binary"): "8e0f6344cb7138082a567e7cb47ea801ea433f64d4e934ec57af201b7fe23060",
    (4, "commander"): "961420610c505524845116d2b95f572f71d240245cfe4c3431d6a12512646055",
    (5, "binary"): "a0784a8619c56a2c7322ebe0f0c872c16b4f92af9f7dc2831931515ef6d55cfd",
    (5, "commander"): "9323d47874781a2ebb47794fa3845659a64457c0ed345288870a88a9d34b5c98",
    (6, "binary"): "a7de419fe51e298c48471168c6827963ea7071be4b6939dd8ff19391754077d0",
    (6, "commander"): "a3a5674906d87fca3a4eacaadba280db085cd281d0917b4d7d623d51a23470d1",
}


@pytest.mark.parametrize("n, method", sorted(PINNED_CNF_DIGESTS))
def test_cnfs_are_pinned(n, method, monkeypatch):
    loaded = []
    add_cnf = Solver.add_cnf

    def recording(self, clauses):
        clauses = [list(cl) for cl in clauses]
        loaded.append(clauses)
        return add_cnf(self, clauses)

    monkeypatch.setattr(Solver, "add_cnf", recording)
    h = hashlib.sha256()
    for diag in representative_diagonals(n):
        cnf = encode_axioms(n, diag, method)
        h.update(cnf.to_dimacs().encode())
        h.update(cnf.varmap.sidecar_text().encode())
        h.update(repr(lex_leader_clauses(cnf.varmap, cnf.num_vars + 1)).encode())
        loaded.clear()
        inst = OracleInstance(diag, method)
        h.update(repr((loaded, inst.num_vars)).encode())
    assert h.hexdigest() == PINNED_CNF_DIGESTS[(n, method)]

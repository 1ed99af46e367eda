import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesat.cycleset import satisfies_axioms
from cyclesat.cycloid import CycloidPropagator
from cyclesat.encoding import decode_model, encode_axioms, matrix_literals
from cyclesat.oracle import brute_force_all, brute_force_diagonal
from cyclesat.solver import Solver
from cyclesat.symmetry import Diagonal, representative_diagonals


def lazy_solver(n, diag, method="binary"):
    """The search's solver for the diagonal: the lean axiom CNF with the
    cycloid propagator, no symmetry breaking."""
    cnf = encode_axioms(n, diag, method)
    solver = Solver(cnf.num_vars, num_static=cnf.varmap.num_matrix_vars)
    prop = CycloidPropagator(cnf.varmap, solver)
    solver.attach_propagator(prop)
    solver.add_cnf(cnf.clauses)
    return solver, prop, cnf.varmap


def enumerate_models(solver, varmap, assumptions=()):
    """Every cycle set the solver accepts under the assumptions, each
    blocked on its matrix variables once found."""
    found = []

    def record_and_block(model):
        found.append(decode_model(model, varmap))
        return [-var for var in range(1, varmap.num_matrix_vars + 1) if model[var]]

    solver.solve(assumptions, on_complete=record_and_block)
    return found


@lru_cache(maxsize=None)
def labelled(n):
    """Every cycle set of size n, by diagonal."""
    by_diag = {}
    for c in brute_force_all(n):
        by_diag.setdefault(c.diagonal_values(), []).append(c)
    return by_diag


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_every_diagonal_up_to_n4_enumerates_the_brute_force_cycle_sets(method):
    # all n! diagonals, so fixed points also sit between moved points
    for n in (2, 3, 4):
        for values in itertools.permutations(range(1, n + 1)):
            diag = Diagonal.from_values(list(values))
            solver, _, varmap = lazy_solver(n, diag, method)
            got = sorted(enumerate_models(solver, varmap))
            assert got == sorted(labelled(n).get(values, [])), (diag.label(), method)
            assert all(satisfies_axioms(c) for c in got)


@pytest.mark.parametrize("method", ["binary", "commander"])
def test_every_n5_representative_enumerates_the_brute_force_cycle_sets(method):
    for diag in representative_diagonals(5):
        solver, prop, varmap = lazy_solver(5, diag, method)
        got = sorted(enumerate_models(solver, varmap))
        assert got == sorted(brute_force_diagonal(5, diag)), (diag.label(), method)
        assert prop.checks > 0


def dimacs(enc):
    return -(enc >> 1) if enc & 1 else enc >> 1


@lru_cache(maxsize=None)
def true_literal_sets(values):
    diag = Diagonal.from_values(values)
    varmap = encode_axioms(diag.n, diag).varmap
    return [frozenset(matrix_literals(c, varmap)) for c in brute_force_diagonal(diag.n, diag)]


def assert_equation_holds_where_decided(solver, varmap):
    """Every triple with its four outer cells set has inner cells that are
    both unknown or equal."""
    val = solver._val
    diag = varmap.diagonal

    def cell_value(i, j):
        if i == j:
            return diag.value(i)
        return next((k for k, var in varmap.cell_vars(i, j) if val[var << 1] == 1), None)

    for r, s, k in itertools.permutations(range(1, varmap.n + 1), 3):
        outer = [cell_value(r, s), cell_value(r, k), cell_value(s, r), cell_value(s, k)]
        if None not in outer:
            x, y, x2, y2 = outer
            assert cell_value(x, y) == cell_value(x2, y2), (r, s, k)


def test_an_inner_cell_known_last_implies_the_other():
    # C[1,2] = 3, then C[5,1] = 4: propagation sets every outer cell of the
    # triple (1, 5, 2) before one of its inner cells, which only the
    # inner-cell visit then carries over to the other
    diag = Diagonal.parse("(1 2 3 4)", 5)
    solver, prop, varmap = lazy_solver(5, diag)
    for i, j, k in ((1, 2, 3), (5, 1, 4)):
        solver._new_level()
        solver._enqueue(varmap.matrix_var(i, j, k) << 1, None)
        assert solver._propagate() is None
    assert_equation_holds_where_decided(solver, varmap)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_partial_assignments(data):
    # decisions at random, each propagated: every reason clause starts with
    # its implied literal, every conflict clause is all false, each holds on
    # every cycle set of the diagonal, and at every fixpoint a triple with
    # its four outer cells set has inner cells both unknown or equal
    n = data.draw(st.sampled_from([3, 4, 5]), label="n")
    if n < 5:
        diag = Diagonal.from_values(data.draw(st.permutations(range(1, n + 1)), label="diagonal"))
    else:
        # the inner-cell visits decide nothing below n = 5
        diag = data.draw(st.sampled_from(representative_diagonals(5)), label="diagonal")
    values = diag.values()
    solver, prop, varmap = lazy_solver(n, diag)
    val = solver._val
    explanations = []
    propagate = prop.propagate

    def checked(p):
        start = len(solver._trail)
        confl = propagate(p)
        for enc in solver._trail[start:]:
            reason = solver._reason[enc >> 1]
            assert reason[0] == enc and val[enc] == 1
            assert all(val[q] == -1 for q in reason[1:]), reason
            explanations.append(reason)
        if confl is not None:
            assert all(val[q] == -1 for q in confl), confl
            explanations.append(confl)
        return confl

    prop.propagate = checked
    lit = st.tuples(st.integers(1, varmap.num_matrix_vars), st.sampled_from([True, True, False]))
    for var, positive in data.draw(st.lists(lit, min_size=1, max_size=2 * n * n), label="decisions"):
        enc = var << 1 if positive else var << 1 | 1
        if val[enc] != 0:
            continue
        solver._new_level()
        solver._enqueue(enc, None)
        if solver._propagate() is not None:
            break
        assert_equation_holds_where_decided(solver, varmap)
    for clause in explanations:
        assert len(set(clause)) == len(clause), clause
        lits = [dimacs(q) for q in clause]
        assert all(any(l in true for l in lits) for true in true_literal_sets(values)), lits


def test_attach_before_loading_clauses():
    diag = Diagonal.identity(3)
    cnf = encode_axioms(3, diag)
    solver = Solver(cnf.num_vars)
    solver.add_cnf(cnf.clauses)
    with pytest.raises(ValueError):
        solver.attach_propagator(CycloidPropagator(cnf.varmap, solver))


def test_solver_stats_carry_the_propagator_counters():
    solver, prop, varmap = lazy_solver(4, Diagonal.identity(4))
    assert len(enumerate_models(solver, varmap)) == len(labelled(4)[(1, 2, 3, 4)])
    counters = {k: v for k, v in solver.stats().items() if k.startswith("cycloid_")}
    assert counters == {"cycloid_checks": prop.checks, "cycloid_implied": prop.implied,
                        "cycloid_conflicts": prop.conflicts}
    assert prop.checks > 0 and prop.implied > 0
    assert "cycloid_checks" not in Solver(1).stats()

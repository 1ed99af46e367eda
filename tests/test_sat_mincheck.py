import itertools
import random

import pytest

from cyclesat.cycleset import CycleSet, Permutation, apply_permutation, strictly_below
from cyclesat.errors import ShapeMismatchError
from cyclesat.mincheck import Minimal, Witness
from cyclesat.oracle import brute_force_all, is_lex_min
from cyclesat.run import RunConfig, enumerate_diagonal
from cyclesat.sat_mincheck import RECENT_WITNESSES, OracleInstance, check
from cyclesat.symmetry import Diagonal, fixes_diagonal, representative_diagonals
from test_mincheck import complete_partial


def test_n2_identity_lexmin_is_unsat():
    inst = OracleInstance(2, Diagonal.identity(2))
    out = check(complete_partial(CycleSet.from_rows([[1, 2], [1, 2]])), inst)
    assert isinstance(out, Minimal)


def test_complete_kind_matches_ground_truth_small():
    for n in (2, 3, 4):
        for diag in representative_diagonals(n):
            inst = OracleInstance(n, diag)
            for c in brute_force_all(n):
                if c.diagonal_values() != diag.values():
                    continue
                out = check(complete_partial(c), inst)
                assert isinstance(out, Minimal) == is_lex_min(c, diag), c.to_line()
                if isinstance(out, Witness):
                    assert fixes_diagonal(out.perm, diag)
                    assert apply_permutation(out.perm, c).entries < c.entries


def test_instance_reuse_is_sound():
    rnd = random.Random(29)
    n = 4
    all_mats = brute_force_all(n)
    for diag in representative_diagonals(n):
        inst = OracleInstance(n, diag)
        mats = [c for c in all_mats if c.diagonal_values() == diag.values()]
        seq = mats * 2
        rnd.shuffle(seq)
        for c in seq:
            out = check(complete_partial(c), inst)
            assert isinstance(out, Minimal) == is_lex_min(c, diag), c.to_line()
            if isinstance(out, Witness):
                assert fixes_diagonal(out.perm, diag)
                assert apply_permutation(out.perm, c).entries < c.entries


def test_recent_witness_answers_without_solving():
    diag = Diagonal.identity(4)
    mats = [c for c in brute_force_all(4) if c.diagonal_values() == diag.values()]
    inst = OracleInstance(4, diag)
    first = next(c for c in mats if not is_lex_min(c, diag))
    out = check(complete_partial(first), inst)
    assert isinstance(out, Witness)
    pi = out.perm
    second = next(c for c in mats if c != first and apply_permutation(pi, c).entries < c.entries)
    p = complete_partial(second)
    before = inst.solver.stats()
    assert inst.recent_hits == 0
    again = check(p, inst)
    assert inst.solver.stats() == before
    assert inst.recent_hits == 1
    assert isinstance(again, Witness)
    assert again.perm == pi
    assert again.cell == strictly_below(apply_permutation(pi, p), p)


def test_minimal_after_recent_witnesses_fill():
    # n=5 identity: relabelled representatives are non-minimal and fill the
    # list; the representatives themselves must still be proven minimal
    diag = Diagonal.identity(5)
    reps, _ = enumerate_diagonal(RunConfig(n=5, backend="backtrack"), diag)
    inst = OracleInstance(5, diag)
    perms = [Permutation(list(t)) for t in itertools.permutations(range(1, 6))]
    rnd = random.Random(1)
    for c in reps:
        for pi in rnd.sample(perms, 3):
            img = apply_permutation(pi, c)
            if not is_lex_min(img, diag):
                assert isinstance(check(complete_partial(img), inst), Witness)
        if len(inst.recent) == RECENT_WITNESSES:
            break
    assert len(inst.recent) == RECENT_WITNESSES
    for c in reps:
        assert isinstance(check(complete_partial(c), inst), Minimal), c.to_line()


def test_complete_check_rejects_partial_input():
    # partial states go to the backtracking search; the oracle refuses them
    from test_cycleset import paper_partial

    inst = OracleInstance(3, Diagonal.parse("(1 2)", 3))
    with pytest.raises(ValueError, match="fully defined"):
        check(paper_partial(), inst)


def test_assumption_layout():
    n = 3
    diag = Diagonal.parse("(1 2)", n)
    inst = OracleInstance(n, diag)
    c = CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]])
    asm = inst.assumptions_for(complete_partial(c))
    positives = [l for l in asm if l > 0]
    assert len(positives) == n * (n - 1)
    assert len(asm) == n * (n - 1) * (n - 1)


def test_shape_mismatch():
    inst = OracleInstance(3, Diagonal.identity(3))
    with pytest.raises(ShapeMismatchError):
        inst.assumptions_for(complete_partial(CycleSet.from_rows([[1, 2], [1, 2]])))
    wrong_diag = complete_partial(CycleSet.from_rows([[2, 1, 3], [2, 1, 3], [1, 2, 3]]))
    with pytest.raises(ShapeMismatchError):
        inst.assumptions_for(wrong_diag)

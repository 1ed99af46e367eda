import itertools
import random

import pytest

from cyclesat.cycleset import CycleSet, Permutation, apply_permutation
from cyclesat.errors import ShapeMismatchError
from cyclesat.mincheck import Minimal, Witness
from cyclesat.oracle import brute_force_all, is_lex_min
from cyclesat.run import RunConfig, enumerate_diagonal
from cyclesat.sat_mincheck import OracleInstance, check
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


def test_minimal_after_witnesses_on_the_same_instance():
    # n=5 identity: relabelled representatives are non-minimal; after at
    # least 8 witnesses, whose learned clauses the instance keeps, the
    # representatives must still be proven minimal
    diag = Diagonal.identity(5)
    reps, _ = enumerate_diagonal(RunConfig(n=5, backend="backtrack"), diag)
    inst = OracleInstance(5, diag)
    perms = [Permutation(list(t)) for t in itertools.permutations(range(1, 6))]
    rnd = random.Random(1)
    witnesses = 0
    for c in reps:
        for pi in rnd.sample(perms, 3):
            img = apply_permutation(pi, c)
            if not is_lex_min(img, diag):
                assert isinstance(check(complete_partial(img), inst), Witness)
                witnesses += 1
        if witnesses >= 8:
            break
    assert witnesses >= 8
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

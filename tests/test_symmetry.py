import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesat.cycleset import PartialCycleSet, Permutation
from cyclesat.errors import SizeLimitError
from cyclesat.mincheck import _Search
from cyclesat.symmetry import (
    Diagonal,
    centralizer,
    diagonal_from_partition,
    fixes_diagonal,
    integer_partitions,
    partition_count,
    representative_diagonals,
)


def test_partitions_small():
    assert integer_partitions(1) == [[1]]
    assert integer_partitions(4) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert len(integer_partitions(10)) == 42


def test_partition_count_recurrence_agrees():
    for n in range(1, 13):
        assert len(integer_partitions(n)) == partition_count(n)


def test_partitions_size_guard():
    with pytest.raises(SizeLimitError):
        integer_partitions(17)


def test_diagonal_from_partition_labels():
    n = 6
    assert diagonal_from_partition([1] * n).label() == "id"
    assert diagonal_from_partition([2] + [1] * (n - 2)).label() == "(1 2)"
    assert diagonal_from_partition([2, 2] + [1] * (n - 4)).label() == "(1 2)(3 4)"
    d = diagonal_from_partition([2, 2, 1])
    assert d.cycles[:2] == ((1, 2), (3, 4))
    assert d.values() == (2, 1, 4, 3, 5)


def test_diagonal_parse_roundtrip():
    for text in ("id", "(1 2)", "(1 2)(3 4)", "(1 2 3)(4 5)"):
        d = Diagonal.parse(text, 6)
        assert Diagonal.parse(d.label(), 6) == d
    with pytest.raises(ValueError):
        Diagonal.parse("(1 2", 4)
    with pytest.raises(ValueError):
        Diagonal.parse("(1 9)", 4)


def test_representatives_cover_all_classes():
    for n in range(2, 7):
        reps = representative_diagonals(n)
        assert len(reps) == partition_count(n)
        types = {d.cycle_type() for d in reps}
        assert len(types) == len(reps)  # pairwise non-conjugate
        all_types = {
            Diagonal.from_values(p).cycle_type()
            for p in itertools.permutations(range(1, n + 1))
        }
        assert types == all_types  # exhaust the conjugacy classes


def test_centralizer_order_counts_the_centralizer():
    for n in range(2, 7):
        for d in representative_diagonals(n):
            assert d.centralizer_order() == len(list(centralizer(d))), d.label()


def test_fixes_diagonal_examples():
    t = Diagonal(3, [(1,), (2,), (3,)])
    assert fixes_diagonal(Permutation.identity(3), t)
    # the worked 6-element case: diagonal (2 3 1)(5 6 4), pi(1)=6 extended
    t6 = Diagonal(6, [(2, 3, 1), (5, 6, 4)])
    pi = Permutation([6, 4, 5, 3, 1, 2])  # 1->6, 2->4, 3->5 and 4,5,6 back into 1..3
    assert fixes_diagonal(pi, t6)
    t12 = Diagonal.parse("(1 2)", 3)
    assert not fixes_diagonal(Permutation([3, 2, 1]), t12)  # (1 3) does not commute


def test_centralizer_is_group_and_matches_commutation():
    for n in range(2, 6):
        for d in representative_diagonals(n):
            elems = list(centralizer(d))
            byhand = [
                Permutation(p)
                for p in itertools.permutations(range(1, n + 1))
                if fixes_diagonal(Permutation(p), d)
            ]
            assert sorted(e.images for e in elems) == sorted(e.images for e in byhand)
            members = {e.images for e in elems}
            for a in elems:
                assert a.inverse().images in members
            for a in elems[:6]:
                for b in elems[:6]:
                    assert a.compose(b).images in members


# Fixing x -> y in the minimality search propagates the fix round x's cycle
# (mincheck._Search._fix_cycle); the search keeps it as fwd/inv arrays.


def search_state(diag):
    return _Search(PartialCycleSet.unrestricted(diag.n), diag, complete=False, max_nodes=None)


def snapshot(s):
    return list(s.fwd), list(s.inv), list(s.trail)


def test_propagate_cycle_paper_example():
    # diagonal (2 3 1)(5 6 4): fixing 1 -> 6 carries 1's cycle onto 6's
    s = search_state(Diagonal(6, [(2, 3, 1), (5, 6, 4)]))
    s._fix_cycle(1, 6)
    assert (s.fwd[1], s.fwd[3], s.fwd[2]) == (6, 5, 4)
    assert (s.inv[6], s.inv[5], s.inv[4]) == (1, 3, 2)
    # 4's cycle goes onto the one free cycle, 1's, and undoing to the mark
    # removes it whole
    before = snapshot(s)
    s._fix_cycle(4, 1)
    assert (s.fwd[4], s.fwd[5], s.fwd[6]) == (1, 2, 3)
    s._undo(len(before[2]))
    assert snapshot(s) == before


def test_propagate_cycle_identity_fixed_point():
    # on the identity a fixed point is a whole cycle
    s = search_state(Diagonal.identity(4))
    s._fix_cycle(1, 1)
    assert s.trail == [(1, 1)]
    assert s.inv[1] == 1
    s._fix_cycle(2, 3)
    assert s.trail == [(1, 1), (2, 3)]


def test_propagate_cycle_preserves_partition():
    # fwd and inv stay a partial bijection of 1..n onto 1..n
    s = search_state(Diagonal(6, [(1, 2), (3, 4), (5,), (6,)]))
    for x, y in ((1, 3), (5, 6)):
        s._fix_cycle(x, y)
        fixed = [a for a in range(1, 7) if s.fwd[a]]
        assert sorted(s.inv[s.fwd[a]] for a in fixed) == fixed
        assert sum(1 for b in s.inv if b) == len(fixed)
    assert (s.fwd[1], s.fwd[2], s.fwd[5]) == (3, 4, 6)
    assert [a for a in range(1, 7) if s.fwd[a]] == [1, 2, 5]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_random_fix_chains_stay_consistent(n, rnd):
    # the search's calls: an unmapped point onto a classmate that is no image yet
    d = diagonal_from_partition(rnd.choice(integer_partitions(n)))
    s = search_state(d)
    for _ in range(3):
        unfixed = [x for x in range(1, n + 1) if not s.fwd[x]]
        if not unfixed:
            break
        x = rnd.choice(unfixed)
        before = snapshot(s)
        s._fix_cycle(x, rnd.choice([y for y in s.classmates[x] if not s.inv[y]]))
        assert len(s.trail) == len(before[2]) + d.cycle_len(x)
        # a partial bijection that commutes with the diagonal where defined
        fixed = [a for a in range(1, n + 1) if s.fwd[a]]
        assert sorted(s.inv[s.fwd[a]] for a in fixed) == fixed
        assert sum(1 for b in s.inv if b) == len(fixed)
        for a in fixed:
            assert s.fwd[d.value(a)] == d.value(s.fwd[a])
        before = snapshot(s)
        assert fixes_diagonal(s._completion(), d)
        assert snapshot(s) == before

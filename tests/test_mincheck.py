import random

from cyclesat.cycleset import (
    PartialCycleSet,
    apply_permutation,
    mask_of,
    strictly_below,
)
from cyclesat import mincheck
from cyclesat.mincheck import (
    Minimal,
    Propagate,
    Unknown,
    Witness,
    _completion,
    _tables,
    check,
)
from cyclesat.oracle import brute_force_all, brute_force_diagonal, extensions, is_lex_min
from cyclesat.symmetry import (
    Diagonal,
    fixes_diagonal,
    representative_diagonals,
)


def complete_partial(c):
    return PartialCycleSet.from_cycle_set(c)


def random_partial(c, rnd):
    """Relax a complete cycle set: widen random cells to random supersets."""
    n = c.n
    doms = list(complete_partial(c).domains)
    for _ in range(rnd.randrange(1, n + 1)):
        i = rnd.randrange(1, n + 1)
        j = rnd.randrange(1, n + 1)
        if i == j:
            continue
        extra = rnd.randrange(1, 1 << n) & ~mask_of([c.diagonal_values()[i - 1]])
        if extra:
            doms[(i - 1) * n + (j - 1)] |= extra
    return PartialCycleSet(n, doms)


def search_state(diag):
    """The search's tables for `diag` and its state before any fix."""
    return _tables(diag), [0] * (diag.n + 1), [0] * (diag.n + 1)


def test_completion_lies_in_centralizer():
    for n in range(2, 6):
        for d in representative_diagonals(n):
            assert fixes_diagonal(_completion(*search_state(d)), d)


def test_complete_checks_match_exhaustive_search_small():
    # n <= 4 from every cycle set, n = 5 per representative diagonal
    for n in (2, 3, 4, 5):
        for diag in representative_diagonals(n):
            if n <= 4:
                matrices = [c for c in brute_force_all(n) if c.diagonal_values() == diag.values()]
            else:
                matrices = sorted(brute_force_diagonal(n, diag))
            for c in matrices:
                out = check(complete_partial(c), diag, complete=True)
                if is_lex_min(c, diag):
                    assert isinstance(out, Minimal), c.to_line()
                else:
                    assert isinstance(out, Witness), c.to_line()
                    assert fixes_diagonal(out.perm, diag)
                    image = apply_permutation(out.perm, c)
                    assert image.entries < c.entries


def test_n2_lex_min_is_minimal():
    from cyclesat.cycleset import CycleSet

    out = check(complete_partial(CycleSet.from_rows([[1, 2], [1, 2]])), Diagonal.identity(2), complete=True)
    assert isinstance(out, Minimal)


def test_budget_exhaustion_returns_unknown(monkeypatch):
    monkeypatch.setattr(mincheck, "PARTIAL_NODE_LIMIT", 1)
    n = 5
    diag = Diagonal.identity(n)
    full = PartialCycleSet(n, [
        mask_of([i]) if i == j else mask_of(set(range(1, n + 1)) - {i})
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ])
    nodes = {"complete": 0, "partial": 0}
    out = check(full, diag, complete=False, nodes=nodes)
    assert isinstance(out, (Unknown, Witness, Propagate))
    # never Minimal under a truncating budget: the search tree has branches
    assert not isinstance(out, Minimal)
    if isinstance(out, Unknown):
        # the node past the limit is counted, and no fix is made for it
        assert nodes == {"complete": 0, "partial": 2}


def test_witness_on_partial_orders_all_extensions():
    # Thm-style soundness: a partial witness lowers every extension pair
    rnd = random.Random(11)
    for n in (3, 4):
        diag_sets = {
            d.values(): [c for c in brute_force_all(n) if c.diagonal_values() == d.values()]
            for d in representative_diagonals(n)
        }
        for d in representative_diagonals(n):
            for c in diag_sets[d.values()]:
                for _ in range(4):
                    p = random_partial(c, rnd)
                    out = check(p, d, complete=False)
                    if isinstance(out, Witness):
                        image = apply_permutation(out.perm, p)
                        assert strictly_below(image, p) is not None
                        for ext in extensions(p):
                            mapped = apply_permutation(out.perm, ext)
                            assert mapped.entries < ext.entries


def test_propagate_literal_negation_creates_witness():
    rnd = random.Random(23)
    found = 0
    for n in (3, 4):
        for d in representative_diagonals(n):
            mats = [c for c in brute_force_all(n) if c.diagonal_values() == d.values()]
            for c in mats:
                for _ in range(3):
                    p = random_partial(c, rnd)
                    out = check(p, d, complete=False)
                    if not isinstance(out, Propagate):
                        continue
                    found += 1
                    refined = p.with_domain(out.cell, p.domain(*out.cell) & ~(1 << (out.value - 1)))
                    image = apply_permutation(out.perm, refined)
                    assert strictly_below(image, refined) is not None
    assert found > 10


def test_minimal_verdicts_never_lie_on_partials():
    # if the partial check says Minimal, no centralizer witness may exist
    rnd = random.Random(5)
    from cyclesat.symmetry import centralizer

    for n in (3, 4):
        for d in representative_diagonals(n):
            mats = [c for c in brute_force_all(n) if c.diagonal_values() == d.values()]
            for c in mats:
                p = random_partial(c, rnd)
                out = check(p, d, complete=False)
                if isinstance(out, Minimal):
                    for pi in centralizer(d):
                        assert strictly_below(apply_permutation(pi, p), p) is None

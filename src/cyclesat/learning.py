"""Breaking, propagation, and blocking clauses, plus ExactlyOne shortening.

A witness permutation pi with strict cell c yields a breaking clause: to
ever escape the bound again, either the image cell of some compared cell
must take a larger value or the cell itself a smaller one.  All literals
of that raw clause are positive matrix literals and all are false under
the assignment that triggered the check, so the engine backtracks.

Shortening uses the two ExactlyOne families of the encoding (one value per
cell, one occurrence per row and value): all-but-one positives of a group
collapse into the negation of the missing member, and positives of a group
are absorbed by a present negation of a sibling.
"""

from __future__ import annotations

from .cycleset import (
    Cell,
    CycleSet,
    PartialCycleSet,
    Permutation,
    apply_permutation,
    mask_min,
    strictly_below,
)
from .encoding import VarMap
from .errors import EmptyDomainError, NotAWitnessError, NotPropagatingError
from .mincheck import CellLiteral

Clause = list[int]


def breaking_clause(p: PartialCycleSet, pi: Permutation, cell: Cell, varmap: VarMap) -> Clause:
    """The clause learned from a witness, before optimization.

    One threshold per compared cell, its lower bound a = min P_cell: either
    the image cell takes pi(x) for some x above the threshold (x > a before
    the strict cell, x >= a at it) or the cell itself takes a value below
    it (x < a).  An assignment falsifying the whole clause therefore has
    pi(M) <= M on every cell before `cell` and pi(M) < M there, so it is
    not lexicographically minimal; and every literal is false under any
    assignment inducing p, which forces the solver to move.
    """
    if strictly_below(apply_permutation(pi, p), p) != cell:
        raise NotAWitnessError(f"{pi} is not a witness at {cell}")
    n = p.n
    lits: list[int] = []
    seen: set[int] = set()

    def emit(i: int, j: int, k: int):
        var = varmap.matrix_var(i, j, k)
        if var is not None and var not in seen:
            seen.add(var)
            lits.append(var)

    def bounds_for(cur: Cell, strict_cell: bool):
        i, j = cur
        pi_i, pi_j = pi(i), pi(j)
        low = mask_min(p.domain(i, j))
        start = low if strict_cell else low + 1
        for x in range(start, n + 1):
            emit(pi_i, pi_j, pi(x))
        for x in range(1, low):
            emit(i, j, x)

    for prev in _cells_before(cell, n):
        bounds_for(prev, strict_cell=False)
    bounds_for(cell, strict_cell=True)
    return lits


def _cells_before(cell: Cell, n: int):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) == cell:
                return
            yield (i, j)


def _groups_of(var: int, varmap: VarMap):
    triple = varmap.triple_of(var)
    if triple is None:
        return
    i, j, k = triple
    yield tuple(v for _, v in varmap.cell_vars(i, j))
    yield tuple(v for _, v in varmap.row_value_vars(i, k))


def optimize_clause(clause: Clause, varmap: VarMap) -> Clause:
    """Shorten a matrix-variable clause modulo the ExactlyOne structure.

    Idempotent; the result has the same models relative to the axiom
    encoding and is never longer than the input.
    """
    lits: list[int] = []
    present: set[int] = set()
    for l in clause:
        if l not in present:
            present.add(l)
            lits.append(l)
    changed = True
    while changed:
        changed = False
        pos = {l for l in lits if l > 0}
        # a negated member absorbs the other positives of its groups
        for l in [l for l in lits if l < 0]:
            for group in _groups_of(-l, varmap):
                drop = {v for v in group if v != -l and v in pos}
                if drop:
                    lits = [x for x in lits if x not in drop]
                    present.difference_update(drop)
                    pos.difference_update(drop)
                    changed = True
        # all-but-one positives of a group become the missing negation
        for l in list(lits):
            if l < 0 or l not in pos:
                continue
            for group in _groups_of(l, varmap):
                missing = [v for v in group if v not in pos]
                if len(missing) != 1:
                    continue
                neg = -missing[0]
                new_lits = []
                inserted = neg in present
                for x in lits:
                    if x > 0 and x in group:
                        if not inserted:
                            new_lits.append(neg)
                            inserted = True
                        present.discard(x)
                        pos.discard(x)
                    else:
                        new_lits.append(x)
                present.add(neg)
                lits = new_lits
                changed = True
                break
    return lits


def propagation_clause(
    p: PartialCycleSet,
    pi: Permutation,
    cell: Cell,
    literal: CellLiteral,
    varmap: VarMap,
) -> Clause:
    """Clause that is unit under the inducing assignment, propagating `literal`.

    Built as the breaking clause of p refined with the literal's negation;
    raises NotPropagating when that refinement is not a witness situation or
    the resulting clause is not unit on the literal.
    """
    target_var = varmap.matrix_var(literal.cell[0], literal.cell[1], literal.value)
    if target_var is None:
        raise NotPropagatingError(f"no variable for {literal}")
    mask = p.domain(*literal.cell)
    bit = 1 << (literal.value - 1)
    if not mask & bit:
        raise NotPropagatingError("literal value is not in the cell's domain")
    try:
        refined = p.with_domain(literal.cell, mask & ~bit)
    except EmptyDomainError:
        raise NotPropagatingError("cell is already pinned to the literal value") from None
    strict = strictly_below(apply_permutation(pi, refined), refined)
    if strict is None:
        raise NotPropagatingError("negating the literal does not create a witness")
    clause = breaking_clause(refined, pi, strict, varmap)
    open_lits = []
    for var in clause:
        i, j, k = varmap.triple_of(var)
        if p.domain(i, j) & (1 << (k - 1)):
            open_lits.append(var)
    if open_lits != [target_var]:
        raise NotPropagatingError(f"clause is not unit on {literal}")
    return clause


def blocking_clause(c: CycleSet, varmap: VarMap) -> Clause:
    """Exclude one found solution, shortened by the ExactlyOne structure.

    The negated solution literals, minus the last off-diagonal cell of each
    row: that cell's value is forced by the others through the row
    ExactlyOne constraints, so the literal is redundant.  Empty for n = 2,
    where the diagonal determines everything.
    """
    n = c.n
    lits: list[int] = []
    for i in range(1, n + 1):
        cols = [j for j in range(1, n + 1) if j != i]
        for j in cols[:-1]:
            var = varmap.matrix_var(i, j, c.entry(i, j))
            if var is None:
                raise NotAWitnessError(f"solution value has no variable at {(i, j)}")
            lits.append(-var)
    return lits

"""Breaking, propagation, and blocking clauses, plus ExactlyOne shortening.

A blocking clause is the negation of the search's decisions at a
reported model.  The decisions fix the model, so the clause excludes it
and no assignment the search has not already excluded; it holds one
literal per decision level, so the solver asserts it without conflict
analysis.

A witness is its permutation pi: `breaking_clause` locates the strict cell
c of pi(p) < p, the one place the witness is verified, and builds the
clause that cuts off p: to ever escape the bound again, either the image
cell of some compared cell must take a larger value or the cell itself a
smaller one.  All literals of that raw clause are positive matrix literals
and all are false under the assignment that triggered the check, so the
engine backtracks.  A propagation clause is the breaking clause of p with
the pinned value dropped from its cell.

Shortening reads a variable's two ExactlyOne groups from
`VarMap.groups_of` (one value per cell, one occurrence per row and value):
all-but-one positives of a group collapse into the negation of the missing
member, and positives of a group are absorbed by a present negation of a
sibling.
"""

from __future__ import annotations

from typing import Sequence

from .cycleset import (
    Cell,
    PartialCycleSet,
    Permutation,
    apply_permutation,
    mask_min,
    strictly_below,
)
from .encoding import VarMap
from .errors import NotAWitnessError

Clause = list[int]


def breaking_clause(p: PartialCycleSet, pi: Permutation, varmap: VarMap) -> Clause:
    """The clause learned from a witness, before optimization.

    Raises NotAWitnessError unless pi(p) is strictly below p.  One
    threshold per compared cell, its lower bound a = min P_cell: either
    the image cell takes pi(x) for some x above the threshold (x > a before
    the strict cell, x >= a at it) or the cell itself takes a value below
    it (x < a).  An assignment falsifying the whole clause therefore has
    pi(M) <= M on every cell before the strict one and pi(M) < M there, so
    it is not lexicographically minimal; and every literal is false under
    any assignment inducing p, which forces the solver to move.
    """
    cell = strictly_below(apply_permutation(pi, p), p)
    if cell is None:
        raise NotAWitnessError(f"{pi} is not a witness")
    n = p.n
    cells = varmap.cells
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

    # pi commutes with the diagonal, so the strict cell is off it, and the
    # diagonal cells before it map to diagonal cells, which carry no variable
    for prev in cells[:cells.index(cell)]:
        bounds_for(prev, strict_cell=False)
    bounds_for(cell, strict_cell=True)
    return lits


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
            for group in varmap.groups_of(-l):
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
            for group in varmap.groups_of(l):
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


def propagation_clause(p: PartialCycleSet, pi: Permutation, cell: Cell, value: int, varmap: VarMap) -> Clause:
    """Clause propagating v(cell, value) under the inducing assignment.

    The breaking clause of p with `value` dropped from `cell`.  Every
    literal of it is false under that refinement, so under p all are false
    but v(cell, value): the clause is unit on it, or falsified.
    """
    return breaking_clause(p.with_domain(cell, p.domain(*cell) & ~(1 << (value - 1))), pi, varmap)


def blocking_clause(decisions: Sequence[int]) -> Clause:
    """Exclude one found solution: the negated decision literals that led
    to it, `Solver.decision_literals` at the full assignment.

    Branching is static and takes the matrix variables first, and a full
    matrix fixes every chain and ExactlyOne auxiliary variable, so every
    decision is a matrix literal.  Propagation, from the axioms, the
    cycloid propagator and the pinned hook clauses, does the rest.  Empty
    when propagation alone fixes the model, as for n = 2.
    """
    return [-l for l in decisions]

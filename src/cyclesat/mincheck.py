"""Backtracking minimality check over partial permutations.

Searches the centralizer of the fixed diagonal for a permutation whose
image of the current (partial) cycle set is lexicographically below it.
The search refines an ordered partition cell by cell in row-major order,
pruning every branch where some cell comparison already exceeds the bound,
and stops at the first strict cell (a witness) or, on partial inputs, at
the first non-strict boundary on an undefined cell (a propagation).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .cycleset import (
    Cell,
    PartialCycleSet,
    Permutation,
    apply_permutation,
    mask_values,
    strictly_below,
)
from .symmetry import Diagonal

# node limit of a partial check; a complete check runs to the end
PARTIAL_NODE_LIMIT = 200


@dataclass(frozen=True)
class Minimal:
    pass


@dataclass(frozen=True)
class Witness:
    """pi(p) is strictly below p; `learning.breaking_clause` finds where."""

    perm: Permutation


@dataclass(frozen=True)
class Propagate:
    """Dropping `value` from `cell` turns `perm` into a witness, so the
    cell must take it."""

    perm: Permutation
    cell: Cell
    value: int


@dataclass(frozen=True)
class Unknown:
    pass


MinCheckOutcome = Union[Minimal, Witness, Propagate, Unknown]


class _BudgetExhausted(Exception):
    pass


class _Tables:
    """What the search reads of one diagonal, built once per diagonal.

    `cycle[x]` is x's cycle read from x, so fixing pi(x) = y maps
    `cycle[x]` onto `cycle[y]` point by point; `classmates[x]` are the
    points of x's cycle length, ascending (only same-length cycles map
    onto each other); `cells` are the off-diagonal cells (i, j, flat
    index), row-major; `row_base[a] + b` is the flat index of cell (a, b);
    `step[y][v]` is the t with `cycle[y][t] == v`, or -1 off y's cycle.
    """

    __slots__ = ("n", "cycle", "classmates", "cells", "row_base", "step")

    def __init__(self, diagonal: Diagonal):
        n = diagonal.n
        self.n = n
        self.cycle = [()] * (n + 1)
        for cyc in diagonal.cycles:
            for t, x in enumerate(cyc):
                self.cycle[x] = cyc[t:] + cyc[:t]
        self.classmates = [[]] + [
            [y for y in range(1, n + 1) if len(self.cycle[y]) == len(self.cycle[x])]
            for x in range(1, n + 1)
        ]
        self.cells = [(i, j, (i - 1) * n + j - 1)
                      for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        self.row_base = [(a - 1) * n - 1 for a in range(n + 1)]
        self.step = [[-1] * (n + 1) for _ in range(n + 1)]
        for y in range(1, n + 1):
            for t, v in enumerate(self.cycle[y]):
                self.step[y][v] = t


@lru_cache(maxsize=64)
def _tables(diagonal: Diagonal) -> _Tables:
    # shared by every check of the diagonal, which only reads them
    return _Tables(diagonal)


def _completion(t: _Tables, fwd: list[int], inv: list[int]) -> Permutation:
    """Greedy diagonal-respecting completion of the fixes in `fwd`/`inv`:
    each unmapped point, ascending, goes with its cycle onto the first
    free point of its class."""
    img, used = fwd[:], inv[:]
    for x in range(1, t.n + 1):
        if not img[x]:
            y = next(y for y in t.classmates[x] if not used[y])
            for a, b in zip(t.cycle[x], t.cycle[y]):
                img[a] = b
                used[b] = a
    return Permutation(img[1:])


def _closure(orbit: int, new: int, gens: list[list[int]]) -> int:
    """The points of `orbit` and `new`, closed under the permutations
    `gens` given `orbit` is closed; point z is bit z."""
    orbit |= new
    while new and gens:
        grown = 0
        while new:
            low = new & -new
            new ^= low
            z = low.bit_length() - 1
            for g in gens:
                w = 1 << g[z]
                if not orbit & w:
                    orbit |= w
                    grown |= w
        new = grown
    return orbit


def _search(p: PartialCycleSet, t: _Tables, complete: bool, nodes: Optional[dict]) -> MinCheckOutcome:
    """Depth-first search over partial centralizer permutations.

    fwd/inv hold the fixes, made a whole cycle at a time, and `trail` the
    fixed points in order; a branching frame undoes back to its mark,
    which also takes back the forced fixes made below it.  Each fixed
    cycle is one node, and a partial check gives up at the node past
    PARTIAL_NODE_LIMIT.  An image cell with one value (every cell of a
    complete check) forces its preimage step: the first free classmate u
    of that value prunes above the bound, is a witness below it, and at it
    the scan goes on in the same frame.  Any later classmate would exceed
    the bound, so branching there would take the same steps.

    A complete check prunes twice more.  A branch that compares every cell
    equal ends in an automorphism of the matrix, and a branching frame
    skips a candidate image that the automorphisms fixing every image
    already taken map an explored sibling onto: composing with such an
    automorphism maps the skipped subtree's permutations onto the
    explored one's, with the same images of the matrix (orbit pruning,
    McKay and Piperno 2014).  And a cell (i, j) with i fixed and j free is
    passed over when every free classmate y of j would compare it equal
    once j's cycle went onto y's, which holds for any later choice too;
    row j then fixes j.
    """
    n = t.n
    doms = p.domains
    if complete:
        lo = val = [m.bit_length() for m in doms]
    else:
        lo = [(m & -m).bit_length() for m in doms]
        # a cell's value when it has one, else 0
        val = [0 if m & (m - 1) else m.bit_length() for m in doms]
    cycle, classmates, cells, row_base, step = t.cycle, t.classmates, t.cells, t.row_base, t.step
    ncells = len(cells)
    limit = sys.maxsize if complete else PARTIAL_NODE_LIMIT
    fwd = [0] * (n + 1)
    inv = [0] * (n + 1)
    trail: list[int] = []
    count = 0
    pruned = 0
    # complete checks: the automorphisms met so far, each with the mask of
    # the points it fixes
    autos: list[tuple[list[int], int]] = []
    identity = (1 << (n + 1)) - 2

    def dfs(k):
        nonlocal count, pruned
        for k in range(k, ncells):
            i, j, c = cells[k]
            a = fwd[i]
            b = fwd[j]
            if not (a and b):
                if a and complete:
                    # pass over (i, j) if every image of j compares it equal
                    d = val[c]
                    row = row_base[a]
                    cj = cycle[j]
                    for y in classmates[j]:
                        if inv[y]:
                            continue
                        v = val[row + y]
                        u = inv[v]
                        if not u:
                            s = step[y][v]
                            if s < 0:
                                break
                            u = cj[s]
                        if u != d:
                            break
                    else:
                        continue
                # branch on the image of x's cycle
                x = j if a else i
                cx = cycle[x]
                mark = len(trail)
                # complete checks: the explored siblings, and their orbit
                # under `gens`, those of the first `seen` automorphisms
                # that fix every image taken
                explored = orbit = 0
                seen = -1
                for y in classmates[x]:
                    if inv[y]:
                        continue
                    if explored:
                        if seen != len(autos):
                            if seen < 0:
                                taken = 0
                                for src in trail:
                                    taken |= 1 << fwd[src]
                            seen = len(autos)
                            gens = [g for g, fixed in autos if fixed & taken == taken]
                            orbit = 0
                        orbit = _closure(orbit, explored & ~orbit, gens)
                        if orbit >> y & 1:
                            pruned += 1
                            continue
                    count += 1
                    if count > limit:
                        raise _BudgetExhausted
                    if len(cx) == 1:
                        fwd[x] = y
                        inv[y] = x
                        trail.append(x)
                    else:
                        for src, dst in zip(cx, cycle[y]):
                            fwd[src] = dst
                            inv[dst] = src
                        trail.extend(cx)
                    out = dfs(k)
                    if out is not None:
                        return out
                    while len(trail) > mark:
                        src = trail.pop()
                        inv[fwd[src]] = 0
                        fwd[src] = 0
                    if complete:
                        explored |= 1 << y
                return None
            d = lo[c]
            img = row_base[a] + b
            v = val[img]
            if v:
                u = inv[v]
                if not u:
                    # forced: v's first free classmate is its preimage
                    for u in classmates[v]:
                        if not fwd[u]:
                            break
                    if u > d:
                        return None
                    count += 1
                    if count > limit:
                        raise _BudgetExhausted
                    cu = cycle[u]
                    if len(cu) == 1:
                        fwd[u] = v
                        inv[v] = u
                        trail.append(u)
                    else:
                        for src, dst in zip(cu, cycle[v]):
                            fwd[src] = dst
                            inv[dst] = src
                        trail.extend(cu)
                if u > d:
                    return None
                if u < d:
                    return Witness(_completion(t, fwd, inv))
            else:
                amax = 0
                rest = doms[img]
                while rest:
                    low = rest & -rest
                    w = low.bit_length()
                    u = inv[w]
                    if not u:
                        # branch on the preimage of w, within the bound
                        mark = len(trail)
                        for u in classmates[w]:
                            if u > d:
                                break
                            if fwd[u]:
                                continue
                            count += 1
                            if count > limit:
                                raise _BudgetExhausted
                            cu = cycle[u]
                            for src, dst in zip(cu, cycle[w]):
                                fwd[src] = dst
                                inv[dst] = src
                            trail.extend(cu)
                            out = dfs(k)
                            if out is not None:
                                return out
                            while len(trail) > mark:
                                src = trail.pop()
                                inv[fwd[src]] = 0
                                fwd[src] = 0
                        return None
                    if u > amax:
                        amax = u
                    rest ^= low
                if amax > d:
                    return None
                if amax < d:
                    return Witness(_completion(t, fwd, inv))
            # a propagation pins a value of an undefined cell, the compared
            # one or its image
            if not complete and not (val[c] and v):
                out = _try_propagate(p, t, fwd, inv, c, img)
                if out is not None:
                    return out
        if complete:
            # every cell compared equal, and every point is fixed, being
            # some cell's row: fwd is an automorphism
            fixed = 0
            for z in range(1, n + 1):
                if fwd[z] == z:
                    fixed |= 1 << z
            if fixed != identity:
                autos.append((fwd[:], fixed))
        return None

    try:
        out = dfs(0)
    except _BudgetExhausted:
        out = Unknown()
    # dfs refers to itself through its closure: unbinding it frees the
    # search's state (the automorphisms too) now, not at the next cyclic
    # garbage collection
    del dfs
    if nodes is not None:
        if complete:
            nodes["complete"] += count
            nodes["orbit_pruned"] += pruned
        else:
            nodes["partial"] += count
    return out if out is not None else Minimal()


def _try_propagate(p: PartialCycleSet, t: _Tables, fwd: list[int], inv: list[int],
                   c: int, img: int) -> Optional[Propagate]:
    """At a non-strict boundary with an undefined cell, pin the boundary value.

    `c` and `img` are the flat indices of the compared cell and its image
    cell.  The propagated literal pins a value; asserting its negation
    (dropping the value from the cell) is verified to turn the permutation
    into a witness before anything is returned.
    """
    n = t.n
    pi = _completion(t, fwd, inv)
    dmask = p.domains[c]
    if dmask & (dmask - 1):
        cell = (c // n + 1, c % n + 1)
        dmin = (dmask & -dmask).bit_length()
        refined = p.with_domain(cell, dmask & ~(1 << (dmin - 1)))
        if strictly_below(apply_permutation(pi, refined), refined) is not None:
            return Propagate(pi, cell, dmin)
    image_mask = p.domains[img]
    if image_mask & (image_mask - 1):
        image_cell = (img // n + 1, img % n + 1)
        vstar = max(mask_values(image_mask), key=lambda v: inv[v])
        refined = p.with_domain(image_cell, image_mask & ~(1 << (vstar - 1)))
        if strictly_below(apply_permutation(pi, refined), refined) is not None:
            return Propagate(pi, image_cell, vstar)
    return None


def check(p: PartialCycleSet, diagonal: Diagonal, *, complete: bool,
          nodes: Optional[dict] = None) -> MinCheckOutcome:
    """Minimality check by backtracking over the centralizer.

    Returns Witness with the permutation completed at the first strict
    cell (`learning.breaking_clause` locates that cell again), Propagate
    with the pinned value at a non-strict boundary on an undefined cell
    (partial inputs only), Minimal after exhausting the search, or, for a
    partial input only, Unknown once PARTIAL_NODE_LIMIT nodes are spent.
    A complete input always runs to completion.

    When `nodes` is given, the search adds the nodes it spent to its
    "complete" or "partial" entry, by the kind of check, and a complete
    check adds the sibling branches it skipped by orbit pruning to its
    "orbit_pruned" entry.  A node is one fixed cycle, and a partial check
    that runs out of budget counts the node over the limit as well.
    """
    if complete and not p.is_complete():
        raise ValueError("complete=True requires a fully defined cycle set")
    if p.n != diagonal.n:
        raise ValueError("size mismatch")
    for x in range(1, p.n + 1):
        if p.domain(x, x) != 1 << (diagonal.value(x) - 1):
            raise ValueError("partial cycle set disagrees with the diagonal")
    return _search(p, _tables(diagonal), complete, nodes)

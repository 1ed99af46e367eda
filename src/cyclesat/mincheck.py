"""Backtracking minimality check over partial permutations.

Searches the centralizer of the fixed diagonal for a permutation whose
image of the current (partial) cycle set is lexicographically below it.
The search refines an ordered partition cell by cell in row-major order,
pruning every branch where some cell comparison already exceeds the bound,
and stops at the first strict cell (a witness) or, on partial inputs, at
the first non-strict boundary on an undefined cell (a propagation).
"""

from __future__ import annotations

from dataclasses import dataclass
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
class CellLiteral:
    """A matrix literal at the domain level: cell takes a value."""

    cell: Cell
    value: int


@dataclass(frozen=True)
class Minimal:
    pass


@dataclass(frozen=True)
class Witness:
    perm: Permutation
    cell: Cell


@dataclass(frozen=True)
class Propagate:
    perm: Permutation
    cell: Cell
    literal: CellLiteral


@dataclass(frozen=True)
class Unknown:
    pass


MinCheckOutcome = Union[Minimal, Witness, Propagate, Unknown]


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Mutable fix/undo search state; equivalent to refining the initial
    ordered partition, but without per-node copying."""

    def __init__(self, p: PartialCycleSet, diag: Diagonal, complete: bool, max_nodes: Optional[int]):
        self.p = p
        self.diag = diag
        self.complete = complete
        self.max_nodes = max_nodes
        self.nodes = 0
        n = p.n
        self.n = n
        self.cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        self.fwd = [0] * (n + 1)
        self.inv = [0] * (n + 1)
        self.trail: list[tuple[int, int]] = []
        # only same-length cycles can map onto each other
        self.classmates = [
            sorted(y for y in range(1, n + 1) if diag.cycle_len(y) == diag.cycle_len(x))
            for x in range(n + 1)
        ]
        self.domains = p.domains

    def _node(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExhausted

    def _fix_cycle(self, x: int, y: int) -> bool:
        """Fix pi(x) = y and the rest of x's cycle; False (and no change) on clash."""
        succ = self.diag._succ
        fwd, inv, trail = self.fwd, self.inv, self.trail
        mark = len(trail)
        a, b = x, y
        for _ in range(self.diag.cycle_len(x)):
            cur = fwd[a]
            if cur:
                if cur != b:
                    self._undo(mark)
                    return False
            elif inv[b]:
                self._undo(mark)
                return False
            else:
                fwd[a] = b
                inv[b] = a
                trail.append((a, b))
            a = succ[a]
            b = succ[b]
        return True

    def _undo(self, mark: int):
        fwd, inv, trail = self.fwd, self.inv, self.trail
        while len(trail) > mark:
            a, b = trail.pop()
            fwd[a] = 0
            inv[b] = 0

    def _completion(self) -> Permutation:
        """Greedy diagonal-respecting completion of the current fixes."""
        mark = len(self.trail)
        fwd = self.fwd
        for x in range(1, self.n + 1):
            if fwd[x]:
                continue
            for y in self.classmates[x]:
                if not self.inv[y] and self._fix_cycle(x, y):
                    break
            else:
                raise RuntimeError("no diagonal-respecting completion")
        pi = Permutation(fwd[1:])
        self._undo(mark)
        return pi

    def run(self) -> MinCheckOutcome:
        try:
            out = self._dfs(0)
        except _BudgetExhausted:
            return Unknown()
        return out if out is not None else Minimal()

    def _dfs(self, idx: int) -> Optional[MinCheckOutcome]:
        n = self.n
        fwd, inv = self.fwd, self.inv
        domains = self.domains
        cells = self.cells
        while idx < n * n:
            i, j = cells[idx]
            if i == j:
                idx += 1
                continue
            a = fwd[i]
            if not a:
                return self._branch_element(i, idx)
            b = fwd[j]
            if not b:
                return self._branch_element(j, idx)
            dmask = domains[(i - 1) * n + (j - 1)]
            dmin = (dmask & -dmask).bit_length()
            image_mask = domains[(a - 1) * n + (b - 1)]
            amax = 0
            rest = image_mask
            while rest:
                low = rest & -rest
                u = inv[low.bit_length()]
                if not u:
                    return self._branch_preimage(low.bit_length(), dmin, idx)
                if u > amax:
                    amax = u
                rest ^= low
            if amax > dmin:
                return None
            if amax < dmin:
                return Witness(self._completion(), (i, j))
            if not self.complete:
                out = self._try_propagate((i, j), (a, b), image_mask, dmask, dmin)
                if out is not None:
                    return out
            idx += 1
        return None

    def _branch_element(self, x: int, idx: int) -> Optional[MinCheckOutcome]:
        inv = self.inv
        mark = len(self.trail)
        for y in self.classmates[x]:
            if inv[y]:
                continue
            self._node()
            if not self._fix_cycle(x, y):
                continue
            out = self._dfs(idx)
            if out is not None:
                return out
            self._undo(mark)
        return None

    def _branch_preimage(self, value: int, bound: int, idx: int) -> Optional[MinCheckOutcome]:
        """Fix the preimage of an image-cell value, keeping it within the bound."""
        fwd = self.fwd
        mark = len(self.trail)
        for u in self.classmates[value]:
            if u > bound:
                break
            if fwd[u]:
                continue
            self._node()
            if not self._fix_cycle(u, value):
                continue
            out = self._dfs(idx)
            if out is not None:
                return out
            self._undo(mark)
        return None

    def _try_propagate(self, cell, image_cell, image_mask, dmask, dmin) -> Optional[Propagate]:
        """At a non-strict boundary with an undefined cell, pin the boundary value.

        The propagated literal pins a value; asserting its negation (dropping
        the value from the cell) is verified to turn the permutation into a
        witness before anything is returned.
        """
        p = self.p
        pi = self._completion()
        if dmask & (dmask - 1):
            refined = p.with_domain(cell, dmask & ~(1 << (dmin - 1)))
            if strictly_below(apply_permutation(pi, refined), refined) is not None:
                return Propagate(pi, cell, CellLiteral(cell, dmin))
        if image_mask & (image_mask - 1):
            inv = self.inv
            vstar = max(mask_values(image_mask), key=lambda v: inv[v])
            refined = p.with_domain(image_cell, image_mask & ~(1 << (vstar - 1)))
            if strictly_below(apply_permutation(pi, refined), refined) is not None:
                return Propagate(pi, cell, CellLiteral(image_cell, vstar))
        return None


def check(p: PartialCycleSet, diagonal: Diagonal, *, complete: bool) -> MinCheckOutcome:
    """Minimality check by backtracking over the centralizer.

    Returns Witness at the first strict cell, Propagate at a non-strict
    boundary on an undefined cell (partial inputs only), Minimal after
    exhausting the search, or, for a partial input only, Unknown once
    PARTIAL_NODE_LIMIT nodes are spent.  A complete input always runs to
    completion.
    """
    if complete and not p.is_complete():
        raise ValueError("complete=True requires a fully defined cycle set")
    if p.n != diagonal.n:
        raise ValueError("size mismatch")
    for x in range(1, p.n + 1):
        if p.domain(x, x) != 1 << (diagonal.value(x) - 1):
            raise ValueError("partial cycle set disagrees with the diagonal")
    return _Search(p, diagonal, complete, None if complete else PARTIAL_NODE_LIMIT).run()

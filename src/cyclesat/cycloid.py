"""Lazy propagation of the cycloid equation inside the CDCL search.

For distinct r, s, k, once C[r,s] = x, C[r,k] = y, C[s,r] = x' and
C[s,k] = y' are set, the cycloid equation of the triple (r, s, k) is one
cell equality, C[x,y] = C[x',y'].  `CycloidPropagator` enforces it in
place of the head variables and 4-literal links of `encoding.reference_cnf`:
with the four outer cells set, a known inner cell implies the other, and
two known inner cells that differ are a conflict.  This is lazy clause
generation (Ohrimenko, Stuckey and Codish, Constraints 2009): every
implication and conflict comes with the clause over matrix variables it
stands for,

    [v(x',y',b), -v(r,s,x), -v(r,k,y), -v(s,r,x'), -v(s,k,y'), -v(x,y,b)]

the implied literal first.  A literal whose cell is an outer cell is
written once, and one on a value the diagonal excludes (b = diag(x'), where
the equation cannot hold) is left out.  A conflict between two known inner
cells drops the implied literal and adds -v(x',y',b') instead.

The solver calls `propagate` for each positive matrix literal it
processes.  A cell's value is read from the literal last processed in it,
checked against the solver's assignment, so backtracking needs no undo.
"""

from __future__ import annotations

from typing import Optional

from .encoding import VarMap


class CycloidPropagator:
    """The cycloid equation for k outside {r, s}, on one solver's matrix
    variables, numbered by `varmap`.

    Each processed literal C[a,b] = v visits the triples it takes part in:
    (a, b, k) with (a, b) as first outer cell and (a, s, b) with it as
    second outer cell, n - 2 each, and, as inner cell, one triple per row r,
    found through the row-inverse index: the columns s and k where row r
    holds a and b.  The counters are the triples checked with all four
    outer cells set, the literals implied and the conflicts reported.
    """

    def __init__(self, varmap: VarMap, solver):
        n = varmap.n
        m = n + 1  # cells and row-value slots are indexed a * m + b
        self.num_vars = varmap.num_matrix_vars
        self._val = solver._val
        self._enqueue = solver._enqueue
        self._n = n
        self._m = m
        # per matrix variable: its row, column and value
        self._row = [0] * (self.num_vars + 1)
        self._col = [0] * (self.num_vars + 1)
        self._value = [0] * (self.num_vars + 1)
        # positive encoded literal of (cell, value), 0 where the diagonal
        # excludes the value
        self._lit = [0] * (m * m * m)
        for i, j in varmap.cells:
            for k, var in varmap.cell_vars(i, j):
                self._row[var], self._col[var], self._value[var] = i, j, k
                self._lit[(i * m + j) * m + k] = var << 1
        # the literal last processed per cell and per row-value slot; 0
        # (never true) until one is
        self._cell = [0] * (m * m)
        self._slot = [0] * (m * m)
        # the third points of the triples through a cell's row and column
        self._others = [[k for k in range(1, n + 1) if k != a and k != b] for a in range(m) for b in range(m)]
        self.checks = 0
        self.implied = 0
        self.conflicts = 0

    def stats(self) -> dict:
        return {
            "cycloid_checks": self.checks,
            "cycloid_implied": self.implied,
            "cycloid_conflicts": self.conflicts,
        }

    def propagate(self, p: int) -> Optional[list[int]]:
        """Visit the triples of the literal p, just processed; implied
        literals go on the trail.  Returns a conflict clause or None."""
        val = self._val
        value = self._value
        cell = self._cell
        m = self._m
        var = p >> 1
        a, b, v = self._row[var], self._col[var], value[var]
        ab = a * m + b
        cell[ab] = p
        self._slot[a * m + v] = p
        # (a, b) first outer cell: triples (a, b, k)
        e_ba = cell[b * m + a]
        if val[e_ba] == 1:
            x2 = value[e_ba >> 1]
            for k in self._others[ab]:
                e_ak = cell[a * m + k]
                e_bk = cell[b * m + k]
                if val[e_ak] == 1 and val[e_bk] == 1:
                    confl = self._check(v, value[e_ak >> 1], x2, value[e_bk >> 1], p, e_ak, e_ba, e_bk)
                    if confl is not None:
                        return confl
        # (a, b) second outer cell: triples (a, s, b)
        for s in self._others[ab]:
            e_as = cell[a * m + s]
            e_sa = cell[s * m + a]
            e_sb = cell[s * m + b]
            if val[e_as] == 1 and val[e_sa] == 1 and val[e_sb] == 1:
                confl = self._check(value[e_as >> 1], v, value[e_sa >> 1], value[e_sb >> 1], e_as, p, e_sa, e_sb)
                if confl is not None:
                    return confl
        # (a, b) inner cell: row r holds a at column s and b at column k
        slot = self._slot
        col = self._col
        for r in range(1, self._n + 1):
            e_rs = slot[r * m + a]
            e_rk = slot[r * m + b]
            if val[e_rs] == 1 and val[e_rk] == 1:
                s = col[e_rs >> 1]
                k = col[e_rk >> 1]
                e_sr = cell[s * m + r]
                e_sk = cell[s * m + k]
                if val[e_sr] == 1 and val[e_sk] == 1:
                    confl = self._check(a, b, value[e_sr >> 1], value[e_sk >> 1], e_rs, e_rk, e_sr, e_sk)
                    if confl is not None:
                        return confl
        return None

    def _check(self, x: int, y: int, x2: int, y2: int,
               e_rs: int, e_rk: int, e_sr: int, e_sk: int) -> Optional[list[int]]:
        """C[x,y] = C[x2,y2], given the true literals of the four outer
        cells that set x, y, x2 and y2."""
        if x == y or x2 == y2:
            return None  # a row repeats a value: a clause of the CNF conflicts
        m = self._m
        inner, inner2 = x * m + y, x2 * m + y2
        if inner == inner2:
            return None
        self.checks += 1
        val = self._val
        value = self._value
        e1, e2 = self._cell[inner], self._cell[inner2]
        known1, known2 = val[e1] == 1, val[e2] == 1
        if known1 == known2:
            if not known1 or value[e1 >> 1] == value[e2 >> 1]:
                return None
            self.conflicts += 1
            return _explain([e_rs ^ 1, e_rk ^ 1, e_sr ^ 1, e_sk ^ 1], e1, e2)
        if known2:
            e1, inner2 = e2, inner
        # the unknown cell inner2 must take the value e1 sets
        imp = self._lit[inner2 * m + value[e1 >> 1]]
        if imp:
            if val[imp] == 1:
                return None
            clause = _explain([imp, e_rs ^ 1, e_rk ^ 1, e_sr ^ 1, e_sk ^ 1], e1)
            if val[imp] == 0:
                self.implied += 1
                self._enqueue(imp, clause)
                return None
        else:  # the diagonal excludes that value
            clause = _explain([e_rs ^ 1, e_rk ^ 1, e_sr ^ 1, e_sk ^ 1], e1)
        self.conflicts += 1
        return clause


def _explain(clause: list[int], *known: int) -> list[int]:
    """`clause` plus the negation of each known inner literal that is not
    an outer literal already."""
    for e in known:
        if e ^ 1 not in clause:
            clause.append(e ^ 1)
    return clause

"""Incremental SAT-based minimality check of complete cycle sets.

The witness-existence problem itself is encoded as CNF once per (size,
diagonal) and solved repeatedly under assumptions that pin the current
cycle set, with learned clauses retained between checks.  Partial states
go to the backtracking search of `mincheck` on either backend.

Layers: w encodes the checked matrix M, w2 its image M' under the searched
permutation (p layer, restricted to same-cycle-length pairs and forced to
commute with the diagonal), and im channels M[pi(i), pi(j)] = k' so the
image linking stays quadratic instead of degree six.  Redundant
ExactlyOne constraints (per cell and per row value) on the w2 layer
prune, and a bit-lexicographic chain (cells row-major, values
descending, so bit order matches the numeric order) forces M' < M.
There are none on w: the assumptions pin every w literal in both
polarities, so they could only cost propagation.

Each instance also keeps its last RECENT_WITNESSES witnesses, most recent
first.  A check tries them on the cycle set before it solves: consecutive
non-minimal models are mostly lowered by a permutation that lowered one of
the last few, and applying one costs far less than a solve.  A hit moves
to the front and is returned without the solver; Minimal comes only from
the solver.
"""

from __future__ import annotations

from .cycleset import PartialCycleSet, Permutation, apply_permutation, strictly_below
from .encoding import exactly_one, VarAllocator
from .errors import ShapeMismatchError
from .mincheck import Minimal, MinCheckOutcome, Witness
from .solver import Solver
from .symmetry import Diagonal

# witnesses kept per instance; keeping 4/8/16/64 ran n=5 single-process in
# 0.500/0.464/0.454/0.474 s (2-vCPU Xeon, Python 3.11)
RECENT_WITNESSES = 8


class OracleInstance:
    """A persistent witness-search SAT instance for one (n, diagonal)."""

    # the only kind of check this instance answers; perfbench/spans.py names
    # its spans after it
    kind = "complete"

    def __init__(self, n: int, diagonal: Diagonal, method: str = "binary"):
        if n < 2:
            raise ValueError("n must be at least 2")
        if diagonal.n != n:
            raise ShapeMismatchError("diagonal size mismatch")
        self.n = n
        self.diagonal = diagonal
        self.method = method
        clauses = self._build()
        # permutation variables come first and are branched on positively,
        # mirroring the backtracking search's image-assignment order; the
        # learned-clause cap stays small because stale lemmas from earlier
        # checks tax every later assumption propagation
        self.solver = Solver(self.num_vars, num_static=self.num_p_vars, max_learnts=1500.0)
        self.solver.add_cnf(clauses)
        self.recent: list[Permutation] = []  # last witnesses, most recent first
        self.recent_hits = 0  # checks a recent witness answered without solving

    # ------------------------------------------------------------------ build

    def _build(self) -> list[list[int]]:
        n = self.n
        diag = self.diagonal.values()
        alloc = VarAllocator()
        clauses: list[list[int]] = []
        offdiag = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        cell_values = {
            (i, j): [k for k in range(1, n + 1) if k != diag[i - 1]] for (i, j) in offdiag
        }
        classes = {x: self.diagonal.cycle_len(x) for x in range(1, n + 1)}
        self.p = {
            (i, j): alloc.fresh()
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if classes[i] == classes[j]
        }
        self.num_p_vars = alloc.next_var - 1
        self.w = {(c, k): alloc.fresh() for c in offdiag for k in cell_values[c]}
        self.w2 = {(c, k): alloc.fresh() for c in offdiag for k in cell_values[c]}
        self.im = {(c, k): alloc.fresh() for c in offdiag for k in range(1, n + 1)}

        w, w2, p, im = self.w, self.w2, self.p, self.im

        # permutation well-formedness, restricted to same-length classes
        for i in range(1, n + 1):
            cols = [p[(i, j)] for j in range(1, n + 1) if (i, j) in p]
            clauses.extend(exactly_one(cols, self.method, alloc))
        for j in range(1, n + 1):
            rows = [p[(i, j)] for i in range(1, n + 1) if (i, j) in p]
            clauses.extend(exactly_one(rows, self.method, alloc))
        # mapping a point maps its whole cycle
        succ = self.diagonal.successor
        for (i, j), var in p.items():
            clauses.append([-var, p[(succ(i), succ(j))]])

        # im(c, k') <-> the permuted source cell holds k'
        for (i, j) in offdiag:
            for i2 in range(1, n + 1):
                if (i, i2) not in p:
                    continue
                for j2 in range(1, n + 1):
                    if j2 == i2 or (j, j2) not in p:
                        continue
                    guard = [-p[(i, i2)], -p[(j, j2)]]
                    for k2 in range(1, n + 1):
                        src = w.get(((i2, j2), k2))
                        if src is None:
                            clauses.append(guard + [-im[((i, j), k2)]])
                        else:
                            clauses.append(guard + [-src, im[((i, j), k2)]])
                            clauses.append(guard + [src, -im[((i, j), k2)]])

        # w2(c, k) <-> im(c, pi(k))
        for (i, j) in offdiag:
            for k in cell_values[(i, j)]:
                for k2 in range(1, n + 1):
                    if (k, k2) not in p:
                        continue
                    clauses.append([-p[(k, k2)], -im[((i, j), k2)], w2[((i, j), k)]])
                    clauses.append([-p[(k, k2)], im[((i, j), k2)], -w2[((i, j), k)]])

        # on w2 only: the assumptions pin every w literal in both polarities
        for c in offdiag:
            clauses.extend(exactly_one([w2[(c, k)] for k in cell_values[c]], self.method, alloc))
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if k == diag[i - 1]:
                    continue
                group = [w2[((i, j), k)] for j in range(1, n + 1) if j != i]
                clauses.extend(exactly_one(group, self.method, alloc))
        positions = [(c, k) for c in offdiag for k in sorted(cell_values[c], reverse=True)]
        self._build_chain(positions, alloc, clauses)

        self.num_vars = alloc.next_var - 1
        return clauses

    def _build_chain(self, positions, alloc, clauses):
        """Bit-lex chain forcing the image strictly below the matrix."""
        w, w2 = self.w, self.w2
        m = len(positions)
        chain = [alloc.fresh() for _ in range(m - 1)]
        first = positions[0]
        clauses.append([w[first], -w2[first]])
        clauses.append([-w2[first], chain[0]])
        clauses.append([w[first], chain[0]])
        for t in range(m - 2):
            nxt = positions[t + 1]
            clauses.append([-chain[t], w[nxt], -w2[nxt]])
            clauses.append([-chain[t], -w2[nxt], chain[t + 1]])
            clauses.append([-chain[t], w[nxt], chain[t + 1]])
        last = positions[m - 1]
        clauses.append([-chain[m - 2], w[last]])
        clauses.append([-chain[m - 2], -w2[last]])

    # ------------------------------------------------------------------ query

    def assumptions_for(self, p: PartialCycleSet) -> list[int]:
        """Literals pinning the w layer to the given cycle set."""
        if p.n != self.n:
            raise ShapeMismatchError(f"cycle set of size {p.n}, instance of size {self.n}")
        diag = self.diagonal.values()
        for x in range(1, self.n + 1):
            if p.domain(x, x) != 1 << (diag[x - 1] - 1):
                raise ShapeMismatchError("cycle set disagrees with the instance diagonal")
        out = []
        for (c, k), var in self.w.items():
            if p.domain(*c) & (1 << (k - 1)):
                out.append(var)
            else:
                out.append(-var)
        return out

    def decode_permutation(self, model) -> Permutation:
        images = [0] * self.n
        for (i, j), var in self.p.items():
            if model[var]:
                images[i - 1] = j
        return Permutation(images)


def check(p: PartialCycleSet, inst: OracleInstance) -> MinCheckOutcome:
    """Run one minimality query on a complete cycle set against a persistent
    oracle instance.

    A recent witness of the instance that lowers `p` is returned first,
    without solving.  Otherwise SAT decodes the permutation layer, locates
    the strict cell on the caller's side and keeps the permutation as a
    recent witness; UNSAT means lexicographically minimal.
    """
    if not p.is_complete():
        raise ValueError("the oracle needs a fully defined cycle set")
    assumptions = inst.assumptions_for(p)
    recent = inst.recent
    for idx, pi in enumerate(recent):
        cell = strictly_below(apply_permutation(pi, p), p)
        if cell is not None:
            recent.insert(0, recent.pop(idx))
            inst.recent_hits += 1
            return Witness(pi, cell)
    res = inst.solver.solve(assumptions)
    if res.status == "unsat":
        return Minimal()
    pi = inst.decode_permutation(res.model)
    cell = strictly_below(apply_permutation(pi, p), p)
    if cell is None:
        raise RuntimeError("oracle produced a permutation that is not a witness")
    recent.insert(0, pi)
    del recent[RECENT_WITNESSES:]
    return Witness(pi, cell)

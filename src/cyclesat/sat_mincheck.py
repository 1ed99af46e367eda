"""Incremental SAT-based minimality check of complete cycle sets.

The witness-existence problem itself is encoded as CNF once per (size,
diagonal) and solved repeatedly under assumptions that pin the current
cycle set, with learned clauses retained between checks.  Partial states
go to the backtracking search of `mincheck` on either backend.

Layers: w encodes the checked matrix M and is the axiom CNF's matrix
numbering (`encoding.VarMap`), so `encoding.matrix_literals` pins it; p,
numbered next up to `num_static`, is the searched permutation, restricted
to same-cycle-length pairs and forced to commute with the diagonal; w2
encodes the image M', the copy of matrix variable v being `num_static +
v`; and im(c, k') says the permuted source cell of c holds k', so the
image linking stays quadratic instead of degree six.

Row completion shrinks the comparison.  The rows of M and M' are
permutations and share the diagonal, since pi commutes with it, so once
the other cells of a row compare equal, so does its last off-diagonal
cell (column n, or n-1 in row n): a strict difference never first
appears there.  Only the other cells are compared.  For those, the
channels run one way: a pinned source value implies its im, and
im(c, pi(k)) implies w2(c, k); im(c, k') exists only for the values k'
some source of c can hold.  The per-cell ExactlyOne on w2 then rules out
every other value, and the row-value ExactlyOne (both `VarMap.groups`
families are copied) fills each row's last cell, so w2 is exactly M' in
every model.  A bit-lexicographic chain over the compared cells
(row-major, values descending, so bit order matches the numeric order)
forces M' < M; at n=2 nothing is compared, and the empty clause says
every cycle set is minimal.  One clause excludes the identity, which
maps M onto itself.  There is no ExactlyOne on w: the assumptions pin
every w literal in both polarities.

Each check is one solve under those assumptions: UNSAT means minimal, a
model yields the witness permutation.
"""

from __future__ import annotations

from .cycleset import CycleSet, Permutation
from .encoding import VarAllocator, VarMap, exactly_one, matrix_literals
from .mincheck import Minimal, MinCheckOutcome, Witness
from .solver import Solver
from .symmetry import Diagonal


class OracleInstance:
    """A persistent witness-search SAT instance for one diagonal."""

    # the only kind of check this instance answers; perfbench/spans.py names
    # its spans after it
    kind = "complete"

    def __init__(self, diagonal: Diagonal, method: str = "binary"):
        self.diagonal = diagonal
        self.method = method
        self.varmap = VarMap(diagonal.n, diagonal)
        clauses = self._build()
        # w, numbered first, is always assumed, so the permutation variables
        # after it are branched on first, positively, mirroring the
        # backtracking search's image-assignment order; the learned-clause
        # cap stays small because stale lemmas from earlier checks tax every
        # later assumption propagation
        self.solver = Solver(self.num_vars, num_static=self.num_static, max_learnts=1500.0)
        self.solver.add_cnf(clauses)

    # ------------------------------------------------------------------ build

    def _build(self) -> list[list[int]]:
        vm = self.varmap
        n = vm.n
        alloc = VarAllocator(vm.num_matrix_vars + 1)
        clauses: list[list[int]] = []
        classes = {x: self.diagonal.cycle_len(x) for x in range(1, n + 1)}
        self.p = {
            (i, j): alloc.fresh()
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if classes[i] == classes[j]
        }
        self.num_static = alloc.next_var - 1
        w2 = {var: alloc.fresh() for var in range(1, vm.num_matrix_vars + 1)}
        p = self.p
        # by row completion each row's last off-diagonal cell is left out;
        # a compared cell's sources are the cells (i2, j2) that p(i, i2) and
        # p(j, j2) can move onto it, its im variables the values they hold
        compared = [(i, j) for i, j in vm.cells if j != (n - 1 if i == n else n)]
        sources = {
            (i, j): [(i2, j2) for i2 in range(1, n + 1) if (i, i2) in p
                     for j2 in range(1, n + 1) if j2 != i2 and (j, j2) in p]
            for i, j in compared
        }
        im = {
            (i, j, k2): alloc.fresh()
            for (i, j), cells in sources.items()
            for k2 in sorted({k2 for cell in cells for k2, _ in vm.cell_vars(*cell)})
        }

        # permutation well-formedness, restricted to same-length classes
        for i in range(1, n + 1):
            cols = [p[(i, j)] for j in range(1, n + 1) if (i, j) in p]
            clauses.extend(exactly_one(cols, self.method, alloc))
        for j in range(1, n + 1):
            rows = [p[(i, j)] for i in range(1, n + 1) if (i, j) in p]
            clauses.extend(exactly_one(rows, self.method, alloc))
        # mapping a point maps its whole cycle
        succ = self.diagonal.value
        for (i, j), var in p.items():
            clauses.append([-var, p[(succ(i), succ(j))]])
        # the identity maps M onto itself, never below it
        clauses.append([-p[(i, i)] for i in range(1, n + 1)])

        # one way only: the pinned source cell's value implies its image ...
        for (i, j), cells in sources.items():
            for i2, j2 in cells:
                for k2, src in vm.cell_vars(i2, j2):
                    clauses.append([-p[(i, i2)], -p[(j, j2)], -src, im[(i, j, k2)]])
        # ... which implies w2(c, k) for k = pi^-1(k'); w2's per-cell
        # ExactlyOne rules out every other value
        for (i, j) in compared:
            for k, var in vm.cell_vars(i, j):
                for k2 in range(1, n + 1):
                    if (k, k2) in p and (i, j, k2) in im:
                        clauses.append([-p[(k, k2)], -im[(i, j, k2)], w2[var]])

        # on w2 only: the cell families make w2 the image, the row-value
        # families prune and fill each row's last cell; w is pinned in both
        # polarities by the assumptions
        for g in vm.groups:
            clauses.extend(exactly_one([w2[v] for v in g], self.method, alloc))
        # (w, w2) variable pairs of the compared cells in the chain's bit order
        positions = [(var, w2[var]) for i, j in compared for _, var in reversed(vm.cell_vars(i, j))]
        self._build_chain(positions, alloc, clauses)

        self.num_vars = alloc.next_var - 1
        return clauses

    def _build_chain(self, positions, alloc, clauses):
        """Bit-lex chain forcing the image strictly below the matrix; with
        no position to compare, the empty clause."""
        if not positions:
            clauses.append([])
            return
        # guard switches a clause off unless every earlier position is equal
        guard = []
        for w, w2 in positions[:-1]:
            eq = alloc.fresh()
            clauses.append(guard + [w, -w2])
            clauses.append(guard + [-w2, eq])
            clauses.append(guard + [w, eq])
            guard = [-eq]
        w, w2 = positions[-1]
        clauses.append(guard + [w])
        clauses.append(guard + [-w2])

    # ------------------------------------------------------------------ query

    def decode_permutation(self, model) -> Permutation:
        images = [0] * self.diagonal.n
        for (i, j), var in self.p.items():
            if model[var]:
                images[i - 1] = j
        return Permutation(images)


def check(c: CycleSet, inst: OracleInstance) -> MinCheckOutcome:
    """Run one minimality query on a cycle set against a persistent oracle
    instance: one solve under `matrix_literals(c, inst.varmap)`.

    UNSAT means lexicographically minimal; SAT decodes the permutation
    layer into the Witness, whose strict cell `learning.breaking_clause`
    locates.
    """
    model = inst.solver.solve(matrix_literals(c, inst.varmap))
    if model is None:
        return Minimal()
    return Witness(inst.decode_permutation(model))

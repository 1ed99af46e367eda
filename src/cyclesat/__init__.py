"""Exhaustive, isomorph-free enumeration of non-degenerate cycle sets.

Finite non-degenerate cycle sets correspond to involutive non-degenerate
set-theoretic solutions of the Yang-Baxter equation.  The enumeration
fixes one diagonal per conjugacy class, encodes the cycle-set axioms as
CNF, and has a CDCL engine emit only matrices that are lexicographically
minimal under the centralizer of their diagonal, pruned during search by
a minimality check (backtracking, or incremental SAT on full assignments)
that learns breaking and propagation clauses.
"""

from .cycleset import (
    CycleSet,
    PartialCycleSet,
    Permutation,
    apply_permutation,
    extract_partial,
    satisfies_axioms,
    strictly_below,
)
from .encoding import Cnf, VarMap, decode_model, encode_axioms, exactly_one
from .mincheck import CellLiteral, Minimal, MinCheckOutcome, Propagate, Unknown, Witness
from .oracle import brute_force_all, brute_force_diagonal, extensions, lex_min_reps, verify_database
from .run import DiagStats, RunConfig, enumerate_diagonal, run_enumerate
from .sat_mincheck import OracleInstance
from .solver import PropagatorHooks, SolveResult, Solver
from .symmetry import (
    Diagonal,
    centralizer,
    diagonal_from_partition,
    fixes_diagonal,
    integer_partitions,
    representative_diagonals,
)

__all__ = [
    "CycleSet",
    "PartialCycleSet",
    "Permutation",
    "apply_permutation",
    "extract_partial",
    "satisfies_axioms",
    "strictly_below",
    "Cnf",
    "VarMap",
    "decode_model",
    "encode_axioms",
    "exactly_one",
    "CellLiteral",
    "Minimal",
    "MinCheckOutcome",
    "Propagate",
    "Unknown",
    "Witness",
    "brute_force_all",
    "brute_force_diagonal",
    "extensions",
    "lex_min_reps",
    "verify_database",
    "DiagStats",
    "RunConfig",
    "enumerate_diagonal",
    "run_enumerate",
    "OracleInstance",
    "PropagatorHooks",
    "SolveResult",
    "Solver",
    "Diagonal",
    "centralizer",
    "diagonal_from_partition",
    "fixes_diagonal",
    "integer_partitions",
    "representative_diagonals",
]

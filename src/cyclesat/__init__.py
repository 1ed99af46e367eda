"""Exhaustive, isomorph-free enumeration of non-degenerate cycle sets.

Finite non-degenerate cycle sets correspond to involutive non-degenerate
set-theoretic solutions of the Yang-Baxter equation.  The enumeration
fixes one diagonal per conjugacy class, encodes the cycle-set axioms as
CNF, leaving most of the cycloid equation to a propagator inside the CDCL
engine (`reference_cnf` writes all of it as clauses), and has the engine
emit only matrices that are lexicographically
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
from .cycloid import CycloidPropagator
from .encoding import Cnf, VarMap, decode_model, encode_axioms, exactly_one, reference_cnf
from .mincheck import Minimal, MinCheckOutcome, Propagate, Unknown, Witness
from .oracle import brute_force_all, brute_force_diagonal, extensions, lex_min_reps, verify_database
from .run import DiagStats, RunConfig, enumerate_diagonal, run_enumerate
from .sat_mincheck import OracleInstance
from .solver import Solver
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
    "CycloidPropagator",
    "Cnf",
    "VarMap",
    "decode_model",
    "encode_axioms",
    "exactly_one",
    "reference_cnf",
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
    "Solver",
    "Diagonal",
    "centralizer",
    "diagonal_from_partition",
    "fixes_diagonal",
    "integer_partitions",
    "representative_diagonals",
]

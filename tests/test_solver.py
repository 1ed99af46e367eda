import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclesat.run as run
from cyclesat.errors import PropagatorContractViolation
from cyclesat.run import RunConfig, enumerate_diagonal
from cyclesat.solver import Solver, _enc
from cyclesat.symmetry import representative_diagonals


def test_basic_sat():
    s = Solver(2)
    s.add_cnf([[1, 2], [-1]])
    model = s.solve()
    assert model is not None
    assert model[2] and not model[1]


def test_unsat_under_assumption():
    s = Solver(1)
    s.add_cnf([[1]])
    assert s.solve([-1]) is None


def test_unsat_under_implied_assumption_conflict():
    # x1 -> x2, x2 -> x3, assume x1 and -x3 plus irrelevant assumptions
    s = Solver(5)
    s.add_cnf([[-1, 2], [-2, 3]])
    assert s.solve([4, 5, 1, -3]) is None


def test_learned_clauses_persist_and_later_sat():
    s = Solver(3)
    s.add_cnf([[1, 2, 3], [-1, 2], [-2, 3]])
    assert s.solve([-3]) is None
    model = s.solve()
    assert model is not None
    assert model[3]


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = (None,) + bits
        if all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def literals(num_vars):
    return st.integers(min_value=1, max_value=num_vars).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_cnf_against_truth_table(data):
    num_vars = data.draw(st.integers(min_value=1, max_value=6))
    lit = literals(num_vars)
    clauses = data.draw(
        st.lists(st.lists(lit, min_size=1, max_size=4), min_size=1, max_size=14)
    )
    s = Solver(num_vars)
    s.add_cnf(clauses)
    assign = s.solve()
    assert (assign is not None) == brute_force_sat(clauses, num_vars)
    if assign is not None:
        assert all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def test_add_external_unit_clause_is_permanent():
    s = Solver(2, num_static=2)  # positive phases: the first model has x1 true
    s.add_cnf([[1, 2]])
    assert s.solve()[1]
    model = s.solve(on_complete=lambda model: [-1] if model[1] else None)
    assert model is not None and not model[1]
    assert s.solve([1]) is None


def holds(clause, value):
    """Literal values of `clause` under value(var) -> True/False/None: each
    True, False or None (free)."""
    out = []
    for l in clause:
        v = value(abs(l))
        out.append(None if v is None else v == (l > 0))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lazy_clauses_through_both_hooks_match_truth_table(data):
    # F is loaded up front; H reaches the solver only through the hooks, as a
    # clause falsified or unit under the current assignment.  A returned
    # clause is kept and propagated, so no hook meets it falsified or
    # unit again.
    num_vars = data.draw(st.integers(min_value=1, max_value=6))
    lit = literals(num_vars)
    cnf = st.lists(st.lists(lit, max_size=4), max_size=12)
    f, h = data.draw(cnf), data.draw(cnf)
    models = []
    returned = set()

    def give(i):
        assert i not in returned
        returned.add(i)
        return h[i]

    def on_partial():
        for i, clause in enumerate(h):
            vals = holds(clause, s.value)
            if True not in vals and vals.count(None) <= 1:
                return give(i)
        return None

    def on_complete(model):
        for i, clause in enumerate(h):
            if True not in holds(clause, model.__getitem__):
                return give(i)
        models.append(tuple(model[1:]))
        return [-v if model[v] else v for v in range(1, num_vars + 1)]

    s = Solver(num_vars, num_static=data.draw(st.integers(0, num_vars)))
    s.add_cnf(f)
    assert s.solve(on_complete=on_complete, on_partial=on_partial) is None
    expected = [
        bits for bits in itertools.product([False, True], repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in f + h)
    ]
    assert len(models) == len(set(models))
    assert sorted(models) == expected


def recording(block, veto=lambda m: None):
    """Enumeration as an on_complete callback: a model `veto` lets through
    is recorded and blocked with block(model); a clause from `veto`
    rejects it."""
    models = []

    def on_complete(model):
        clause = veto(model)
        if clause is not None:
            return clause
        models.append(model)
        return block(model)

    return on_complete, models


def block_1_2(m):
    return [-l if m[abs(l)] else l for l in (1, 2)]


def test_enumeration_blocks_all_models():
    # models of (x1 or x2): three of them
    s = Solver(2)
    s.add_cnf([[1, 2]])
    on_complete, models = recording(block_1_2)
    assert s.solve(on_complete=on_complete) is None
    seen = [(model[1], model[2]) for model in models]
    assert sorted(seen) == [(False, True), (True, False), (True, True)]


def test_enumeration_on_complete_vetoes_model():
    # suppress the all-true model via the hook; it must not be reported
    s = Solver(2)
    s.add_cnf([[1, 2]])

    def veto(model):
        if model[1] and model[2]:
            return [-1, -2]
        return None

    on_complete, models = recording(block_1_2, veto)
    assert s.solve(on_complete=on_complete) is None
    seen = [(model[1], model[2]) for model in models]
    assert sorted(seen) == [(False, True), (True, False)]


def test_solve_returns_the_model_the_hook_accepts():
    # x1 forces x2; the hook rejects every model with x3 true
    s = Solver(3, num_static=3)
    s.add_cnf([[1], [-1, 2]])
    checked = []

    def no_x3(model):
        checked.append(tuple(model[1:]))
        return [-3] if model[3] else None

    model = s.solve(on_complete=no_x3)
    assert model is not None and model[1:] == [True, True, False]
    assert checked == [(True, True, True), (True, True, False)]
    assert s.solve([3]) is None  # the rejecting clause stays


def test_hook_contract_violation():
    s = Solver(2)
    s.add_cnf([[1, 2]])

    def bad(model):
        return [1, 2]  # satisfied by every reported model

    with pytest.raises(PropagatorContractViolation, match="satisfied"):
        s.solve(on_complete=bad)

    # before the first decision nothing is assigned: a clause returned
    # then holds two free literals, neither falsified nor unit
    s = Solver(2)
    s.add_cnf([[1, 2]])
    with pytest.raises(PropagatorContractViolation, match="several free literals"):
        s.solve(on_partial=lambda: [-1, -2])


def test_determinism_same_model_sequence():
    def run():
        s = Solver(3, seed=0)
        s.add_cnf([[1, 2, 3]])
        on_complete, models = recording(lambda m: [-l if m[l] else l for l in (1, 2, 3)])
        s.solve(on_complete=on_complete)
        return [tuple(model[1:]) for model in models]

    assert run() == run()


@st.composite
def cnfs_with_special_clauses(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    lit = literals(num_vars)
    rest = st.lists(lit, max_size=3)
    clause = st.one_of(
        st.lists(lit, max_size=5),
        st.tuples(lit, rest).map(lambda t: [t[0], *t[1], t[0]]),  # repeated literal
        st.tuples(lit, rest).map(lambda t: [*t[1], t[0], -t[0]]),  # tautology
        lit.map(lambda l: [l]),  # unit
        st.just([]),
    )
    return num_vars, draw(st.lists(clause, max_size=16))


# In the first example the unit [1] makes [-1, 3] propagate at level 0, which
# shortens [-3, 2, 4] and falsifies [-3, -1]; the second ends in the empty clause.
@settings(max_examples=300, deadline=None)
@given(cnfs_with_special_clauses())
@example((4, [[1, 2], [-1, 3], [2, 2, 4], [-4, 3, 4], [1], [-3, 2, 4], [-3, -1]]))
@example((3, [[1, 2, 3], [2], [-2, -1], []]))
def test_add_cnf_matches_normalising_each_clause(cnf):
    num_vars, clauses = cnf
    bulk = Solver(num_vars)
    bulk.add_cnf(clauses)
    single = Solver(num_vars)
    for cl in clauses:
        if not single._add_normalised([_enc(l) for l in cl]):
            break
    assert bulk.ok == single.ok
    assert bulk._trail == single._trail
    assert bulk._clauses == single._clauses
    assert bulk._watches == single._watches


def assert_each_clause_watched_twice(s):
    watched_in = {}
    for lit, ws in enumerate(s._watches):
        for c in ws:
            watched_in.setdefault(id(c), []).append(lit)
    for c in s._clauses + [c for _, c in s._learnts] + s._externals:
        if len(c) >= 2:
            assert sorted(watched_in.pop(id(c), [])) == sorted(c[:2])
    assert not watched_in, "a watch list holds a clause the solver no longer keeps"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_watch_lists_stay_consistent_through_search(data):
    num_vars = data.draw(st.integers(min_value=3, max_value=8))
    lit = literals(num_vars)
    clauses = data.draw(st.lists(st.lists(lit, min_size=2, max_size=4), min_size=1, max_size=30))
    s = Solver(num_vars, num_static=data.draw(st.integers(0, num_vars)),
               max_learnts=data.draw(st.sampled_from([2.0, 6.0, 4000.0])))
    s.add_cnf(clauses)
    for assumptions in data.draw(st.lists(st.lists(lit, max_size=4), max_size=5)):
        s.solve(assumptions)
        assert_each_clause_watched_twice(s)

    def negation(model):
        return [-v if model[v] else v for v in range(1, num_vars + 1)]

    # vetoing every model with x1 true installs external clauses
    on_complete, _ = recording(negation, veto=lambda m: negation(m) if m[1] else None)
    s.solve(on_complete=on_complete)
    assert_each_clause_watched_twice(s)


def models_of(clauses, num_vars):
    return {
        bits for bits in itertools.product([False, True], repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses)
    }


def decision_blocking(s, models):
    """An on_complete callback that records each model and blocks its decisions."""
    def on_complete(model):
        models.append(tuple(model[1:]))
        decisions = s.decision_literals()
        assert len({abs(l) for l in decisions}) == len(decisions)
        return [-l for l in decisions]

    return on_complete


def test_decision_blocking_enumerates_every_model_once():
    # blocked under assumptions, a model stays excluded without them: the
    # first run finds the models with the assumptions, the second the rest
    rnd = random.Random(25)
    for _ in range(300):
        num_vars = rnd.randint(1, 7)
        clauses = [[rnd.choice([v, -v]) for v in rnd.sample(range(1, num_vars + 1), rnd.randint(1, min(3, num_vars)))]
                   for _ in range(rnd.randint(0, 3 * num_vars))]
        assumptions = [rnd.choice([v, -v]) for v in rnd.sample(range(1, num_vars + 1), rnd.randint(0, min(3, num_vars)))]
        s = Solver(num_vars, num_static=rnd.randint(0, num_vars), max_learnts=rnd.choice([2.0, 4000.0]))
        s.add_cnf(clauses)
        under, rest = [], []
        assert s.solve(assumptions, on_complete=decision_blocking(s, under)) is None
        assert_each_clause_watched_twice(s)
        assert s.solve(on_complete=decision_blocking(s, rest)) is None
        assert_each_clause_watched_twice(s)
        want = models_of(clauses, num_vars)
        want_under = models_of(clauses + [[l] for l in assumptions], num_vars)
        assert len(under) == len(set(under)) and set(under) == want_under
        assert len(rest) == len(set(rest)) and set(rest) == want - want_under


def test_asserting_hook_clause_is_no_conflict():
    # x1, x2, x3 are decided on levels 1-3; [-1, -3] holds one literal on
    # the top level, so it asserts -3 on level 1 without analysis
    s = Solver(3, num_static=3)
    s.add_cnf([[1, 2, 3]])
    seen = []

    def on_complete(model):
        seen.append(tuple(model[1:]))
        if len(seen) == 1:
            assert s.decision_literals() == [1, 2, 3]
            return [-1, -3]
        clause = s._externals[-1]
        assert s._reason[3] is clause and s._level[3] == 1
        assert s._trail.index(_enc(-3)) < s._trail.index(_enc(2))
        assert s.decision_literals() == [1, 2]
        assert_each_clause_watched_twice(s)
        return None

    s._analyze = None  # no analysis may run
    assert s.solve(on_complete=on_complete) is not None
    assert seen == [(True, True, True), (True, True, False)]
    assert s.conflicts == 0 and not s._learnts


def test_hook_clause_with_two_top_level_literals_is_analysed():
    # x2 implies x3 on level 2, so [-2, -3] holds two literals there
    s = Solver(3, num_static=3)
    s.add_cnf([[-2, 3]])
    analysed = []
    inner = s._analyze
    s._analyze = lambda confl: analysed.append(list(confl)) or inner(confl)
    models = []

    def on_complete(model):
        models.append(tuple(model[1:]))
        return [-2, -3] if len(models) == 1 else None

    assert s.solve(on_complete=on_complete) is not None
    assert models == [(True, True, True), (True, False, True)]
    assert s.conflicts == 1 and analysed == [[_enc(-2), _enc(-3)]]


# Solver.stats() per n=5 diagonal, then, for the incremental backend, the
# (conflicts, propagations) of the complete oracle solver.
# These pin the search itself: an engine change that is meant to leave the
# search alone must reproduce them exactly.  A change that alters the search
# on purpose re-records them and says so in CHANGES.md.
PINNED_N5_SEARCH = {
    "backtrack": {
        "(1 2 3 4 5)": (15, 15, 470, 11),
        "(1 2 3 4)": (33, 23, 822, 17),
        "(1 2 3)(4 5)": (21, 14, 583, 10),
        "(1 2 3)": (25, 15, 622, 10),
        "(1 2)(3 4)": (62, 30, 1188, 26),
        "(1 2)": (64, 24, 1553, 22),
        "id": (98, 75, 3027, 72),
    },
    "incremental": {
        "(1 2 3 4 5)": (15, 15, 470, 11, (5, 1035)),
        "(1 2 3 4)": (33, 23, 822, 17, (29, 5753)),
        "(1 2 3)(4 5)": (21, 14, 583, 10, (31, 5329)),
        "(1 2 3)": (25, 15, 622, 10, (40, 6355)),
        "(1 2)(3 4)": (62, 30, 1188, 26, (58, 6836)),
        "(1 2)": (64, 24, 1553, 22, (94, 11017)),
        "id": (98, 75, 3026, 72, (370, 20779)),
    },
}


def test_search_pinned_on_every_n5_diagonal(monkeypatch):
    hooks_made = []

    class RecordingHooks(run.MinimalityHooks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hooks_made.append(self)

    monkeypatch.setattr(run, "MinimalityHooks", RecordingHooks)
    got = {}
    for backend in PINNED_N5_SEARCH:
        config = RunConfig(n=5, backend=backend)
        got[backend] = {}
        for d in representative_diagonals(5):
            hooks_made.clear()
            _, stats = enumerate_diagonal(config, d)
            e = stats.engine
            row = (e["decisions"], e["conflicts"], e["propagations"], e["learned"])
            oracle = hooks_made[0]._complete_oracle
            if oracle is not None:
                o = oracle.solver.stats()
                row += ((o["conflicts"], o["propagations"]),)
            got[backend][d.label()] = row
    assert got == PINNED_N5_SEARCH

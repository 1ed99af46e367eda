"""A self-contained CDCL SAT solver with external-propagator hooks.

Features the enumeration pipeline relies on: two-watched-literal
propagation, first-UIP clause learning with cheap minimization, Luby
restarts, LBD-based deletion of learned clauses, incremental solving under
assumptions, and a user propagator that decides every full assignment: it
accepts the model, which `solve` then returns, or hands back a clause the
search installs and goes on from.  Enumeration is such a propagator: it
records each model it accepts and returns that model's blocking clause,
so `solve` ends with unsat once no assignment is left.

Literals are signed integers at the API boundary (DIMACS style) and are
encoded internally as var<<1 | sign.  Propagator clauses, breaking and
blocking clauses among them, are pinned: they are never deleted, since
they carry symmetry information whose loss would break completeness of
the breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import PropagatorContractViolation


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _luby(x: int) -> int:
    """x-th term (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat"
    model: Optional[list[bool]] = None  # indexed by variable, model[0] unused


@dataclass
class PropagatorHooks:
    """Callbacks consulted during search and at full assignments.

    on_complete decides every full assignment: None accepts it, and solve()
    returns it as a sat result.  on_partial is called before every
    `partial_frequency`-th decision and may return None.  Any clause either
    returns is installed permanently and must be falsified under the
    current trail, or, from on_partial only, unit; anything else raises
    PropagatorContractViolation.
    """

    on_complete: Callable[[list[bool]], Optional[list[int]]]
    on_partial: Optional[Callable[["AssignmentView"], Optional[list[int]]]] = None
    partial_frequency: int = 50


class AssignmentView:
    """Read-only view of the current assignment: get(var) -> True/False/None."""

    __slots__ = ("_sol",)

    def __init__(self, sol: "Solver"):
        self._sol = sol

    def get(self, var: int):
        v = self._sol._val[var << 1]
        if v == 0:
            return None
        return v > 0


class Solver:
    """CDCL solver over variables 1..num_vars.

    Branching is static: variables are picked in index order with saved
    phases (initially positive for the first `num_static` variables,
    negative for the rest).  The enumeration pipeline numbers the matrix
    variables first, in cell order with values ascending, so the trail
    prefix follows the lexicographic cell order the minimality check
    consumes.  `seed` is accepted for compatibility and has no effect.
    """

    def __init__(self, num_vars: int, num_static: int = 0, seed: int = 0, max_learnts: float = 4000.0):
        self.num_vars = num_vars
        n2 = (num_vars + 1) << 1
        self._val = [0] * n2
        self._watches: list[list[list[int]]] = [[] for _ in range(n2)]
        self._level = [0] * (num_vars + 1)
        self._reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._phase = [1] * (num_static + 1) + [-1] * (num_vars - num_static)
        self._static_head = 1
        self._seen = bytearray(num_vars + 1)
        self._learnts: list[tuple[int, list[int]]] = []  # (lbd, clause)
        self._externals: list[list[int]] = []
        self._clauses: list[list[int]] = []
        self._max_learnts = max_learnts
        self._asm_stack: list[int] = []  # assumptions currently held as levels 1..k
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.trace = None  # optional text stream for conflict/restart logging

    # ------------------------------------------------------------------ basics

    def _attach(self, c: list[int]):
        self._watches[c[0]].append(c)
        self._watches[c[1]].append(c)

    def _enqueue(self, enc: int, reason: Optional[list[int]]):
        val = self._val
        val[enc] = 1
        val[enc ^ 1] = -1
        v = enc >> 1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(enc)

    def _new_level(self):
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, lvl: int):
        if len(self._trail_lim) <= lvl:
            return
        trail = self._trail
        val = self._val
        phase = self._phase
        reason = self._reason
        lim = self._trail_lim[lvl]
        head = self._static_head
        for idx in range(len(trail) - 1, lim - 1, -1):
            enc = trail[idx]
            v = enc >> 1
            val[enc] = 0
            val[enc ^ 1] = 0
            phase[v] = -1 if (enc & 1) else 1
            reason[v] = None
            if v < head:
                head = v
        self._static_head = head
        del trail[lim:]
        del self._trail_lim[lvl:]
        if len(self._asm_stack) > lvl:
            del self._asm_stack[lvl:]
        self._qhead = lim

    def add_cnf(self, clauses: Iterable[Sequence[int]]):
        """Install original clauses; call before or between searches.

        Each is stored as `_add_normalised` alone would store it; a clause
        over distinct variables, none assigned (none can be while the trail
        is empty), is attached directly."""
        if not self.ok:
            return
        self._cancel_until(0)
        trail = self._trail
        watches = self._watches
        originals = self._clauses
        assigned = self._val.__getitem__
        for cl in clauses:
            enc = [l + l if l > 0 else 1 - l - l for l in cl]  # _enc, inlined
            n = len(enc)
            if n > 1 and len(set(map(abs, cl))) == n and not (trail and any(map(assigned, enc))):
                originals.append(enc)
                watches[enc[0]].append(enc)
                watches[enc[1]].append(enc)
            elif not self._add_normalised(enc):
                return

    def _add_normalised(self, enc: list[int]) -> bool:
        """Install an encoded clause at level 0 minus repeated and false literals
        (skipped if satisfied or a tautology, propagated if unit); False once unsat."""
        val = self._val
        lits = []
        seen = set()
        for e in enc:
            if e ^ 1 in seen:
                return True  # tautology
            if e in seen:
                continue
            seen.add(e)
            if val[e] == 1:
                return True
            if val[e] != -1:
                lits.append(e)
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self._clauses.append(lits)
        self._attach(lits)
        return True

    # ------------------------------------------------------------- propagation

    def _propagate(self) -> Optional[list[int]]:
        val = self._val
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        lvl = len(self._trail_lim)
        qhead = self._qhead
        ntrail = len(trail)
        nprops = 0
        confl = None
        while qhead < ntrail:
            p = trail[qhead]
            qhead += 1
            nprops += 1
            fenc = p ^ 1
            ws = iter(watches[fenc])
            kept = watches[fenc] = []
            for c in ws:
                # a true other watch leaves c as it is; else c[1] is made the false one
                c0 = c[0]
                if c0 == fenc:
                    c0 = c[1]
                    if val[c0] == 1:
                        kept.append(c)
                        continue
                    c[0] = c0
                    c[1] = fenc
                elif val[c0] == 1:
                    kept.append(c)
                    continue
                t = 2
                n = len(c)
                while t < n:
                    lt = c[t]
                    if val[lt] != -1:
                        c[1] = lt
                        c[t] = fenc
                        watches[lt].append(c)
                        break
                    t += 1
                else:  # no replacement watch: c is unit or false
                    kept.append(c)
                    if val[c0] == -1:
                        kept.extend(ws)  # the unvisited tail stays watched
                        confl = c
                        qhead = ntrail
                        break
                    val[c0] = 1
                    val[c0 ^ 1] = -1
                    v = c0 >> 1
                    level[v] = lvl
                    reason[v] = c
                    trail.append(c0)
                    ntrail += 1
            if confl is not None:
                break
        self._qhead = qhead
        self.propagations += nprops
        return confl

    # ---------------------------------------------------------------- learning

    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        """First-UIP learning. Returns (learnt encoded, backjump level, lbd)."""
        seen = self._seen
        level = self._level
        trail = self._trail
        cur = len(self._trail_lim)
        learnt = [0]
        path = 0
        idx = len(trail) - 1
        p = -1
        cl = confl
        while True:
            start = 0 if p == -1 else 1
            for t in range(start, len(cl)):
                q = cl[t]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    if level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            cl = self._reason[v]
            seen[v] = 0
            path -= 1
            if path == 0:
                break
        learnt[0] = p ^ 1
        collected = learnt
        # cheap local minimization: drop literals implied by the rest
        keep = [learnt[0]]
        for q in learnt[1:]:
            r = self._reason[q >> 1]
            if r is None:
                keep.append(q)
                continue
            if all(seen[x >> 1] or level[x >> 1] == 0 for x in r[1:]):
                continue
            keep.append(q)
        learnt = keep
        if len(learnt) == 1:
            bt = 0
        else:
            mx = 1
            for t in range(2, len(learnt)):
                if level[learnt[t] >> 1] > level[learnt[mx] >> 1]:
                    mx = t
            learnt[1], learnt[mx] = learnt[mx], learnt[1]
            bt = level[learnt[1] >> 1]
        lbd = len({level[q >> 1] for q in learnt})
        for q in collected:
            seen[q >> 1] = 0
        return learnt, bt, lbd

    def _record_learnt(self, learnt: list[int], bt: int, lbd: int):
        self._cancel_until(bt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self._learnts.append((lbd, learnt))
            self._attach(learnt)
            self._enqueue(learnt[0], learnt)

    def _on_conflict(self, confl: list[int]) -> bool:
        """Learn from a conflict; False when the formula is proved unsat."""
        self.conflicts += 1
        if self.trace is not None:
            self.trace.write(f"conflict {self.conflicts} level {len(self._trail_lim)}\n")
        if not self._trail_lim:
            self.ok = False
            return False
        # confl holds a current-level literal: a propagation conflict
        # through the literal just propagated, a hook clause through the
        # backjump to its top level
        learnt, bt, lbd = self._analyze(confl)
        self._record_learnt(learnt, bt, lbd)
        return True

    def _reduce_db(self):
        """Drop the worst half of the deletable learned clauses."""
        locked = set()
        for v in range(1, self.num_vars + 1):
            r = self._reason[v]
            if r is not None:
                locked.add(id(r))
        ranked = sorted(
            (e for e in self._learnts if id(e[1]) not in locked and len(e[1]) > 2 and e[0] > 2),
            key=lambda e: (e[0], -len(e[1])),
        )
        dropped = [c for _, c in ranked[len(ranked) // 2 :]]
        drop = {id(c) for c in dropped}
        watches = self._watches
        # unwatch by identity: a kept clause may hold the same literals
        for lit in {lit for c in dropped for lit in c[:2]}:
            watches[lit] = [c for c in watches[lit] if id(c) not in drop]
        self._learnts = [e for e in self._learnts if id(e[1]) not in drop]
        self._max_learnts *= 1.3

    # ---------------------------------------------------------------- decisions

    def _pick_branch_lit(self) -> Optional[int]:
        val = self._val
        v = self._static_head
        num_vars = self.num_vars
        while v <= num_vars and val[v << 1] != 0:
            v += 1
        self._static_head = v
        if v > num_vars:
            return None
        return (v << 1) if self._phase[v] > 0 else (v << 1) | 1

    # ------------------------------------------------------ incremental solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        hooks: Optional[PropagatorHooks] = None,
    ) -> SolveResult:
        """Search under assumptions; learned clauses persist across calls.

        Returns SAT with a complete model that hooks.on_complete (if given)
        accepted, or UNSAT when no such model satisfies the assumptions.
        Assumption levels shared with the previous call are kept in place,
        so runs over similar assumption sets skip most re-propagation.
        """
        if not self.ok:
            return SolveResult("unsat")
        asm = [_enc(l) for l in assumptions]
        held = self._asm_stack
        keep = 0
        limit_keep = min(len(asm), len(held))
        while keep < limit_keep and held[keep] == asm[keep]:
            keep += 1
        self._cancel_until(keep)
        return self._search(asm, hooks)

    def _search(self, asm: list[int], hooks: Optional[PropagatorHooks]) -> SolveResult:
        """The CDCL main loop.

        The encoded assumptions `asm` take levels 1..len(asm), and restarts
        cancel back to them.  A full assignment
        goes to hooks.on_complete: None accepts it, and any other answer is
        a clause to install before the search goes on, as is a clause from
        hooks.on_partial.
        """
        nasm = len(asm)
        on_partial = hooks.on_partial if hooks is not None else None
        view = AssignmentView(self)
        restart_count = 0
        limit = 100 * _luby(restart_count)
        since_restart = 0
        while self.ok:
            confl = self._propagate()
            if confl is not None:
                if not self._on_conflict(confl):
                    break
                since_restart += 1
                continue
            lvl = len(self._trail_lim)
            if lvl < nasm:
                p = asm[lvl]
                v = self._val[p]
                if v == -1:
                    return SolveResult("unsat")
                self._new_level()
                self._asm_stack.append(p)
                if v == 0:
                    self._enqueue(p, None)
                continue
            if len(self._trail) == self.num_vars:
                model = [False] * (self.num_vars + 1)
                val = self._val
                for v in range(1, self.num_vars + 1):
                    model[v] = val[v << 1] == 1
                clause = hooks.on_complete(model) if hooks is not None else None
                if clause is None:
                    self._cancel_until(nasm)
                    return SolveResult("sat", model=model)
                if not self._handle_hook_clause(clause):
                    break
                continue
            if since_restart >= limit:
                restart_count += 1
                self.restarts += 1
                if self.trace is not None:
                    self.trace.write(f"restart {self.restarts}\n")
                since_restart = 0
                limit = 100 * _luby(restart_count)
                self._cancel_until(nasm)
                continue
            if len(self._learnts) >= self._max_learnts:
                self._reduce_db()
            # counted before the partial hook, even when its clause preempts the decision
            self.decisions += 1
            if on_partial is not None and self.decisions % hooks.partial_frequency == 0:
                clause = on_partial(view)
                if clause is not None:
                    if not self._handle_hook_clause(clause):
                        break
                    continue
            lit = self._pick_branch_lit()
            self._new_level()
            self._enqueue(lit, None)
        return SolveResult("unsat")

    # ----------------------------------------------------------- hook clauses

    def _handle_hook_clause(self, clause: Sequence[int]) -> bool:
        """Install a propagator clause permanently; False once the formula is unsat.

        A unit clause goes to level 0, where the main loop propagates it.  A
        longer one is watched on its free literal, if any, then its false
        literals by level descending; it propagates that free literal, or
        else is analysed as a conflict at its top level.
        """
        val = self._val
        enc = [_enc(l) for l in clause]
        vals = [val[e] for e in enc]
        if 1 in vals:
            raise PropagatorContractViolation("returned clause is satisfied")
        if vals.count(0) > 1:
            raise PropagatorContractViolation("returned clause has several free literals")
        enc = list(dict.fromkeys(enc))  # a false literal may repeat
        if not enc:
            self.ok = False
            return False
        if len(enc) == 1:
            self._cancel_until(0)
            if val[enc[0]] == -1:
                self.ok = False
                return False
            self._enqueue(enc[0], None)
            return True
        level = self._level
        enc.sort(key=lambda e: (-val[e], -level[e >> 1]))
        self._externals.append(enc)
        self._attach(enc)
        first = enc[0]
        if val[first] == 0:
            self._enqueue(first, enc)
            return True
        top = level[first >> 1]
        if top == 0:
            self.ok = False
            return False
        self._cancel_until(top)
        return self._on_conflict(enc)

    def stats(self) -> dict:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": len(self._learnts),
        }

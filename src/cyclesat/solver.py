"""A self-contained CDCL SAT solver with external-propagator hooks.

Features the enumeration pipeline relies on: two-watched-literal
propagation, first-UIP clause learning with cheap minimization, LBD-based
deletion of learned clauses, incremental solving under assumptions, and
the two callbacks of `solve(assumptions, on_complete, on_partial)`, which
returns a model on_complete accepted, or None once none is left.  Each
full assignment goes to on_complete, which accepts it or hands back a
clause the search installs and goes on from; on_partial, called before
each decision, reads the assignment through `value` and may hand back a
clause too.  Enumeration is such an on_complete: it records each model
and blocks it with the negation of `decision_literals`, so `solve`
returns None once no assignment is left.  Propagation derives only
consequences of the loaded clauses, the attached propagator's constraint
and the pinned hook clauses, so the decisions fix the model, and their
negation excludes that model and no assignment still open, for good.  A
hook clause that holds one literal on its top level, as a blocking clause
always does, asserts that literal after a backjump: it is no conflict, so
it is missing from `conflicts` and the trace log, and it is not analysed
or learned a second time.  A propagator attached with `attach_propagator`
is called on each processed literal that sets one of its variables true,
inside the propagation loop: it implies literals, each with a reason
clause, or reports a conflict clause.

Literals are signed integers at the API boundary (DIMACS style) and are
encoded internally as var<<1 | sign.  Hook clauses, breaking and
blocking clauses among them, are pinned: they are never deleted, since
they carry symmetry information whose loss would break completeness of
the breaking.  An attached propagator's reason clauses are kept only as
reasons, and its conflict clauses only through what is learned from them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import PropagatorContractViolation


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


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
        self.trace = None  # optional text stream for the conflict log
        self._propagator = None
        self._propagator_lim = 0  # encoded positive literals below it go to the propagator

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

    def value(self, var: int) -> Optional[bool]:
        """The current value of `var`: True, False, or None while unassigned."""
        v = self._val[var << 1]
        return None if v == 0 else v > 0

    def decision_literals(self) -> list[int]:
        """The literals decided or assumed on levels 1 and up, in level order.

        Together with the clauses the solver holds they imply the rest of
        the trail.  A level whose assumption was already true holds none.
        """
        trail = self._trail
        out = []
        for lvl, lim in enumerate(self._trail_lim, 1):
            # an empty level's start is past the trail or on a later level
            if lim < len(trail) and self._level[trail[lim] >> 1] == lvl:
                e = trail[lim]
                out.append(-(e >> 1) if e & 1 else e >> 1)
        return out

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

    def attach_propagator(self, propagator):
        """Have `_propagate` call propagator.propagate(p) after the watch
        loop of each processed literal p that sets one of the variables
        1..propagator.num_vars true.

        The call may put implied literals on the trail with `_enqueue` and
        a reason clause: the implied literal first, every other literal
        false.  It returns None, or a conflict clause, all false, that goes
        to `_on_conflict` like any other.  Reason clauses are neither
        watched nor pinned.  Attach before loading any clause, so that the
        propagator sees every literal on the trail."""
        if self._trail or self._clauses:
            raise ValueError("attach the propagator before loading clauses")
        self._propagator = propagator
        self._propagator_lim = (propagator.num_vars + 1) << 1

    def _propagate(self) -> Optional[list[int]]:
        val = self._val
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        lvl = len(self._trail_lim)
        qhead = self._qhead
        ntrail = len(trail)
        lim = self._propagator_lim
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
            if p < lim and not p & 1:  # lim is 0 with no propagator
                confl = self._propagator.propagate(p)
                ntrail = len(trail)
                if confl is not None:
                    qhead = ntrail
                    break
        self._qhead = qhead
        self.propagations += nprops
        return confl

    # ---------------------------------------------------------------- learning

    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        """First-UIP learning. Returns (learnt encoded, backjump level, lbd)."""
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        cur = len(self._trail_lim)
        learnt = [0]
        path = 0
        idx = len(trail) - 1
        p = -1
        cl = confl
        while True:
            # a reason clause starts with the literal it implied, p, whose
            # variable stays marked until the clause is walked
            for q in cl:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    if level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            if p != -1:
                seen[p >> 1] = 0
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            path -= 1
            if path == 0:
                break
            cl = reason[p >> 1]
        seen[p >> 1] = 0
        learnt[0] = p ^ 1
        collected = learnt
        # cheap local minimization: drop a literal whose reason holds only
        # marked or level-0 literals besides its own, which is marked
        keep = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r is None:
                keep.append(q)
                continue
            for x in r:
                v = x >> 1
                if not seen[v] and level[v]:
                    keep.append(q)
                    break
        learnt = keep
        if len(learnt) == 1:
            bt = 0
        else:
            mx, bt = 1, level[learnt[1] >> 1]
            for t, q in enumerate(learnt[2:], 2):
                if level[q >> 1] > bt:
                    mx, bt = t, level[q >> 1]
            learnt[1], learnt[mx] = learnt[mx], learnt[1]
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

    def _pick_branch_lit(self) -> int:
        """The first unassigned variable at or above `_static_head`, in its
        saved phase; every variable below the head is assigned, so one
        exists while the trail is short of `num_vars`."""
        val = self._val
        v = self._static_head
        while val[v << 1] != 0:
            v += 1
        self._static_head = v
        return (v << 1) if self._phase[v] > 0 else (v << 1) | 1

    # ------------------------------------------------------ incremental solving

    def solve(self, assumptions: Sequence[int] = (), on_complete=None, on_partial=None) -> Optional[list[bool]]:
        """Search under assumptions; learned clauses persist across calls.

        Returns a complete model, indexed by variable (index 0 unused),
        that on_complete accepted, or None when no such model satisfies
        the assumptions.  on_complete(model), if given, decides every full
        assignment: None accepts it, and any other answer is a clause to
        install before the search goes on.  on_partial(), if given, is
        called before every decision, counted first, and returns None or
        such a clause; it reads the assignment through `value`.  Any
        clause either returns is installed permanently and must be
        falsified under the current trail, or, from on_partial only, unit;
        anything else raises PropagatorContractViolation.

        The encoded assumptions take levels 1..len(assumptions), which the
        search leaves only by backjumping.  Assumption levels shared with
        the previous call are kept in place, so runs over similar
        assumption sets skip most re-propagation.
        """
        if not self.ok:
            return None
        asm = [_enc(l) for l in assumptions]
        held = self._asm_stack
        keep = 0
        limit_keep = min(len(asm), len(held))
        while keep < limit_keep and held[keep] == asm[keep]:
            keep += 1
        self._cancel_until(keep)
        nasm = len(asm)
        while self.ok:
            confl = self._propagate()
            if confl is not None:
                if not self._on_conflict(confl):
                    break
                continue
            lvl = len(self._trail_lim)
            if lvl < nasm:
                p = asm[lvl]
                v = self._val[p]
                if v == -1:
                    return None
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
                clause = on_complete(model) if on_complete is not None else None
                if clause is None:
                    self._cancel_until(nasm)
                    return model
                if not self._handle_hook_clause(clause):
                    break
                continue
            if len(self._learnts) >= self._max_learnts:
                self._reduce_db()
            # counted before the partial hook, even when its clause preempts the decision
            self.decisions += 1
            if on_partial is not None:
                clause = on_partial()
                if clause is not None:
                    if not self._handle_hook_clause(clause):
                        break
                    continue
            lit = self._pick_branch_lit()
            self._new_level()
            self._enqueue(lit, None)
        return None

    # ----------------------------------------------------------- hook clauses

    def _handle_hook_clause(self, clause: Sequence[int]) -> bool:
        """Install a propagator clause permanently; False once the formula is unsat.

        A unit clause goes to level 0, where the main loop propagates it.  A
        longer one is watched on its free literal, if any, then its false
        literals by level descending; it propagates that free literal.  A
        falsified one with a single literal on its top level asserts that
        literal: the search backjumps to the clause's second-highest level
        and enqueues it with the clause as reason, with no analysis, and
        neither `conflicts` nor the trace log sees it.
        Any other falsified clause is analysed as a conflict at its top
        level.
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
        second = level[enc[1] >> 1]
        if second < top:
            self._cancel_until(second)
            self._enqueue(first, enc)
            return True
        self._cancel_until(top)
        return self._on_conflict(enc)

    def stats(self) -> dict:
        out = {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned": len(self._learnts),
        }
        if self._propagator is not None:
            out.update(self._propagator.stats())
        return out

"""Conflict-driven clause learning SAT core.

Two-watched-literal propagation, first-UIP learning, exponential variable
activities kept in a heap (ties to the lowest index), Luby restarts, phase
saving, and solving under assumptions; the failed-assumption subset of an
unsat answer is what unsat cores are built from. A variable saves no phase
until it is first unassigned; a decision without one asks the theory's
``phase``.

Clauses can be deleted as well as added. ``remove`` deletes given clauses
and every learned clause over given variables, then releases the variables,
level-0 facts over them included; ``new_var`` reuses a released slot before
it grows, so a long session of additions and deletions keeps its size. A
session passes the variables its one liveness rule retires (see
``engine``). Watch lists and reasons refer to a clause by reference, as
MiniSat's do (Een & Sorensson, SAT 2003), so a deletion, a halving of the
learned clauses included, unlinks each deleted clause from its two watch
lists and renumbers nothing.

The trail outlives an answer (van der Tak, Ramos & Heule, "Reusing the
assignment trail in CDCL solvers", JSAT 2011). The next ``solve``
backtracks only to the levels of the leading assumptions both calls share,
so a theory keeps the work of those levels; restarts still go to level 0.
``add_clause`` keeps the trail for a clause with two free literals, and
``remove`` backtracks only below the variables it releases and the
literals whose reasons it deletes.

A theory plugs in through six seams: every literal appended to the trail
is forwarded to ``on_assert``, backjumps call ``on_backtrack``, implied
literals arrive from ``propagate`` with an opaque explanation handle
that is only cashed in (via ``explain``) if conflict analysis needs it,
``phase`` names a first decision's polarity, and ``on_solution`` runs on
a full assignment. There is no final check: the theory vetted each
literal as it was asserted. ``propagate`` waits until the last
assumption is placed, where an implication can steer the search
(Nieuwenhuis, Oliveras & Tinelli, JACM 2006), and runs only once
``on_assert`` has seen the whole trail, so every literal it returns is
unassigned and is enqueued as it comes. A literal's reason is the clause
that implied it (a list), the theory's handle (any other object), or
None. A conflict at an assumption level is final, as in MiniSat: the
assumptions alone refute, so the answer is unsat with the assumptions
that its literals rest on, with nothing learned. Literals are signed
ints, clauses are lists of them.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush


class InternalError(Exception):
    """An invariant the solver relies on was violated. Every layer raises
    this one type for its own faults, so callers can tell them from bad
    input."""


class NullTheory:
    """No-op hooks for purely Boolean solving."""

    def on_assert(self, lit, level):
        return None

    def propagate(self):
        return ()

    def explain(self, handle):
        raise InternalError("no theory attached")

    def on_backtrack(self, level):
        pass

    def on_solution(self):
        pass

    def phase(self, var):
        return False


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict | None = None  # var -> bool, total over the live variables
    failed: list = field(default_factory=list)  # assumptions, in order


_RESCALE = 1e100
_TIMED_OUT = "timed out"  # _propagate_full's answer past the deadline


def _luby(base, x):
    """x-th element (0-based) of the Luby restart sequence, scaled by base."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return base * (1 << seq)


class Solver:
    def __init__(self, theory=None):
        self.theory = theory if theory is not None else NullTheory()
        self.values = [0]  # var-indexed: 0 unassigned, 1 true, -1 false
        self.levels = [0]
        self.reasons = [None]  # clause (a list), theory handle, or None
        self.phase = [None]  # saved polarity; None until first unassigned
        self.activity = [0.0]
        # (-activity, var) of every unassigned live variable, plus stale
        # entries: an entry counts only while ``in_heap[var]`` holds and its
        # activity is the variable's own
        self.heap = []
        self.in_heap = [False]
        self.free_vars = []  # released slots, reused by new_var
        self.watches = [[], []]  # literal-indexed (2v / 2v+1)
        self.clauses = []
        # id of a learned clause -> activity; the store keeps the clause,
        # so the id stays its own
        self.cla_activity = {}
        self.trail = []
        self.trail_lim = []
        self.assumed = []  # the last call's assumptions; see solve
        self.qhead = 0
        self.th_head = 0
        self.ok = True
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.learned_limit = 50000
        self.stats = {
            "decisions": 0, "conflicts": 0, "propagations": 0,
            "restarts": 0, "theory_conflicts": 0, "theory_propagations": 0,
        }

    # -- construction -------------------------------------------------------

    def new_var(self):
        if self.free_vars:
            v = self.free_vars.pop()
            self.phase[v] = None
            self.activity[v] = 0.0
            self.in_heap[v] = True
            heappush(self.heap, (-0.0, v))
            return v
        self.values.append(0)
        self.levels.append(0)
        self.reasons.append(None)
        self.phase.append(None)
        self.activity.append(0.0)
        self.in_heap.append(True)
        self.watches.append([])
        self.watches.append([])
        v = len(self.values) - 1
        # activities are never negative and v tops every index, so no key
        # exceeds (-0.0, v): it may sit at a leaf
        self.heap.append((-0.0, v))
        return v

    @property
    def n_vars(self):
        return len(self.values) - 1

    def value(self, lit):
        v = self.values[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits):
        """Store and watch a clause; False signals level-0 unsatisfiability.

        Tautologies are dropped, and literals true or false at level 0 are
        simplified away; a unit is enqueued and propagated at once. Above
        level 0 a clause with two free literals is watched on them and
        keeps the trail. Any other clause is unit or false under the trail
        or satisfied above level 0, and backtracks to level 0 first.
        """
        if not self.ok:
            return False
        values, levels = self.values, self.levels
        seen = set()
        out = []
        for l in lits:
            if -l in seen:
                return True
            if l in seen:
                continue
            v = abs(l)
            if values[v] and not levels[v]:
                if self.value(l) == 1:
                    return True
                continue
            seen.add(l)
            out.append(l)
        if self.trail_lim:
            # watch two free literals and keep the trail; a clause with
            # fewer is unit, false or satisfied under the trail, and is
            # added at level 0
            free = [k for k, l in enumerate(out) if not values[abs(l)]]
            if len(free) >= 2:
                for k, f in enumerate(free[:2]):
                    out[k], out[f] = out[f], out[k]
            else:
                self._cancel_until(0)
        if len(out) < 2:
            if not out or not self._enqueue(out[0], None) \
                    or self.propagate() is not None:
                self.ok = False
                return False
            return True
        self.clauses.append(out)
        self._watch(out[0], out)
        self._watch(out[1], out)
        return True

    def _watch(self, lit, c):
        self.watches[2 * abs(lit) + (lit < 0)].append(c)

    def _enqueue(self, lit, reason):
        v = abs(lit)
        val = self.values[v]
        if val != 0:
            return val == (1 if lit > 0 else -1)
        self.values[v] = 1 if lit > 0 else -1
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.trail.append(lit)
        return True

    # -- propagation ---------------------------------------------------------

    def propagate(self):
        """Boolean unit propagation to fixpoint; the conflict clause or None."""
        values = self.values
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            fi = 2 * abs(lit) + (lit > 0)  # watchers of the falsified literal
            ws = self.watches[fi]
            i = j = 0
            nw = len(ws)
            while i < nw:
                c = ws[i]
                i += 1
                if c[0] == -lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                # value() inline: most of the solver's value reads are here
                val = values[first] if first > 0 else -values[-first]
                if val == 1:
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    q = c[k]
                    if (values[q] if q > 0 else -values[-q]) != -1:
                        c[1], c[k] = c[k], c[1]
                        self._watch(c[1], c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if val == -1:
                    while i < nw:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self.qhead = len(self.trail)
                    return c
                self._enqueue(first, c)
                self.stats["propagations"] += 1
            del ws[j:]
        return None

    def _propagate_full(self, deadline=None):
        """Boolean + theory propagation to a joint fixpoint.

        Returns a conflict as a list of currently-false literals, None, or
        ``_TIMED_OUT`` past ``deadline`` (see ``solve``).
        """
        if deadline is not None and time.monotonic() > deadline:
            return _TIMED_OUT
        theory = self.theory
        while True:
            c = self.propagate()
            if c is not None:
                return list(c)
            while self.th_head < len(self.trail):
                if deadline is not None and self.th_head & 63 == 63 \
                        and time.monotonic() > deadline:
                    return _TIMED_OUT
                lit = self.trail[self.th_head]
                self.th_head += 1
                confl = theory.on_assert(lit, self.levels[abs(lit)])
                if confl is not None:
                    self.stats["theory_conflicts"] += 1
                    return [-l for l in confl]
            if len(self.trail_lim) < len(self.assumed):
                return None  # implications wait for the last assumption
            implied = theory.propagate()
            if not implied:
                return None  # both heads stand at the end of the trail
            for lit, handle in implied:
                self._enqueue(lit, handle)
            self.stats["theory_propagations"] += len(implied)

    # -- backtracking ----------------------------------------------------------

    def _cancel_until(self, level):
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        in_heap = self.in_heap
        for pos in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[pos]
            v = abs(lit)
            self.phase[v] = lit > 0
            self.values[v] = 0
            self.reasons[v] = None
            if not in_heap[v]:  # picked since: put it back
                in_heap[v] = True
                heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, bound)
        self.th_head = min(self.th_head, bound)
        self.theory.on_backtrack(level)

    # -- analysis ----------------------------------------------------------------

    def _bump_var(self, v):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > _RESCALE:
            inv = 1.0 / _RESCALE
            for k in range(1, len(self.activity)):
                self.activity[k] *= inv
            self.var_inc *= inv
            self._rebuild_heap()
        elif self.in_heap[v]:
            # the entry with the old activity goes stale
            heappush(self.heap, (-act, v))
            if len(self.heap) > 2 * len(self.values) + 64:
                self._rebuild_heap()

    def _rebuild_heap(self):
        act = self.activity
        self.heap = [(-act[v], v) for v, held in enumerate(self.in_heap)
                     if held]
        heapify(self.heap)

    def _bump_clause(self, c):
        key = id(c)
        if key in self.cla_activity:
            act = self.cla_activity[key] + self.cla_inc
            if act > _RESCALE:
                inv = 1.0 / _RESCALE
                for k in list(self.cla_activity):
                    self.cla_activity[k] *= inv
                self.cla_inc *= inv
                act = self.cla_activity[key] + self.cla_inc
            self.cla_activity[key] = act

    def _reason_lits(self, p):
        """False literals feeding the implication of trail literal ``p``."""
        r = self.reasons[abs(p)]
        if r is None:
            raise InternalError("asked for the reason of a decision")
        if isinstance(r, list):
            self._bump_clause(r)
            return [q for q in r if q != p]
        return [-a for a in self.theory.explain(r)]

    def _analyze(self, confl_lits):
        """First-UIP learning; returns (learned clause, backjump level).

        The asserting literal sits at position 0; position 1 holds a literal
        of the backjump level so the watches stay sound after the jump.
        """
        cur = len(self.trail_lim)
        learned = [None]
        seen = set()
        pathc = 0
        p = None
        idx = len(self.trail) - 1
        reason_side = confl_lits
        first = True
        while True:
            for q in reason_side:
                v = abs(q)
                if v in seen or self.levels[v] == 0:
                    continue
                seen.add(v)
                self._bump_var(v)
                if self.levels[v] >= cur:
                    pathc += 1
                else:
                    learned.append(q)
            if first and pathc == 0:
                raise InternalError("conflict without a current-level literal")
            first = False
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            seen.discard(abs(p))
            pathc -= 1
            if pathc <= 0:
                break
            reason_side = self._reason_lits(p)
        learned[0] = -p
        backjump = 0
        if len(learned) > 1:
            mi = max(range(1, len(learned)),
                     key=lambda t: self.levels[abs(learned[t])])
            learned[1], learned[mi] = learned[mi], learned[1]
            backjump = self.levels[abs(learned[1])]
        return learned, backjump

    def _analyze_final(self, lits):
        """The assumptions on the trail that make every literal of ``lits``
        false, each of which sits at level 0 or an assumption level."""
        failed = set()
        seen = {abs(q) for q in lits if self.levels[abs(q)] > 0}
        stop = self.trail_lim[0] if self.trail_lim else len(self.trail)
        for pos in range(len(self.trail) - 1, stop - 1, -1):
            lit = self.trail[pos]
            v = abs(lit)
            if v not in seen:
                continue
            if self.reasons[v] is None:
                failed.add(lit)
            else:
                for q in self._reason_lits(lit):
                    if self.levels[abs(q)] > 0:
                        seen.add(abs(q))
            seen.discard(v)
        return failed

    # -- clause database -----------------------------------------------------------

    def _store_learned(self, lits):
        self.clauses.append(lits)
        self.cla_activity[id(lits)] = self.cla_inc
        self._watch(lits[0], lits)
        self._watch(lits[1], lits)

    def _reduce_learned(self):
        """Activity-based halving of the learned clause store: the lowest
        activity goes first, the newer clause first among equals."""
        act = self.cla_activity
        locked = {id(r) for r in self.reasons if isinstance(r, list)}
        victims = sorted((act[id(c)], -k, id(c))
                         for k, c in enumerate(self.clauses)
                         if id(c) in act and id(c) not in locked and len(c) > 2)
        drop = {key for _, _, key in victims[: len(victims) // 2]}
        if drop:
            self._delete(drop)

    def _delete(self, drop):
        """Delete the stored clauses whose ids are in ``drop``. Each leaves
        the store, its learned activity and, by identity, the watch lists
        of its two watched literals, so an equal clause stays watched. A
        reason whose clause is gone becomes None, which only a level-0
        literal may lose, since nothing reads its reason."""
        kept, lists = [], set()
        for c in self.clauses:
            if id(c) in drop:
                lists.add(2 * abs(c[0]) + (c[0] < 0))
                lists.add(2 * abs(c[1]) + (c[1] < 0))
                self.cla_activity.pop(id(c), None)
            else:
                kept.append(c)
        self.clauses = kept
        watches = self.watches
        for w in lists:
            watches[w] = [c for c in watches[w] if id(c) not in drop]
        reasons = self.reasons
        for lit in self.trail[:self.trail_lim[0] if self.trail_lim else None]:
            r = reasons[abs(lit)]
            if isinstance(r, list) and id(r) in drop:
                reasons[abs(lit)] = None

    def remove(self, clauses, variables):
        """Delete the stored ``clauses`` (the list objects ``add_clause``
        stored) and every learned clause over one of ``variables``, then
        release the ``variables`` for ``new_var`` to reuse; returns them in
        increasing order.

        It first backtracks below the lowest level above 0 that assigns one
        of ``variables`` or holds a literal whose reason is deleted, so the
        kept trail keeps every reason it reads, and a released slot keeps
        no level. A variable fixed at level 0 leaves the level-0 trail.
        The caller vouches that no surviving input clause mentions a
        released variable (the session passes every variable that no
        stored clause of a live assertion mentions and that is not a live
        selector, a declared Boolean or an atom fixed at level 0, whose
        bound the theory keeps); deleting a learned clause is always sound.
        """
        variables = set(variables)
        learned = self.cla_activity
        drop = {id(c) for c in clauses}
        drop.update(id(c) for c in self.clauses
                    if id(c) in learned and any(abs(l) in variables for l in c))
        if self.trail_lim:
            reasons = self.reasons
            for lit in self.trail[self.trail_lim[0]:]:  # by level
                v = abs(lit)
                if v in variables or isinstance(reasons[v], list) \
                        and id(reasons[v]) in drop:
                    self._cancel_until(self.levels[v] - 1)
                    break
        if drop:
            self._delete(drop)
        end = self.trail_lim[0] if self.trail_lim else len(self.trail)
        gone = [k for k in range(end) if abs(self.trail[k]) in variables]
        for k in reversed(gone):  # in place: the theory holds the list
            self.values[abs(self.trail.pop(k))] = 0
        self.trail_lim = [b - len(gone) for b in self.trail_lim]
        self.qhead -= bisect_left(gone, self.qhead)
        self.th_head -= bisect_left(gone, self.th_head)
        freed = sorted(variables)
        for v in freed:
            self.in_heap[v] = False  # its heap entries go stale
        self.free_vars += reversed(freed)  # the lowest slot is reused first
        return freed

    # -- search -----------------------------------------------------------------

    def _pick_branch(self):
        """The unassigned live variable of highest activity, the lowest
        index among equals; None when every one is assigned."""
        heap, in_heap = self.heap, self.in_heap
        activity, values = self.activity, self.values
        while heap:
            neg, v = heappop(heap)
            if not in_heap[v] or -neg != activity[v]:
                continue  # stale
            in_heap[v] = False
            if values[v] == 0:
                return v
        return None

    def solve(self, assumptions=(), deadline=None):
        """Search under assumptions.

        Returns sat with a total model, unsat with a failed-assumption
        subset, or unknown once ``time.monotonic()`` passes ``deadline``
        (polled before the propagation that follows each assumption,
        decision, restart or conflict, and every 64 literals handed to the
        theory, where level-0 facts make one long step; the next call
        resumes that hand-off).

        An answer leaves the trail where the search stopped. The next call
        backtracks only to the levels of the leading assumptions it shares
        with this one, and carries on from there: level ``i + 1`` holds
        ``assumptions[i]`` while it stands, as every level up to the
        assumption count is built in order, and ``remove`` backtracks below
        the level of any variable it releases, so a reused slot never
        matches.
        """
        if not self.ok:
            return SolveResult("unsat")
        assumptions = list(assumptions)
        shared = 0
        for held, want in zip(self.assumed, assumptions):
            if held != want:
                break
            shared += 1
        self.assumed = assumptions
        self._cancel_until(shared)
        since_restart = 0
        restarts = 0
        while True:
            confl = self._propagate_full(deadline)
            if confl is _TIMED_OUT:
                return SolveResult("unknown")
            if confl is not None:
                level = len(self.trail_lim)
                if not level:
                    self.ok = False
                    return SolveResult("unsat")
                if level <= len(assumptions):
                    # final: its level goes, so the kept trail holds no
                    # conflict that the theory has already passed
                    failed = self._analyze_final(confl)
                    self._cancel_until(level - 1)
                    return SolveResult(
                        "unsat", failed=[a for a in assumptions if a in failed])
                self.stats["conflicts"] += 1
                since_restart += 1
                learned, bj = self._analyze(confl)
                self.var_inc /= self.var_decay
                self.cla_inc /= 0.999
                self._cancel_until(bj)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._store_learned(learned)
                    self._enqueue(learned[0], learned)
                continue
            if since_restart >= _luby(64, restarts):
                restarts += 1
                self.stats["restarts"] += 1
                since_restart = 0
                self._cancel_until(0)
                continue
            if len(self.cla_activity) > self.learned_limit:
                self._reduce_learned()
            level = len(self.trail_lim)
            if level < len(assumptions):
                p = assumptions[level]
                val = self.value(p)
                if val == 1:
                    self.trail_lim.append(len(self.trail))
                elif val == -1:
                    failed = self._analyze_final([p]) | {p}
                    return SolveResult(
                        "unsat", failed=[a for a in assumptions if a in failed])
                else:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(p, None)
                continue
            v = self._pick_branch()
            if v is None:
                # released slots are the only unassigned variables here
                model = {u: val == 1 for u, val in enumerate(self.values)
                         if val}
                self.theory.on_solution()
                return SolveResult("sat", model=model)
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            phase = self.phase[v]
            if phase is None:
                phase = self.theory.phase(v)
            self._enqueue(v if phase else -v, None)

"""Solver sessions: assertion stack, satisfiability checks, models, cores.

An assertion that a pop can retract or a core can name is guarded by a
fresh selector variable, so checks run under the active selectors as
assumptions, and the failed ones of an unsat answer are the unsat core.
With cores off, a bottom-frame assertion's root is a unit clause instead, a
level-0 fact. Pop deletes the popped assertions' clauses, then keeps a
variable only while a stored clause of a live assertion mentions it, it is
a live selector or a declared Boolean, or it is an atom fixed at level 0,
whose bound the closure keeps; a failed assertion applies the same rule.
The SAT core reuses the slots of the other variables and deletes every
learned clause over them, a retired atom leaves the theory, and an Int
constant no live atom reads gives its closure vertex back, so a long
push/check/pop session stays the size of its live ones.
Difference atoms flow to the shortest-path engine the moment the SAT core
asserts them. Implied atoms flow back as theory propagations once every
selector is assumed (a conflict among the selectors' levels is the unsat
answer), with explanations reconstructed only if conflict analysis asks.
An atom's first decision takes the polarity the closure's model satisfies,
which rewrites few cells and never conflicts; later ones keep their phase.
An answer keeps the search trail, so the next check redoes no theory work
for the assertions it shares with the last one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple, Optional

import numpy as np

from . import normalize, sat, theory
from .sat import InternalError
from .smtlib import Command, format_int, render_symbol

SUPPORTED_LOGIC = "QF_IDL"


class Response(NamedTuple):
    text: Optional[str] = None
    is_error: bool = False


def error_text(msg):
    """The ``(error "msg")`` response line, each ``"`` of ``msg`` doubled
    so that the message reads back as one SMT-LIB string."""
    return '(error "' + msg.replace('"', '""') + '")'


def _error(msg):
    return Response(error_text(msg), is_error=True)


@dataclass
class SessionConfig:
    """``produce_unsat_cores`` is read as each assertion is made."""
    produce_unsat_cores: bool = False
    minimize_core: bool = False
    time_budget_ms: Optional[int] = None


@dataclass
class _Record:
    index: int
    term: tuple
    name: Optional[str]
    selector: Optional[int]  # None: a level-0 fact of the bottom frame
    # the clauses the assertion stored (guard and gates, the very list
    # objects): what a pop deletes, and what keeps variables live
    clauses: list


@dataclass
class _Frame:
    # a frame stands for a run of push levels ending at depth ``top``; its
    # records and declarations belong to that top level
    top: int
    records: list = field(default_factory=list)
    decls: list = field(default_factory=list)


class _TheoryBridge:
    """Adapter between the SAT core's hook seams and the shortest-path engine.

    Its state is indexed as the SAT core's is (Een & Sorensson, SAT 2003):
    the table ``lits`` by literal code ``2v + (lit < 0)``, as the watch
    lists are, and the rest by variable. A literal of a live atom has the
    row ``(x, y, c, lit)``, the bound ``x - y <= c`` that it asserts. Any
    other literal (a selector, a gate, a retired atom's reused slot) reads
    None, so ``on_assert`` is one list index. ``bounds_at`` keeps the
    atoms' bounds as numpy rows, and ``level_of`` the level at which each
    atom was asserted: ``FREE`` while it is unasserted, -1 for a variable
    that is not an atom. ``on_assert`` writes the level, ``on_backtrack``
    sets every level above its own back to ``FREE`` in one ``putmask``,
    and ``retire_atom`` clears a popped atom's rows and marks its variable
    -1. The scan reads the free atoms' flat closure cells, ``y*N + x``
    entailing and ``x*N + y`` refuting, derived in one expression after
    new atoms (only they grow the closure). ``propagate`` tests every free
    atom at once, with two ``take``s of the flat closure, and returns the
    implied literals by side, then variable. The SAT core calls it once its
    last assumption is placed, and has asserted all that the last call
    returned, so a call finds nothing new unless the closure moved since:
    when the engine's ``cell_updates`` count is unchanged and no backtrack
    or new atom came in between, it tests nothing. Every kernel call
    changes at least the cell of its own edge, so the count moves with
    every commit that relaxes; an entailed commit changes no cell.
    ``on_solution`` checks the trail's bounds against the closure and keeps
    the integer model. Nothing here refers back to the session, so a
    dropped session is freed at once, undo trail included, without waiting
    for the cyclic garbage collector.
    """

    FREE = np.iinfo(np.int64).max  # the level of an unasserted atom

    def __init__(self, solver, apsp):
        self.trail = solver.trail
        self.apsp = apsp
        self.lits = [None] * 16  # literal code -> row, None for a non-atom
        self.bounds_at = np.zeros((16, 3), dtype=np.int64)  # x, y, c by var
        self.level_of = np.full(16, -1, dtype=np.int64)
        self.width = 0  # one past the highest atom variable
        self.cells = None  # (ent, ref, c) by variable; None: stale
        self.scanned = None  # cell_updates at the last scan; None: scan due
        self.atoms_tested = 0
        self.model = {}  # integer model of the last sat answer

    def register_atom(self, var, x, y, c):
        self.apsp.ensure_vertex(x if x > y else y)
        while var >= len(self.level_of):
            self.bounds_at = np.concatenate(
                (self.bounds_at, np.zeros_like(self.bounds_at)))
            self.level_of = np.concatenate(
                (self.level_of, np.full_like(self.level_of, -1)))
        self.bounds_at[var] = x, y, c
        self.level_of[var] = self.FREE
        self.width = max(self.width, var + 1)
        code = 2 * var
        if code + 1 >= len(self.lits):
            self.lits += [None] * (code + 2)
        self.lits[code] = x, y, c, var
        self.lits[code + 1] = y, x, -c - 1, -var
        self.scanned = self.cells = None

    def retire_atom(self, var):
        """Forget atom ``var``: its rows go, and no scan tests it again."""
        self.lits[2 * var] = self.lits[2 * var + 1] = None
        self.level_of[var] = -1

    def on_assert(self, lit, level):
        code = 2 * lit if lit > 0 else 1 - 2 * lit
        try:
            row = self.lits[code]
        except IndexError:  # made since the last atom: not one
            self.lits += [None] * (code + 2)
            return None
        if row is None:
            return None
        x, y, c, _ = row
        self.level_of[code >> 1] = level
        return self.apsp.assert_atom(x, y, c, lit, level)

    def propagate(self):
        if self.scanned == self.apsp.cell_updates:
            return []
        self.scanned = self.apsp.cell_updates
        free, = (self.level_of[:self.width] == self.FREE).nonzero()
        self.atoms_tested += free.size
        if not free.size:
            return []
        if self.cells is None:  # atoms came, or the closure widened
            x, y, c = self.bounds_at.T
            N = len(self.apsp._d)
            self.cells = np.stack((y * N + x, x * N + y, c))
        pos, neg = self.apsp.scan_implications(*self.cells.take(free, 1))
        lits, stamp = self.lits, self.apsp.stamp
        rows = ([lits[2 * v] for v in free[pos].tolist()]
                + [lits[2 * v + 1] for v in free[neg].tolist()])
        return [(lit, (y, x, c, stamp)) for x, y, c, lit in rows]

    def explain(self, handle):
        src, dst, bound, stamp = handle
        return self.apsp.explain_path(src, dst, bound, stamp)

    def on_backtrack(self, level):
        self.scanned = None
        levels = self.level_of[:self.width]
        np.putmask(levels, levels > level, self.FREE)
        self.apsp.backtrack_to(level)

    def phase(self, var):
        """An atom is first decided the way the closure's model satisfies
        it, which closes no negative cycle; any other variable False."""
        row = self.lits[2 * var] if 2 * var < len(self.lits) else None
        return row is not None and self.apsp.model_satisfies(*row[:3])

    def on_solution(self):
        # eager assertion makes this a re-scan of what is already committed;
        # on_assert has seen every trail literal, so the table covers them
        for lit in self.trail:
            row = self.lits[2 * lit if lit > 0 else 1 - 2 * lit]
            if row is not None and not self.apsp.holds(*row[:3]):
                raise InternalError("asserted bound missing from the closure")
        self.model = self.apsp.extract_model()


class Session:
    """One SMT session: executes parsed commands, produces response text."""

    def __init__(self, config=None):
        self.cfg = config if config is not None else SessionConfig()
        self.solver = sat.Solver()
        self.apsp = theory.DifferenceEngine()
        self.atoms = normalize.AtomTable(self.solver.new_var)
        self.bridge = _TheoryBridge(self.solver, self.apsp)
        self.solver.theory = self.bridge
        self.atoms.on_new_atom = self.bridge.register_atom
        self.frames = [_Frame(0)]
        self.logic = None
        self.finished = False
        self.last_status = None
        self._int_ids = {}
        self._bool_ids = {}
        self._names = {}
        self._sel2rec = {}
        self._next_index = 0
        self._next_varid = 1
        self._free_ids = []  # retired closure vertices, the lowest reused first
        self._core_records = None
        self._core_minimized = None
        self._bool_model = {}

    # -- wiring ---------------------------------------------------------------

    def _resolve_int(self, name):
        vid = self._int_ids.get(name)
        if vid is None:
            if self._free_ids:
                vid = heappop(self._free_ids)
            else:
                vid = self._next_varid
                self._next_varid += 1
            self._int_ids[name] = vid
        return vid

    def _resolve_bool(self, name):
        var = self._bool_ids.get(name)
        if var is None:
            var = self.solver.new_var()
            self._bool_ids[name] = var
        return var

    # -- command dispatch -------------------------------------------------------

    def execute(self, cmd: Command) -> Response:
        handler = getattr(self, "_cmd_" + cmd.name.replace("-", "_"), None)
        if handler is None:
            return _error(f"unsupported command: {cmd.name}")
        return handler(*cmd.args)

    def _cmd_set_logic(self, name):
        if self.logic is not None:
            return _error("logic already set")
        if name != SUPPORTED_LOGIC:
            return _error(f"unsupported logic {name}")
        self.logic = name
        return Response()

    def _cmd_set_option(self, key, value):
        if key == ":produce-unsat-cores":
            if self._next_index:
                return _error(":produce-unsat-cores may only be set "
                              "before the first assertion")
            self.cfg.produce_unsat_cores = value == "true"
        return Response()

    def _cmd_set_info(self, key, value):
        return Response()

    def _cmd_declare_fun(self, name, sort):
        self.frames[-1].decls.append((name, sort))
        return Response()

    _cmd_declare_const = _cmd_declare_fun

    def _cmd_assert(self, term, name):
        if name is not None and name in self._names:
            return _error(f"assertion name {name} is already in use")
        try:
            node = normalize.skeleton(term, self._resolve_int,
                                      self._resolve_bool, self.atoms)
            clauses, root = normalize.to_cnf(node, self.solver.new_var)
            err = None
        except normalize.ConstantOverflow as e:
            err = f"constant overflow: {e}"
        except (normalize.NonDifferenceTerm, theory.TooManyVertices) as e:
            err = str(e)
        if err is not None:
            # no stored clause holds what the failed assertion allocated
            self._delete([])
            return _error(err)
        bottom = len(self.frames) == 1 and self.frames[0].top == 0 \
            and not self.cfg.produce_unsat_cores
        selector = None if bottom else self.solver.new_var()
        guard = [] if bottom else [-selector]
        stored = len(self.solver.clauses)
        for cl in clauses:
            self.solver.add_clause(cl)
        if root is not True:
            self.solver.add_clause(guard if root is False else guard + [root])
        rec = _Record(self._next_index, term, name, selector,
                      self.solver.clauses[stored:])
        self._next_index += 1
        self.frames[-1].records.append(rec)
        if selector is not None:
            self._sel2rec[selector] = rec
        if name is not None:
            self._names[name] = rec
        self.last_status = None
        return Response()

    def _cmd_push(self, n):
        self.frames.append(_Frame(self.frames[-1].top + n))
        self.last_status = None
        return Response()

    def _cmd_pop(self, n):
        depth = self.frames[-1].top - n
        if depth < 0:
            return _error("pop below the bottom of the assertion stack")
        popped = []
        while self.frames[-1].top > depth:
            popped += self.frames.pop().records
        if self.frames[-1].top < depth:
            # what is left of a partly popped run holds nothing
            self.frames.append(_Frame(depth))
        for rec in popped:
            del self._sel2rec[rec.selector]
            if rec.name is not None:
                del self._names[rec.name]
        self._delete([c for rec in popped for c in rec.clauses])
        self.last_status = None
        return Response()

    def _delete(self, clauses):
        """Delete ``clauses`` and retire every variable that is not live.

        A variable is live while a stored clause of a live assertion
        mentions it, it is a live selector or a declared Boolean, or it is
        an atom fixed at level 0. The solver deletes every learned clause
        over a retired variable and releases the retired variables for
        reuse, and a retired atom leaves the bridge and the table. Int
        constants that no atom reads any more give their vertices to later
        new names.
        """
        solver = self.solver
        live = {abs(l) for rec in self.active_records()
                for c in rec.clauses for l in c}
        # released slots count as live, so none is released twice
        live.update(self._sel2rec, self._bool_ids.values(), solver.free_vars)
        values, levels = solver.values, solver.levels
        bounds = self.atoms.bounds
        dead = [v for v in range(1, len(values)) if v not in live
                and (levels[v] or not values[v] or v not in bounds)]
        for var in solver.remove(clauses, dead):
            if var in bounds:
                self.bridge.retire_atom(var)
                self.atoms.retire(var)
        # a vertex no atom reads has no edge left: the solver backtracked
        # below every atom it retired, and undo is bit-exact, so the
        # vertex's row and column hold no path again (its diagonal 0) for
        # a name that takes it over
        ids = self._int_ids
        for name in [name for name, vid in ids.items()
                     if not self.atoms.reads(vid)]:
            heappush(self._free_ids, ids.pop(name))

    def _cmd_check_sat(self):
        return Response(self.check_sat())

    def _cmd_get_model(self):
        if self.last_status != "sat":
            return _error("model is not available")
        return Response(self.model_text())

    def _cmd_get_unsat_core(self):
        if not self.cfg.produce_unsat_cores:
            return _error("unsat cores are not enabled "
                          "(set :produce-unsat-cores true)")
        if self.last_status != "unsat":
            return _error("no unsat core is available")
        names = map(render_symbol, self.unsat_core_names())
        return Response("(" + " ".join(names) + ")")

    def _cmd_exit(self):
        self.finished = True
        return Response()

    # -- checking -----------------------------------------------------------------

    def active_records(self):
        return [rec for fr in self.frames for rec in fr.records]

    def _deadline(self):
        if self.cfg.time_budget_ms is None:
            return None
        return time.monotonic() + self.cfg.time_budget_ms / 1000.0

    def check_sat(self):
        assumptions = list(self._sel2rec)  # in assertion order, as frames are
        res = self.solver.solve(assumptions, self._deadline())
        self._core_records = None
        self._core_minimized = None
        if res.status == "sat":
            self._bool_model = res.model
        elif res.status == "unsat":
            failed = set(res.failed)
            self._core_records = sorted(
                (self._sel2rec[s] for s in failed if s in self._sel2rec),
                key=lambda r: r.index)
        self.last_status = res.status
        return res.status

    # -- models ---------------------------------------------------------------------

    def declared_symbols(self):
        return [d for fr in self.frames for d in fr.decls]

    def int_value(self, name):
        vid = self._int_ids.get(name)
        if vid is None:
            return 0
        return self.bridge.model.get(vid, 0)

    def bool_value(self, name):
        var = self._bool_ids.get(name)
        if var is None:
            return False
        return self._bool_model.get(var, False)

    def model_text(self):
        parts = []
        for name, sort in self.declared_symbols():
            symbol = render_symbol(name)
            if sort == "Int":
                parts.append(f"(define-fun {symbol} () Int "
                             f"{format_int(self.int_value(name))})")
            else:
                val = "true" if self.bool_value(name) else "false"
                parts.append(f"(define-fun {symbol} () Bool {val})")
        return "(model " + " ".join(parts) + ")" if parts else "(model )"

    def model_env(self):
        """Name-to-value maps for evaluating terms against the last model."""
        ints = {}
        bools = {}
        for name, sort in self.declared_symbols():
            if sort == "Int":
                ints[name] = self.int_value(name)
            else:
                bools[name] = self.bool_value(name)
        return ints, bools

    # -- cores -------------------------------------------------------------------------

    def core_records(self):
        if self._core_records is None:
            raise InternalError("no core recorded")
        if not self.cfg.minimize_core:
            return self._core_records
        if self._core_minimized is None:
            self._core_minimized = self._minimize(self._core_records)
        return self._core_minimized

    def _minimize(self, records):
        # one deadline for the whole loop; a trial that answers unknown
        # keeps its assertion, so the core stays sound
        deadline = self._deadline()
        cur = [r.selector for r in records]
        for s in list(cur):
            if s not in cur:
                continue
            trial = [t for t in cur if t != s]
            res = self.solver.solve(trial, deadline)
            if res.status == "unsat":
                kept = set(res.failed)
                cur = [t for t in trial if t in kept]
        self.last_status = "unsat"
        recs = [self._sel2rec[s] for s in cur if s in self._sel2rec]
        return sorted(recs, key=lambda r: r.index)

    def unsat_core_names(self):
        return [rec.name for rec in self.core_records()
                if rec.name is not None]

    # -- diagnostics ---------------------------------------------------------------------

    @property
    def stats(self):
        out = dict(self.solver.stats)
        out["fw_cell_updates"] = self.apsp.cell_updates
        out["edge_commits"] = self.apsp.stamp
        out["max_vertices"] = self.apsp.n
        out["prop_atoms_tested"] = self.bridge.atoms_tested
        out["live_clauses"] = len(self.solver.clauses)
        out["live_atoms"] = len(self.atoms)
        out["undo_cells"], out["undo_bytes"] = self.apsp.undo_size()
        return out

    def dimacs_text(self):
        """Current clause store in DIMACS, selectors and gates included, after
        the level-0 facts no clause implies (bottom-frame roots among them)
        as units, and the empty clause once the solver has derived false.
        The header counts up to the highest variable a clause mentions;
        released variable slots past it are left out."""
        s = self.solver
        clauses = [[l] for l in s.trail
                   if not s.levels[abs(l)] and s.reasons[abs(l)] is None]
        clauses += s.clauses if s.ok else s.clauses + [[]]
        top = max((abs(l) for c in clauses for l in c), default=0)
        lines = [f"p cnf {top} {len(clauses)}"]
        for c in clauses:
            lines.append(" ".join(map(str, c + [0])))
        return "\n".join(lines) + "\n"

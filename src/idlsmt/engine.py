"""Solver sessions: assertion stack, satisfiability checks, models, cores.

Each assertion is guarded by a fresh selector variable, so checks run under
the assumptions "all active selectors", and the failed-assumption subset of
an unsat answer is the unsat core. Pop deletes the popped assertions'
clauses, then keeps a variable only while a stored clause of a live
assertion mentions it, it is a live selector or a declared Boolean, or it
is an atom fixed at level 0, whose bound the closure keeps; a failed
assertion applies the same rule. The SAT core reuses the slots of the other
variables and deletes every learned clause over them, a retired atom leaves
the theory, and an Int constant no live atom reads gives its closure vertex
back, so a long push/check/pop session stays the size of its live ones.
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
    produce_unsat_cores: bool = False
    minimize_core: bool = False
    time_budget_ms: Optional[int] = None


@dataclass
class _Record:
    index: int
    term: tuple
    name: Optional[str]
    selector: int
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

    It holds only what the hooks read: the solver's trail list (not the
    solver, which holds the bridge), the engine, the atom bounds, and the
    live atoms as numpy columns (var, x, y, c) with a mask of those the SAT
    core has asserted. ``on_assert`` sets a mask entry and logs ``(level,
    position)``; ``on_backtrack`` clears the entries logged above its
    level. The trail's levels never decrease, so neither do the log's.
    ``retire_atom`` takes a popped atom out of both scans; its column stays
    marked assigned until a new atom takes it, so the columns in use stay
    as many as the most atoms live at once. Each atom also reads two
    closure cells: ``(y, x)`` entails it, ``(x, y)`` refutes it;
    ``readers`` lists the atoms by cell and ``watched`` marks the cells
    that have any. After a backtrack, a new atom or a commit below
    ``kernels.BLOCK_MIN_N`` vertices (whose undo entry, the old block,
    names no cell), ``propagate`` tests every free atom at once. Otherwise
    it tests only the free readers of the watched cells that the commits
    since its last call changed, read off the engine's undo trail: the SAT
    core asserted all that the last call returned, so no other atom can be
    newly implied. When more than 32 such cells changed, it runs the full
    scan instead, which is then cheaper. The SAT core calls it once its
    last assumption is placed, so those commits may span every assumption
    level. Both paths return the implied atoms by position, then the
    refuted ones. ``on_solution`` checks the trail's bounds against the
    closure and keeps the integer model, nothing else: the closure itself
    is not copied. Nothing here refers back to the session, so a dropped
    session is freed at once, undo trail included, without waiting for the
    cyclic garbage collector.
    """

    def __init__(self, solver, apsp, bounds):
        self.trail = solver.trail
        self.apsp = apsp
        self.bounds = bounds
        self.position = {}  # live atom var -> column index
        self.columns = np.zeros((4, 16), dtype=np.int64)  # var, x, y, c
        self.assigned = np.zeros(16, dtype=bool)
        self.width = 0  # columns in use, retired ones included
        self.free_columns = []  # retired columns, taken by new atoms first
        self.assigned_log = []  # (level, position)
        self.readers = {}  # cell (i, j) -> [(side, position, lit, i, j, c)]
        self.watched = np.zeros((8, 8), dtype=bool)  # cells with readers
        self.scanned = None  # engine trail length at the last scan; None: all
        self.atoms_tested = 0
        self.model = {}  # integer model of the last sat answer

    def register_atom(self, var, x, y, c):
        v = x if x > y else y
        self.apsp.ensure_vertex(v)
        if self.free_columns:
            k = self.free_columns.pop()
            self.assigned[k] = False
        else:
            k = self.width
            self.width += 1
            if k == len(self.assigned):
                self.columns = np.concatenate(
                    (self.columns, np.zeros_like(self.columns)), axis=1)
                self.assigned = np.concatenate(
                    (self.assigned, np.zeros_like(self.assigned)))
        self.columns[:, k] = var, x, y, c
        self.position[var] = k
        watched = self.watched
        if v >= len(watched):  # doubling, as the closure does
            watched = self.watched = np.pad(
                watched, (0, (1 << v.bit_length()) - len(watched)))
        # cell (y, x) entails the atom, cell (x, y) refutes it
        watched[y, x] = watched[x, y] = True
        readers = self.readers
        readers.setdefault((y, x), []).append((0, k, var, y, x, c))
        readers.setdefault((x, y), []).append((1, k, -var, x, y, -c - 1))
        self.scanned = None

    def retire_atom(self, var):
        """Forget atom ``var``: no scan tests it again, and its column is
        marked assigned until a new atom takes it."""
        k = self.position.pop(var)
        x, y, c = self.bounds[var]
        for test in ((0, k, var, y, x, c), (1, k, -var, x, y, -c - 1)):
            cell = test[3:5]
            tests = self.readers[cell]
            tests.remove(test)
            if not tests:
                del self.readers[cell]
                self.watched[cell] = False
        self.assigned[k] = True
        self.free_columns.append(k)

    def _bound_of(self, lit):
        """The bound ``x - y <= c`` that ``lit`` asserts, or None for a
        literal that is not a difference atom."""
        bound = self.bounds.get(abs(lit))
        if bound is None or lit > 0:
            return bound
        x, y, c = bound
        return y, x, -c - 1

    def on_assert(self, lit, level):
        bound = self._bound_of(lit)
        if bound is None:
            return None
        k = self.position[abs(lit)]
        self.assigned[k] = True
        self.assigned_log.append((level, k))
        return self.apsp.assert_atom(*bound, lit, level)

    def propagate(self):
        self.scanned, changed = self.apsp.changes_since(self.scanned)
        if changed is None:
            return self._scan_all()
        if not changed:
            return []
        # one lookup over the cells of every commit: each fancy index
        # converts its int16 index arrays anew
        ii, jj = (np.concatenate(a) for a in zip(*changed))
        hit, = self.watched[ii, jj].nonzero()
        # testing the readers of about 32 changed cells costs as much as
        # the vectorized scan of every free atom (measured per call on the
        # jobshop, diamond and incremental workloads)
        if hit.size > 32:
            return self._scan_all()
        cells = zip(ii[hit].tolist(), jj[hit].tolist())
        # by side, then position: the order of a full scan's answer
        readers, assigned = self.readers, self.assigned
        tests = sorted({test for cell in cells for test in readers[cell]
                        if not assigned[test[1]]})
        self.atoms_tested += len(tests)
        holds, stamp = self.apsp.holds, self.apsp.stamp
        return [(lit, (i, j, b, stamp)) for _, _, lit, i, j, b in tests
                if holds(j, i, b)]

    def _scan_all(self):
        free = np.flatnonzero(~self.assigned[:self.width])
        self.atoms_tested += free.size
        if not free.size:
            return ()
        xs, ys, cs = self.columns[1:, free]
        pos, neg = self.apsp.scan_implications(xs, ys, cs)
        stamp = self.apsp.stamp
        out = [(v, (y, x, c, stamp)) for v, x, y, c
               in zip(*self.columns[:, free[pos]].tolist())]
        out += [(-v, (x, y, -c - 1, stamp)) for v, x, y, c
                in zip(*self.columns[:, free[neg]].tolist())]
        return out

    def explain(self, handle):
        src, dst, bound, stamp = handle
        return self.apsp.explain_path(src, dst, bound, stamp)

    def on_backtrack(self, level):
        self.scanned = None
        log = self.assigned_log
        while log and log[-1][0] > level:
            self.assigned[log.pop()[1]] = False
        self.apsp.backtrack_to(level)

    def phase(self, var):
        """An atom is first decided the way the closure's model satisfies
        it, which closes no negative cycle; any other variable False."""
        bound = self.bounds.get(var)
        return bound is not None and self.apsp.model_satisfies(*bound)

    def on_solution(self):
        # eager assertion makes this a re-scan of what is already committed
        for lit in self.trail:
            bound = self._bound_of(lit)
            if bound is not None and not self.apsp.holds(*bound):
                raise InternalError("asserted bound missing from the closure")
        self.model = self.apsp.extract_model()


class Session:
    """One SMT session: executes parsed commands, produces response text."""

    def __init__(self, config=None):
        self.cfg = config if config is not None else SessionConfig()
        self.solver = sat.Solver()
        self.apsp = theory.DifferenceEngine()
        self.atoms = normalize.AtomTable(self.solver.new_var)
        self.bridge = _TheoryBridge(self.solver, self.apsp, self.atoms.bounds)
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
        # (var, bound, value) of atoms retired since the last sat answer,
        # and the closure's vertex count at that answer
        self._retired = []
        self._sat_vertices = 0

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
        selector = self.solver.new_var()
        stored = len(self.solver.clauses)
        for cl in clauses:
            self.solver.add_clause(cl)
        if root is True:
            pass
        elif root is False:
            self.solver.add_clause([-selector])
        else:
            self.solver.add_clause([-selector, root])
        rec = _Record(self._next_index, term, name, selector,
                      self.solver.clauses[stored:])
        self._next_index += 1
        self.frames[-1].records.append(rec)
        self._sel2rec[rec.selector] = rec
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
        reuse, and a retired atom leaves the bridge and the table. The last sat
        answer's values of the retired atoms are kept for ``apsp_tsv``.
        Int constants that no atom reads any more give their vertices to
        later new names.
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
        freed = solver.remove(clauses, dead)
        model = self._bool_model
        for var in freed:
            value = model.pop(var, None)
            bound = self.atoms.bounds.get(var)
            if bound is None:
                continue
            if value is not None:
                self._retired.append((var, bound, value))
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
        assumptions = [rec.selector for rec in self.active_records()]
        res = self.solver.solve(assumptions, self._deadline())
        self._core_records = None
        self._core_minimized = None
        if res.status == "sat":
            self._bool_model = res.model
            self._retired = []
            self._sat_vertices = self.apsp.n
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
        """Current clause store in DIMACS, selectors and gates included.
        The header counts up to the highest variable a clause mentions;
        released variable slots past it are left out."""
        clauses = self.solver.clauses
        top = max((abs(l) for c in clauses for l in c), default=0)
        lines = [f"p cnf {top} {len(clauses)}"]
        for c in clauses:
            lines.append(" ".join(str(l) for l in c) + " 0")
        return "\n".join(lines) + "\n"

    def apsp_tsv(self):
        """Distance matrix of the last sat answer (empty before any).

        The closure is rebuilt over that answer's vertices from its Boolean
        model, over the atoms retired since as well and skipping atoms
        registered since (a reused variable leaves the model when it is
        released). Shortest-path values are unique for a given edge set, so
        this is the matrix the search held at the answer.
        """
        apsp = theory.DifferenceEngine()
        apsp.ensure_vertex(self._sat_vertices - 1)
        model = self._bool_model
        atoms = [(var, bound, model.get(var))
                 for var, bound in self.atoms.bounds.items()]
        for var, (x, y, c), value in atoms + self._retired:
            if value is None:
                continue
            lit, bound = (var, (x, y, c)) if value else (-var, (y, x, -c - 1))
            if apsp.assert_atom(*bound, lit, 0):
                raise InternalError("the last sat model violates a bound")
        return apsp.dump_tsv()

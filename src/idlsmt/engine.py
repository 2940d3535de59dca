"""Solver sessions: assertion stack, satisfiability checks, models, cores.

Each assertion is guarded by a fresh selector variable, so checks run under
the assumptions "all active selectors", pop retracts by fixing popped
selectors false, and the failed-assumption subset of an unsat answer is the
unsat core. Difference atoms flow to the shortest-path engine the moment
the SAT core asserts them; implied atoms flow back as theory propagations
with explanations reconstructed only if conflict analysis asks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import normalize, sat, theory
from .smtlib import Command

SUPPORTED_LOGIC = "QF_IDL"


class InternalError(Exception):
    """An invariant the engine relies on was violated."""


class Response(NamedTuple):
    text: Optional[str] = None
    is_error: bool = False


def _error(msg):
    return Response(f'(error "{msg}")', is_error=True)


def format_int(v):
    return str(v) if v >= 0 else f"(- {-v})"


@dataclass
class SessionConfig:
    produce_unsat_cores: bool = False
    theory_propagation: bool = True
    minimize_core: bool = False
    conflict_budget: Optional[int] = None
    time_budget_ms: Optional[int] = None


@dataclass
class _Record:
    index: int
    term: tuple
    name: Optional[str]
    selector: int


@dataclass
class _Frame:
    records: list = field(default_factory=list)
    decls: list = field(default_factory=list)


class _TheoryBridge:
    """Adapter between the SAT core's hook seams and the shortest-path engine.

    It holds only what the hooks read: the solver's value and trail lists
    (not the solver, which holds the bridge), the engine, the atom bounds
    and the config. Nothing here refers back to the session, so a dropped
    session is freed at once, undo trail included, without waiting for
    the cyclic garbage collector.
    """

    def __init__(self, solver, apsp, bounds, cfg):
        self.values = solver.values
        self.trail = solver.trail
        self.apsp = apsp
        self.bounds = bounds
        self.cfg = cfg
        self.atom_vars = []
        self.ax = []
        self.ay = []
        self.ac = []
        self._arrays = None
        self.model = {}  # integer model of the last sat answer
        self.solved = None  # copy of the closure at the last sat answer

    def register_atom(self, var, x, y, c):
        self.apsp.ensure_vertex(max(x, y))
        self.atom_vars.append(var)
        self.ax.append(x)
        self.ay.append(y)
        self.ac.append(c)
        self._arrays = None

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
        return self.apsp.assert_atom(*bound, lit, level)

    def propagate(self):
        if not self.cfg.theory_propagation or not self.atom_vars:
            return ()
        if self._arrays is None:
            self._arrays = (np.array(self.ax, dtype=np.int64),
                            np.array(self.ay, dtype=np.int64),
                            np.array(self.ac, dtype=np.int64))
        values = self.values
        free = [k for k, v in enumerate(self.atom_vars) if values[v] == 0]
        if not free:
            return ()
        idx = np.array(free, dtype=np.int64)
        ax, ay, ac = self._arrays
        xs, ys, cs = ax[idx], ay[idx], ac[idx]
        pos, neg = self.apsp.scan_implications(xs, ys, cs)
        stamp = self.apsp.stamp
        out = []
        for t in np.nonzero(pos)[0]:
            k = free[t]
            handle = (self.ay[k], self.ax[k], self.ac[k], stamp)
            out.append((self.atom_vars[k], handle))
        for t in np.nonzero(neg)[0]:
            k = free[t]
            handle = (self.ax[k], self.ay[k], -self.ac[k] - 1, stamp)
            out.append((-self.atom_vars[k], handle))
        return out

    def explain(self, handle):
        src, dst, bound, stamp = handle
        return self.apsp.explain_path(src, dst, bound, stamp)

    def on_backtrack(self, level):
        self.apsp.backtrack_to(level)

    def final_check(self):
        # eager assertion makes this a re-scan of what is already committed
        for lit in self.trail:
            bound = self._bound_of(lit)
            if bound is not None and not self.apsp.holds(*bound):
                raise InternalError("asserted bound missing from the closure")
        return None

    def on_solution(self):
        self.model = self.apsp.extract_model()
        self.solved = self.apsp.clone()


class Session:
    """One SMT session: executes parsed commands, produces response text."""

    def __init__(self, config=None):
        self.cfg = config if config is not None else SessionConfig()
        self.solver = sat.Solver()
        self.apsp = theory.DifferenceEngine()
        self.atoms = normalize.AtomTable(self.solver.new_var)
        self.bridge = _TheoryBridge(self.solver, self.apsp,
                                    self.atoms.bounds, self.cfg)
        self.solver.theory = self.bridge
        self.atoms.on_new_atom = self.bridge.register_atom
        self.frames = [_Frame()]
        self.logic = None
        self.finished = False
        self.last_status = None
        self.cancel_callback = None
        self._int_ids = {}
        self._bool_ids = {}
        self._names = {}
        self._sel2rec = {}
        self._next_index = 0
        self._next_varid = 1
        self._core_records = None
        self._core_minimized = None
        self._bool_model = {}

    # -- wiring ---------------------------------------------------------------

    def _resolve_int(self, name):
        vid = self._int_ids.get(name)
        if vid is None:
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
        except normalize.ConstantOverflow as e:
            return _error(f"constant overflow: {e}")
        except normalize.NonDifferenceTerm as e:
            return _error(str(e))
        except theory.TooManyVertices as e:
            return _error(str(e))
        except RecursionError:
            # normalization recurses on the term; the session stays usable
            return _error("term nesting too deep")
        rec = _Record(self._next_index, term, name, self.solver.new_var())
        self._next_index += 1
        for cl in clauses:
            self.solver.add_clause(cl)
        if root is True:
            pass
        elif root is False:
            self.solver.add_clause([-rec.selector])
        else:
            self.solver.add_clause([-rec.selector, root])
        self.frames[-1].records.append(rec)
        self._sel2rec[rec.selector] = rec
        if name is not None:
            self._names[name] = rec
        self.last_status = None
        return Response()

    def _cmd_push(self, n):
        for _ in range(n):
            self.frames.append(_Frame())
        self.last_status = None
        return Response()

    def _cmd_pop(self, n):
        if n >= len(self.frames):
            return _error("pop below the bottom of the assertion stack")
        for _ in range(n):
            frame = self.frames.pop()
            for rec in frame.records:
                self.solver.add_clause([-rec.selector])
                self._sel2rec.pop(rec.selector, None)
                if rec.name is not None:
                    self._names.pop(rec.name, None)
        self.last_status = None
        return Response()

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
        return Response("(" + " ".join(self.unsat_core_names()) + ")")

    def _cmd_exit(self):
        self.finished = True
        return Response()

    # -- checking -----------------------------------------------------------------

    def active_records(self):
        return [rec for fr in self.frames for rec in fr.records]

    def check_sat(self):
        assumptions = [rec.selector for rec in self.active_records()]
        cancel = self.cancel_callback
        if self.cfg.time_budget_ms is not None:
            deadline = time.monotonic() + self.cfg.time_budget_ms / 1000.0
            outer = cancel
            cancel = (lambda: time.monotonic() > deadline
                      or (outer is not None and outer()))
        res = self.solver.solve(assumptions,
                                conflict_budget=self.cfg.conflict_budget,
                                cancel=cancel)
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
            if sort == "Int":
                parts.append(f"(define-fun {name} () Int "
                             f"{format_int(self.int_value(name))})")
            else:
                val = "true" if self.bool_value(name) else "false"
                parts.append(f"(define-fun {name} () Bool {val})")
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
        cur = [r.selector for r in records]
        for s in list(cur):
            if s not in cur:
                continue
            trial = [t for t in cur if t != s]
            res = self.solver.solve(trial)
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
        out["edge_commits"] = self.apsp.commits
        out["max_vertices"] = self.apsp.n
        return out

    def dimacs_text(self):
        """Current clause store in DIMACS, selectors and gates included."""
        lines = []
        active = [c for c in self.solver.clauses if c is not None]
        lines.append(f"p cnf {self.solver.n_vars} {len(active)}")
        for c in active:
            lines.append(" ".join(str(l) for l in c) + " 0")
        return "\n".join(lines) + "\n"

    def apsp_tsv(self):
        """Distance matrix of the last sat answer (empty before any)."""
        if self.bridge.solved is None:
            return ""
        return self.bridge.solved.dump_tsv()

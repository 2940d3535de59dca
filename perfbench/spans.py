"""Spans around the solver's layer functions, installed from outside.

Each wrapper replaces a function on the name its callers look up (a module
attribute or a class attribute), records a span (name, start, end, parent)
and, where useful, a count taken from the call's arguments or result. Spans
are kept in flat in-memory arrays and turned into per-layer self times
(span time minus the time of child spans) when a pass ends. Nothing under
``src/`` changes.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np

from idlsmt import engine, normalize, sat, smtlib, theory


def _kernel_bytes(n):
    # Bytes the numpy relax kernel computes for one call on an n x n block,
    # from its shape alone (not measured): it reads D (8n^2) and R (n^2),
    # writes the int64 candidate matrix (8n^2) and two boolean masks (2n^2).
    return 19 * n * n


class Tracer:
    """Installs span wrappers on the solver's layer seams; not reentrant."""

    def __init__(self):
        self.names = []
        self.counts = {}
        self._installed = []
        self.reset()

    def reset(self):
        self.name_ids = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(self.counts, 0)

    # -- installation ---------------------------------------------------------

    def install(self):
        w = self._wrap
        w(smtlib, "tokenize", "smtlib.parse")
        w(smtlib, "parse_script", "smtlib.parse")
        w(smtlib, "parse_command", "smtlib.parse",
          lambda a, r: r is not None and self._add("smtlib.commands", 1))
        w(normalize, "skeleton", "normalize.skeleton")
        w(normalize, "to_cnf", "normalize.to_cnf",
          lambda a, r: self._add("normalize.clauses", len(r[0])))
        w(sat.Solver, "solve", "sat.search")
        w(sat.Solver, "propagate", "sat.propagate")
        w(sat.Solver, "_analyze", "sat.analyze")
        w(sat.Solver, "_analyze_final", "sat.analyze")
        w(sat.Solver, "_pick_branch", "sat.pick_branch")
        w(engine.Session, "execute", "engine.execute")
        w(engine.Session, "model_text", "engine.model")
        w(engine.Session, "unsat_core_names", "engine.core")
        bridge = engine._TheoryBridge
        for seam in ("on_assert", "propagate", "explain", "on_backtrack",
                     "on_solution"):
            w(bridge, seam, "engine." + seam)
        de = theory.DifferenceEngine
        w(de, "assert_atom", "theory.assert",
          lambda a, r: self._add("theory.assert_calls", 1))
        w(de, "explain_path", "theory.explain_path", self._on_explain)
        w(de, "scan_implications", "theory.scan",
          lambda a, r: self._add("engine.scan_atoms", len(a[1])))
        w(de, "backtrack_to", "theory.backtrack")
        w(de, "extract_model", "theory.extract_model")
        w(de, "dump_tsv", "theory.dump_tsv")
        # theory binds the kernel at import; assert_atom calls theory.relax_edge
        w(theory, "relax_edge", "kernels.relax", self._on_relax)

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _add(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + k

    def _on_explain(self, args, lits):
        self._add("theory.explain_calls", 1)
        self._add("theory.explain_lits", len(lits))

    def _on_relax(self, args, cells):
        n = args[2]
        self._add("kernels.relax_calls", 1)
        self._add("kernels.bytes_computed", _kernel_bytes(n))

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, owner, attr, name, after=None):
        orig = owner.__dict__[attr]
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(tracer._stack[-1])
            tracer.starts.append(0)
            tracer.ends.append(0)
            tracer._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, orig))

    # -- spans of the benchmark's own -----------------------------------------

    def open_root(self, name):
        """Start a root span (one input or one command); returns its index."""
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(-1)
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def close_root(self, idx):
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    # -- results --------------------------------------------------------------

    def self_seconds(self):
        """Self time per span name, in seconds."""
        if not self.starts:
            return {}
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.name_ids, dtype=np.int8)
        dur = ends - starts
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        per_name = np.bincount(names, weights=dur - child,
                               minlength=len(self.names))
        return {n: float(per_name[i]) / 1e9 for i, n in enumerate(self.names)}

    def save(self, path):
        """Write the spans as arrays, with the name table."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int8),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64))

"""Runs one workload in the solver's own process and reports its figures.

Started by ``run.py``, which enforces the per-input guard from outside: this
process prints one ``.`` line per finished input (or check) and, at the
end, one JSON line with the figures. A pass feeds every input of the
workload once; a run repeats passes for about ``--seconds`` seconds, with
at least the workload's ``min_passes``. Generation and answer checking are
outside every timed region.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import idlsmt  # noqa: E402
import numpy  # noqa: E402
from idlsmt import Session, smtlib  # noqa: E402

import hostspeed  # noqa: E402
from check import model_failure  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

GUARD_S = 20.0  # an input (or check) slower than this counts as failed

# Session.stats keys reported as per-layer counts
_STAT_KEYS = {
    "decisions": "sat.decisions", "conflicts": "sat.conflicts",
    "propagations": "sat.propagations", "restarts": "sat.restarts",
    "theory_propagations": "engine.theory_propagations",
    "theory_conflicts": "engine.theory_conflicts",
    "edge_commits": "theory.commits", "fw_cell_updates": "kernels.cell_updates",
}


@dataclass
class PassResult:
    wall_s: float = 0.0
    samples_ms: list = field(default_factory=list)
    marks: list = field(default_factory=list)  # Meter.mark() per sample
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def add_counts(self, session):
        """Fold one finished session's end state into the pass totals."""
        got = {_STAT_KEYS[k]: v for k, v in session.stats.items()
               if k in _STAT_KEYS}
        got["sat.live_clauses"] = sum(c is not None
                                      for c in session.solver.clauses)
        got["sat.vars"] = session.solver.n_vars
        got["engine.atoms"] = len(session.atoms)
        for k, v in got.items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.counts["theory.max_vertices"] = max(
            self.counts.get("theory.max_vertices", 0), session.apsp.n)


def _beat():
    sys.stdout.write(".\n")
    sys.stdout.flush()


# -- batch workloads ----------------------------------------------------------


def _batch_failure(inp, commands, responses):
    for r in responses:
        if r.is_error:
            return f"error response {r.text}"
    verdicts = [r.text for c, r in zip(commands, responses)
                if c.name == "check-sat"]
    if verdicts != [inp.expected]:
        return f"answered {verdicts}, expected {inp.expected}"
    if inp.expected == "unsat":
        return None
    models = [r.text for c, r in zip(commands, responses)
              if c.name == "get-model"]
    return model_failure(models[0] if models else None,
                         [c.args[0] for c in commands if c.name == "assert"])


def run_batch_pass(inputs, tracer=None, beat=_beat, meter=None):
    """One pass over the files: parse, execute, and time each one. The
    host-speed ``meter`` (if any) reads after each file, untimed."""
    res = PassResult()
    for inp in inputs:
        root = tracer.open_root("bench.input") if tracer else None
        t0 = perf_counter()
        session = commands = None
        try:
            session = Session()
            commands = smtlib.parse_script(inp.text)
            responses = [session.execute(cmd) for cmd in commands]
        except Exception as e:  # a crash is a failed input, not a failed run
            why = f"crash {type(e).__name__}: {e}"
        else:
            why = None
        dt = perf_counter() - t0
        if tracer:
            tracer.close_root(root)
        if why is None:
            why = _batch_failure(inp, commands, responses)
        if why is None and dt > GUARD_S:
            why = f"over the {GUARD_S:g} s guard"
        if why is not None:
            res.failures.append(f"{inp.name}: {why}")
        res.samples_ms.append(dt * 1e3)
        res.wall_s += dt
        if tracer and session is not None:
            res.add_counts(session)
        beat()
        if meter:
            res.marks.append(meter.mark())
            meter.owe(dt)
    return res


# -- the streaming workload ---------------------------------------------------


def run_stream_pass(stream, tracer=None, beat=_beat, meter=None):
    """One streaming session, read with CommandReader one command at a time.

    Each command is timed from reading to response; a check-sat's time is
    one verdict sample. Errors are charged to the cycle they occur in.
    """
    res = PassResult()
    n_checks = len(stream.expected)
    fail = {}
    session = Session()
    reader = smtlib.CommandReader(io.StringIO(stream.text))
    env = smtlib.DeclEnv()
    frames = [[]]  # (term, name) per assertion frame
    checks = 0  # check-sats answered so far
    cycle = 0  # index of the check the current commands lead up to
    while True:
        root = tracer.open_root("bench.command") if tracer else None
        t0 = perf_counter()
        item = cmd = resp = crash = None
        try:
            item = reader.next_command()
            if item is not None:
                text, line, col = item
                cmd = smtlib.parse_command(
                    smtlib.cursor(smtlib.tokenize(text, line, col)), env)
                if cmd is not None:
                    resp = session.execute(cmd)
        except Exception as e:  # a crash fails this cycle; the session goes on
            crash = f"crash {type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer:
            tracer.close_root(root)
        res.wall_s += dt
        mark = meter.mark() if meter else None
        if meter:
            meter.owe(dt)
        if crash:
            fail.setdefault(min(cycle, n_checks - 1), crash)
        if item is None:
            break
        if resp is None:
            continue
        if resp.is_error:
            fail.setdefault(min(cycle, n_checks - 1),
                            f"error response {resp.text}")
        name = cmd.name
        if name == "push":
            frames.extend([] for _ in range(cmd.args[0]))
            cycle = checks
        elif name == "pop":
            del frames[len(frames) - cmd.args[0]:]
        elif name == "assert":
            frames[-1].append(cmd.args)
        elif name == "check-sat":
            res.samples_ms.append(dt * 1e3)
            if meter:
                res.marks.append(mark)
            if checks >= n_checks:
                fail.setdefault(n_checks - 1, "more checks than expected")
            elif resp.text != stream.expected[checks]:
                fail.setdefault(checks, f"answered {resp.text}, expected "
                                        f"{stream.expected[checks]}")
            elif dt > GUARD_S:
                fail.setdefault(checks, f"over the {GUARD_S:g} s guard")
            checks += 1
            beat()
        elif name == "get-model" and not resp.is_error:
            why = model_failure(resp.text, [t for fr in frames for t, _ in fr])
            if why:
                fail.setdefault(checks - 1, why)
        elif name == "get-unsat-core" and not resp.is_error:
            why = _core_failure(resp.text, stream.core_must[checks - 1],
                                {n for fr in frames for _, n in fr if n})
            if why:
                fail.setdefault(checks - 1, why)
    for k in range(checks, n_checks):
        fail.setdefault(k, "never answered")
    res.failures = [f"check {k}: {why}" for k, why in sorted(fail.items())]
    if tracer:
        res.add_counts(session)
    return res


def _core_failure(text, must, active_names):
    names = text.strip("()").split()
    if must not in names:
        return f"core {text} lacks the contradicting assertion {must}"
    stray = [n for n in names if n not in active_names]
    if stray:
        return f"core names inactive assertions {stray}"
    return None


def run_pass(workload, inputs, tracer=None, beat=_beat, meter=None):
    if WORKLOADS[workload].streaming:
        return run_stream_pass(inputs, tracer, beat, meter)
    return run_batch_pass(inputs, tracer, beat, meter)


# -- statistics ----------------------------------------------------------------


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it
    (nearest-rank), or None when n is too small."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def _repeat_passes(seconds, min_passes, one_round):
    """Call ``one_round`` at least ``min_passes`` times, and again while the
    slowest round so far still fits in ``seconds``."""
    start = perf_counter()
    slowest = 0.0
    rounds = 0
    while rounds < min_passes or perf_counter() - start + slowest <= seconds:
        t0 = perf_counter()
        one_round()
        slowest = max(slowest, perf_counter() - t0)
        rounds += 1
    return perf_counter() - start


def measure(workload, seed, seconds, scale="full", beat=_beat):
    """Untraced run: the end-to-end figures, at the reference host speed
    (see hostspeed.py), read in stretches spread over every pass: a pass's
    wall time is scaled by all of its readings, each verdict time by the
    readings next to it. Pass k feeds ``generate(workload, seed, scale,
    k)``."""
    min_passes = WORKLOADS[workload].min_passes
    passes, factors, samples = [], [], []
    meter = hostspeed.Meter(WORKLOADS[workload].reference)

    def one_round():
        inputs = generate(workload, seed, scale, len(passes))
        passes.append(run_pass(workload, inputs, beat=beat, meter=meter))
        factor, local = meter.settle(passes[-1].marks)
        factors.append(factor)
        samples.extend(s * f for s, f in zip(passes[-1].samples_ms, local))

    elapsed = _repeat_passes(seconds, min_passes, one_round)
    per_pass = len(passes[0].samples_ms)
    # fixed by the guaranteed sample count, so every run uses the same one;
    # too few samples (self-check sizes) fall back to the maximum
    pct = tail_percentile(min_passes * per_pass) or 100
    raw = [s for p in passes for s in p.samples_ms]
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "wall_s": (statistics.median(p.wall_s * f
                                     for p, f in zip(passes, factors)), "s"),
        "verdict_ms_p50": (statistics.median(samples), "ms"),
        "verdict_ms_tail": (nearest_rank(samples, pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "measured_s": round(elapsed, 3),
            "samples": len(samples), "samples_per_pass": per_pass,
            "tail_percentile": pct,
            "tail_samples_above": len(samples) - math.ceil(
                pct * len(samples) / 100),
            "host_loop_ms": [round(t * 1e3, 4) for t in meter.history],
            "raw_wall_s": statistics.median(p.wall_s for p in passes),
            "raw_verdict_ms_p50": statistics.median(raw),
            "raw_verdict_ms_tail": nearest_rank(raw, pct)}
    return metrics, len(samples), failures, info


def measure_traced(workload, seed, seconds, spans_path=None, scale="full",
                   beat=_beat):
    """Traced run: per-layer figures, from passes that alternate with
    untraced ones so the tracing overhead is measured alongside. Times are
    at the reference host speed, like the end-to-end ones."""
    tracer = Tracer()
    meter = hostspeed.Meter(WORKLOADS[workload].reference)
    plain, traced, self_s = [], [], []
    plain_wall, traced_wall = [], []

    def one_round():
        inputs = generate(workload, seed, scale, len(traced))
        plain.append(run_pass(workload, inputs, beat=beat, meter=meter))
        plain_wall.append(plain[-1].wall_s * meter.settle()[0])
        tracer.reset()
        with tracer:
            traced.append(run_pass(workload, inputs, tracer, beat, meter))
        f = meter.settle()[0]
        traced[-1].counts.update(tracer.counts)
        self_s.append({k: v * f for k, v in tracer.self_seconds().items()})
        traced_wall.append(traced[-1].wall_s * f)
        if spans_path and len(traced) == 1:
            tracer.save(spans_path)

    _repeat_passes(seconds, 1, one_round)
    # counts repeat exactly across passes; times are medians over passes
    counts = traced[0].counts
    t = {name: statistics.median(s.get(name, 0.0) for s in self_s)
         for name in self_s[0]}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "smtlib.parse_s": (t["smtlib.parse"], "s"),
        "smtlib.commands": (counts.get("smtlib.commands", 0), "count"),
        "normalize.skeleton_s": (t["normalize.skeleton"], "s"),
        "normalize.to_cnf_s": (t["normalize.to_cnf"], "s"),
        "normalize.clauses": (counts.get("normalize.clauses", 0), "count"),
        "sat.search_s": (t["sat.search"], "s"),
        "sat.propagate_s": (t["sat.propagate"], "s"),
        "sat.analyze_s": (t["sat.analyze"], "s"),
        "sat.pick_branch_s": (t["sat.pick_branch"], "s"),
    }
    for key in ("sat.decisions", "sat.conflicts", "sat.propagations",
                "sat.restarts", "sat.live_clauses", "sat.vars"):
        m[key] = (counts.get(key, 0), "count")
    for seam in ("execute", "on_assert", "propagate", "explain",
                 "on_backtrack", "on_solution", "model", "core"):
        m[f"engine.{seam}_s"] = (t[f"engine.{seam}"], "s")
    scan = counts.get("engine.scan_atoms", 0)
    props = counts.get("engine.theory_propagations", 0)
    m.update({
        "engine.theory_propagations": (props, "count"),
        "engine.theory_conflicts": (
            counts.get("engine.theory_conflicts", 0), "count"),
        "engine.scan_atoms": (scan, "count"),
        "engine.prop_yield": (ratio(props, scan), "ratio"),
        "engine.atoms": (counts.get("engine.atoms", 0), "count"),
    })
    asserts = counts.get("theory.assert_calls", 0)
    commits = counts.get("theory.commits", 0)
    explains = counts.get("theory.explain_calls", 0)
    relax_calls = counts.get("kernels.relax_calls", 0)
    m.update({
        "theory.assert_s": (t["theory.assert"], "s"),
        "theory.scan_s": (t["theory.scan"], "s"),
        "theory.assert_calls": (asserts, "count"),
        "theory.commits": (commits, "count"),
        "theory.commit_ratio": (ratio(commits, asserts), "ratio"),
        "theory.explain_path_s": (t["theory.explain_path"], "s"),
        "theory.explain_calls": (explains, "count"),
        "theory.explain_lits_mean": (
            ratio(counts.get("theory.explain_lits", 0), explains), "count"),
        "theory.backtrack_s": (t["theory.backtrack"], "s"),
        "theory.extract_model_s": (t["theory.extract_model"], "s"),
        "theory.dump_tsv_s": (t["theory.dump_tsv"], "s"),
        "theory.max_vertices": (counts.get("theory.max_vertices", 0), "count"),
        "kernels.relax_s": (t["kernels.relax"], "s"),
        "kernels.relax_calls": (relax_calls, "count"),
        "kernels.cell_updates": (counts.get("kernels.cell_updates", 0),
                                 "count"),
        "kernels.us_per_commit": (
            ratio(t["kernels.relax"] * 1e6, relax_calls), "us"),
        "kernels.bytes_computed": (
            counts.get("kernels.bytes_computed", 0), "bytes_computed"),
        "trace.overhead": (statistics.median(traced_wall)
                           / statistics.median(plain_wall), "ratio"),
    })
    runs = plain + traced
    failures = [f for p in runs for f in p.failures]
    attempted = sum(len(p.samples_ms) for p in runs)
    info = {"passes": len(traced), "plain_passes": len(plain),
            "spans_per_pass": len(tracer.starts),
            "untraced_wall_s": statistics.median(plain_wall),
            "traced_wall_s": statistics.median(traced_wall)}
    return m, attempted, failures, info


def provenance():
    return {"kernel_backend": idlsmt.KERNEL_BACKEND,
            "idlsmt_file": os.path.relpath(idlsmt.__file__, ROOT),
            "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file for the first traced pass's spans")
    args = ap.parse_args(argv)
    if args.trace:
        metrics, attempted, failures, info = measure_traced(
            args.workload, args.seed, args.seconds, args.spans)
    else:
        metrics, attempted, failures, info = measure(
            args.workload, args.seed, args.seconds)
    info.update(provenance())
    out = {"metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
           "attempted": attempted, "failures": failures, "info": info}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

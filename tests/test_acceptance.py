"""Acceptance suite: one test per criterion, one pass/fail line each."""

import io
import random
import time

import numpy as np
import pytest

from idlsmt.cli import run as cli_run
from idlsmt.engine import Session, SessionConfig
from idlsmt.kernels import NO_PATH
from idlsmt.normalize import AtomTable, skeleton
from idlsmt.smtlib import parse_script
from idlsmt.testkit import (
    RandomInstanceSpec, emit_benchmark, enumerate_verdict, eval_term,
    random_incremental_script, random_script, scratch_floyd_warshall,
    write_benchmark_suite,
)
from idlsmt.theory import DifferenceEngine


def report(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def oracle_verdict(commands):
    state = {"n": 0}

    def new_var():
        state["n"] += 1
        return state["n"]

    atoms = AtomTable(new_var)
    ints = {}

    def rint(nm):
        if nm not in ints:
            ints[nm] = len(ints) + 1
        return ints[nm]

    bools = {}

    def rbool(nm):
        if nm not in bools:
            bools[nm] = new_var()
        return bools[nm]

    skeletons = [skeleton(cmd.args[0], rint, rbool, atoms)
                 for cmd in commands if cmd.name == "assert"]
    return enumerate_verdict(skeletons, atoms.bounds)


def run_commands(commands, config=None):
    session = Session(config)
    outs = []
    for cmd in commands:
        resp = session.execute(cmd)
        if cmd.name == "check-sat":
            outs.append(resp.text)
    return session, outs


def committed_edges(e):
    return [(u, v, hist[-1][0]) for u, out in enumerate(e.edges)
            for v, hist in out.items()]


def matrices_match(e, ref):
    if ref is None:
        return False
    D, R = ref
    return np.array_equal(e._d[:e.n, :e.n], np.where(R, D, NO_PATH))


def test_criterion_1_incremental_fw_exactness():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for seq in range(500):
        n = rng.randint(2, 10)
        e = DifferenceEngine()
        e.ensure_vertex(n - 1)
        level = 0
        lit = 0
        for _ in range(rng.randint(5, 50)):
            roll = rng.random()
            if roll < 0.6:
                x, y = rng.sample(range(n), 2)
                lit += 1
                e.assert_atom(x, y, rng.randint(-8, 8), lit=lit, level=level)
            elif roll < 0.8:
                level += 1
            else:
                level = rng.randrange(level + 1)
                e.backtrack_to(level)
            ref = scratch_floyd_warshall(n, committed_edges(e))
            if not matrices_match(e, ref):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(1, f"incremental FW exactness, {elapsed:.1f}s", ok)


def _formula_corpus():
    structures = [("conjunction",), ("cnf", 3, 6), ("cnf", 2, 8), ("tree", 3)]
    for seed in range(2000):
        spec = RandomInstanceSpec(
            vars=3 + seed % 3, atoms=4 + seed % 7, lo=-8, hi=8,
            structure=structures[seed % len(structures)], seed=seed)
        yield seed, parse_script(random_script(spec))


_CORPUS_CACHE = {}


def solved_corpus():
    """Solve the 2000-formula corpus once; later criteria reuse it."""
    if not _CORPUS_CACHE:
        mismatches = 0
        results = {}
        for seed, commands in _formula_corpus():
            session, outs = run_commands(commands)
            expected = oracle_verdict(commands)
            if outs[-1] != expected:
                mismatches += 1
            results[seed] = (commands, session, outs[-1])
        _CORPUS_CACHE["results"] = results
        _CORPUS_CACHE["mismatches"] = mismatches
    return _CORPUS_CACHE["results"], _CORPUS_CACHE["mismatches"]


def test_criterion_2_verdict_agreement():
    _, mismatches = solved_corpus()
    report(2, "verdict agreement on 2000 formulas", mismatches == 0)


def test_criterion_3_model_soundness():
    results, _ = solved_corpus()
    checked = 0
    bad = 0
    for seed, (commands, session, verdict) in results.items():
        if verdict != "sat":
            continue
        checked += 1
        ints, bools = session.model_env()
        for cmd in commands:
            if cmd.name == "assert":
                if eval_term(cmd.args[0], ints, bools) is not True:
                    bad += 1
    ok = bad == 0 and checked > 200
    report(3, f"model soundness on {checked} sat answers", ok)


def test_criterion_4_core_soundness():
    results, _ = solved_corpus()
    checked = 0
    bad = 0
    for seed, (commands, session, verdict) in results.items():
        if verdict != "unsat":
            continue
        checked += 1
        session.cfg.produce_unsat_cores = True
        core = set(session.unsat_core_names())
        if not core:
            bad += 1
            continue
        fresh = Session()
        answer = None
        for cmd in commands:
            if cmd.name == "assert" and cmd.args[1] not in core:
                continue
            resp = fresh.execute(cmd)
            if cmd.name == "check-sat":
                answer = resp.text
        if answer != "unsat":
            bad += 1
    chain_ok = True
    for n in range(3, 11):
        text, _ = emit_benchmark("negative-cycle-chain", n)
        cfg = SessionConfig(produce_unsat_cores=True, minimize_core=True)
        session, outs = run_commands(parse_script(text), cfg)
        if outs != ["unsat"] or len(session.unsat_core_names()) != n:
            chain_ok = False
    ok = bad == 0 and checked > 100 and chain_ok
    report(4, f"core soundness on {checked} unsat answers + minimized chains",
           ok)


def test_criterion_5_incremental_batch_equivalence():
    mismatches = 0
    for seed in range(200):
        text, prefixes = random_incremental_script(1000 + seed, vars=4,
                                                   checks=5)
        commands = parse_script(text)
        _, incremental = run_commands(commands)
        assert len(incremental) == len(prefixes)
        for answer, bodies in zip(incremental, prefixes):
            decls = "(set-logic QF_IDL)" + "".join(
                f"(declare-fun v{i} () Int)" for i in range(4))
            scratch_text = decls + "".join(f"(assert {b})" for b in bodies) \
                + "(check-sat)"
            _, scratch = run_commands(parse_script(scratch_text))
            if answer != scratch[0]:
                mismatches += 1
    report(5, "incremental answers equal from-scratch answers",
           mismatches == 0)


def _suite_files(tmp_path):
    entries = [("negative-cycle-chain", n) for n in range(3, 9)]
    entries += [("diamond-grid", n) for n in (4, 10, 25)]
    entries += [("window-scheduling", n, 3) for n in (5, 8)]
    write_benchmark_suite(tmp_path, entries)
    paths = sorted(str(p) for p in tmp_path.glob("*.smt2"))
    extra = tmp_path / "models.smt2"
    extra.write_text(
        "(set-logic QF_IDL)(declare-fun a () Int)(declare-fun b () Int)"
        "(declare-fun p () Bool)\n"
        "(assert (or p (<= (- a b) (- 2))))(assert (not p))\n"
        "(check-sat)\n(get-model)\n")
    paths.append(str(extra))
    for seed in range(20):
        spec = RandomInstanceSpec(vars=4, atoms=7, seed=3000 + seed,
                                  structure=("cnf", 3, 7))
        sp = tmp_path / f"rand{seed}.smt2"
        sp.write_text(random_script(spec))
        paths.append(str(sp))
    return paths


def test_criterion_6_transcript_determinism(tmp_path):
    paths = _suite_files(tmp_path)
    transcripts = []
    for _ in range(3):
        chunks = []
        for path in paths:
            out = io.StringIO()
            code = cli_run(["--produce-unsat-cores", path], stdout=out)
            chunks.append(f"== {path} rc={code}\n" + out.getvalue())
        transcripts.append("".join(chunks).encode())
    ok = transcripts[0] == transcripts[1] == transcripts[2]
    report(6, "byte-identical transcripts across 3 runs", ok)


def test_criterion_7_desk_scale_performance():
    sizes = [25, 50, 100, 200]
    xs = []
    ys = []
    big_time = None
    for n in sizes:
        text, _ = emit_benchmark("diamond-grid", n)
        commands = parse_script(text)
        start = time.perf_counter()
        session, outs = run_commands(commands)
        elapsed = time.perf_counter() - start
        assert outs == ["sat"]
        stats = session.stats
        assert stats["edge_commits"] > 0
        xs.append(stats["max_vertices"])
        ys.append(stats["fw_cell_updates"] / stats["edge_commits"])
        if n == 200:
            big_time = elapsed
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    ok = big_time < 5.0 and slope <= 2.3
    report(7, f"diamond-grid(200) in {big_time:.2f}s, "
              f"updates/assert slope {slope:.2f}", ok)


def test_criterion_8_dispatch_behavior(tmp_path):
    bad = tmp_path / "bv.smt2"
    bad.write_text("(set-logic QF_BV)\n(check-sat)\n")
    out = io.StringIO()
    code = cli_run([str(bad)], stdout=out)
    batch_ok = code == 1 and out.getvalue() == \
        '(error "unsupported logic QF_BV")\n'
    text = ("(set-logic QF_LIA)\n"
            "(set-logic QF_IDL)\n(declare-const x Int)\n"
            "(assert (<= x 0))\n(check-sat)\n")
    out = io.StringIO()
    code = cli_run(["--incremental", "-"], stdin=io.StringIO(text),
                   stdout=out)
    lines = out.getvalue().splitlines()
    interactive_ok = (code == 0
                      and lines[0] == '(error "unsupported logic QF_LIA")'
                      and lines[-1] == "sat")
    report(8, "logic dispatch in batch and interactive modes",
           batch_ok and interactive_ok)

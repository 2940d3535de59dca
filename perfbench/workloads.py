"""Seeded input generators for the four benchmark workloads.

Every verdict is fixed by construction, never by running the solver:

- ``jobshop``: sat files take the makespan of a randomized greedy schedule
  as their bound (the schedule is a witness); unsat files take
  ``max(longest job, heaviest machine load) - 1``, which no schedule meets.
- ``diamond``: ``testkit.emit_benchmark`` families that are sat by
  construction.
- ``incremental``: base windows around a hidden witness schedule; every
  query disjunction holds under the witness, and each unsat cycle adds one
  named bound that contradicts two windows.
- ``frontend``: let-bound atoms whose truth under a hidden witness is known,
  so every formula can be built to hold; unsat files also assert a
  let-bound negative cycle.

Why each workload was chosen, and the layer it loads, is in README.md;
later changes refer to the workloads by these names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from idlsmt.testkit import emit_benchmark


@dataclass
class Workload:
    name: str
    streaming: bool  # one session fed by CommandReader, else a file batch
    min_passes: int  # passes every run makes, whatever --seconds says
    reference: str  # the host-speed loop loaded like it (hostspeed.py)


WORKLOADS = {w.name: w for w in [
    Workload("jobshop", False, 3, "interp"),
    Workload("diamond", False, 3, "array"),
    Workload("incremental", True, 2, "interp"),
    Workload("frontend", False, 3, "interp"),
]}


@dataclass
class BatchInput:
    """One file of a batch workload and the verdict fixed by construction."""
    name: str
    text: str
    expected: str


@dataclass
class Stream:
    """One incremental session: its script and, per check-sat in order, the
    expected verdict and the assertion name an unsat core must contain."""
    text: str
    expected: list = field(default_factory=list)
    core_must: list = field(default_factory=list)


# Sizes per scale. "full" is what the benchmark measures; "tiny" is for the
# self-check. A full pass takes a few seconds on a 2-CPU x86 machine.
SIZES = {
    "full": {
        "jobshop": dict(sat=(8, 8, 12, (1, 9)), unsat=(7, 3, 20, (5, 5))),
        # windows all of one size, so the median and the tail both fall
        # inside a dense cluster of like instances rather than between
        # sizes that sit 10% apart
        "diamond": dict(grid=(400, 450), grid_jitter=5, windows=[160] * 12),
        "incremental": dict(vars=60, cycles=100, queries=3),
        # one chain depth: the tree expansion doubles per level, so mixed
        # depths leave the few deepest-chain files alone in the tail
        "frontend": dict(files=48, vars=16, chain_depths=(8, 8), chains=2,
                         wide_atoms=60, wide_clauses=20, wides=3),
    },
    "tiny": {
        "jobshop": dict(sat=(4, 3, 2, (1, 9)), unsat=(4, 3, 2, (5, 5))),
        "diamond": dict(grid=(20,), grid_jitter=3, windows=[12, 16]),
        "incremental": dict(vars=8, cycles=6, queries=2),
        "frontend": dict(files=4, vars=6, chain_depths=(2, 3), chains=1,
                         wide_atoms=6, wide_clauses=6, wides=1),
    },
}


def _fmt(c):
    return str(c) if c >= 0 else f"(- {-c})"


def generate(workload, seed, scale="full", pass_no=0):
    """Inputs of pass ``pass_no``: a list of BatchInput, or one Stream.

    Every pass gets inputs of its own, drawn at the same sizes, so a run's
    figures come from many instances rather than from the few hardest of
    one set; the same seed and pass number give the same inputs.
    """
    sizes = SIZES[scale][workload]
    return {"jobshop": _jobshop_batch, "diamond": _diamond_batch,
            "incremental": _incremental_stream,
            "frontend": _frontend_batch}[workload](f"{seed}/{pass_no}",
                                                   **sizes)


# -- jobshop ------------------------------------------------------------------


def _jobshop_text(rng, jobs, machines, durations, unsat):
    ops = []
    for _ in range(jobs):
        order = list(range(machines))
        rng.shuffle(order)
        ops.append([(m, rng.randint(*durations)) for m in order])
    longest = max(sum(d for _, d in job) for job in ops)
    load = [0] * machines
    for job in ops:
        for m, d in job:
            load[m] += d
    if unsat:
        bound = max(longest, max(load)) - 1
    else:
        bound = _greedy_makespan(rng, ops, machines)
    lines = ["(set-logic QF_IDL)"]
    for j in range(jobs):
        for k in range(machines):
            lines.append(f"(declare-fun s{j}_{k} () Int)")
    for j, job in enumerate(ops):
        lines.append(f"(assert (>= s{j}_0 0))")
        for k in range(machines - 1):
            lines.append(f"(assert (>= (- s{j}_{k + 1} s{j}_{k}) {job[k][1]}))")
        last = machines - 1
        lines.append(f"(assert (<= s{j}_{last} {_fmt(bound - job[last][1])}))")
    on_machine = [[] for _ in range(machines)]
    for j, job in enumerate(ops):
        for k, (m, d) in enumerate(job):
            on_machine[m].append((f"s{j}_{k}", d))
    for group in on_machine:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                (sa, da), (sb, db) = group[a], group[b]
                lines.append(f"(assert (or (>= (- {sb} {sa}) {da}) "
                             f"(>= (- {sa} {sb}) {db})))")
    lines.append("(check-sat)")
    if not unsat:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _greedy_makespan(rng, ops, machines):
    """Makespan of a schedule that starts a random ready job's next
    operation as early as its job and machine allow."""
    nxt = [0] * len(ops)
    job_free = [0] * len(ops)
    machine_free = [0] * machines
    makespan = 0
    ready = list(range(len(ops)))
    while ready:
        j = rng.choice(ready)
        m, d = ops[j][nxt[j]]
        end = max(job_free[j], machine_free[m]) + d
        job_free[j] = machine_free[m] = end
        makespan = max(makespan, end)
        nxt[j] += 1
        if nxt[j] == machines:
            ready.remove(j)
    return makespan


def _jobshop_batch(seed, sat, unsat):
    """``sat`` and ``unsat`` are (jobs, machines, files, duration range).

    Proving the lower bound infeasible is heavy-tailed with durations drawn
    from 1..9 (single files ran from 0.1 s to minutes), so unsat files use
    one duration for every operation: their refutations then cost about
    the same on every seed, which keeps the workload steady. Sat files keep
    varied durations, at a size that costs about as much as an unsat file,
    so the median verdict time does not sit between two clusters.
    """
    out = []
    for verdict, (jobs, machines, count, durations) in (("sat", sat),
                                                         ("unsat", unsat)):
        for i in range(count):
            rng = random.Random(f"jobshop/{seed}/{verdict}/{i}")
            text = _jobshop_text(rng, jobs, machines, durations,
                                 verdict == "unsat")
            out.append(BatchInput(f"jobshop-{jobs}x{machines}-{verdict}-{i}",
                                  text, verdict))
    random.Random(f"jobshop/{seed}/order").shuffle(out)
    return out


# -- diamond ------------------------------------------------------------------


def _diamond_batch(seed, grid, grid_jitter, windows):
    rng = random.Random(f"diamond/{seed}")
    out = []
    for n in grid:
        n += rng.randrange(grid_jitter)
        text, verdict = emit_benchmark("diamond-grid", n)
        out.append(BatchInput(f"diamond-grid-{n}", text + "(get-model)\n",
                              verdict))
    for i, n in enumerate(windows):
        text, verdict = emit_benchmark("window-scheduling", n,
                                       seed=rng.randrange(2 ** 31))
        out.append(BatchInput(f"window-scheduling-{n}-{i}",
                              text + "(get-model)\n", verdict))
    return out


# -- incremental --------------------------------------------------------------


def _incremental_stream(seed, vars, cycles, queries):
    rng = random.Random(f"incremental/{seed}")
    witness = [rng.randint(0, 1000) for _ in range(vars)]
    lo = [w - rng.randint(0, 20) for w in witness]
    hi = [w + rng.randint(0, 20) for w in witness]
    lines = ["(set-logic QF_IDL)", "(set-option :produce-unsat-cores true)"]
    lines += [f"(declare-fun t{i} () Int)" for i in range(vars)]
    for i in range(vars):
        lines.append(f"(assert (! (>= t{i} {_fmt(lo[i])}) :named lo{i}))")
        lines.append(f"(assert (! (<= t{i} {_fmt(hi[i])}) :named hi{i}))")
    unsat_cycles = set(rng.sample(range(cycles), cycles // 2))
    stream = Stream("")
    for c in range(cycles):
        lines.append("(push 1)")
        for q in range(queries):
            a, b, d = rng.sample(range(vars), 3)
            true_side = (f"(<= (- t{a} t{b}) "
                         f"{_fmt(witness[a] - witness[b] + rng.randint(0, 5))})")
            other = (f"(<= (- t{b} t{d}) "
                     f"{_fmt(witness[b] - witness[d] - rng.randint(1, 30))})")
            sides = [true_side, other]
            rng.shuffle(sides)
            lines.append(f"(assert (! (or {sides[0]} {sides[1]}) "
                         f":named q{c}_{q}))")
        if c in unsat_cycles:
            a, b = rng.sample(range(vars), 2)
            # t_a - t_b >= lo_a - hi_b on the windows, so this bound cannot hold
            bound = lo[a] - hi[b] - 1 - rng.randint(0, 10)
            lines.append(f"(assert (! (<= (- t{a} t{b}) {_fmt(bound)}) "
                         f":named k{c}))")
            stream.expected.append("unsat")
            stream.core_must.append(f"k{c}")
            follow = "(get-unsat-core)"
        else:
            stream.expected.append("sat")
            stream.core_must.append(None)
            follow = "(get-model)"
        lines += ["(check-sat)", follow, "(pop 1)"]
    stream.text = "\n".join(lines) + "\n"
    return stream


# -- frontend -----------------------------------------------------------------


class _AtomMaker:
    """Difference atoms in several concrete shapes, with their truth value
    under a hidden witness."""

    def __init__(self, rng, witness):
        self.rng = rng
        self.w = witness

    def atom(self):
        rng, w = self.rng, self.w
        x, y = rng.sample(range(len(w)), 2)
        diff = w[x] - w[y]
        truth = rng.random() < 0.5
        shape = rng.randrange(3)
        if shape == 0:  # (<= (- x y) c)
            c = diff + rng.randint(0, 4) if truth else diff - rng.randint(1, 4)
            return f"(<= (- v{x} v{y}) {_fmt(c)})", truth
        if shape == 1:  # (>= (- x y) c)
            c = diff - rng.randint(0, 4) if truth else diff + rng.randint(1, 4)
            return f"(>= (- v{x} v{y}) {_fmt(c)})", truth
        # (< (+ x c) y), i.e. x - y < -c
        c = -diff - rng.randint(1, 4) if truth else -diff + rng.randint(0, 4)
        return f"(< (+ v{x} {_fmt(c)}) v{y})", truth


def _chain(mk, depth, tag):
    """A let chain whose level t uses level t-1 twice, so the tree expansion
    doubles per level while the text grows linearly."""
    first, val = mk.atom()
    binds = [f"({tag}0 {first})"]
    for t in range(1, depth + 1):
        atom, av = mk.atom()
        prev = f"{tag}{t - 1}"
        if mk.rng.random() < 0.5:
            body, val = f"(and {prev} (or {prev} {atom}))", val and (val or av)
        else:
            body, val = (f"(or (not {prev}) (and {prev} {atom}))",
                         (not val) or (val and av))
        binds.append(f"({tag}{t} {body})")
    top = f"{tag}{depth}" if val else f"(not {tag}{depth})"
    text = top
    for b in reversed(binds):
        text = f"(let ({b}) {text})"
    return f"(assert {text})"


def _wide(mk, atoms, clauses, tag, extra=None):
    """A conjunction of 3-literal clauses over shared let-bound atoms; each
    clause holds under the witness."""
    rng = mk.rng
    pool = [mk.atom() for _ in range(atoms)]
    binds = " ".join(f"({tag}{i} {a})" for i, (a, _) in enumerate(pool))
    parts = []
    for _ in range(clauses):
        picks = rng.sample(range(atoms), 3)
        lits = []
        for i in picks:
            neg = rng.random() < 0.5
            lits.append((f"(not {tag}{i})" if neg else f"{tag}{i}",
                         pool[i][1] != neg))
        if not any(v for _, v in lits):
            i = picks[0]
            lits[0] = (f"(not {tag}{i})" if not pool[i][1] else f"{tag}{i}",
                       True)
        parts.append("(or " + " ".join(s for s, _ in lits) + ")")
    if extra:
        parts.append(extra)
    return f"(assert (let ({binds}) (and {' '.join(parts)})))"


def _frontend_batch(seed, files, vars, chain_depths, chains, wide_atoms,
                    wide_clauses, wides):
    out = []
    for i in range(files):
        rng = random.Random(f"frontend/{seed}/{i}")
        mk = _AtomMaker(rng, [rng.randint(0, 100) for _ in range(vars)])
        unsat = i % 4 == 3
        lines = ["(set-logic QF_IDL)"]
        lines += [f"(declare-fun v{k} () Int)" for k in range(vars)]
        for c in range(chains):
            lines.append(_chain(mk, rng.randint(*chain_depths), f"c{c}_"))
        for k in range(wides):
            extra = None
            if unsat and k == 0:
                a, b, d = rng.sample(range(vars), 3)
                # v_a - v_b <= -1, v_b - v_d <= -1, v_d - v_a <= 1: weight -1
                extra = (f"(let ((n1 (<= (- v{a} v{b}) (- 1))) "
                         f"(n2 (<= (- v{b} v{d}) (- 1))) "
                         f"(n3 (<= (- v{d} v{a}) 1))) (and n1 n2 n3))")
            lines.append(_wide(mk, wide_atoms, wide_clauses, f"w{k}_", extra))
        lines.append("(check-sat)")
        if not unsat:
            lines.append("(get-model)")
        out.append(BatchInput(f"frontend-{i}", "\n".join(lines) + "\n",
                              "unsat" if unsat else "sat"))
    return out

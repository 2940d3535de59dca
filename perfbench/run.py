"""End-to-end and per-layer benchmark of the idlsmt solver.

    python3 perfbench/run.py --workload jobshop --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``. One workload runs per invocation, in a worker process of its own
(one process, no extra threads). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from passes with span
wrappers installed, alternating with untraced passes so the tracing
overhead is measured too. Every answer is checked against a reference that
does not use the solver. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Provenance
and, for traced runs, the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("jobshop", "diamond", "incremental", "frontend")
GUARD_S = 25.0  # silence from the worker longer than this stops it
RUN_LIMIT_S = 170.0  # the whole invocation stays inside this
SETUP_REPS = 9
REFERENCE_START_S = 0.2  # a reference start at the reference host speed

_SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import idlsmt; idlsmt.Session()")
_REFERENCE_SNIPPET = "import numpy"


def measure_setup():
    """Wall time of a fresh interpreter importing idlsmt and building its
    first Session, as every idl-smt invocation does, at the reference host
    speed. Returns (setup_s, times of the idlsmt starts, times of the
    reference starts).

    A start is process creation, imports and page-cache reads, which the
    host-speed loops of hostspeed.py do not track. Its reference is
    instead a start that does not touch the solver (an interpreter that
    imports numpy only), run next to each idlsmt start, in alternating
    order: setup_s is the median of the paired ratios times
    REFERENCE_START_S. On a shared 2-CPU x86 host this cut the spread of
    repeated set-up figures over five minutes from 0.11 to 0.05 (IQR over
    median). One warm-up start of each fills the bytecode cache first."""
    solver = [sys.executable, "-c", _SETUP_SNIPPET, SRC]
    reference = [sys.executable, "-c", _REFERENCE_SNIPPET]

    def start(argv):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        return time.perf_counter() - t0

    start(solver)
    start(reference)
    times, refs = [], []
    for k in range(SETUP_REPS):
        if k % 2:
            refs.append(start(reference))
            times.append(start(solver))
        else:
            times.append(start(solver))
            refs.append(start(reference))
    ratio = statistics.median(t / r for t, r in zip(times, refs))
    return ratio * REFERENCE_START_S, times, refs


def run_worker(argv, guard_s, limit_s):
    """Run the worker, stopping it when it is silent for ``guard_s`` or runs
    past ``limit_s``. Returns (last JSON line or None, heartbeats, reason
    it was stopped or None)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    end = time.monotonic() + limit_s
    buf, last, beats, stopped = b"", None, 0, None
    try:
        while True:
            wait = min(guard_s, end - time.monotonic())
            if wait <= 0 or not sel.select(wait):
                stopped = (f"no answer within the {guard_s:g} s guard"
                           if wait > 0 else f"run past {limit_s:g} s")
                break
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            *lines, buf = (buf + chunk).split(b"\n")
            for line in lines:
                if line == b".":
                    beats += 1
                elif line.strip():
                    last = line
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        sel.close()
        proc.stdout.close()
    if stopped is None and proc.returncode != 0:
        stopped = f"worker exited with code {proc.returncode}"
    return (json.loads(last) if last and stopped is None else None,
            beats, stopped)


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "idlsmt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "idlsmt", "__init__.py")):
        print(f"run.py: no solver sources at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker += ["--spans", os.path.join(OUT, f"spans-{args.workload}.npz")]
    else:
        setup_s, setup_runs, setup_refs = measure_setup()
    summary, beats, stopped = run_worker(
        worker, GUARD_S, RUN_LIMIT_S - (time.monotonic() - started))

    if summary is None:
        # a runaway or crashed input: what finished plus the one in flight
        attempted, failures = beats + 1, [f"stopped: {stopped}"]
        metrics, info = {}, {}
    else:
        attempted, failures = summary["attempted"], summary["failures"]
        metrics, info = summary["metrics"], summary["info"]
        if not args.trace:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            info["setup_runs_s"] = [round(t, 4) for t in setup_runs]
            info["setup_reference_runs_s"] = [round(t, 4) for t in setup_refs]
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "git_revision": _git_revision(), "src_sha256": _src_digest(),
                 "nproc": os.cpu_count(),
                 "failed_share": len(failures) / attempted,
                 "failures": failures[:20]})
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({"metrics": metrics, "info": info}, f, indent=1)

    for name, m in sorted(metrics.items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_share = {info['failed_share']:.6g} "
          f"({len(failures)}/{attempted})")
    for line in failures[:5]:
        print(f"  failed: {line}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's trace seams keep reading the solver.

``perfbench/spans.py`` wraps the solver's layer functions from outside, by
the names their callers look up. A renamed seam, or an atom test that no
longer goes through ``DifferenceEngine.scan_implications`` with one entry
per tested atom in its first argument, would leave the benchmark's
per-layer figures at zero, or short, without failing the benchmark itself.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from idlsmt import engine, smtlib  # noqa: E402
from idlsmt.kernels import BLOCK_MIN_N  # noqa: E402


def test_tracer_counts_the_full_scans_of_a_tiny_frontend_pass():
    tracer = spans.Tracer()
    tested = 0
    with tracer:
        installed = list(tracer._installed)
        for inp in workloads.generate("frontend", 5, "tiny"):
            session = engine.Session()
            for cmd in smtlib.parse_script(inp.text):
                session.execute(cmd)
            # whole-block commits; the next test covers the block kernel
            assert session.apsp.n < BLOCK_MIN_N
            tested += session.stats["prop_atoms_tested"]
    assert tracer.counts["engine.scan_atoms"] == tested > 0
    spent = tracer.self_seconds()
    for layer in ("engine.on_assert", "engine.propagate", "theory.assert",
                  "theory.scan", "kernels.relax"):
        assert spent[layer] > 0, layer
    # uninstalled, every seam is the solver's own function again
    assert installed
    for owner, attr, orig in installed:
        assert owner.__dict__[attr] is orig, attr


def test_tracer_counts_every_atom_test_past_block_min_n():
    # the incremental workload's 61 vertices put its commits on the block
    # kernel, which logs changed cells; the atoms tested after them go
    # through the scan seam too
    inp = workloads.generate("incremental", 5)
    tracer = spans.Tracer()
    with tracer:
        session = engine.Session()
        for cmd in smtlib.parse_script(inp.text):
            session.execute(cmd)
    assert session.apsp.n >= BLOCK_MIN_N
    tested = session.stats["prop_atoms_tested"]
    assert tracer.counts["engine.scan_atoms"] == tested > 0

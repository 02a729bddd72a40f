"""Exact answers, compared bit for bit against ``golden_answers.json``.

A change that should leave every answer unchanged (a refactor, a new
cache, a compiled schedule) must pass this test as it stands.  A change
that moves answers on purpose regenerates the file, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md why the answers moved and by how much.  Floats
are stored as ``float.hex()``.  The engine sums one length-2 axis at a
time (``valuation.sum_axes``), so each answer here follows from the plan
and IEEE arithmetic, not from how numpy groups a reduction; the numpy
version that wrote the file is recorded next to them all the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from conftest import C17_PATH, build_corpus, perfbench_circuits
from maxerr.analysis import max_error, prepare, spectrum, sweep
from maxerr.circuit import load_circuit

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_answers.json")
C17_EPS = (0.01, 0.05, 0.1, 0.2)
SWEEP_GRID = [round(0.005 * i, 12) for i in range(1, 41)]   # 0.005 .. 0.2
ADDER_BITS = (4, 5)
ADDER_SEEDS = (0, 1, 2)
CORPUS_N = 20
CORPUS_EPS = (0.01, 0.05, 0.2)


def _report(c, eps, joint=False) -> dict:
    net, tree = prepare(c, eps)
    rep = max_error(net, tree, joint=joint)
    return {
        "per_output": [[r.output, r.vector, r.p_error.hex(), r.unreachable,
                        r.nodes_expanded, r.nodes_pruned] for r in rep.per_output],
        "max_error": rep.max_error.hex(),
        "worst_vector": rep.worst_vector,
        "worst_output": rep.worst_output,
    }


def _c17_reports() -> dict:
    c = load_circuit(C17_PATH)
    return {"%s joint=%s" % (eps, joint): _report(c, eps, joint)
            for eps in C17_EPS for joint in (False, True)}


def _c17_sweep() -> dict:
    curve = sweep(load_circuit(C17_PATH), SWEEP_GRID, refine=True)
    return {
        "points": [[p.epsilon.hex(), p.max_error.hex(), p.avg_error.hex(),
                    p.worst_vector, p.worst_output] for p in curve.points],
        "error_bound": curve.error_bound.hex(),
        "refined_bound": curve.refined_bound.hex(),
    }


def _adder_reports() -> dict:
    pb = perfbench_circuits()
    out = {}
    for n in ADDER_BITS:
        c = pb.ripple_carry_adder(n)
        for seed in ADDER_SEEDS:
            for joint in (False, True):
                out["rca%d seed=%d joint=%s" % (n, seed, joint)] = \
                    _report(c, pb.seeded_eps(c, seed), joint=joint)
    return out


def _corpus_reports() -> dict:
    return {"%d eps=%s joint=%s" % (i, eps, joint): _report(c, eps, joint=joint)
            for i, c in enumerate(build_corpus()[:CORPUS_N])
            for eps in CORPUS_EPS for joint in (False, True)}


def _spectra() -> dict:
    pb = perfbench_circuits()
    rca4 = pb.ripple_carry_adder(4)
    return {name: spectrum(c, eps)
            for name, c, eps in (("c17 eps=0.05", load_circuit(C17_PATH), 0.05),
                                 ("rca4 seed=0", rca4, pb.seeded_eps(rca4, 0)))}


def _spectrum_digests() -> dict:
    return {name: hashlib.sha256(sp.per_output.tobytes()).hexdigest()
            for name, sp in _spectra().items()}


def _spectrum_mu_sigma() -> dict:
    return {name: [sp.mu.hex(), sp.sigma.hex()] for name, sp in _spectra().items()}


SECTIONS = {
    "c17_max_error": _c17_reports,
    "c17_sweep_refined": _c17_sweep,
    "adder_max_error": _adder_reports,
    "corpus_max_error": _corpus_reports,
    "spectrum_sha256": _spectrum_digests,
    "spectrum_mu_sigma": _spectrum_mu_sigma,
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_answers_equal_golden(golden, section):
    assert SECTIONS[section]() == golden[section], (
        "answers differ from %s (written with numpy %s, running %s)"
        % (os.path.basename(GOLDEN_PATH), golden["numpy"], np.__version__))


def main() -> None:
    doc = {"numpy": np.__version__, **{name: fn() for name, fn in SECTIONS.items()}}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % GOLDEN_PATH, file=sys.stderr)


if __name__ == "__main__":
    main()

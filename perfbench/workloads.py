"""The three benchmark workloads.

Each workload builds its inputs from the seed (untimed), offers a
``setup`` call that is timed on its own, an ``op`` that is the timed
operation, and a ``check`` that compares results against references
computed once, outside every timed region.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np

from circuits import check_adder, ripple_carry_adder, seeded_eps

analysis = importlib.import_module("maxerr.analysis")
circuit = importlib.import_module("maxerr.circuit")
oracle = importlib.import_module("maxerr.oracle")

MC_RUNS = 200_000
MC_Z = 5.0            # Monte Carlo agreement, in standard errors
EXACT_TOL = 1e-9


def _mc(c, bits, eps, seed):
    return oracle.monte_carlo(c, bits, eps, oracle.McConfig(runs=MC_RUNS, seed=seed))


def _agrees(exact, est) -> bool:
    return bool(np.all(np.abs(np.asarray(exact) - est.p_error) <= MC_Z * est.stderr + 1e-12))


def _complain(name: str, msg: str) -> None:
    print("%s: check failed: %s" % (name, msg), file=sys.stderr)


class AnalyzeRca5:
    """Worst vector per output of a 5-bit adder: the search-heavy case."""

    name = "analyze-rca5"
    answers = 6           # one per output

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.c = ripple_carry_adder(5)
        check_adder(self.c, 5)
        self.eps = seeded_eps(self.c, seed)

    def setup(self):
        self.net, self.tree = analysis.prepare(self.c, self.eps)

    def op(self):
        return analysis.max_error(self.net, self.tree)

    def check(self, results) -> int:
        """Each output's p_error must equal that output's column maximum of
        the spectrum and agree with Monte Carlo at the reported vector."""
        col_max = analysis.spectrum(self.c, self.eps).per_output.max(axis=0)
        mc_cache = {}
        failed = 0
        for rep in results:
            ok = len(rep.per_output) == self.c.n_outputs
            for j, row in enumerate(rep.per_output):
                if row.unreachable or abs(row.p_error - col_max[j]) > EXACT_TOL:
                    _complain(self.name, "output %s: %r vs spectrum max %r"
                              % (row.output, row.p_error, col_max[j]))
                    ok = False
                    continue
                key = (j, row.vector)
                if key not in mc_cache:
                    bits = [int(ch) for ch in row.vector]
                    mc_cache[key] = _mc(self.c, bits, self.eps, [self.seed, 0, j])
                est = mc_cache[key]
                if not (abs(row.p_error - est.p_error[j]) <= MC_Z * est.stderr[j] + 1e-12):
                    _complain(self.name, "output %s at %s: %r vs Monte Carlo %r"
                              % (row.output, row.vector, row.p_error, est.p_error[j]))
                    ok = False
            failed += not ok
        return failed


class SweepC17:
    """The paper's worked example: c17 over an eps grid, refined to the
    0.5 crossing.  Many tiny queries; the seed does not apply."""

    name = "sweep-c17"
    GRID = tuple(round(0.005 * i, 3) for i in range(1, 41))
    # 40 grid points plus the 5 bisection points that narrow the 0.005
    # bracket around the crossing to 2e-4.
    answers = 45

    def __init__(self, root: str, seed: int):
        self.path = os.path.join(root, "circuits", "c17.bench")

    def setup(self):
        self.c = circuit.load_circuit(self.path)
        analysis.prepare(self.c, self.GRID[0])

    def op(self):
        return analysis.sweep(self.c, self.GRID, refine=True)

    def check(self, results) -> int:
        """Every grid point matches exhaustive fault enumeration; eps 0.05
        gives the paper's 01111 / 0.3160; the refined crossing lies in
        [0.1035, 0.1075] and within 1e-4 of the enumerated crossing."""
        enum = oracle.FaultEnumerator(self.c)
        ref = [float(enum.cond_errors(e).max()) for e in self.GRID]
        lo, hi = 0.0, 0.5
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if enum.cond_errors(mid).max() >= 0.5 else (mid, hi)
        failed = 0
        for curve in results:
            ok = [p.epsilon for p in curve.points] == list(self.GRID)
            for p, r in zip(curve.points, ref):
                if abs(p.max_error - r) > EXACT_TOL:
                    _complain(self.name, "eps %g: %r vs enumeration %r" % (p.epsilon, p.max_error, r))
                    ok = False
            at05 = curve.points[self.GRID.index(0.05)]
            if at05.worst_vector != "01111" or abs(at05.max_error - 0.3160) > 5e-5:
                _complain(self.name, "eps 0.05: %s %r" % (at05.worst_vector, at05.max_error))
                ok = False
            rb = curve.refined_bound
            if rb is None or not 0.1035 <= rb <= 0.1075 or abs(rb - hi) > 1e-4 + 1e-9:
                _complain(self.name, "refined crossing %r, enumerated %r" % (rb, hi))
                ok = False
            failed += not ok
        return failed


class SpectrumRca4:
    """Every vector's error on a 4-bit adder: sum-only messages, one
    evidence bit flipped per Gray-code step, no search."""

    name = "spectrum-rca4"
    answers = 512 * 5     # (vector, output) probabilities
    SAMPLE = 8

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.c = ripple_carry_adder(4)
        check_adder(self.c, 4)
        self.eps = seeded_eps(self.c, seed)

    def setup(self):
        analysis.prepare(self.c, self.eps)

    def op(self):
        return analysis.spectrum(self.c, self.eps)

    def check(self, results) -> int:
        """A seeded sample of vectors agrees with Monte Carlo on every
        output."""
        k = self.c.n_inputs
        rng = np.random.default_rng([self.seed, 2])
        sample = sorted(int(i) for i in rng.choice(1 << k, size=self.SAMPLE, replace=False))
        refs = {i: _mc(self.c, circuit.index_vector(i, k), self.eps, [self.seed, 1, i])
                for i in sample}
        failed = 0
        for spec in results:
            ok = spec.per_output.shape == (1 << k, self.c.n_outputs)
            for i in sample:
                if ok and not _agrees(spec.per_output[i], refs[i]):
                    _complain(self.name, "vector %d: %s vs Monte Carlo %s"
                              % (i, spec.per_output[i], refs[i].p_error))
                    ok = False
            failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (AnalyzeRca5, SweepC17, SpectrumRca4)}

import importlib.util
import os

import numpy as np
import pytest

from maxerr.circuit import load_circuit, parse_bench
from maxerr.oracle import random_circuit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
C17_PATH = os.path.join(ROOT, "circuits", "c17.bench")

CORPUS_SEED = 20250814
CORPUS_SIZE = 200
CORPUS_EPS = (0.01, 0.05, 0.1, 0.2)

# every output fed straight by an input: no gate depends on eps, so in
# the three-block model only the comparators carry the grid axis
GATE_FREE = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(b)\n")

# two independent cones, so the join tree's pieces have to be chained
DISCONNECTED = parse_bench(
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(b)\n")

# one AND gate over 20 inputs: its CPT alone spans 21 variables
WIDE_AND = ("".join("INPUT(a%d)\n" % i for i in range(20))
            + "OUTPUT(z)\nz = AND(%s)\n" % ", ".join("a%d" % i for i in range(20)))


def and_chains(n_a, n_b):
    """.bench text of two gate-disjoint AND chains sharing input x: x and
    a0..a{n_a - 1} into output y, x and b0..b{n_b - 1} into output z.
    Each cone has a cluster; their union of 1 + n_a + n_b inputs has none."""
    lines, names = [], []
    for src, out, n in (("a", "y", n_a), ("b", "z", n_b)):
        prev = "x"
        for i in range(n):
            names.append("%s%d" % (src, i))
            gate = out if i == n - 1 else "%s%d" % (out, i)
            lines.append("%s = AND(%s, %s)" % (gate, prev, names[-1]))
            prev = gate
    return ("".join("INPUT(%s)\n" % v for v in ["x"] + names)
            + "OUTPUT(y)\nOUTPUT(z)\n" + "\n".join(lines) + "\n")


# the 9-input pair: tree width 7, union cone 9
CHAINS = and_chains(4, 4)


@pytest.fixture(scope="session")
def c17():
    return load_circuit(C17_PATH)


def build_corpus(n=CORPUS_SIZE, seed=CORPUS_SEED):
    """Seeded random circuits, k <= 8 and G <= 12, skewed small so the
    exhaustive cross-checks stay fast."""
    rng = np.random.default_rng(seed)
    ks = rng.choice(np.arange(2, 9), size=n, p=np.array([2, 3, 4, 4, 3, 2, 2]) / 20)
    gs = rng.choice(np.arange(3, 13), size=n,
                    p=np.array([2, 3, 3, 3, 3, 2, 2, 2, 2, 2]) / 24)
    return [random_circuit(rng, int(k), int(g)) for k, g in zip(ks, gs)]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def perfbench_circuits():
    """``perfbench/circuits.py`` loaded from its file, read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_circuits", os.path.join(ROOT, "perfbench", "circuits.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod

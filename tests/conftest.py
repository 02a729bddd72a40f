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

# two independent cones, so the join tree's pieces have to be chained
DISCONNECTED = parse_bench(
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(b)\n")

# one AND gate over 20 inputs: its CPT alone spans 21 variables
WIDE_AND = ("".join("INPUT(a%d)\n" % i for i in range(20))
            + "OUTPUT(z)\nz = AND(%s)\n" % ", ".join("a%d" % i for i in range(20)))


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

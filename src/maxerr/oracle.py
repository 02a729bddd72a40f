"""Independent ground truth for small circuits.

Everything here works straight off :meth:`Circuit.eval` semantics (the
batch variant of it) and never touches the inference machinery, so the
two routes can be checked against each other.  Exact enumeration walks
all 2**G fault sets; the Monte Carlo estimator samples them.  Input
priors are taken uniform (0.5) throughout, and a gate with error rate
eps misfires (emits its complement) with probability 2*eps, matching
the error-model convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (Circuit, Gate, GateFunc, all_input_vectors, index_vector,
                      vector_index)

MAX_ENUM_GATES = 22
MAX_ENUM_INPUTS = 16
MC_SHARD = 1 << 16   # Monte Carlo runs per spawned seed; fixes the random stream


def _check_eps(c: Circuit, eps) -> np.ndarray:
    arr = np.full(c.n_gates, float(eps)) if np.isscalar(eps) else \
        np.array([float(eps[gi]) for gi in range(c.n_gates)])
    if not np.all((arr >= 0) & (arr <= 0.5)):   # NaN fails both
        raise ValueError("gate error probabilities must lie in [0, 0.5]")
    return arr


class FaultEnumerator:
    """Exhaustive fault-set table for one circuit.

    Precomputes, per input vector, which fault sets flip each output;
    those masks are eps-independent, so sweeping eps only reweights
    them.
    """

    def __init__(self, c: Circuit):
        if c.n_gates > MAX_ENUM_GATES:
            raise ValueError("fault enumeration capped at %d gates, circuit has %d"
                             % (MAX_ENUM_GATES, c.n_gates))
        if c.n_inputs > MAX_ENUM_INPUTS:
            raise ValueError("fault enumeration capped at %d inputs, circuit has %d"
                             % (MAX_ENUM_INPUTS, c.n_inputs))
        self.circuit = c
        self.fault_rows = all_input_vectors(c.n_gates)  # (2**G, G)
        vectors = all_input_vectors(c.n_inputs)
        good = c.eval_batch(vectors)  # (2**k, n)
        # diff[i] has shape (2**G, n): fault set s flips output j on i.
        self._diff = []
        for i in range(vectors.shape[0]):
            tiled = np.broadcast_to(vectors[i], (self.fault_rows.shape[0], c.n_inputs))
            out = c.eval_batch(tiled, self.fault_rows)
            self._diff.append(out != good[i])

    def weights(self, eps) -> np.ndarray:
        flip = 2.0 * _check_eps(self.circuit, eps)
        return np.prod(np.where(self.fault_rows, flip, 1.0 - flip), axis=1)

    def cond_errors(self, eps) -> np.ndarray:
        """P(output j wrong | input i) for all i, j; shape (2**k, n)."""
        w = self.weights(eps)
        return np.stack([w @ d for d in self._diff])


def exact_cond_error(c: Circuit, input_bits: Sequence[int], eps) -> np.ndarray:
    """Exact per-output error probabilities for one input vector.

    Sums, over every subset S of gates, the probability that exactly
    the gates in S misfire times the indicator that the faulty outputs
    disagree with the fault-free ones.
    """
    enum = FaultEnumerator(c)
    return enum.weights(eps) @ enum._diff[vector_index(input_bits)]


@dataclass
class MapTruth:
    vector: tuple[int, ...]
    prob: float          # P(inputs, output wrong) under uniform priors
    cond_error: float    # P(output wrong | inputs)


def exact_map(c: Circuit, eps, output_index: int,
              enum: FaultEnumerator | None = None) -> MapTruth:
    """Most error-prone input vector for one output, by enumeration.

    Maximizes 0.5**k * P(output wrong | i); ties go to the
    lexicographically smallest vector.
    """
    enum = enum or FaultEnumerator(c)
    col = enum.cond_errors(eps)[:, output_index]
    best = int(np.argmax(col))
    return MapTruth(index_vector(best, c.n_inputs),
                    0.5 ** c.n_inputs * float(col[best]), float(col[best]))


@dataclass
class McConfig:
    runs: int = 1_000_000
    seed: int = 0


@dataclass
class McEstimate:
    p_error: np.ndarray   # per output
    stderr: np.ndarray
    runs: int


def monte_carlo(c: Circuit, input_bits: Sequence[int], eps,
                cfg: McConfig = McConfig()) -> McEstimate:
    """Sampled per-output error probabilities for one input vector.

    Each run draws an independent misfire flag per gate.  Runs come in
    shards of ``MC_SHARD``, each with its own seed spawned from
    ``cfg.seed``, and counts sum across shards.
    """
    if cfg.runs < 1:
        raise ValueError("Monte Carlo needs at least 1 run, got %d" % cfg.runs)
    flip = 2.0 * _check_eps(c, eps)
    good = np.array(c.eval(input_bits), dtype=bool)
    row = np.array(input_bits, dtype=bool)
    n_shards = (cfg.runs + MC_SHARD - 1) // MC_SHARD
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_shards)
    counts = 0
    for i, seed in enumerate(seeds):
        m = min(MC_SHARD, cfg.runs - i * MC_SHARD)
        faults = np.random.default_rng(seed).random((m, c.n_gates)) < flip
        out = c.eval_batch(np.broadcast_to(row, (m, c.n_inputs)), faults)
        counts = counts + np.sum(out != good, axis=0)
    p = counts / cfg.runs
    return McEstimate(p, np.sqrt(p * (1.0 - p) / cfg.runs), cfg.runs)


_TWO_IN = (GateFunc.AND, GateFunc.NAND, GateFunc.OR, GateFunc.NOR,
           GateFunc.XOR, GateFunc.XNOR)


def random_circuit(rng: np.random.Generator, n_inputs: int, n_gates: int) -> Circuit:
    """Seeded random layered DAG for test corpora.

    Gates draw their fan-ins from all earlier nets with a bias toward
    recent ones (deeper, narrower circuits); outputs are the gate nets
    nothing consumes.
    """
    nets = ["i%d" % j for j in range(n_inputs)]
    gates = []
    used: set[str] = set()
    for gi in range(n_gates):
        if rng.random() < 0.15:
            func = GateFunc.NOT if rng.random() < 0.5 else GateFunc.BUF
            arity = 1
        else:
            func = _TWO_IN[rng.integers(len(_TWO_IN))]
            arity = 3 if (rng.random() < 0.1 and len(nets) >= 3) else 2
        arity = min(arity, len(nets))
        weights = np.arange(1, len(nets) + 1, dtype=float)
        weights /= weights.sum()
        picks = rng.choice(len(nets), size=arity, replace=False, p=weights)
        fanin = tuple(nets[i] for i in sorted(picks))
        name = "g%d" % gi
        gates.append(Gate(name, func, fanin))
        used.update(fanin)
        nets.append(name)
    outputs = [g.output for g in gates if g.output not in used]
    return Circuit(["i%d" % j for j in range(n_inputs)], gates, outputs)

"""Seeded inputs for the benchmark workloads.

The program under test only ever sees the circuit and the eps map built
here; the seed stays on the benchmark's side.
"""

from __future__ import annotations

import numpy as np

from maxerr.circuit import Circuit, Gate, GateFunc, all_input_vectors

EPS_LOW, EPS_HIGH = 0.02, 0.08


def ripple_carry_adder(n: int) -> Circuit:
    """n-bit ripple-carry adder of XOR/AND/OR gates.

    Inputs a0..a{n-1}, b0..b{n-1}, cin (bit 0 least significant);
    outputs s0..s{n-1}, cout.  Five gates per bit:
    s = a ^ b ^ c and cout = (a & b) | (c & (a ^ b)).
    """
    inputs = ["a%d" % i for i in range(n)] + ["b%d" % i for i in range(n)] + ["cin"]
    gates = []
    carry = "cin"
    for i in range(n):
        a, b = "a%d" % i, "b%d" % i
        gates += [Gate("p%d" % i, GateFunc.XOR, (a, b)),
                  Gate("s%d" % i, GateFunc.XOR, ("p%d" % i, carry)),
                  Gate("g%d" % i, GateFunc.AND, (a, b)),
                  Gate("t%d" % i, GateFunc.AND, (carry, "p%d" % i)),
                  Gate("c%d" % (i + 1), GateFunc.OR, ("g%d" % i, "t%d" % i))]
        carry = "c%d" % (i + 1)
    outputs = ["s%d" % i for i in range(n)] + [carry]
    return Circuit(inputs, gates, outputs)


def check_adder(c: Circuit, n: int) -> None:
    """Evaluate all 2**(2n+1) input vectors and compare against integer
    a + b + cin; raises ValueError on the first mismatch."""
    rows = all_input_vectors(c.n_inputs).astype(np.int64)
    weights = 1 << np.arange(n)
    a = rows[:, :n] @ weights
    b = rows[:, n:2 * n] @ weights
    total = a + b + rows[:, 2 * n]
    out = c.eval_batch(rows.astype(bool)).astype(np.int64)
    got = out @ (1 << np.arange(n + 1))
    bad = np.flatnonzero(got != total)
    if bad.size:
        raise ValueError("adder generator is wrong on %d of %d vectors"
                         % (bad.size, rows.shape[0]))


def seeded_eps(c: Circuit, seed: int) -> dict[int, float]:
    """Per-gate eps drawn uniformly from [EPS_LOW, EPS_HIGH]."""
    rng = np.random.default_rng(seed)
    return {gi: float(e) for gi, e in
            enumerate(rng.uniform(EPS_LOW, EPS_HIGH, size=c.n_gates))}

"""Probabilistic error model of a circuit.

The model holds three blocks over shared primary inputs: an error-free
copy of the circuit, an error-prone copy in which every gate misbehaves
independently, and one XOR comparator per primary output flagging
disagreement between the two copies.  Variables are binary; the network
has k + 2G + n of them for a circuit with k inputs, G gates and n
outputs.

A gate with error rate eps emits the complement of its correct output
with probability 2*eps, so eps = 0.25 makes the gate a fair coin and
eps = 0.5 a deterministic inverter.  Everything downstream (oracles,
sweeps, the CLI) quotes eps on this scale.

Inputs are uniform by definition.  Every input vector then has the same
probability 2^-k, so the vector maximizing the joint P(inputs, output
wrong), which the search finds, also maximizes the conditional error
P(output wrong | inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, GateFunc
from .valuation import Valuation, from_cells


class VarClass(Enum):
    INPUT = "input"
    INTERNAL = "internal"
    COMPARATOR = "comparator"


@dataclass(frozen=True)
class Var:
    id: int
    name: str
    klass: VarClass


class Cpt:
    """Conditional probability table P(child | parents).

    ``table`` axis 0 is the child state, following axes the parents in
    declared order; every column over the child states sums to 1.
    """

    def __init__(self, child: Var, parents: tuple[Var, ...], table: np.ndarray):
        self.child = child
        self.parents = parents
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.shape != (2,) * (1 + len(parents)):
            raise ValueError("CPT shape %s does not match %d parents"
                             % (self.table.shape, len(parents)))
        # np.allclose(col_sums, 1.0, atol=1e-12) without its overhead: the
        # same tolerance (numpy's default rtol 1e-5 included), NaN rejected
        col_sums = self.table.sum(axis=0)
        if not np.all(np.abs(col_sums - 1.0) <= 1e-12 + 1e-5):
            raise ValueError("CPT columns for %r do not normalize" % child.name)

    @property
    def scope(self) -> frozenset[int]:
        return frozenset((self.child.id,) + tuple(p.id for p in self.parents))

    def to_valuation(self) -> Valuation:
        order = (self.child.id,) + tuple(p.id for p in self.parents)
        return from_cells(order, self.table.ravel())

    def prob(self, child_state: int, parent_states: Sequence[int]) -> float:
        return float(self.table[(child_state,) + tuple(parent_states)])


def cpt_for_gate(func: GateFunc, fan_in: int, eps: float, faulty: bool,
                 child: Var, parents: tuple[Var, ...]) -> Cpt:
    """CPT of one gate variable.

    Error-free gates are deterministic; an error-prone gate with error
    rate eps emits the complement of its correct output with probability
    2*eps in every parent row (and the correct output with 1 - 2*eps).
    """
    if faulty and not 0.0 <= eps <= 0.5:
        raise ValueError("gate error probability %g outside [0, 0.5]" % eps)
    flip = 2.0 * eps
    table = np.zeros((2,) * (1 + fan_in))
    for pa in product((0, 1), repeat=fan_in):
        correct = func.eval(pa)
        if faulty:
            table[(correct,) + pa] = 1.0 - flip
            table[(correct ^ 1,) + pa] = flip
        else:
            table[(correct,) + pa] = 1.0
    return Cpt(child, parents, table)


def input_prior(child: Var) -> Cpt:
    """Parentless uniform CPT of a primary input."""
    return Cpt(child, (), np.array([0.5, 0.5]))


def _xor_cpt(child: Var, parents: tuple[Var, ...]) -> Cpt:
    table = np.zeros((2,) * (1 + len(parents)))
    for pa in product((0, 1), repeat=len(parents)):
        bit = 0 if len(pa) == 1 else (pa[0] ^ pa[1])
        table[(bit,) + pa] = 1.0
    return Cpt(child, parents, table)


class ErrorModelNet:
    """The assembled network plus bookkeeping back to circuit nets."""

    def __init__(self, circuit: Circuit, vars: list[Var], cpts: list[Cpt],
                 epsilon: dict[int, float], ideal_of: dict[str, int],
                 faulty_of: dict[str, int], comparators: tuple[int, ...]):
        self.circuit = circuit
        self.vars = tuple(vars)
        self.cpts = tuple(cpts)
        self.epsilon = epsilon
        self.ideal_of = ideal_of      # net name -> error-free twin var id
        self.faulty_of = faulty_of    # net name -> error-prone twin var id
        self.comparators = comparators
        self.input_vars = tuple(v.id for v in vars if v.klass is VarClass.INPUT)
        self.potentials: dict = {}    # join tree -> cluster potentials (propagate)
        if [v.id for v in vars] != list(range(len(vars))):
            raise ValueError("variable ids must be dense 0..N-1")
        if len(cpts) != len(vars):
            raise ValueError("need exactly one CPT per variable")

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    def comparator_of(self, output_name: str) -> int:
        return self.comparators[self.circuit.outputs.index(output_name)]


def _normalize_eps(c: Circuit, eps) -> dict[int, float]:
    if isinstance(eps, Mapping):
        table = dict(eps)
        missing = [gi for gi in range(c.n_gates) if gi not in table]
        if missing:
            raise ValueError("missing eps for gate indices %s" % missing)
        return {gi: float(table[gi]) for gi in range(c.n_gates)}
    return {gi: float(eps) for gi in range(c.n_gates)}


def eps_by_net_name(c: Circuit, named: Mapping[str, float],
                    default: float | None = None) -> dict[int, float]:
    """Translate a {gate output net: eps} map to gate indices; nets not
    listed fall back to ``default`` when given."""
    out: dict[int, float] = {}
    gate_nets = {g.output for g in c.gates}
    unknown = [name for name in named if name not in gate_nets]
    if unknown:
        raise ValueError("nets %s are not gate outputs" % sorted(unknown))
    for gi, g in enumerate(c.gates):
        if g.output in named:
            out[gi] = float(named[g.output])
        elif default is not None:
            out[gi] = float(default)
        else:
            raise ValueError("no eps given for gate output %r" % g.output)
    return out


def build_error_model(c: Circuit, eps) -> ErrorModelNet:
    """Assemble the three-block network for a circuit.

    ``eps`` is a single float applied to every gate or a {gate index:
    eps} map.  Variable ids run: inputs, error-free gate copies,
    error-prone gate copies, comparators.
    """
    eps_map = _normalize_eps(c, eps)
    k, G = c.n_inputs, c.n_gates
    vars: list[Var] = []
    for name in c.inputs:
        vars.append(Var(len(vars), name, VarClass.INPUT))
    for g in c.gates:
        vars.append(Var(len(vars), g.output, VarClass.INTERNAL))
    for g in c.gates:
        vars.append(Var(len(vars), g.output + "'", VarClass.INTERNAL))
    for name in c.outputs:
        vars.append(Var(len(vars), "err:" + name, VarClass.COMPARATOR))

    ideal_of = {name: j for j, name in enumerate(c.inputs)}
    faulty_of = dict(ideal_of)  # both copies read the same shared inputs
    for gi, g in enumerate(c.gates):
        ideal_of[g.output] = k + gi
        faulty_of[g.output] = k + G + gi

    cpts: list[Cpt] = []
    for j in range(k):
        cpts.append(input_prior(vars[j]))
    for gi, g in enumerate(c.gates):
        parents = tuple(vars[ideal_of[n]] for n in g.fanin)
        cpts.append(cpt_for_gate(g.func, len(g.fanin), 0.0, False, vars[k + gi], parents))
    for gi, g in enumerate(c.gates):
        parents = tuple(vars[faulty_of[n]] for n in g.fanin)
        cpts.append(cpt_for_gate(g.func, len(g.fanin), eps_map[gi], True,
                                 vars[k + G + gi], parents))
    comparators = []
    for oi, name in enumerate(c.outputs):
        child = vars[k + 2 * G + oi]
        a, b = ideal_of[name], faulty_of[name]
        # An output fed straight from a primary input has identical twins;
        # the comparator is then the constant 0.
        parents = (vars[a],) if a == b else (vars[a], vars[b])
        cpts.append(_xor_cpt(child, parents))
        comparators.append(child.id)

    return ErrorModelNet(c, vars, cpts, eps_map, ideal_of, faulty_of,
                         tuple(comparators))


def joint_prob(net: ErrorModelNet, assignment: Sequence[int]) -> float:
    """Joint probability of a full variable assignment.

    Plain product over CPT entries; reference implementation for tests,
    never used by the inference engine.
    """
    if len(assignment) != net.n_vars:
        raise ValueError("expected %d states" % net.n_vars)
    p = 1.0
    for cpt in net.cpts:
        p *= cpt.prob(assignment[cpt.child.id],
                      [assignment[q.id] for q in cpt.parents])
        if p == 0.0:
            return 0.0
    return p

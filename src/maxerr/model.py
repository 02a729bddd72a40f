"""Probabilistic error model of a circuit.

The model holds three blocks over shared primary inputs: an error-free
copy of the circuit, an error-prone copy in which every gate misbehaves
independently, and one XOR comparator per primary output flagging
disagreement between the two copies.  Variables are binary; the network
has k + 2G + n of them for a circuit with k inputs, G gates and n
outputs (``build_error_model``).  Once the inputs are fixed the
error-free copy and the comparators add only the constant f(x), so the
per-vector error reads from a model of the inputs and the error-prone
copy alone, k + G variables (``build_faulty_model``): the output is
wrong where its faulty value differs from f(x).

One id names a variable and everything kept for it: ``net.cpts[v]`` is
variable ``v``'s CPT, ``net.potentials[v]`` that CPT as a valuation, and
a join tree holds it in cluster ``v`` (``jointree``).  The potentials are
shared, never written, by every tree and propagator on the network, and
``net.at(eps)`` shares all but the eps-dependent ones, which it builds.

A gate with error rate eps emits the complement of its correct output
with probability 2*eps, so eps = 0.25 makes the gate a fair coin and
eps = 0.5 a deterministic inverter.  Everything downstream (oracles,
sweeps, the CLI) quotes eps on this scale.

Inputs are uniform by definition.  Every input vector then has the same
probability 2^-k, so the vector maximizing the joint P(inputs, output
wrong), which the search finds, also maximizes the conditional error
P(output wrong | inputs) = 2^k P(inputs, output wrong), ``p_error``.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .circuit import Circuit, GateFunc
from .valuation import Valuation, trusted


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
    declared order; every column over the child states sums to 1.  In a
    network over an eps grid, error-prone gate and comparator tables
    carry one more, leading axis: one table per grid value.  Their
    valuations (``to_valuation``) put that axis last.
    """

    def __init__(self, child: Var, parents: tuple[Var, ...], table: np.ndarray):
        self.child = child
        self.parents = parents
        self.scope = frozenset((child.id,) + tuple(p.id for p in parents))
        self.table = np.asarray(table, dtype=np.float64)
        n = 1 + len(parents)
        if self.table.ndim not in (n, n + 1) or self.table.shape[-n:] != (2,) * n:
            raise ValueError("CPT shape %s does not match %d parents"
                             % (self.table.shape, len(parents)))
        # np.allclose(col_sums, 1.0, atol=1e-12) without its overhead: the
        # same tolerance (numpy's default rtol 1e-5 included), NaN rejected
        col_sums = self.table.sum(axis=-n)
        if not np.all(np.abs(col_sums - 1.0) <= 1e-12 + 1e-5):
            raise ValueError("CPT columns for %r do not normalize" % child.name)

    def to_valuation(self) -> Valuation:
        """The table as a valuation, its variable axes permuted into
        canonical order and followed by the grid axis, if any, which is
        then laid out contiguously: every message and read runs over the
        grid members in its innermost loop."""
        order = (self.child.id,) + tuple(p.id for p in self.parents)
        perm = sorted(range(len(order)), key=order.__getitem__)
        lead = self.table.ndim - len(order)
        t = self.table.transpose(tuple(lead + i for i in perm) + tuple(range(lead)))
        return trusted(tuple(order[i] for i in perm), np.ascontiguousarray(t) if lead else t)

    def prob(self, child_state: int, parent_states: Sequence[int]) -> float:
        return float(self.table[(child_state,) + tuple(parent_states)])


@functools.lru_cache(maxsize=None)
def _truth(func: GateFunc, fan_in: int) -> np.ndarray:
    """Where a gate is right: cell (y,) + parent states is True when y is
    ``func`` of those states."""
    table = np.zeros((2,) * (1 + fan_in), dtype=bool)
    for pa in product((0, 1), repeat=fan_in):
        table[(func.eval(pa),) + pa] = True
    table.flags.writeable = False
    return table


def _check_eps(values) -> None:
    bad = [e for e in values if not 0.0 <= e <= 0.5]    # NaN fails both sides
    if bad:
        raise ValueError("gate error probability %g outside [0, 0.5]" % bad[0])


def cpt_for_gate(func: GateFunc, fan_in: int, eps, faulty: bool,
                 child: Var, parents: tuple[Var, ...]) -> Cpt:
    """CPT of one gate variable.

    Error-free gates are deterministic; an error-prone gate with error
    rate eps emits the complement of its correct output with probability
    2*eps in every parent row (and the correct output with 1 - 2*eps).
    ``eps`` may be a 1-d array of rates: an error-prone table then gets
    a leading axis with one table per rate, each cell computed as for
    that rate alone (its valuation moves that axis last).
    """
    truth = _truth(func, fan_in)
    if not faulty:
        return Cpt(child, parents, truth.astype(np.float64))
    eps = np.asarray(eps, dtype=np.float64)
    _check_eps(eps.ravel().tolist())
    flip = (2.0 * eps).reshape(eps.shape + (1,) * truth.ndim)
    return Cpt(child, parents, np.where(truth, 1.0 - flip, flip))


def input_prior(child: Var) -> Cpt:
    """Parentless uniform CPT of a primary input."""
    return Cpt(child, (), np.array([0.5, 0.5]))


def _xor_cpt(child: Var, parents: tuple[Var, ...], batch: tuple[int, ...]) -> Cpt:
    """Comparator CPT, repeated (as a view) along the grid axis ``batch``:
    every read collects every comparator, so every read then carries the
    whole grid, even in a circuit without gates."""
    if len(parents) == 2:
        table = _truth(GateFunc.XOR, 2).astype(np.float64)
    else:    # identical twins: the constant 0
        table = np.array([[1.0, 1.0], [0.0, 0.0]])
    return Cpt(child, parents, np.broadcast_to(table, batch + table.shape) if batch else table)


def _eps_cpts(c: Circuit, heads, eps_map: dict, batch: tuple[int, ...]) -> list[Cpt]:
    """The CPTs that depend on eps: the G error-prone gates', then the
    comparators', if any, from each one's (child, parents) in ``heads``."""
    return ([cpt_for_gate(g.func, len(g.fanin), eps_map[gi], True, *heads[gi])
             for gi, g in enumerate(c.gates)]
            + [_xor_cpt(child, parents, batch) for child, parents in heads[c.n_gates:]])


class ErrorModelNet:
    """The assembled network, its circuit, its comparator variables and,
    per circuit output, the variable carrying its faulty value.

    A network built over an eps grid of B values is B networks of one
    structure at once (its members): ``batch`` is ``(B,)``, the
    error-prone gate and comparator CPTs carry a leading axis of length
    B, and their potentials a trailing one.  A network at one eps or eps
    map has ``batch == ()``, the single-member case.  ``at`` gives the
    same structure at another eps and shares every potential but those.
    """

    def __init__(self, circuit: Circuit, vars: list[Var], cpts: list[Cpt],
                 comparators: tuple[int, ...], faulty_outputs: tuple[int, ...],
                 batch: tuple[int, ...] = ()):
        self.circuit = circuit
        self.batch = batch            # (B,) over an eps grid of B values, else ()
        self.vars = tuple(vars)
        self.cpts = tuple(cpts)
        self.comparators = comparators
        self.faulty_outputs = faulty_outputs
        self.input_vars = tuple(v.id for v in vars if v.klass is VarClass.INPUT)
        if [v.id for v in vars] != list(range(len(vars))):
            raise ValueError("variable ids must be dense 0..N-1")
        if [cpt.child.id for cpt in cpts] != list(range(len(vars))):
            raise ValueError("need exactly one CPT per variable, in variable order")
        self.potentials = [cpt.to_valuation() for cpt in self.cpts]

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    def comparator_of(self, output_name: str) -> int:
        return self.comparators[self.circuit.outputs.index(output_name)]

    def at(self, eps) -> ErrorModelNet:
        """This network at another eps, in any form ``build_error_model``
        takes: only the eps-dependent CPTs, the trailing error-prone gate
        and comparator ones, are built; ``vars``, the other CPTs and their
        potentials are this network's."""
        eps_map, batch = _normalize_eps(self.circuit, eps)
        fixed = self.n_vars - self.circuit.n_gates - len(self.comparators)
        built = _eps_cpts(self.circuit, [(cpt.child, cpt.parents) for cpt in self.cpts[fixed:]],
                          eps_map, batch)
        net = copy.copy(self)
        net.batch, net.cpts = batch, self.cpts[:fixed] + tuple(built)
        net.potentials = self.potentials[:fixed] + [cpt.to_valuation() for cpt in built]
        return net


def _normalize_eps(c: Circuit, eps) -> tuple[dict, tuple[int, ...]]:
    """Per gate index its eps (a float, or the grid array), and the
    network's ``batch``.  Every value is checked here, before any CPT is
    built, so a circuit without gates rejects a bad eps too."""
    if isinstance(eps, Mapping):
        table = dict(eps)
        missing = [gi for gi in range(c.n_gates) if gi not in table]
        if missing:
            raise ValueError("missing eps for gate indices %s" % missing)
        per_gate = {gi: float(table[gi]) for gi in range(c.n_gates)}
        _check_eps(per_gate.values())
        return per_gate, ()
    if np.ndim(eps):
        grid = np.asarray(eps, dtype=np.float64)
        if grid.ndim != 1 or not grid.size:
            raise ValueError("an eps grid must be a non-empty 1-d sequence")
        _check_eps(grid.tolist())
        return {gi: grid for gi in range(c.n_gates)}, grid.shape
    _check_eps([float(eps)])
    return {gi: float(eps) for gi in range(c.n_gates)}, ()


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


def _build(c: Circuit, eps, ideal: bool) -> ErrorModelNet:
    """The three-block network with ``ideal``, else the inputs and the
    error-prone copy alone, with variable ids in the order the public
    ``build_*`` functions state."""
    eps_map, batch = _normalize_eps(c, eps)
    vars = [Var(j, name, VarClass.INPUT) for j, name in enumerate(c.inputs)]
    # net name -> error-free / error-prone twin var id
    ideal_of = {name: j for j, name in enumerate(c.inputs)}
    faulty_of = dict(ideal_of)  # both copies read the same shared inputs
    if ideal:
        for g in c.gates:
            ideal_of[g.output] = len(vars)
            vars.append(Var(len(vars), g.output, VarClass.INTERNAL))
    for g in c.gates:
        faulty_of[g.output] = len(vars)
        vars.append(Var(len(vars), g.output + "'", VarClass.INTERNAL))
    comparators = tuple(range(len(vars), len(vars) + c.n_outputs)) if ideal else ()
    vars += [Var(v, "err:" + name, VarClass.COMPARATOR) for v, name in zip(comparators, c.outputs)]

    cpts = [input_prior(v) for v in vars[:c.n_inputs]]
    if ideal:
        cpts += [cpt_for_gate(g.func, len(g.fanin), 0.0, False, vars[ideal_of[g.output]],
                              tuple(vars[ideal_of[n]] for n in g.fanin)) for g in c.gates]
    heads = [(vars[faulty_of[g.output]], tuple(vars[faulty_of[n]] for n in g.fanin))
             for g in c.gates]
    for comp, name in zip(comparators, c.outputs):
        a, b = ideal_of[name], faulty_of[name]
        # An output fed straight from a primary input has identical twins;
        # the comparator is then the constant 0.
        heads.append((vars[comp], (vars[a],) if a == b else (vars[a], vars[b])))
    cpts += _eps_cpts(c, heads, eps_map, batch)
    return ErrorModelNet(c, vars, cpts, comparators,
                         tuple(faulty_of[name] for name in c.outputs), batch)


def build_error_model(c: Circuit, eps) -> ErrorModelNet:
    """Assemble the three-block network for a circuit.

    ``eps`` is a single float applied to every gate, a {gate index:
    eps} map, or a 1-d grid of values each applied to every gate, which
    builds one network member per value (``ErrorModelNet.batch``) in one
    pass.  Variable ids run: inputs, error-free gate copies, error-prone
    gate copies, comparators.
    """
    return _build(c, eps, True)


def build_faulty_model(c: Circuit, eps) -> ErrorModelNet:
    """Assemble the network of the inputs and the error-prone copy alone,
    ids in that order, with ``eps`` as ``build_error_model`` takes it.
    It has no comparators; ``faulty_outputs`` names per output the
    variable carrying its faulty value, an input's where an input feeds
    the output straight.  On a circuit without gates no table carries
    the grid axis."""
    return _build(c, eps, False)


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

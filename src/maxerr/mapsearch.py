"""Worst input vector as one argmax over a cone table.

A query evidences some variables (usually comparators at 1) and may
hold inputs at given states.  Its fan-in cone is the inputs among the
ancestors of its evidenced variables.  ``choose_order`` eliminates the
inputs last, so one cluster holds each output's cone; the smallest
(lowest id on a tie, ``_holder``), read with the evidence set and summed
onto the cone, gives P(cone inputs, evidence), the query's cone table:
one axis per cone input, none for the others.
Several queries' tables come from one evidence setting, each query a
member of the evidence axis (``propagate``): one read per holding
cluster and cone serves every member, sliced out (``cone_tables``).
A joint query whose union cone no cluster holds splits its evidence
into groups whose cones share no gate.  Given the inputs the groups go
wrong independently, so its table is 2^-|cone| times the product of
each group's P(group | its cone inputs): the group's read with its
evidence divided cellwise by the same read without.

The answer ranges over the free inputs, those the query does not hold,
along ``var_order``.  Each free cone input is an axis of the table; a
free input outside the cone (a barren variable, Darwiche 2009, ch. 6)
costs no axis and is 0 in the answer.  Held inputs are sliced, and each
input outside the cone enters by its prior 1/2.  Per member the answer
is the first cell in key order within a relative ``PRUNE_TOL`` of the
table's maximum: the smallest tied optimum along the branching order,
so float noise among tied values (an XOR chain fails on an odd number
of gate faults whatever its inputs) does not move it.  Over an eps grid
(``net.batch == (B,)``) the members lie on the table's last axis, as
the reads lay them out (``propagate``), and one argmax serves them all.

A node of the search tree over the free inputs is bounded by the
maximum of its slice of the table, the maximum of P(vector, evidence)
over its completions: the value a max-mode collect returns on a tree
that eliminates the inputs last (Park & Darwiche, JAIR 21, 2004).
``on_bound`` reads these bounds for auditing; the node counts are
those of a descent along the answer's path, or of the full tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet, VarClass
from .propagate import Propagator
from .valuation import WidthLimitError

PRUNE_TOL = 1e-12   # relative; closer values tie


@dataclass
class MapQuery:
    """One worst-vector query.

    The answer ranges over the inputs not in ``evid_o``; an input given
    there is held at its state.  ``max_error`` holds every input
    outside the query's fan-in cone at 0, so node counts cover the cone
    inputs alone.
    """
    net: ErrorModelNet
    tree: BinaryJoinTree
    evid_o: dict[int, int]                 # comparator evidence, usually {O_j: 1},
                                           # plus any inputs held fixed
    var_order: tuple[int, ...] = ()        # branching order over the free inputs

    def __post_init__(self):
        for v, s in self.evid_o.items():    # checked as ``Propagator.set_evidence`` checks them
            if v not in range(self.net.n_vars):
                raise KeyError(v)
            if s not in (0, 1):
                raise ValueError("evidence state of variable %d is %r, not 0 or 1" % (v, s))
        free = [v for v in self.net.input_vars if v not in self.evid_o]
        if not self.var_order:
            self.var_order = tuple(v for v in var_order_heuristic(self.net)
                                   if v not in self.evid_o)
        if sorted(self.var_order) != sorted(free):
            raise ValueError("var_order must permute the input variables not in evid_o")


@dataclass
class MapResult:
    assignment: dict[int, int]
    p_map: float                           # P(assignment, evid_o)
    p_cone: float                          # the answer's cell, P(assignment on the cone, evid_o)
    nodes_expanded: int
    nodes_pruned: int
    seed_value: float | None = None


def var_order_heuristic(net: ErrorModelNet) -> tuple[int, ...]:
    """Inputs by descending connectivity (CPTs they appear in), ties on
    the lower id: the order in which tied answers are compared."""
    counts = {v: 0 for v in net.input_vars}
    for cpt in net.cpts:
        for v in cpt.scope:
            if v in counts:
                counts[v] += 1
    return tuple(sorted(counts, key=lambda v: (-counts[v], v)))


def _cones(tree: BinaryJoinTree, net: ErrorModelNet,
           roots) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """``roots`` split into groups whose fan-in cones share no gate, each
    with its cone inputs, in order of first root.  One walk over the
    ancestors: where the walk from one root meets a variable another
    root's walk reached, their groups join.  Kept on ``tree`` per tuple
    of roots, as every network the tree takes has the same ancestors."""
    roots = tuple(roots)
    if roots in tree.cones:
        return tree.cones[roots]
    inputs = set(net.input_vars)
    owner: dict[int, int] = {}       # each non-input reached: the first root reaching it
    link = list(range(len(roots)))   # union-find over the roots
    found: list[set[int]] = [set() for _ in roots]

    def find(i: int) -> int:
        while link[i] != i:
            i = link[i]
        return i

    for i, root in enumerate(roots):
        stack = [root]
        while stack:
            v = stack.pop()
            if v in inputs:
                found[i].add(v)
            elif v not in owner:
                owner[v] = i
                stack.extend(p.id for p in net.cpts[v].parents)
            else:
                a, b = find(i), find(owner[v])
                link[max(a, b)] = min(a, b)
    groups: dict[int, tuple[list[int], set[int]]] = {}
    for i, root in enumerate(roots):
        members, cone = groups.setdefault(find(i), ([], set()))
        members.append(root)
        cone |= found[i]
    tree.cones[roots] = [(tuple(members), frozenset(cone)) for members, cone in groups.values()]
    return tree.cones[roots]


def _cone_inputs(tree: BinaryJoinTree, net: ErrorModelNet, roots) -> frozenset[int]:
    """Primary inputs among the ancestors of ``roots``: their fan-in cone."""
    return frozenset().union(*(cone for _, cone in _cones(tree, net, roots)))


def _holder(tree: BinaryJoinTree, cone: frozenset[int]) -> int | None:
    """The smallest cluster holding every input of ``cone``, lowest id on
    a tie; None when no cluster holds them all.  Kept on ``tree`` per cone."""
    if cone not in tree.holders:
        tree.holders[cone] = min(((len(s), cid) for cid, s in enumerate(tree.scopes)
                                  if cone <= s), default=(0, None))[1]
    return tree.holders[cone]


def cone_tables(prop: Propagator, evids: list[dict[int, int]],
                members: int = 1) -> list[tuple[np.ndarray, frozenset[int]]]:
    """The cone table of each evidence mapping in ``evids`` (see the
    module docstring), P(cone inputs, evid) with an axis per cone input
    in id order followed by the grid axis if any, and its cone, in
    order.  An evidenced input lies in its own cone: a faulty output fed
    straight by an input (``ErrorModelNet.faulty_outputs``) is evidenced
    on that input.  The mappings whose cone a cluster holds are read
    ``members`` at a time, one evidence setting per pass with a member
    each (``Propagator.set_evidence``), those sharing a holding cluster
    and cone side by side: per pass one read of each such run of
    members, onto the cone, and one slice per member.  Each slice is
    bit for bit that mapping's read on its own.  The others split into
    groups whose cones share no gate: their table is 2^-|cone| times the
    product of each group's read with and without its evidence,
    cellwise.  ``ValueError`` when no cluster holds the cone of a group;
    ``WidthLimitError`` when no cluster holds the union and it has more
    inputs than the tree's ``width_limit``."""
    net, tree = prop.net, prop.tree
    tables: list = [None] * len(evids)
    runs: dict[tuple[int, frozenset[int]], list[int]] = {}
    for i, evid in enumerate(evids):
        cone = _cone_inputs(tree, net, evid)
        cid = _holder(tree, cone)
        if cid is None:
            tables[i] = _group_product(prop, evid, cone), cone
        else:
            runs.setdefault((cid, cone), []).append(i)
    held = [(i, key) for key, run in runs.items() for i in run]
    for lo in range(0, len(held), members):
        part = held[lo:lo + members]
        prop.set_evidence([evids[i] for i, _ in part])
        m = 0
        for (cid, cone), run in itertools.groupby(part, key=lambda h: h[1]):
            run = [i for i, _ in run]
            read = prop.belief(cid, cone, slice(m, m + len(run))).table
            for k, i in enumerate(run):
                tables[i] = read[..., k], cone
            m += len(run)
    return tables


def _group_product(prop: Propagator, evid: dict[int, int], cone: frozenset[int]) -> np.ndarray:
    """The cone table of ``evid``, whose cone no cluster holds, from its
    groups' reads (``cone_tables``)."""
    net, tree = prop.net, prop.tree
    groups = _cones(tree, net, evid)
    holders = [_holder(tree, part) for _, part in groups]
    for (roots, _), gid in zip(groups, holders):
        if gid is None:
            raise ValueError("no cluster holds the cone inputs of "
                             + ", ".join(net.vars[v].name for v in roots))
    if len(cone) > tree.width_limit:
        raise WidthLimitError(len(cone), tree.width_limit, "union of a joint query's cones")
    ranked = sorted(cone)
    table = 1.0
    for (roots, part), gid in zip(groups, holders):
        prop.set_evidence({v: evid[v] for v in roots})
        wrong = prop.belief(gid, part).table
        prop.set_evidence({})
        # read P(part) too, not 2^-|part|: two reads that round alike give the nearer ratio
        ratio = wrong / prop.belief(gid, part).table
        table = table * ratio.reshape(tuple(2 if v in part else 1 for v in ranked) + net.batch)
    return np.ldexp(table, -len(cone))


def _cone_read(q: MapQuery) -> tuple[np.ndarray, frozenset[int]]:
    """The cone table of ``q``'s evidence on variables other than
    inputs, and its cone, on a fresh propagator (``cone_tables``)."""
    evid = {v: s for v, s in q.evid_o.items() if q.net.vars[v].klass is not VarClass.INPUT}
    return cone_tables(Propagator(q.tree, q.net), [evid])[0]


class _Search:
    """The cone table of ``q`` over every member of ``q.net`` (see the
    module docstring), with an axis per free cone input along
    ``var_order`` and the member axis last, and the tie levels.  Cells
    are P(vector, evidence) times 2^-``shift``, the priors of the inputs
    outside the cone.  ``read`` is the table and cone ``_cone_read(q)``
    returns."""

    def __init__(self, q: MapQuery, read: tuple[np.ndarray, frozenset[int]]):
        net, evid = q.net, q.evid_o
        self.q = q
        t, cone = read
        ranked = sorted(cone)
        t = t.reshape((2,) * len(ranked) + (-1,))[
            tuple(int(evid[v]) if v in evid else slice(None) for v in ranked)]
        free = [v for v in ranked if v not in evid]
        self.table = t.transpose([free.index(v) for v in q.var_order if v in cone] + [len(free)])
        self.tie = np.array([v not in cone for v in q.var_order], dtype=bool)
        self.shift = len(cone) - len(net.input_vars)

    def scaled(self, cells: list[float]) -> float | list[float]:
        """Cells as P(vector, evidence): a float, or a list over members."""
        values = [math.ldexp(c, self.shift) for c in cells]
        return values if self.q.net.batch else values[0]

    def zero(self) -> list[float]:
        """Each member's all-zero cell, the one ties resolve toward."""
        return self.table[(0,) * (self.table.ndim - 1)].tolist()

    def bound(self, key: tuple[int, ...]) -> np.ndarray:
        """The bounds of the two children of the node at ``key`` (states
        along ``var_order``) for every member: the maxima of the two
        halves of its slice of the table, shape (2, members)."""
        t = self.table[tuple(s for s, tie in zip(key, self.tie) if not tie)]
        if self.tie[len(key)]:    # both children share the node's table
            t = np.broadcast_to(t, (2,) + t.shape)
        return t.max(axis=tuple(range(1, t.ndim - 1)))

    def argmax(self) -> tuple[list[tuple[int, ...]], list[float]]:
        """Per member, the first key along ``var_order`` whose cell lies
        within a relative ``PRUNE_TOL`` of the table's maximum, 0 at
        every tie level, and that cell."""
        t = self.table
        top = t.max(axis=tuple(range(t.ndim - 1)))
        near = np.greater_equal(t, top / (1.0 + PRUNE_TOL), order="C")    # in key order
        first = near.reshape(-1, len(top)).argmax(axis=0)
        bits = first[:, None] >> np.arange(t.ndim - 2, -1, -1) & 1
        keys = np.zeros((len(top), len(self.tie)), dtype=int)
        keys[:, ~self.tie] = bits
        return list(map(tuple, keys.tolist())), t[tuple(bits.T) + (np.arange(len(top)),)].tolist()

    def results(self, prune: bool = True,
                on_bound: Callable[[dict, float | list[float]], None] | None = None,
                use_seed: bool = False) -> list[MapResult]:
        """Each member's worst vector, as ``search`` describes."""
        q = self.q
        d = len(q.var_order)
        keys, cells = self.argmax()
        seeds: list[float | None] = [None] * len(keys)
        if use_seed:
            seeds = self.zero()
            for m, (cell, zero) in enumerate(zip(cells, seeds)):
                if not cell > zero * (1.0 + PRUNE_TOL):
                    keys[m], cells[m] = (0,) * d, zero
        if on_bound is not None:    # a level at a time, in key order
            for level in range(d):
                nodes = sorted({k[:level] for k in keys}) if prune else np.ndindex((2,) * level)
                for key in nodes:
                    u = self.bound(key)
                    for state in (0, 1):
                        on_bound(dict(zip(q.var_order, key + (state,))),
                                 self.scaled(u[state].tolist()))
        expanded, pruned = (1 + 2 * d, d) if prune else ((2 << d) - 1, 0)
        return [MapResult(dict(zip(q.var_order, key)), math.ldexp(cell, self.shift), cell,
                          expanded, pruned, None if sv is None else math.ldexp(sv, self.shift))
                for key, cell, sv in zip(keys, cells, seeds)]


def seed(q: MapQuery) -> tuple[dict[int, int], float | list[float]]:
    """The all-zero assignment and its exact probability, a lower bound
    on the optimum (one per member over an eps grid): the all-zero cell
    of the query's cone table, on a fresh propagator."""
    s = _Search(q, _cone_read(q))
    return {v: 0 for v in q.var_order}, s.scaled(s.zero())


def search(q: MapQuery, prune: bool = True,
           on_bound: Callable[[dict, float | list[float]], None] | None = None,
           use_seed: bool = False) -> list[MapResult]:
    """The worst vector of each member of ``q.net`` (one in all at a
    single eps), the argmax of the cone table read on a fresh
    propagator (see the module docstring); ``p_map`` is its value.
    ``prune`` selects the node counts over the d inputs not in
    ``q.evid_o``: 1 + 2d expanded and d pruned, or the full tree's,
    2^(d+1) - 1 and 0.  ``on_bound`` (assignment, bound)
    fires, for auditing, for both children of every node on the
    members' paths, or unpruned of every node, a level at a time; the
    bound is a float, or a list over every member.  ``use_seed`` keeps
    the all-zero assignment (``seed``) unless the argmax beats it by
    more than ``PRUNE_TOL``.
    """
    return _Search(q, _cone_read(q)).results(prune, on_bound, use_seed)


def solve(q: MapQuery, use_seed: bool = False, prune: bool = True,
          on_bound: Callable[[dict, float], None] | None = None) -> MapResult:
    """``search`` on a network at one eps, on a fresh propagator: its one result."""
    if q.net.batch:
        raise ValueError("solve takes a network at one eps; search takes an eps grid")
    return search(q, prune, on_bound, use_seed)[0]

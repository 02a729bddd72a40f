"""Worst input vector by one walk over a cone table.

A query evidences some variables (usually comparators at 1) and may
hold inputs at given states.  Its fan-in cone is the inputs among the
ancestors of its evidenced variables.  ``choose_order`` eliminates the
inputs last, so one cluster holds each output's cone; the smallest
(lowest id on a tie, ``_holder``), read with the evidence set and summed
onto the cone, gives P(cone inputs, evidence), the query's cone table
(``cone_table``): one axis per cone input, none for the others.
A joint query whose union cone no cluster holds splits its evidence
into groups whose cones share no gate.  Given the inputs the groups go
wrong independently, so its table is 2^-|cone| times the product of
each group's P(group | its cone inputs): the group's read with its
evidence divided cellwise by the same read without.

The walk instantiates the free inputs one at a time along
``var_order``.  A child's bound, the maximum of P(vector, evidence) over
its completions, is the maximum of its slice of the table: the value a
max-mode collect returns on a tree that eliminates the inputs last
(Park & Darwiche, JAIR 21, 2004).  A free input outside the cone (a
barren variable, Darwiche 2009, ch. 6) is a tie level, whose two
children share the node's table and tie; it costs the table no axis.
Held inputs are sliced, not searched, and each input outside the cone
enters by its prior 1/2.

The walk enters only the better child of each node, state 1 only when
its bound beats state 0's by more than a relative hair.  Values within
that hair tie and go to state 0, so the path ends at the smallest tied
optimum along the branching order, and float noise among tied values
(an XOR chain fails on an odd number of gate faults whatever its
inputs) does not move it.  Every bound is exact, so the leaf is optimal;
unpruned, it is checked against every cell of the table.  Over an eps
grid (``net.batch == (B,)``) one walk serves every member: members that
take the same path descend together on views of the table, so each gets
the path and node counts of a walk at its eps alone.  The walk keeps the
members on the table's last axis, as the reads lay them out
(``propagate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet, VarClass
from .propagate import Propagator
from .valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError

PRUNE_TOL = 1e-12   # relative; closer values tie


@dataclass
class MapQuery:
    """One worst-vector query.

    The walk branches only on the inputs not in ``evid_o``; an input
    given there is held at its state.  ``max_error`` holds every input
    outside the query's fan-in cone at 0, so node counts cover the cone
    inputs alone.
    """
    net: ErrorModelNet
    tree: BinaryJoinTree
    evid_o: dict[int, int]                 # comparator evidence, usually {O_j: 1},
                                           # plus any inputs held fixed
    var_order: tuple[int, ...] = ()        # branching order over the free inputs

    def __post_init__(self):
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
    p_cone: float                          # the leaf cell, P(assignment on the cone, evid_o)
    nodes_expanded: int
    nodes_pruned: int
    seed_value: float | None = None


def var_order_heuristic(net: ErrorModelNet) -> tuple[int, ...]:
    """Inputs by descending connectivity (CPTs they appear in), ties on
    the lower id; branching on busy inputs first moves the bounds
    quickest."""
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
    a tie; None when no cluster holds them all."""
    return min(((len(s), cid) for cid, s in enumerate(tree.scopes) if cone <= s),
               default=(0, None))[1]


def cone_table(prop: Propagator, evid: dict[int, int]) -> tuple[np.ndarray, frozenset[int]]:
    """The cone table of non-input evidence ``evid`` (see the module
    docstring), P(cone inputs, evid) with an axis per cone input in id
    order followed by the grid axis if any, and the cone.  ``ValueError``
    when no cluster holds the cone of a group of the evidence;
    ``WidthLimitError`` when no cluster holds the union and it has more
    than ``DEFAULT_WIDTH_LIMIT`` inputs."""
    net, tree = prop.net, prop.tree
    groups = _cones(tree, net, evid)
    cone = frozenset().union(*(part for _, part in groups))
    cid = _holder(tree, cone)
    if cid is not None:
        prop.set_evidence(evid)
        return prop.belief(cid, cone).table, cone
    holders = [_holder(tree, part) for _, part in groups]
    for (roots, _), gid in zip(groups, holders):
        if gid is None:
            raise ValueError("no cluster holds the cone inputs of "
                             + ", ".join(net.vars[v].name for v in roots))
    if len(cone) > DEFAULT_WIDTH_LIMIT:
        raise WidthLimitError(len(cone), DEFAULT_WIDTH_LIMIT, "union of a joint query's cones")
    ranked = sorted(cone)
    table = 1.0
    for (roots, part), gid in zip(groups, holders):
        prop.set_evidence({v: evid[v] for v in roots})
        wrong = prop.belief(gid, part).table
        prop.set_evidence({})
        ratio = wrong / prop.belief(gid, part).table
        table = table * ratio.reshape(tuple(2 if v in part else 1 for v in ranked) + net.batch)
    return np.ldexp(table, -len(cone)), cone


def check_propagator(prop: Propagator, tree: BinaryJoinTree, net: ErrorModelNet) -> Propagator:
    """``prop`` if it is built on ``tree`` and ``net``; ``ValueError`` otherwise."""
    if prop.tree is not tree or prop.net is not net:
        raise ValueError("propagator must be built on the query's tree and net")
    return prop


class _Search:
    """The walk over every member of ``q.net`` at once (see the module
    docstring): the cone table with an axis per free cone input along
    ``var_order`` and the member axis last, the tie levels, and per
    member the best leaf and its key.  Cells are P(vector, evidence)
    times 2^-``shift``, the priors of the inputs outside the cone."""

    def __init__(self, q: MapQuery, prop: Propagator | None = None):
        net, evid = q.net, q.evid_o
        prop = Propagator(q.tree, net) if prop is None else check_propagator(prop, q.tree, net)
        self.q, self.evid = q, {v: s for v, s in evid.items()
                                if net.vars[v].klass is not VarClass.INPUT}
        t, cone = cone_table(prop, self.evid)
        ranked = sorted(cone)
        t = t.reshape((2,) * len(ranked) + (-1,))[tuple(evid.get(v, slice(None)) for v in ranked)]
        free = [v for v in ranked if v not in evid]
        self.table = t.transpose([free.index(v) for v in q.var_order if v in cone] + [len(free)])
        self.tie = [v not in cone for v in q.var_order]
        self.shift = len(cone) - len(net.input_vars)
        self.best = [-1.0] * math.prod(net.batch)    # per member
        self.best_key: list[tuple[int, ...] | None] = [None] * len(self.best)

    def scaled(self, cells: list[float]) -> float | list[float]:
        """Cells as P(vector, evidence): a float, or a list over members."""
        values = [math.ldexp(c, self.shift) for c in cells]
        return values if self.q.net.batch else values[0]

    def zero(self) -> list[float]:
        """Each member's all-zero cell, the leaf ties resolve toward."""
        return self.table[(0,) * (self.table.ndim - 1)].tolist()

    def bound(self, t: np.ndarray) -> np.ndarray:
        """The bounds of a node's two children for the members in ``t``
        (its sub-table): the maxima of its two halves, shape (2, members)."""
        return t.max(axis=tuple(range(1, t.ndim - 1)))

    def walk(self, on_bound: Callable[[dict, float | list[float]], None] | None) -> None:
        order = self.q.var_order
        stack = [(self.table, np.arange(len(self.best)), ())]
        while stack:    # a node: its sub-table over the members that entered it
            t, group, key = stack.pop()
            if len(key) == len(order):    # the members' one leaf: its cells are exact
                for m, cell in zip(group.tolist(), t.tolist()):
                    if cell > self.best[m] * (1.0 + PRUNE_TOL):
                        self.best[m], self.best_key[m] = cell, key
                continue
            tie = self.tie[len(key)]    # both children share the node's table
            u = self.bound(np.broadcast_to(t, (2,) + t.shape) if tie else t)
            if on_bound is not None:
                for s in (0, 1):
                    on_bound(dict(zip(order, key + (s,))), self.scaled(u[s].tolist()))
            one = u[1] > u[0] * (1.0 + PRUNE_TOL)    # ties take state 0
            for s, sel in ((1, one), (0, ~one)):
                child = t if tie else t[s]
                if sel.all():
                    stack.append((child, group, key + (s,)))
                elif sel.any():
                    stack.append((child[..., sel], group[sel], key + (s,)))

    def audit(self, on_bound: Callable[[dict, float | list[float]], None] | None) -> None:
        """``RuntimeError`` if a member's table maximum beats its best leaf by
        over a ``PRUNE_TOL`` per table axis; ``on_bound`` gets every node's bound."""
        peaks = [self.table]    # peaks[n]: maxima over all but the first n axes, the bounds
        for axis in reversed(range(self.table.ndim - 1)):
            peaks.insert(0, peaks[0].max(axis=axis))
        for m, (top, leaf) in enumerate(zip(peaks[0].tolist(), self.best)):
            if top > leaf * (1.0 + PRUNE_TOL) ** (len(peaks) - 1):
                raise RuntimeError("a cone cell beats the descent on %s%s" % (
                    ", ".join(self.q.net.vars[v].name for v in self.evid),
                    " (member %d)" % m if self.q.net.batch else ""))
        for level in range(len(self.tie) if on_bound is not None else 0):
            axes = [i for i in range(level + 1) if not self.tie[i]]
            for key in np.ndindex((2,) * (level + 1)):
                u = peaks[len(axes)][tuple(key[i] for i in axes)]
                on_bound(dict(zip(self.q.var_order, key)), self.scaled(u.tolist()))


def seed(q: MapQuery,
         prop: Propagator | None = None) -> tuple[dict[int, int], float | list[float]]:
    """The all-zero assignment and its exact probability, a lower bound
    on the optimum (one per member over an eps grid): the all-zero cell
    of the walk's table.  ``prop`` is shared as in ``search``."""
    s = _Search(q, prop)
    return {v: 0 for v in q.var_order}, s.scaled(s.zero())


def search(q: MapQuery, prune: bool = True,
           on_bound: Callable[[dict, float | list[float]], None] | None = None,
           prop: Propagator | None = None, use_seed: bool = False) -> list[MapResult]:
    """Exact worst-vector walk, one result per member of ``q.net`` (one
    in all for a network at a single eps).

    Each member descends along one path: 1 + 2d nodes expanded and d
    pruned over the d inputs not in ``q.evid_o``; unpruned, its leaf is
    checked against the whole cone table and the counts are the full
    tree's, 2^(d+1) - 1 and 0.  ``on_bound`` (assignment, bound) fires,
    for auditing, for both children of every node the walk enters, or
    unpruned of every node, a level at a time over every member; the
    bound is a float, or a list over the members.  Ties (values within a
    relative ``PRUNE_TOL``) resolve to the lexicographically smallest
    assignment along ``q.var_order``, and ``p_map`` is its value.

    ``prop`` shares a propagator over ``q.tree`` and ``q.net`` between
    queries (``ValueError`` otherwise); the answer does not change, since
    a cached message depends only on the evidence on its sending side.
    ``use_seed`` starts every member's best leaf at the all-zero
    assignment (``seed``).
    """
    s = _Search(q, prop)
    d = len(q.var_order)
    seeds: list[float | None] = [None] * len(s.best)
    if use_seed:
        seeds = s.zero()
        s.best, s.best_key = list(seeds), [(0,) * d] * len(seeds)
    s.walk(on_bound if prune else None)
    if not prune:
        s.audit(on_bound)
    expanded, pruned = (1 + 2 * d, d) if prune else ((2 << d) - 1, 0)
    return [MapResult(dict(zip(q.var_order, key)), math.ldexp(best, s.shift), best, expanded,
                      pruned, None if sv is None else math.ldexp(sv, s.shift))
            for key, best, sv in zip(s.best_key, s.best, seeds)]


def solve(q: MapQuery, use_seed: bool = False, prune: bool = True,
          on_bound: Callable[[dict, float], None] | None = None,
          prop: Propagator | None = None) -> MapResult:
    """``search`` on a network at a single eps: its one result."""
    if q.net.batch:
        raise ValueError("solve takes a network at one eps; search takes an eps grid")
    return search(q, prune, on_bound, prop, use_seed)[0]

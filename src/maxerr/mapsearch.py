"""Worst input vector as one argmax over a cone table.

A query evidences some variables (usually comparators at 1) and may
hold inputs at given states.  Its fan-in cone is the inputs among the
ancestors of its evidenced variables.  ``choose_order`` eliminates the
inputs last, so one cluster holds each output's cone; the smallest
(lowest id on a tie, ``_holder``), read with the evidence set and summed
onto the cone, gives P(cone inputs, evidence), the query's cone table:
one axis per cone input, none for the others.
A joint query whose union cone no cluster holds splits its evidence
into groups whose cones share no gate.  Given the inputs the groups go
wrong independently, so its table is 2^-|cone| times the product of
each group's P(group | its cone inputs): the group's read with its
evidence divided cellwise by the same read without.  Every read, a
query's or a group's, is a member of the evidence axis (``propagate``):
one read per holding cluster and cone serves a pass's members, sliced
out (``cone_tables``).

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

A report (``analysis``) builds each ``_Search`` straight from a
``cone_tables`` read and the cone's slice of ``var_order_heuristic``,
holding no input, and makes each member's row from its argmax.  A
``MapQuery``, at one eps, is one query for ``solve`` and ``seed``, read
on a fresh propagator.  For ``solve`` alone, a node of the search tree
over the free inputs is bounded by the maximum of its slice of the
table, the maximum of P(vector, evidence) over its completions: the
value a max-mode collect returns on a tree that eliminates the inputs
last (Park & Darwiche, JAIR 21, 2004).  ``on_bound`` reads these bounds
for auditing; the node counts are those of a descent along the
answer's path, or of the full tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet, VarClass
from .propagate import Propagator, check_evidence
from .valuation import WidthLimitError

PRUNE_TOL = 1e-12   # relative; closer values tie


@dataclass
class MapQuery:
    """One worst-vector query on a network at one eps, for ``solve`` and
    ``seed``.

    The answer ranges over the inputs not in ``evid_o``; an input given
    there is held at its state.
    """
    net: ErrorModelNet
    tree: BinaryJoinTree
    evid_o: dict[int, int]                 # comparator evidence, usually {O_j: 1},
                                           # plus any inputs held fixed
    var_order: tuple[int, ...] = ()        # branching order over the free inputs

    def __post_init__(self):
        if self.net.batch:
            raise ValueError("a MapQuery takes a network at one eps; "
                             "max_errors takes an eps grid")
        check_evidence(self.net, self.evid_o)
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


# Cells per batched table past which a larger batch stops paying.  Refined
# sweeps of rca4-rca6, with the members on the innermost axis, ran
# fastest near this size (BENCH_member_axis_last.json).
BATCH_CELLS_LOG2 = 19


def _chunk_size(tree: BinaryJoinTree) -> int:
    """Members per batched pass, a sweep chunk's grid values B times the
    evidence members E of a ``cone_tables`` pass, both at least 1:
    B x E x 2^width cells stay within 2^BATCH_CELLS_LOG2 and 2^tree.width_limit."""
    return 1 << max(0, min(BATCH_CELLS_LOG2, tree.width_limit) - tree.width)


def cone_tables(prop: Propagator,
                evids: list[dict[int, int]]) -> Iterator[tuple[np.ndarray, frozenset[int]]]:
    """An iterator over the cone table of each evidence mapping in
    ``evids`` (see the module docstring), P(cone inputs, evid) with an
    axis per cone input in id order followed by the grid axis if any,
    and its cone, in order, each yielded as soon as its reads are taken.
    An evidenced input lies in its own cone: a faulty output fed
    straight by an input (``ErrorModelNet.faulty_outputs``) is evidenced
    on that input.  A mapping whose cone a cluster holds is one read
    there; one whose cone no cluster holds, two per group at the group's
    holder, with its evidence and without, and its table is 2^-|cone|
    times the product of their ratios, cellwise.  Every read is a member
    of an evidence setting (``Propagator.set_evidence``), as many per
    pass as ``_chunk_size`` leaves beside the grid values, in the order
    ``evids`` lists them: per pass one read, onto the cone, of each run
    of consecutive reads sharing a holding cluster and cone, and one
    slice per member, bit for bit that read on its own.  The checks run
    at the call, before any evidence is set: ``ValueError`` when no
    cluster holds a group's cone and ``WidthLimitError`` when no cluster
    holds the union and it has more inputs than the tree's
    ``width_limit``."""
    net, tree = prop.net, prop.tree
    reads: list[tuple[dict[int, int], int, frozenset[int]]] = []   # evidence, holder, cone
    # per mapping, its cone and, when no cluster holds it, its groups' cones
    splits: list[tuple[frozenset[int], list[frozenset[int]] | None]] = []
    for evid in evids:
        cone = _cone_inputs(tree, net, evid)
        cid = _holder(tree, cone)
        if cid is not None:
            reads.append((evid, cid, cone))
            splits.append((cone, None))
            continue
        groups = [(roots, part, _holder(tree, part)) for roots, part in _cones(tree, net, evid)]
        for roots, _, gid in groups:
            if gid is None:
                raise ValueError("no cluster holds the cone inputs of "
                                 + ", ".join(net.vars[v].name for v in roots))
        if len(cone) > tree.width_limit:
            raise WidthLimitError(len(cone), tree.width_limit, "union of a joint query's cones")
        for roots, part, gid in groups:
            reads += [({v: evid[v] for v in roots}, gid, part), ({}, gid, part)]
        splits.append((cone, [part for _, part, _ in groups]))
    return _tables(net.batch, splits, _slices(prop, reads))


def _slices(prop: Propagator,
            reads: list[tuple[dict[int, int], int, frozenset[int]]]) -> Iterator[np.ndarray]:
    """Each read's slice, in order, taken pass by pass (``cone_tables``)."""
    per_pass = max(1, _chunk_size(prop.tree) // math.prod(prop.net.batch))
    for lo in range(0, len(reads), per_pass):
        batch = reads[lo:lo + per_pass]
        prop.set_evidence([evid for evid, _, _ in batch])
        m = 0
        for (cid, cone), run in itertools.groupby(batch, key=lambda r: r[1:]):
            n = len(list(run))
            read = prop.belief(cid, cone, slice(m, m + n)).table
            yield from (read[..., k] for k in range(n))
            m += n


def _tables(batch: tuple[int, ...], splits,
            slices: Iterator[np.ndarray]) -> Iterator[tuple[np.ndarray, frozenset[int]]]:
    """Each mapping's table from its reads' ``slices`` (``cone_tables``)."""
    for cone, parts in splits:
        if parts is None:
            yield next(slices), cone
            continue
        ranked = sorted(cone)
        table = 1.0
        for part in parts:
            # read P(part) too, not 2^-|part|: two reads that round alike give the nearer ratio
            ratio = next(slices) / next(slices)    # the group's read with its evidence over free
            table = table * ratio.reshape(tuple(2 if v in part else 1 for v in ranked) + batch)
        yield np.ldexp(table, -len(cone)), cone


def _cone_read(q: MapQuery) -> tuple[np.ndarray, frozenset[int]]:
    """The cone table of ``q``'s evidence on variables other than
    inputs, and its cone, on a fresh propagator (``cone_tables``)."""
    evid = {v: s for v, s in q.evid_o.items() if q.net.vars[v].klass is not VarClass.INPUT}
    return next(cone_tables(Propagator(q.tree, q.net), [evid]))


class _Search:
    """A cone table ``read`` (``cone_tables``: the table and its cone)
    with an axis per free cone input along ``var_order`` and the member
    axis last, and the tie levels.  ``held`` maps inputs to the states
    they are held at; ``var_order`` orders the other inputs the answer
    ranges over, and every cone input is one or the other.  Cells are
    P(vector, evidence) times 2^-``shift``, the priors of the inputs in
    ``held`` or ``var_order`` outside the cone."""

    def __init__(self, read: tuple[np.ndarray, frozenset[int]],
                 var_order: tuple[int, ...], held: dict[int, int]):
        t, cone = read
        ranked = sorted(cone)
        t = t.reshape((2,) * len(ranked) + (-1,))[
            tuple(int(held[v]) if v in held else slice(None) for v in ranked)]
        free = [v for v in ranked if v not in held]
        self.var_order = var_order
        self.table = t.transpose([free.index(v) for v in var_order if v in cone] + [len(free)])
        self.tie = np.array([v not in cone for v in var_order], dtype=bool)
        self.shift = len(cone) - len(held) - len(var_order)

    def scaled(self, cell: float) -> float:
        """A cell as P(vector, evidence)."""
        return math.ldexp(cell, self.shift)

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


def _search(q: MapQuery) -> _Search:
    """``q``'s cone table, read on a fresh propagator, as a ``_Search``."""
    held = {v: s for v, s in q.evid_o.items() if q.net.vars[v].klass is VarClass.INPUT}
    return _Search(_cone_read(q), q.var_order, held)


def seed(q: MapQuery) -> tuple[dict[int, int], float]:
    """The all-zero assignment and its exact probability, a lower bound
    on the optimum: the all-zero cell of the query's cone table, on a
    fresh propagator."""
    s = _search(q)
    return {v: 0 for v in q.var_order}, s.scaled(s.zero()[0])


def solve(q: MapQuery, use_seed: bool = False, prune: bool = True,
          on_bound: Callable[[dict, float], None] | None = None) -> MapResult:
    """The worst vector of ``q``, the argmax of its cone table read on
    a fresh propagator (see the module docstring); ``p_map`` is its
    value.  ``prune`` selects the node counts over the d inputs not in
    ``q.evid_o``: 1 + 2d expanded and d pruned, or the full tree's,
    2^(d+1) - 1 and 0.  ``on_bound`` (assignment, bound) fires, for
    auditing, for both children of every node on the answer's path, or
    unpruned of every node, a level at a time.  ``use_seed`` keeps the
    all-zero assignment (``seed``) unless the argmax beats it by more
    than ``PRUNE_TOL``.
    """
    s = _search(q)
    order, d = q.var_order, len(q.var_order)
    (key,), (cell,) = s.argmax()
    zero = None
    if use_seed:
        zero = s.zero()[0]
        if not cell > zero * (1.0 + PRUNE_TOL):
            key, cell = (0,) * d, zero
    if on_bound is not None:    # a level at a time, in key order
        for level in range(d):
            for node in ([key[:level]] if prune else np.ndindex((2,) * level)):
                u = s.bound(node)
                for state in (0, 1):
                    on_bound(dict(zip(order, node + (state,))), s.scaled(u[state].item()))
    expanded, pruned = (1 + 2 * d, d) if prune else ((2 << d) - 1, 0)
    return MapResult(dict(zip(order, key)), s.scaled(cell), expanded, pruned,
                     None if zero is None else s.scaled(zero))

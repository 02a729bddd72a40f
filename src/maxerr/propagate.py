"""Message passing on a binary join tree.

Messages follow the two-way scheme: the message from cluster b to a
neighbor c combines b's own valuations with the messages from its other
neighbors and marginalizes down to the shared scope.  Every message is
cached per direction, so repeated queries (different roots,
incrementally grown evidence) reuse most of the work.  Changing the
evidence on a variable discards the cached messages whose sending side
holds that variable's singleton cluster, found by a walk: pop every
cached message out of the singleton, continue past each popped
message's receiver, and stop at the first edge with no cached message.
A message is computed only after every message into its sender, and is
dropped only together with everything downstream of it, so an edge with
no cached message has none beyond it.

Each message runs from a plan compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares it: each operand's broadcast shape over their union scope, the
axes summed, then the axes maxed, and the scope kept.  A plan is keyed
on the edge, the operand scopes (evidence on a leaf singleton turns its
message from a scalar into a table) and the max variables.  It
multiplies and reduces exactly as ``combine`` and ``reduce_mixed``
would, so answers are bit-identical.  Cluster potentials are built once
per (network, tree) pair and kept on the network.

Marginalization is per variable: sum for chance variables, max for the
variables being maximized (the primary inputs during a worst-vector
search).  Rooting the collect at a cluster whose schedule sums before it
maxes yields the exact maximum; any other root still yields a sound
upper bound because moving a max inward can only increase the value.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet
# combine, reduce_mixed and reduce_all stay bound here: perfbench/tracing.py
# wraps them by name in this module.
from .valuation import (Valuation, WidthLimitError, combine, indicator, reduce_all,
                        reduce_mixed, trusted, unit)


def _potentials(tree: BinaryJoinTree, net: ErrorModelNet) -> list[Valuation | None]:
    """Per cluster, the product of the CPTs attached to it; built once
    per (net, tree) pair and kept on the net."""
    pots = net.potentials.get(tree)
    if pots is None:
        if tree._scope_key is not None and not tree.compatible(net):
            raise ValueError("tree was built for a different network structure")
        limit = max(tree.width, 1)
        pots = [None] * tree.n_clusters
        for cpt in net.cpts:
            cid = tree.attach[cpt.child.id]
            val = cpt.to_valuation()
            pots[cid] = val if pots[cid] is None else combine(pots[cid], val, limit)
        net.potentials[tree] = pots
    return pots


class Propagator:
    """One query context: a tree, a network binding, optional max
    variables and an evidence assignment.  ``messages`` counts the
    messages computed."""

    def __init__(self, tree: BinaryJoinTree, net: ErrorModelNet,
                 map_vars=()):
        self.tree = tree
        self.net = net
        self.map_vars = frozenset(map_vars)
        self.evidence: dict[int, int] = {}
        self.messages = 0
        self._msg: dict[tuple[int, int], Valuation] = {}
        self._ev_at: dict[int, Valuation] = {}   # singleton cluster -> indicator
        self._limit = max(tree.width, 1)
        self._potential = _potentials(tree, net)
        self._plans = tree.plans.setdefault(self.map_vars, {})

    # -- evidence --------------------------------------------------------

    def set_evidence(self, evidence: Mapping[int, int]) -> None:
        """Replace the evidence; cached messages stay valid unless the
        change touches their sending side."""
        new = dict(evidence)
        changed = [v for v in set(new) | set(self.evidence)
                   if self.evidence.get(v) != new.get(v)]
        for v in changed:
            cid = self.tree.singleton.get(v)
            if cid is None:
                raise KeyError("variable %d has no singleton cluster for evidence" % v)
        for v in changed:
            cid = self.tree.singleton[v]
            self._invalidate(cid)
            if v in new:
                self._ev_at[cid] = indicator(v, new[v])
            else:
                del self._ev_at[cid]
        self.evidence = new

    def _invalidate(self, cid: int) -> None:
        """Drop the cached messages whose sending side holds ``cid``,
        by the walk the module docstring describes."""
        stack = [(cid, -1)]
        while stack:
            b, prev = stack.pop()
            for c in self.tree.neighbors[b]:
                if c != prev and self._msg.pop((b, c), None) is not None:
                    stack.append((c, b))

    # -- messages --------------------------------------------------------

    def _local(self, cid: int) -> list[Valuation]:
        vals = [] if self._potential[cid] is None else [self._potential[cid]]
        ev = self._ev_at.get(cid)
        if ev is not None:
            vals.append(ev)
        return vals

    def _compile(self, b: int, c: int, scopes: tuple[tuple[int, ...], ...]):
        """Plan of the product of operands with ``scopes`` at cluster
        ``b``, marginalized to the scope shared with ``c``; nothing is
        dropped for ``c`` = -1, a belief."""
        union = tuple(sorted(set().union(*scopes)))
        if len(union) > self._limit:
            raise WidthLimitError(len(union), self._limit, "combine")
        shapes = tuple(tuple(2 if v in s else 1 for v in union) for s in scopes)
        drop = set() if c < 0 else self.tree.clusters[b].scope - self.tree.clusters[c].scope
        summed = drop - self.map_vars
        maxed = drop & self.map_vars
        mid = tuple(v for v in union if v not in summed)
        return (shapes,
                tuple(i for i, v in enumerate(union) if v in summed),
                tuple(i for i, v in enumerate(mid) if v in maxed),
                tuple(v for v in mid if v not in maxed))

    def _apply(self, b: int, c: int, parts: list[Valuation]) -> Valuation:
        """``reduce_mixed(combine(...))`` of ``parts`` by the compiled
        plan: the same products and reductions in the same order."""
        if not parts:
            return unit()   # a leaf singleton without evidence has none
        key = (b, c, tuple(p.scope for p in parts))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile(b, c, key[2])
        shapes, sum_axes, max_axes, kept = plan
        if len(parts) == 1:
            if not sum_axes and not max_axes:
                return parts[0]
            t = parts[0].table
        else:
            t = parts[0].table.reshape(shapes[0])
            for p, shape in zip(parts[1:], shapes[1:]):
                t = t * p.table.reshape(shape)
        if sum_axes:
            t = np.sum(t, axis=sum_axes)
        if max_axes:
            t = np.max(t, axis=max_axes)
        return trusted(kept, np.asarray(t))   # reducing every axis gives a numpy scalar

    def _compute(self, b: int, c: int) -> None:
        parts = self._local(b)
        parts += [self._msg[(a, b)] for a in self.tree.neighbors[b] if a != c]
        self._msg[(b, c)] = self._apply(b, c, parts)
        self.messages += 1

    def _ensure(self, b: int, c: int) -> None:
        stack = [(b, c)]
        while stack:
            x, y = stack[-1]
            if (x, y) in self._msg:
                stack.pop()
                continue
            todo = [(a, x) for a in self.tree.neighbors[x]
                    if a != y and (a, x) not in self._msg]
            if todo:
                stack.extend(todo)
            else:
                self._compute(x, y)
                stack.pop()

    def belief(self, cid: int) -> Valuation:
        """Combined local valuations, evidence and incoming messages:
        the (possibly max-reduced) joint over the cluster scope."""
        for a in self.tree.neighbors[cid]:
            self._ensure(a, cid)
        parts = self._local(cid) + [self._msg[(a, cid)] for a in self.tree.neighbors[cid]]
        return self._apply(cid, -1, parts)

    def query(self, root_cluster: int) -> float:
        """Collapse the belief at the root to a scalar."""
        return reduce_all(self.belief(root_cluster), self.map_vars)

    def var_belief(self, var: int) -> Valuation:
        return self.belief(self.tree.singleton[var])


def _orient(tree: BinaryJoinTree, root: int) -> list[int]:
    """Parent of every cluster when the tree hangs from ``root``."""
    parent = [-1] * tree.n_clusters
    stack = [root]
    while stack:
        u = stack.pop()
        for w in tree.neighbors[u]:
            if w != parent[u]:
                parent[w] = u
                stack.append(w)
    return parent


def prob_evidence(tree: BinaryJoinTree, net: ErrorModelNet,
                  evidence: Mapping[int, int]) -> float:
    """P(evidence); identical (up to 1e-9) for every choice of root."""
    p = Propagator(tree, net)
    p.set_evidence(evidence)
    return p.query(tree.singleton[min(tree.singleton)])


def count_order_inversions(tree: BinaryJoinTree, root: int, map_vars) -> int:
    """Number of (max variable, sum variable) pairs eliminated in the
    wrong relative order when collecting toward ``root``.  Zero means
    the schedule sums everything before it maxes anything, so the mixed
    collect is exact rather than an upper bound."""
    map_vars = frozenset(map_vars)
    parent = _orient(tree, root)
    scope = [c.scope for c in tree.clusters]
    # sums_downstream(u): sum-drops on the rootward path after u's edge,
    # including the final aggregation at the root itself.
    root_sums = len(scope[root] - map_vars)
    inv = 0
    stack = [w for w in tree.neighbors[root]]
    down: dict[int, int] = {w: root_sums for w in tree.neighbors[root]}
    while stack:
        u = stack.pop()
        drop = scope[u] - scope[parent[u]]
        inv += len(drop & map_vars) * down[u]
        below = down[u] + len(drop - map_vars)
        for w in tree.neighbors[u]:
            if w != parent[u]:
                down[w] = below
                stack.append(w)
    return inv

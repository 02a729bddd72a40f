"""Message passing on a binary join tree.

Messages follow the two-way scheme: the message from cluster b to a
neighbor c combines b's own valuations with the messages from its other
neighbors and marginalizes down to the shared scope.  Every message is
cached per direction, so repeated queries (different roots,
incrementally grown evidence) reuse most of the work.

The schedule is compiled once per tree, on its first propagator.
Directed edges get ids; each lists the messages into its sender but the
one from its receiver, each cluster lists its outbound ids, and a belief
is one more id, fed by every message into its cluster.  A collect is a
depth-first pass over the missing messages, then one loop computing
them in reverse pass order.  The pass stops at cached messages: a
message is computed only after every message into its sender and
dropped only with everything downstream of it, so all messages upstream
of a cached one are cached.  An evidence change on a variable drops the
cached messages whose sending side holds its singleton cluster, by a
walk over edge ids out of the singleton that stops at uncached edges.

Each message runs from a plan compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares it: each operand's broadcast shape over their union scope, the
axes summed, then the axes maxed, and the scope kept.  A plan is keyed
on the max variables, the edge id and the operand scopes (evidence on a
leaf singleton turns its message from a scalar into a table); what each
edge sums and maxes is split once per (tree, max variables).  Plans
multiply and reduce exactly as ``combine`` and ``reduce_mixed`` would,
so answers are bit-identical.  Cluster potentials are built once per
(network, tree) pair and kept on the network.

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


def _schedule(tree: BinaryJoinTree):
    """The tree's directed edges, numbered once and kept on the tree.

    Edge 2i runs along ``tree.edges[i]`` and 2i+1 back, so ``e ^ 1``
    reverses ``e``; id E + c, past the E edges, is the belief at cluster
    c.  Per id: sender, the ids of the messages into the sender in
    neighbor order, and the variables dropped (a tuple: most are empty,
    and every ``()`` is one shared object where sets are not); per
    cluster, its outbound edge ids.
    """
    if tree.schedule is None:
        ends = [e for a, b in tree.edges for e in ((a, b), (b, a))]
        ends += [(c, -1) for c in range(tree.n_clusters)]
        ids = {ab: e for e, ab in enumerate(ends)}
        nb, scope = tree.neighbors, [c.scope for c in tree.clusters]
        tree.schedule = (
            [b for b, _ in ends],
            [tuple([ids[a, b] for a in nb[b] if a != c]) for b, c in ends],
            [tuple([ids[b, a] for a in nb[b]]) for b in range(tree.n_clusters)],
            [tuple(scope[b] - scope[c]) if c >= 0 else () for b, c in ends])
    return tree.schedule


class Propagator:
    """One query context: a tree, a network binding, optional max
    variables and an evidence assignment.  ``messages`` counts the
    messages computed, ``dropped`` the cached messages invalidated."""

    def __init__(self, tree: BinaryJoinTree, net: ErrorModelNet,
                 map_vars=()):
        self.tree = tree
        self.net = net
        self.map_vars = frozenset(map_vars)
        self.evidence: dict[int, int] = {}
        self.messages = 0
        self.dropped = 0
        self._src, self._into, self._out, drop = _schedule(tree)
        self._msg: list[Valuation | None] = [None] * (2 * len(tree.edges))
        self._ev_at: dict[int, Valuation] = {}   # singleton cluster -> indicator
        self._limit = max(tree.width, 1)
        self._potential = _potentials(tree, net)
        mv = self.map_vars
        if mv not in tree.plans:   # most drops are empty and share one ((), ())
            split = [(tuple([v for v in d if v not in mv]), tuple([v for v in d if v in mv]))
                     if d else ((), ()) for d in drop]
            tree.plans[mv] = (split, {})
        self._split, self._plans = tree.plans[mv]

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
        msg, out, src = self._msg, self._out, self._src
        stack = list(out[cid])
        while stack:
            e = stack.pop()
            if msg[e] is not None:
                msg[e] = None
                self.dropped += 1
                stack += [f for f in out[src[e ^ 1]] if f != e ^ 1]

    # -- messages --------------------------------------------------------

    def _local(self, cid: int) -> list[Valuation]:
        vals = [] if self._potential[cid] is None else [self._potential[cid]]
        ev = self._ev_at.get(cid)
        if ev is not None:
            vals.append(ev)
        return vals

    def _compile(self, e: int, scopes: tuple[tuple[int, ...], ...]):
        """Plan of the product of operands with ``scopes`` at the sender
        of ``e``, marginalized as ``e`` drops."""
        union = tuple(sorted(set().union(*scopes)))
        if len(union) > self._limit:
            raise WidthLimitError(len(union), self._limit, "combine")
        shapes = tuple(tuple(2 if v in s else 1 for v in union) for s in scopes)
        summed, maxed = self._split[e]
        mid = tuple(v for v in union if v not in summed)
        return (shapes,
                tuple(i for i, v in enumerate(union) if v in summed),
                tuple(i for i, v in enumerate(mid) if v in maxed),
                tuple(v for v in mid if v not in maxed))

    def _apply(self, e: int, parts: list[Valuation]) -> Valuation:
        """``reduce_mixed(combine(...))`` of ``parts`` by the compiled
        plan: the same products and reductions in the same order."""
        if not parts:
            return unit()   # a leaf singleton without evidence has none
        key = (e, tuple([p.scope for p in parts]))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile(e, key[1])
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
            t = np.add.reduce(t, axis=sum_axes)
        if max_axes:
            t = np.maximum.reduce(t, axis=max_axes)
        return trusted(kept, np.asarray(t))   # reducing every axis gives a numpy scalar

    def _message(self, e: int) -> Valuation:
        msg = self._msg
        return self._apply(e, self._local(self._src[e]) + [msg[f] for f in self._into[e]])

    def belief(self, cid: int) -> Valuation:
        """Combined local valuations, evidence and incoming messages:
        the (possibly max-reduced) joint over the cluster scope."""
        msg, into = self._msg, self._into
        b = len(msg) + cid
        order, stack = [], [f for f in into[b] if msg[f] is None]
        while stack:
            e = stack.pop()
            order.append(e)
            stack += [f for f in into[e] if msg[f] is None]
        for e in reversed(order):
            msg[e] = self._message(e)
        self.messages += len(order)
        return self._message(b)

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

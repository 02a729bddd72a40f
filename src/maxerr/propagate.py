"""Message passing on a binary join tree.

Messages follow the two-way scheme: the message from cluster b to a
neighbor c combines b's local factor with the messages from its other
neighbors and marginalizes down to the shared scope.  Every message is
cached per direction, so repeated queries (different roots,
incrementally grown evidence) reuse most of the work.

The schedule is compiled once per tree, on its first propagator.
Directed edges get ids; each lists the messages into its sender but the
one from its receiver, each cluster lists its outbound ids, and a belief
is one more id, fed by every message into its cluster.  Every leaf of
the tree holds a CPT, so every sending side does and every edge is
scheduled.  A collect is a depth-first pass over the missing messages,
then one loop computing them in reverse pass order.  The pass stops at cached
messages: a message is computed only after every message into its
sender and dropped only with everything downstream of it, so all
messages upstream of a cached one are cached.

A cluster's local factor is its CPT, times the indicator of the
evidence on that CPT's variable.  Setting evidence on a variable walks
from the cluster holding its CPT, dropping the cached messages whose
sending side holds that cluster (the walk follows edge ids and stops at
uncached edges), then replaces that cluster's factor; the potentials
kept on the network are never written.

Each message runs from a plan compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares it: each operand's broadcast shape over their union scope, the
axes summed, then the axes maxed, and the scope kept.  Evidence never
changes a factor's scope, so an edge's operand scopes are fixed per
tree and a plan is keyed on the max variables and the edge id alone; it
splits what the edge drops into summed and maxed variables when
compiled.  Plans multiply and reduce exactly as ``combine`` and
``reduce_mixed`` would, so answers are bit-identical.  Cluster
potentials are built once per (network, tree) pair and kept on the
network.

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
from .valuation import (Valuation, combine, indicator, reduce_all, reduce_mixed,
                        trusted)


def _potentials(tree: BinaryJoinTree, net: ErrorModelNet) -> list[Valuation | None]:
    """Per cluster, the CPT attached to it; built once per (net, tree)
    pair and kept on the net.  A cluster holds at most one CPT: two CPTs
    with one scope would each be the other's parent, a cycle."""
    pots = net.potentials.get(tree)
    if pots is None:
        if not tree.compatible(net):
            raise ValueError("tree was built for a different network structure")
        pots = [None] * tree.n_clusters
        for cpt in net.cpts:
            pots[tree.attach[cpt.child.id]] = cpt.to_valuation()
        net.potentials[tree] = pots
    return pots


def _schedule(tree: BinaryJoinTree):
    """The tree's directed edges, numbered once and kept on the tree.

    Edge 2i runs along ``tree.edges[i]`` and 2i+1 back, so ``e ^ 1``
    reverses ``e``; id E + c, past the E edges, is the belief at cluster
    c.  Per id: sender, the ids of the messages into the sender in
    neighbor order, and the variables dropped; per cluster, its outbound
    edge ids.
    """
    if tree.schedule is None:
        n = tree.n_clusters
        ends = [e for a, b in tree.edges for e in ((a, b), (b, a))]
        ends += [(c, -1) for c in range(n)]
        ids = {ab: e for e, ab in enumerate(ends)}
        nb, scope = tree.neighbors, [c.scope for c in tree.clusters]
        tree.schedule = (
            [b for b, _ in ends],
            [tuple([ids[a, b] for a in nb[b] if a != c]) for b, c in ends],
            [tuple([ids[b, a] for a in nb[b]]) for b in range(n)],
            [scope[b] - scope[c] if c >= 0 else frozenset() for b, c in ends])
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
        self._src, self._into, self._out, self._drop = _schedule(tree)
        self._msg: list[Valuation | None] = [None] * (2 * len(tree.edges))
        self._potential = _potentials(tree, net)
        self._factor = list(self._potential)   # per cluster, potential x evidence
        self._plans = tree.plans.setdefault(self.map_vars, {})

    # -- evidence --------------------------------------------------------

    def set_evidence(self, evidence: Mapping[int, int]) -> None:
        """Replace the evidence; cached messages stay valid unless the
        change touches their sending side."""
        new = dict(evidence)
        changed = [v for v in set(new) | set(self.evidence)
                   if self.evidence.get(v) != new.get(v)]
        # every lookup first, so an unknown variable changes nothing
        spots = [self.tree.attach[v] for v in changed]
        for v, cid in zip(changed, spots):
            self._invalidate(cid)
            pot = self._potential[cid]
            if v in new:
                ind = indicator(v, new[v]).table.reshape(
                    [2 if u == v else 1 for u in pot.scope])
                self._factor[cid] = trusted(pot.scope, pot.table * ind)
            else:
                self._factor[cid] = pot
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

    def _compile(self, e: int, scopes: list[tuple[int, ...]]):
        """Plan of the product of operands with ``scopes`` at the sender
        of ``e``, marginalized as ``e`` drops.  Every operand lies inside
        the sender's cluster, so the union is within the tree's width."""
        union = tuple(sorted(set().union(*scopes)))
        shapes = tuple(tuple(2 if v in s else 1 for v in union) for s in scopes)
        drop = self._drop[e]
        summed = drop - self.map_vars
        mid = tuple(v for v in union if v not in summed)
        return (shapes,
                tuple(i for i, v in enumerate(union) if v in summed),
                tuple(i for i, v in enumerate(mid) if v in drop),
                tuple(v for v in mid if v not in drop))

    def _apply(self, e: int, parts: list[Valuation]) -> Valuation:
        """``reduce_mixed(combine(...))`` of ``parts`` by the compiled
        plan: the same products and reductions in the same order."""
        plan = self._plans.get(e)
        if plan is None:
            plan = self._plans[e] = self._compile(e, [p.scope for p in parts])
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
        msg, local = self._msg, self._factor[self._src[e]]
        parts = [msg[f] for f in self._into[e]]
        return self._apply(e, parts if local is None else [local] + parts)

    def belief(self, cid: int) -> Valuation:
        """Combined local factor and incoming messages:
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
        """The belief at the cluster holding ``var``'s CPT reduced onto
        ``var``: the other chance variables summed, then the other max
        variables maxed, as a message into a ``{var}`` leaf would be."""
        # numpy, not reduce_mixed: perfbench/tracing.py counts its calls
        bel = self.belief(self.tree.attach[var])
        mid = [v for v in bel.scope if v == var or v in self.map_vars]
        t = np.add.reduce(bel.table, axis=tuple(i for i, v in enumerate(bel.scope)
                                                if v not in mid))
        t = np.maximum.reduce(t, axis=tuple(i for i, v in enumerate(mid) if v != var))
        return trusted((var,), t)


def prob_evidence(tree: BinaryJoinTree, net: ErrorModelNet,
                  evidence: Mapping[int, int]) -> float:
    """P(evidence); identical (up to 1e-9) for every choice of root."""
    p = Propagator(tree, net)
    p.set_evidence(evidence)
    return p.query(tree.attach[min(tree.attach)])

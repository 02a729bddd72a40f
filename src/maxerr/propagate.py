"""Message passing on a binary join tree.

Messages follow the two-way scheme: the message from cluster b to a
neighbor c combines b's local factor with the messages from its other
neighbors and marginalizes down to the shared scope.  Every message is
cached per direction, so repeated queries (different roots,
incrementally grown evidence) reuse most of the work.

The schedule is compiled once per tree, on its first propagator.
Directed edges get ids; each lists the messages into its sender but the
one from its receiver, and each cluster lists its outbound ids.  Every
leaf of the tree holds a CPT, so every sending side does and every edge
is scheduled.  A read at a cluster (belief, query or a variable's
marginal) collects the messages into it: a depth-first pass over the
missing ones, then one loop computing them in reverse pass order.  The
pass stops at cached messages: a message is computed only after every
message into its sender and dropped only with everything downstream of
it, so all messages upstream of a cached one are cached.

Cluster ``v`` holds variable ``v``'s CPT (``jointree``), so its local
factor is the network's potential ``v`` times the indicator of the
evidence on ``v``; the clusters from ``net.n_vars`` up have none.  A
propagator checks that cluster ``v`` has CPT ``v``'s scope for every
variable, and so takes any tree built on a network of the same circuit,
at any eps (``net.at``).  Setting evidence on a variable walks from its
cluster, dropping the cached messages whose sending side holds that
cluster (the walk follows edge ids and stops at uncached edges), then
replaces that cluster's factor; the potentials, built once per network
and shared by every tree and propagator on it, are never written.

Messages and reads run from plans compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares them: each operand's broadcast shape over their union scope, the
axes summed, and the scope kept.  A plan keeps an edge's shared
variables or any set of a read's cluster variables and sums the rest.
Evidence never changes a factor's scope, so plans are keyed, per grid
axis (below) or none, by the edge id or by the read's cluster and kept
variables alone.  Plans sum one axis at a time, highest first
(``valuation.sum_axes``), exactly as ``combine`` and ``reduce_mixed``
would: bit-identical answers.

A network over an eps grid of B values (``net.batch == (B,)``) is B
networks of one structure at once.  Its eps-dependent potentials carry
a trailing axis of length B behind their variable axes, and so do the
evidence-multiplied factors, the messages and the reads (a table
without it broadcasts as length 1); a network at one eps has no such
axis, the single-member case.  A plan reshapes its operands to their
variable axes followed by that axis, and counts the summed axes from
the front, so one path through ``_apply`` serves both.  With the
members innermost, every product and every length-2 sum runs over B
contiguous cells at a time.  Each member's cells are multiplied and
summed as they would be in a network of their own, bit for bit.  A
query returns a float, or a list of the B values.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet
# combine, reduce_mixed and reduce_all stay bound here: perfbench/tracing.py
# wraps them by name in this module.
from .valuation import Valuation, combine, reduce_all, reduce_mixed, sum_axes, trusted

# the evidence indicator of each state, reshaped onto a CPT's scope
_INDICATOR = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}


def _schedule(tree: BinaryJoinTree):
    """The tree's directed edges, numbered once and kept on the tree.

    Edge 2i runs along ``tree.edges[i]`` and 2i+1 back, so ``e ^ 1``
    reverses ``e``.  Per edge: sender, the ids of the messages into the
    sender but the one from its receiver in neighbor order, and the
    variables kept; per cluster, its outbound edge ids, whose reverses
    are the messages into it.
    """
    if tree.schedule is None:
        ends = [e for a, b in tree.edges for e in ((a, b), (b, a))]
        ids = {ab: e for e, ab in enumerate(ends)}
        nb, scope = tree.neighbors, tree.scopes
        tree.schedule = (
            [b for b, _ in ends],
            [tuple([ids[a, b] for a in nb[b] if a != c]) for b, c in ends],
            [tuple([ids[b, a] for a in nb[b]]) for b in range(tree.n_clusters)],
            [scope[b] & scope[c] for b, c in ends])
    return tree.schedule


class Propagator:
    """One query context: a tree, a network binding and an evidence
    assignment.  ``messages`` counts the messages computed, ``dropped``
    the cached messages invalidated."""

    def __init__(self, tree: BinaryJoinTree, net: ErrorModelNet):
        if tree.scopes[:net.n_vars] != [cpt.scope for cpt in net.cpts]:
            raise ValueError("tree was built for a different network structure")
        self.tree = tree
        self.net = net
        self.evidence: dict[int, int] = {}
        self.messages = 0
        self.dropped = 0
        self._src, self._into, self._out, self._keep = _schedule(tree)
        self._msg: list[Valuation | None] = [None] * (2 * len(tree.edges))
        # per cluster, potential x evidence
        self._factor = net.potentials + [None] * (tree.n_clusters - net.n_vars)
        self._grid = (-1,) * len(net.batch)   # reshape suffix for the grid axis
        self._plans = tree.plans.setdefault(self._grid, {})

    # -- evidence --------------------------------------------------------

    def set_evidence(self, evidence: Mapping[int, int]) -> None:
        """Replace the evidence; cached messages stay valid unless the
        change touches their sending side."""
        new = dict(evidence)
        changed = [v for v in set(new) | set(self.evidence)
                   if self.evidence.get(v) != new.get(v)]
        # every check first, so an unknown variable or state changes nothing
        unknown = [v for v in changed if v not in range(self.net.n_vars)]
        if unknown:
            raise KeyError(unknown[0])
        bad = [v for v in changed if v in new and new[v] not in _INDICATOR]
        if bad:
            raise ValueError("evidence state of variable %d is %r, not 0 or 1"
                             % (bad[0], new[bad[0]]))
        for v in changed:
            self._invalidate(v)
            pot = self.net.potentials[v]
            if v in new:
                # a trailing 1 lines the indicator up with a grid axis
                grid = [1] * (pot.table.ndim - len(pot.scope))
                ind = _INDICATOR[new[v]].reshape([2 if u == v else 1 for u in pot.scope] + grid)
                self._factor[v] = trusted(pot.scope, pot.table * ind)
            else:
                self._factor[v] = pot
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

    # -- messages and reads ------------------------------------------------

    def _compile(self, scopes: list[tuple[int, ...]], keep: frozenset[int]):
        """Plan of the product of operands with ``scopes`` summed onto
        ``keep``, the summed axes counted from the front.  Every operand
        lies inside one cluster, so the union is within the tree's width."""
        union = tuple(sorted(set().union(*scopes)))
        return (tuple(tuple(2 if v in s else 1 for v in union) + self._grid for s in scopes),
                tuple(i for i, v in enumerate(union) if v not in keep),
                tuple(v for v in union if v in keep))

    def _apply(self, key, keep: frozenset[int], cid: int, ids) -> Valuation:
        """``reduce_mixed(combine(...))`` of the local factor at ``cid``
        and the messages ``ids`` onto ``keep``, by the plan kept at
        ``key``: the same products and reductions in the same order."""
        local = self._factor[cid]
        parts = ([] if local is None else [local]) + [self._msg[f] for f in ids]
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile([p.scope for p in parts], keep)
        shapes, summed, kept = plan
        if len(parts) == 1:
            if not summed:
                return parts[0]
            t = parts[0].table
        else:
            t = parts[0].table.reshape(shapes[0])
            for p, shape in zip(parts[1:], shapes[1:]):
                t = t * p.table.reshape(shape)
        # summing every axis gives a numpy scalar
        return trusted(kept, np.asarray(sum_axes(t, summed)))

    def _read(self, cid: int, keep: frozenset[int]) -> Valuation:
        """Collect the messages into ``cid``, then reduce its local
        factor times them onto ``keep``."""
        msg, into, src, keep_of = self._msg, self._into, self._src, self._keep
        inbound = [e ^ 1 for e in self._out[cid]]
        order, stack = [], [f for f in inbound if msg[f] is None]
        while stack:
            e = stack.pop()
            order.append(e)
            stack += [f for f in into[e] if msg[f] is None]
        for e in reversed(order):
            msg[e] = self._apply(e, keep_of[e], src[e], into[e])
        self.messages += len(order)
        return self._apply((cid, keep), keep, cid, inbound)

    def belief(self, cid: int, keep=None) -> Valuation:
        """Local factor times incoming messages, summed onto the
        variables of ``keep`` the cluster holds (default all of them)."""
        return self._read(cid, self.tree.scopes[cid] if keep is None else frozenset(keep))

    def query(self, root_cluster: int):
        """Collapse the belief at the root to a scalar: a float, or a
        list of one float per member over an eps grid."""
        return self._read(root_cluster, frozenset()).table.tolist()

    def var_belief(self, var: int) -> Valuation:
        """The belief at ``var``'s cluster reduced onto it."""
        if var not in range(self.net.n_vars):
            raise KeyError(var)
        return self._read(var, frozenset((var,)))


def prob_evidence(tree: BinaryJoinTree, net: ErrorModelNet,
                  evidence: Mapping[int, int]):
    """P(evidence): a float, or a list of one float per member over an
    eps grid; identical (up to 1e-9) for every choice of root."""
    p = Propagator(tree, net)
    p.set_evidence(evidence)
    return p.query(0)

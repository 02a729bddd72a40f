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

A cluster's local factor is its CPT, times the indicator of the
evidence on that CPT's variable.  Setting evidence on a variable walks
from the cluster holding its CPT, dropping the cached messages whose
sending side holds that cluster (the walk follows edge ids and stops at
uncached edges), then replaces that cluster's factor; the potentials
kept on the network are never written.

Messages and reads run from plans compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares them: each operand's broadcast shape over their union scope, the
axes summed, then the axes maxed, and the scope kept.  A plan keeps an
edge's shared variables or what a read asks for, summing the other
chance variables and maxing the other max variables.  Evidence never
changes a factor's scope, so plans are keyed, per set of max variables
and per grid axis (below) or none, by the edge id or by the read's
cluster and kept variables alone.  Plans multiply and reduce exactly as
``combine`` and ``reduce_mixed`` would, so answers are bit-identical.
Cluster potentials are built once per (network, tree) pair and kept on
the network.

A network over an eps grid of B values (``net.batch == (B,)``) is B
networks of one structure at once.  Its eps-dependent potentials carry
a leading axis of length B, and so do the evidence-multiplied factors,
the messages and the reads (a table without it broadcasts as length
1); a network at one eps has no such axis, the single-member case.  A
plan reshapes its operands to that axis followed by their variable
axes, and counts the summed and maxed axes from the end, so one path
through ``_apply`` serves both.  Each member's cells are multiplied and
reduced as they would be in a network of their own, bit for bit.  A
query returns a float, or a list of the B values.

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
from .valuation import Valuation, combine, reduce_all, reduce_mixed, trusted

# the evidence indicator of each state, reshaped onto a CPT's scope
_INDICATOR = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}


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
    reverses ``e``.  Per edge: sender, the ids of the messages into the
    sender but the one from its receiver in neighbor order, and the
    variables kept; per cluster, its outbound edge ids, whose reverses
    are the messages into it.
    """
    if tree.schedule is None:
        ends = [e for a, b in tree.edges for e in ((a, b), (b, a))]
        ids = {ab: e for e, ab in enumerate(ends)}
        nb, scope = tree.neighbors, [c.scope for c in tree.clusters]
        tree.schedule = (
            [b for b, _ in ends],
            [tuple([ids[a, b] for a in nb[b] if a != c]) for b, c in ends],
            [tuple([ids[b, a] for a in nb[b]]) for b in range(tree.n_clusters)],
            [scope[b] & scope[c] for b, c in ends])
    return tree.schedule


def per_member(value) -> list[float]:
    """A query's value, or a numpy result's ``tolist()``, as one float
    per member; a network at one eps has one member."""
    return value if isinstance(value, list) else [value]


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
        self._src, self._into, self._out, self._keep = _schedule(tree)
        self._msg: list[Valuation | None] = [None] * (2 * len(tree.edges))
        self._potential = _potentials(tree, net)
        self._factor = list(self._potential)   # per cluster, potential x evidence
        self._lead = (-1,) * len(net.batch)   # reshape prefix for the grid axis
        self._plans = tree.plans.setdefault((self.map_vars, self._lead), {})

    # -- evidence --------------------------------------------------------

    def set_evidence(self, evidence: Mapping[int, int]) -> None:
        """Replace the evidence; cached messages stay valid unless the
        change touches their sending side."""
        new = dict(evidence)
        changed = [v for v in set(new) | set(self.evidence)
                   if self.evidence.get(v) != new.get(v)]
        # every check first, so an unknown variable or state changes nothing
        spots = [self.tree.attach[v] for v in changed]
        bad = [v for v in changed if v in new and new[v] not in _INDICATOR]
        if bad:
            raise ValueError("evidence state of variable %d is %r, not 0 or 1"
                             % (bad[0], new[bad[0]]))
        for v, cid in zip(changed, spots):
            self._invalidate(cid)
            pot = self._potential[cid]
            if v in new:
                ind = _INDICATOR[new[v]].reshape([2 if u == v else 1 for u in pot.scope])
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

    # -- messages and reads ------------------------------------------------

    def _compile(self, scopes: list[tuple[int, ...]], keep: frozenset[int]):
        """Plan of the product of operands with ``scopes`` reduced onto
        ``keep``: the other chance variables summed, then the other max
        variables maxed, their axes counted from the end.  Every operand
        lies inside one cluster, so the union is within the tree's width."""
        union = tuple(sorted(set().union(*scopes)))
        mid = tuple(v for v in union if v in keep or v in self.map_vars)
        return (tuple(self._lead + tuple(2 if v in s else 1 for v in union) for s in scopes),
                tuple(i - len(union) for i, v in enumerate(union) if v not in mid),
                tuple(i - len(mid) for i, v in enumerate(mid) if v not in keep),
                tuple(v for v in mid if v in keep))

    def _apply(self, key, keep: frozenset[int], cid: int, ids) -> Valuation:
        """``reduce_mixed(combine(...))`` of the local factor at ``cid``
        and the messages ``ids`` onto ``keep``, by the plan kept at
        ``key``: the same products and reductions in the same order."""
        local = self._factor[cid]
        parts = ([] if local is None else [local]) + [self._msg[f] for f in ids]
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile([p.scope for p in parts], keep)
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

    def belief(self, cid: int) -> Valuation:
        """Combined local factor and incoming messages:
        the (possibly max-reduced) joint over the cluster scope."""
        return self._read(cid, self.tree.clusters[cid].scope)

    def query(self, root_cluster: int):
        """Collapse the belief at the root to a scalar: a float, or a
        list of one float per member over an eps grid."""
        return self._read(root_cluster, frozenset()).table.tolist()

    def var_belief(self, var: int) -> Valuation:
        """The belief at the cluster holding ``var``'s CPT reduced onto it."""
        return self._read(self.tree.attach[var], frozenset((var,)))


def prob_evidence(tree: BinaryJoinTree, net: ErrorModelNet,
                  evidence: Mapping[int, int]) -> float:
    """P(evidence); identical (up to 1e-9) for every choice of root."""
    p = Propagator(tree, net)
    p.set_evidence(evidence)
    return p.query(tree.attach[min(tree.attach)])

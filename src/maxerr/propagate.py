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
is scheduled.  An edge out of a CPT leaf whose scope lies inside its
neighbor's is forwarded: its message is the leaf's local factor itself,
stored as the message whenever that factor is set and never computed,
compiled or counted.  A read at a cluster (belief, query or a
variable's marginal) collects the messages into it: a depth-first pass
over the missing ones, then one loop computing them in reverse pass
order.  The pass stops at cached messages: a message is computed only
after every message into its sender and dropped only with everything
downstream of it, so all messages upstream of a cached one are cached.

Cluster ``v`` holds variable ``v``'s CPT (``jointree``), so its local
factor is the network's potential ``v`` times the indicator of the
evidence on ``v``; the clusters from ``net.n_vars`` up have none.  A
propagator checks that cluster ``v`` has CPT ``v``'s scope for every
variable, and so takes any tree built on a network of the same circuit,
at any eps (``net.at``).  Setting evidence on a variable replaces its
cluster's factor, then walks from that cluster, replacing the forwarded
message out of it by the new factor and dropping the cached messages
whose sending side holds the cluster (the walk follows edge ids and
stops at uncached edges); the potentials, built once per network and
shared by every tree and propagator on it, are never written.

Messages and reads run from plans compiled on first use and kept on the
tree, so every propagator, evidence change and eps value on that tree
shares them: per operand an index over their union scope (a full slice
on each variable it has, a new length-1 axis on each it lacks, then an
ellipsis over the member axes below), the axes summed, and the scope
kept.  A plan keeps an edge's shared variables or any set of a read's
cluster variables and sums the rest.  Evidence never changes a factor's
scope, so plans are keyed by the edge id or by the read's cluster and
kept variables alone.  Plans sum one axis at a time, highest first
(``valuation.sum_axes``), exactly as ``combine`` and ``reduce_mixed``
would: bit-identical answers.

Every table ends in member axes, behind its variable axes: the grid
axis, then the evidence axis.  A network over an eps grid of B values
(``net.batch == (B,)``) is B networks of one structure at once: its
eps-dependent potentials carry a trailing axis of length B, and a
network at one eps has no grid axis, the single-member case.  Evidence
given as a sequence of E mappings (``set_evidence``) is E evidence
assignments at once: each evidenced variable's factor carries an
evidence axis of length E, one indicator per member ([1, 1] where the
member leaves the variable free).  Every other factor carries the
member axes at length 1 (a view of the potential), so a plan's ellipsis
lines the operands up and a product broadcasts a length-1 member axis;
a message or read carries a member axis at full length exactly when
some factor it sees does.  With the members innermost, every product
and every length-2 sum runs over contiguous members at a time, and each
member's cells are multiplied and summed as they would be on their own,
bit for bit.  A read of a slice of the evidence members cuts every
full-length evidence axis to it before the product, so only their cells
are multiplied; a read drops the evidence axis when the evidence is one
mapping.  A query returns a float, or a (nested) list over the member
axes.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import numpy as np

from .jointree import BinaryJoinTree
from .model import ErrorModelNet
# combine, reduce_mixed and reduce_all stay bound here: perfbench/tracing.py
# wraps them by name in this module.
from .valuation import Valuation, combine, reduce_all, reduce_mixed, sum_axes, trusted

# the evidence indicator of each state, and of a member leaving the variable free
_INDICATOR = {0: (1.0, 0.0), 1: (0.0, 1.0)}
_FREE = (1.0, 1.0)


def check_evidence(net: ErrorModelNet, evidence: Mapping[int, int]) -> None:
    """``KeyError`` for a variable ``net`` lacks, ``ValueError`` for a state
    other than 0 or 1, an unhashable one (a list or an array) included."""
    for v, s in evidence.items():
        if v not in range(net.n_vars):
            raise KeyError(v)
        if not isinstance(s, Hashable) or s not in (0, 1):
            raise ValueError("evidence state of variable %d is %r, not 0 or 1" % (v, s))


def _schedule(tree: BinaryJoinTree, n_vars: int):
    """The tree's directed edges, numbered once and kept on the tree.

    Edge 2i runs along ``tree.edges[i]`` and 2i+1 back, so ``e ^ 1``
    reverses ``e``.  Per edge: sender, the ids of the messages into the
    sender but the one from its receiver in neighbor order, and the
    variables kept; per cluster, its outbound edge ids, whose reverses
    are the messages into it; and the forwarded edges, those out of a
    CPT leaf (one of the first ``n_vars`` clusters) whose scope lies
    inside its neighbor's.
    """
    if tree.schedule is None:
        ends = [e for a, b in tree.edges for e in ((a, b), (b, a))]
        ids = {ab: e for e, ab in enumerate(ends)}
        nb, scope = tree.neighbors, tree.scopes
        tree.schedule = (
            [b for b, _ in ends],
            [tuple([ids[a, b] for a in nb[b] if a != c]) for b, c in ends],
            [tuple([ids[b, a] for a in nb[b]]) for b in range(tree.n_clusters)],
            [scope[b] & scope[c] for b, c in ends],
            frozenset(e for e, (b, c) in enumerate(ends)
                      if b < n_vars and len(nb[b]) == 1 and scope[b] <= scope[c]))
    return tree.schedule


class Propagator:
    """One query context: a tree, a network binding and an evidence
    assignment, or a sequence of them.  ``messages`` counts the messages
    computed, ``dropped`` the cached messages invalidated; forwarded
    messages are neither."""

    def __init__(self, tree: BinaryJoinTree, net: ErrorModelNet):
        if tree.scopes[:net.n_vars] != [cpt.scope for cpt in net.cpts]:
            raise ValueError("tree was built for a different network structure")
        self.tree = tree
        self.net = net
        self.evidence: Mapping[int, int] | list[dict[int, int]] = {}
        self.messages = 0
        self.dropped = 0
        self._src, self._into, self._out, self._keep, self._fwd = _schedule(tree, net.n_vars)
        # per evidenced variable, its state in each member (None: free)
        self._states: dict[int, tuple] = {}
        self._sequence = False    # evidence given as a sequence: reads keep its axis
        # each potential viewed with the member axes, length 1 where it has none
        axes = len(net.batch) + 1
        self._pots = [trusted(p.scope, p.table[(...,) + (None,) * (
            axes + len(p.scope) - p.table.ndim)]) for p in net.potentials]
        # per cluster, potential x evidence
        self._factor = self._pots + [None] * (tree.n_clusters - net.n_vars)
        self._msg: list[Valuation | None] = [None] * (2 * len(tree.edges))
        for e in self._fwd:
            self._msg[e] = self._factor[self._src[e]]
        self._plans = tree.plans

    # -- evidence --------------------------------------------------------

    def set_evidence(self, evidence: Mapping[int, int] | Sequence[Mapping[int, int]]) -> None:
        """Replace the evidence: one mapping {variable: state}, or a
        sequence of them, one per member of the evidence axis (see the
        module docstring), whose reads end in that axis.  Cached
        messages stay valid unless the change touches their sending
        side: a variable changes when its state changes in some member,
        or the number of members changes while some member evidences it."""
        each = [evidence] if isinstance(evidence, Mapping) else list(evidence)
        if not each:
            raise ValueError("evidence needs at least one member")
        # every check first, so an unknown variable or state changes nothing
        states: dict[int, list] = {}
        for m, ev in enumerate(each):
            check_evidence(self.net, ev)
            for v, s in ev.items():
                states.setdefault(v, [None] * len(each))[m] = s
        new = {v: tuple(s) for v, s in states.items()}
        old = self._states
        for v in set(new) | set(old):
            if old.get(v) != new.get(v):
                pot = self._pots[v]
                if v in new:
                    ind = np.array([_FREE if s is None else _INDICATOR[s] for s in new[v]]).T
                    # one indicator per member, on the last axis
                    shape = [2 if u == v else 1 for u in pot.scope] + [1] * len(self.net.batch)
                    pot = trusted(pot.scope, pot.table * ind.reshape(shape + [len(each)]))
                self._factor[v] = pot
                self._invalidate(v)
        self._states = new
        self._sequence = not isinstance(evidence, Mapping)
        self.evidence = [dict(ev) for ev in each] if self._sequence else dict(evidence)

    def _invalidate(self, cid: int) -> None:
        """Replace the forwarded message out of ``cid`` by its new factor
        and drop the cached messages whose sending side holds ``cid``, by
        the walk the module docstring describes."""
        msg, out, src, fwd = self._msg, self._out, self._src, self._fwd
        stack = list(out[cid])
        while stack:
            e = stack.pop()
            if e in fwd:
                msg[e] = self._factor[cid]
            elif msg[e] is not None:
                msg[e] = None
                self.dropped += 1
            else:
                continue
            stack += [f for f in out[src[e ^ 1]] if f != e ^ 1]

    # -- messages and reads ------------------------------------------------

    @staticmethod
    def _compile(scopes: list[tuple[int, ...]], keep: frozenset[int]):
        """Plan of the product of operands with ``scopes`` summed onto
        ``keep``, the summed axes counted from the front.  Every operand
        lies inside one cluster, so the union is within the tree's width."""
        union = tuple(sorted(set().union(*scopes)))
        return (tuple(tuple(slice(None) if v in s else None for v in union) + (...,)
                      for s in scopes),
                tuple(i for i, v in enumerate(union) if v not in keep),
                tuple(v for v in union if v in keep))

    def _apply(self, key, keep: frozenset[int], cid: int, ids, members=None) -> Valuation:
        """``reduce_mixed(combine(...))`` of the local factor at ``cid``
        and the messages ``ids`` onto ``keep``, by the plan kept at
        ``key``: the same products and reductions in the same order.
        ``members``, a slice, cuts every full-length evidence axis first."""
        local = self._factor[cid]
        parts = ([] if local is None else [local]) + [self._msg[f] for f in ids]
        if members is not None:
            parts = [p if p.table.shape[-1] == 1 else trusted(p.scope, p.table[..., members])
                     for p in parts]
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile([p.scope for p in parts], keep)
        index, summed, kept = plan
        if len(parts) == 1:
            if not summed:
                return parts[0]
            t = parts[0].table
        else:
            t = parts[0].table[index[0]]
            for p, ix in zip(parts[1:], index[1:]):
                t = t * p.table[ix]
        return trusted(kept, sum_axes(t, summed))

    def _read(self, cid: int, keep: frozenset[int], members=None) -> Valuation:
        """Collect the messages into ``cid``, then reduce its local
        factor times them onto ``keep``, for the evidence members in the
        slice ``members`` (default all); without member evidence, the
        evidence axis is dropped."""
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
        read = self._apply((cid, keep), keep, cid, inbound, members)
        return read if self._sequence else trusted(read.scope, read.table[..., 0])

    def belief(self, cid: int, keep=None, members: slice | None = None) -> Valuation:
        """Local factor times incoming messages, summed onto the
        variables of ``keep`` the cluster holds (default all of them).
        ``members``, a slice of the evidence members, reads those alone:
        the same cells, bit for bit, with the others never multiplied."""
        return self._read(cid, self.tree.scopes[cid] if keep is None else frozenset(keep),
                          members)

    def query(self, root_cluster: int):
        """Collapse the belief at the root to a scalar: a float, or a
        list over the grid members, each a list over the evidence
        members when the evidence is a sequence."""
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

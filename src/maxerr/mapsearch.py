"""Worst input vector by depth-first branch and bound.

The search instantiates the primary inputs one at a time.  Each child
node gets an upper bound on P(inputs, comparator evidence) over all
completions from a collect rooted at the cluster holding the prior of
the variable just assigned; a child whose bound falls below the
incumbent by more than a relative hair is cut.  Values within that hair
of each other tie, and a tie goes to the smaller assignment along the
branching order, so a child whose bound at most ties the incumbent is
cut too when its prefix sorts after the incumbent's.  Many vectors tie exactly in real circuits (an
XOR chain fails on an odd number of gate faults whatever its inputs), so
the search then follows one path instead of every tied one, and float
noise among tied values does not change how much it searches.  The
tolerance scales with the incumbent, so pruning does not depend on the
absolute size of the probabilities (every bound carries the input prior
of all k inputs).  A complete
instantiation makes the bound exact, so the incumbent at the end is the
true maximum.  Inputs named in the query evidence are fixed, not
searched.

Over an eps grid (``net.batch == (B,)``) one walk searches every member
at once: each bound is one batched read, each member keeps its own
incumbent, and a node is visited with the members still active there.
Each of them takes the two children in its own order (rank 0, then
rank 1), so it makes exactly the cuts, ties and node counts of a search
of its eps alone.

The incumbent starts empty.  ``use_seed`` seeds it instead with the
all-zero assignment, the one every tie resolves toward, at its exact
value (``seed``); that costs one bound per query and can change only
the amount of pruning, never the answer, and since the tie cut already
follows one path to the optimum it seldom changes even that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .jointree import BinaryJoinTree
from .model import ErrorModelNet
from .propagate import Propagator, per_member

PRUNE_TOL = 1e-12   # relative to the incumbent; closer values tie


@dataclass
class MapQuery:
    """One worst-vector query.

    The search branches only on the inputs not in ``evid_o``; an input
    given there is held at its state.  ``max_error`` uses that to fix
    every input outside an output's fan-in cone at 0, so node counts
    cover the cone inputs alone.
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


class _Search:
    """The walk over every member of ``q.net`` at once (see the module
    docstring); per member an incumbent, its key and node counts."""

    def __init__(self, q: MapQuery, prune: bool,
                 on_bound: Callable[[dict, float | list[float]], None] | None,
                 prop: Propagator | None = None):
        self.q = q
        self.prune = prune
        self.on_bound = on_bound
        if prop is None:
            prop = Propagator(q.tree, q.net, map_vars=q.net.input_vars)
        elif prop.tree is not q.tree or prop.net is not q.net \
                or prop.map_vars != frozenset(q.net.input_vars):
            raise ValueError("propagator must be built on the query's tree and net "
                             "with the net's inputs as max variables")
        self.prop = prop
        members = math.prod(q.net.batch)
        self.best = [-1.0] * members
        self.best_key: list[tuple[int, ...] | None] = [None] * members
        self.expanded = [1] * members     # the root
        self.pruned = [0] * members

    def bound(self, partial: dict[int, int], new_var: int):
        """The bound at ``partial``: a float, or a list over members."""
        ev = dict(self.q.evid_o)
        ev.update(partial)
        self.prop.set_evidence(ev)
        u = self.prop.query(self.q.tree.attach[new_var])
        if self.on_bound is not None:
            self.on_bound(dict(partial), u)
        return u

    def offer(self, m: int, key: tuple[int, ...], value: float) -> None:
        """Member ``m``'s complete assignment ``key`` (states along
        ``var_order``) at its exact value."""
        best = self.best[m]
        if value > best * (1.0 + PRUNE_TOL) or \
                (value >= best * (1.0 - PRUNE_TOL) and key < self.best_key[m]):
            self.best[m] = value
            self.best_key[m] = key

    def cut(self, m: int, u: float, prefix: tuple[int, ...]) -> bool:
        """Whether no completion of ``prefix`` (the states of the first
        ``len(prefix)`` inputs along ``var_order``) can replace member
        ``m``'s incumbent: its bound is below the incumbent, or ties it
        at best while the prefix sorts after the incumbent's, so any tie
        loses to the incumbent under the tie rule."""
        best = self.best[m]
        if u < best * (1.0 - PRUNE_TOL):
            return True
        if u > best * (1.0 + PRUNE_TOL):
            return False
        return prefix > self.best_key[m][:len(prefix)]

    def walk(self, partial: dict[int, int], head: tuple[int, ...], active: list[int]) -> None:
        v = self.q.var_order[len(head)]
        u = []
        for s in (0, 1):
            partial[v] = s
            u.append(per_member(self.bound(partial, v)))
        del partial[v]
        zero_first, one_first = [], []    # ties go to state 0 first
        for m in active:
            self.expanded[m] += 2
            (one_first if u[1][m] > u[0][m] * (1.0 + PRUNE_TOL) else zero_first).append(m)
        complete = len(head) + 1 == len(self.q.var_order)
        # every member takes its first child, then its second
        for s, group in ((0, zero_first), (1, one_first), (1, zero_first), (0, one_first)):
            if not group:
                continue
            key = head + (s,)
            go = []
            for m in group:
                if self.prune and self.cut(m, u[s][m], key):
                    self.pruned[m] += 1
                else:
                    go.append(m)
            if not go:
                continue
            if complete:    # the bound is exact
                for m in go:
                    self.offer(m, key, u[s][m])
            else:
                partial[v] = s
                self.walk(partial, key, go)
                del partial[v]


def seed(q: MapQuery,
         prop: Propagator | None = None) -> tuple[dict[int, int], float | list[float]]:
    """The all-zero assignment and its exact probability (a lower bound
    on the optimum; one per member over an eps grid), collected at the
    root the walk uses for complete nodes so the value is bit-identical
    to the walk's.

    ``prop`` lets the caller share its max-mode propagator, so the
    messages cached here serve the search that follows."""
    zero = {v: 0 for v in q.var_order}
    s = _Search(q, prune=False, on_bound=None, prop=prop)
    return zero, s.bound(zero, q.var_order[-1])


def search(q: MapQuery, prune: bool = True,
           on_bound: Callable[[dict, float | list[float]], None] | None = None,
           prop: Propagator | None = None, use_seed: bool = False) -> list[MapResult]:
    """Exact worst-vector search, one result per member of ``q.net``
    (one in all for a network at a single eps).

    ``on_bound`` (assignment, bound) fires for every bound computed at a
    search node, for auditing: every node but the root, which is never
    cut and so gets no bound; the seed's bound does not fire it.  The
    bound is a float, or a list over members.  With ``prune`` off the
    search visits the full binary tree over the inputs not in
    ``q.evid_o``.  Ties (values within a relative ``PRUNE_TOL``) resolve
    to the lexicographically smallest assignment along ``q.var_order``,
    and ``p_map`` is that assignment's value.

    ``prop`` shares a max-mode propagator over ``q.tree``, ``q.net`` and
    the net's inputs between queries (``ValueError`` otherwise); the
    answer does not change, since a cached message depends only on the
    evidence on its sending side.  ``use_seed`` starts every incumbent
    at the all-zero assignment (``seed``).
    """
    if not q.var_order:
        raise ValueError("no input variables to search over")
    s = _Search(q, prune, on_bound, prop)
    seeds = [None] * len(s.best)
    if use_seed:
        _, value = seed(q, s.prop)
        seeds = per_member(value)
        s.best = list(seeds)
        s.best_key = [(0,) * len(q.var_order)] * len(seeds)
    s.walk({}, (), list(range(len(s.best))))
    return [MapResult(dict(zip(q.var_order, key)), max(best, 0.0), expanded, pruned, sv)
            for key, best, expanded, pruned, sv
            in zip(s.best_key, s.best, s.expanded, s.pruned, seeds)]


def solve(q: MapQuery, use_seed: bool = False, prune: bool = True,
          on_bound: Callable[[dict, float], None] | None = None,
          prop: Propagator | None = None) -> MapResult:
    """``search`` on a network at a single eps: its one result."""
    if q.net.batch:
        raise ValueError("solve takes a network at one eps; search takes an eps grid")
    return search(q, prune, on_bound, prop, use_seed)[0]

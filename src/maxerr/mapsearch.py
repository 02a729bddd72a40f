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
searched.  The incumbent starts at the all-zero assignment, the one
every tie resolves toward, at its exact value; that costs one bound per
query and changes only the amount of pruning, never the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .jointree import BinaryJoinTree
from .model import ErrorModelNet
from .propagate import Propagator

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


def _assign_key(assignment: Mapping[int, int], order: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(assignment[v] for v in order)


class _Search:
    def __init__(self, q: MapQuery, prune: bool,
                 on_bound: Callable[[dict, float], None] | None,
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
        self.best = -1.0
        self.best_assign: dict[int, int] | None = None
        self.expanded = 0
        self.pruned = 0

    def bound(self, partial: dict[int, int], new_var: int) -> float:
        ev = dict(self.q.evid_o)
        ev.update(partial)
        self.prop.set_evidence(ev)
        u = self.prop.query(self.q.tree.attach[new_var])
        if self.on_bound is not None:
            self.on_bound(dict(partial), u)
        return u

    def offer(self, assignment: dict[int, int], value: float) -> None:
        if value > self.best * (1.0 + PRUNE_TOL):
            self.best = value
            self.best_assign = dict(assignment)
        elif value >= self.best * (1.0 - PRUNE_TOL):
            if _assign_key(assignment, self.q.var_order) < \
               _assign_key(self.best_assign, self.q.var_order):
                self.best = value
                self.best_assign = dict(assignment)

    def cut(self, u: float, prefix: tuple[int, ...]) -> bool:
        """Whether no completion of ``prefix`` (the states of the first
        ``len(prefix)`` inputs along ``var_order``) can replace the
        incumbent: its bound is below the incumbent, or ties it at best
        while the prefix sorts after the incumbent's, so any tie loses
        to the incumbent under the tie rule."""
        if u < self.best * (1.0 - PRUNE_TOL):
            return True
        if u > self.best * (1.0 + PRUNE_TOL):
            return False
        order = self.q.var_order[:len(prefix)]
        return prefix > _assign_key(self.best_assign, order)

    def walk(self, partial: dict[int, int], depth: int) -> None:
        v = self.q.var_order[depth]
        kids = []
        for s in (0, 1):
            partial[v] = s
            kids.append((self.bound(partial, v), s))
            self.expanded += 1
        del partial[v]
        if kids[1][0] > kids[0][0] * (1.0 + PRUNE_TOL):
            kids.reverse()      # ties go to state 0 first
        head = _assign_key(partial, self.q.var_order[:depth])
        for u, s in kids:
            if self.prune and self.cut(u, head + (s,)):
                self.pruned += 1
                continue
            partial[v] = s
            if depth + 1 == len(self.q.var_order):
                self.offer(partial, u)  # complete: the bound is exact
            else:
                self.walk(partial, depth + 1)
            del partial[v]


def seed(q: MapQuery, prop: Propagator | None = None) -> tuple[dict[int, int], float]:
    """The all-zero assignment and its exact probability (a lower bound
    on the optimum), collected at the root the walk uses for complete
    nodes so the value is bit-identical to the walk's.

    ``prop`` lets the caller share its max-mode propagator, so the
    messages cached here serve the search that follows."""
    zero = {v: 0 for v in q.var_order}
    s = _Search(q, prune=False, on_bound=None, prop=prop)
    return zero, s.bound(zero, q.var_order[-1])


def solve(q: MapQuery, use_seed: bool = True, prune: bool = True,
          on_bound: Callable[[dict, float], None] | None = None,
          prop: Propagator | None = None) -> MapResult:
    """Exact worst-vector search.

    ``on_bound`` (assignment, bound) fires for every bound computed at a
    search node, for auditing: every node but the root, which is never
    cut and so gets no bound; the seed's bound does not fire it.  With
    ``prune`` off the search visits the full binary tree over the inputs
    not in ``q.evid_o``.  Ties (values within a relative ``PRUNE_TOL``)
    resolve to the lexicographically smallest assignment along
    ``q.var_order``, and ``p_map`` is that assignment's value.

    ``prop`` shares a max-mode propagator over ``q.tree``, ``q.net`` and
    the net's inputs between queries (``ValueError`` otherwise); the
    answer does not change, since a cached message depends only on the
    evidence on its sending side.
    """
    if not q.var_order:
        raise ValueError("no input variables to search over")
    s = _Search(q, prune, on_bound, prop)
    seed_value = None
    if use_seed:
        assign, seed_value = seed(q, s.prop)
        s.best = seed_value
        s.best_assign = assign
    s.expanded += 1     # the root
    s.walk({}, 0)
    assert s.best_assign is not None
    return MapResult(s.best_assign, max(s.best, 0.0), s.expanded, s.pruned, seed_value)

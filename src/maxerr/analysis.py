"""Circuit-level reliability quantities.

Builds on the search and the propagator: the worst-case output error of
a circuit is, per output, the conditional error probability at the most
error-prone input vector; sweeping the gate error probability locates
the point where that worst case stops being useful (crosses 0.5); the
spectrum enumerates every input vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, index_vector, vector_string
# perfbench/tracing.py wraps the imported layer functions by name in this module.
from .jointree import BinaryJoinTree, build_tree, choose_order
from .mapsearch import PRUNE_TOL, MapQuery, MapResult, solve
from .model import ErrorModelNet, build_error_model
from .propagate import Propagator
from .valuation import DEFAULT_WIDTH_LIMIT


@dataclass
class OutputReport:
    output: str
    vector: str | None      # worst input vector, None when unreachable
    p_error: float          # P(output wrong | worst vector)
    unreachable: bool = False
    nodes_expanded: int = 0
    nodes_pruned: int = 0


@dataclass
class ErrorReport:
    per_output: list[OutputReport]
    max_error: float
    worst_vector: str | None
    worst_output: str | None
    input_order: tuple[str, ...]


@dataclass
class SweepPoint:
    epsilon: float
    max_error: float
    avg_error: float
    worst_vector: str | None
    worst_output: str | None


@dataclass
class SweepCurve:
    points: list[SweepPoint]
    error_bound: float | None = None     # first grid eps with max_error >= 0.5
    refined_bound: float | None = None   # bisected to +-1e-4 when requested


@dataclass
class Spectrum:
    input_order: tuple[str, ...]
    per_output: np.ndarray   # (2**k, n) conditional error probabilities
    max_probs: np.ndarray    # (2**k,) max over outputs
    mu: float
    sigma: float

    def above(self, threshold: float | None = None) -> list[tuple[str, float]]:
        """Vectors whose worst-output error reaches the threshold
        (default mu + sigma).  Values within a relative ``PRUNE_TOL``
        below it tie and count, so a flat spectrum returns every vector."""
        t = self.mu + self.sigma if threshold is None else threshold
        k = len(self.input_order)
        return [(vector_string(index_vector(i, k)), float(p))
                for i, p in enumerate(self.max_probs) if p >= t * (1.0 - PRUNE_TOL)]


def prepare(c: Circuit, eps, width_limit: int = DEFAULT_WIDTH_LIMIT):
    """Model plus join tree for a circuit; the usual entry point."""
    net = build_error_model(c, eps)
    tree = build_tree(net, choose_order(net), width_limit)
    return net, tree


def cond_error(prop: Propagator, comp_var: int) -> float:
    """P(comparator = 1 | the evidence set on ``prop``), via
    P(comparator, evidence) normalized."""
    t = prop.var_belief(comp_var).table
    return float(t[1]) / float(t[0] + t[1])


def _cone_inputs(net: ErrorModelNet, roots) -> frozenset[int]:
    """Primary inputs among the ancestors of ``roots``: their fan-in cone."""
    parents = {cpt.child.id: cpt.parents for cpt in net.cpts}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(p.id for p in parents[v])
    return frozenset(seen.intersection(net.input_vars))


def max_error(net: ErrorModelNet, tree: BinaryJoinTree,
              prune: bool = True, joint: bool = False) -> ErrorReport:
    """Worst-case output error report.

    Per output: search for the input vector maximizing P(inputs, output
    wrong), then condition that output's comparator on that vector; the
    report maximum is over the outputs.  With ``joint`` the search instead
    evidences every comparator at once (all outputs wrong together).
    An output no fault combination can flip is marked unreachable.

    The search branches only on the inputs in the query's fan-in cone
    (the union of the cones in joint mode); the others cannot change
    the error, are held at 0 and are reported as 0.  ``nodes_expanded``
    and ``nodes_pruned`` count nodes over the cone inputs.  All searches
    share one max-mode propagator and its cached messages.
    """
    cond_prop = Propagator(tree, net)
    map_prop = Propagator(tree, net, map_vars=net.input_vars)
    rows: list[OutputReport] = []
    names = list(net.circuit.outputs)
    if joint:
        queries = [("*", {v: 1 for v in net.comparators})]
    else:
        queries = [(names[j], {net.comparators[j]: 1}) for j in range(len(names))]

    for name, evid in queries:
        cone = _cone_inputs(net, evid)
        fixed = {v: 0 for v in net.input_vars if v not in cone}
        res: MapResult = solve(MapQuery(net, tree, {**evid, **fixed}), prune=prune,
                               prop=map_prop)
        if res.p_map <= 0.0:
            rows.append(OutputReport(name, None, 0.0, True,
                                     res.nodes_expanded, res.nodes_pruned))
            continue
        assign = {**fixed, **res.assignment}
        bits = [assign[v] for v in net.input_vars]
        cond_prop.set_evidence(assign)
        if joint:
            p_inputs = cond_prop.query(tree.attach[net.input_vars[0]])
            p = res.p_map / p_inputs
        else:
            p = cond_error(cond_prop, next(iter(evid)))
        rows.append(OutputReport(name, vector_string(bits), p, False,
                                 res.nodes_expanded, res.nodes_pruned))

    reachable = [r for r in rows if not r.unreachable]
    if reachable:
        top = max(reachable, key=lambda r: r.p_error)
        rep = ErrorReport(rows, top.p_error, top.vector, top.output,
                          net.circuit.inputs)
    else:
        rep = ErrorReport(rows, 0.0, None, None, net.circuit.inputs)
    return rep


def avg_error(net: ErrorModelNet, tree: BinaryJoinTree) -> float:
    """Max over outputs of P(output wrong) with no input evidence, i.e.
    the error rate averaged over uniformly weighted input vectors."""
    prop = Propagator(tree, net)
    return max(cond_error(prop, comp) for comp in net.comparators)


def sweep(c: Circuit, grid, refine: bool = False,
          width_limit: int = DEFAULT_WIDTH_LIMIT) -> SweepCurve:
    """Max/avg error across a gate error probability grid.

    The join tree depends only on the structure, so it is built once
    and rebound per grid point.  ``refine`` bisects the first 0.5
    crossing of max_error down to +-1e-4 in eps.  The grid must be
    strictly increasing (``ValueError`` otherwise), so the first
    crossing is the lowest eps on it and brackets the bisection.
    """
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("empty eps grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    net, tree = prepare(c, grid[0], width_limit)

    points: list[SweepPoint] = []
    for i, eps in enumerate(grid):
        if i:
            net = build_error_model(c, eps)
        rep = max_error(net, tree)
        points.append(SweepPoint(eps, rep.max_error, avg_error(net, tree),
                                 rep.worst_vector, rep.worst_output))

    curve = SweepCurve(points)
    crossing = next((i for i, p in enumerate(points) if p.max_error >= 0.5), None)
    if crossing is not None:
        curve.error_bound = points[crossing].epsilon
        if refine:
            lo = points[crossing - 1].epsilon if crossing else 0.0
            hi = points[crossing].epsilon
            while hi - lo > 2e-4:
                mid = 0.5 * (lo + hi)
                if max_error(build_error_model(c, mid), tree).max_error >= 0.5:
                    hi = mid
                else:
                    lo = mid
            curve.refined_bound = 0.5 * (lo + hi)
    return curve


MAX_SPECTRUM_INPUTS = 20


def spectrum(c: Circuit, eps, width_limit: int = DEFAULT_WIDTH_LIMIT) -> Spectrum:
    """Exact per-vector worst-output error over all 2**k input vectors.

    Enumerates vectors in Gray order so each step moves one evidence
    bit and most messages stay cached.  Capped at 20 inputs.
    """
    if c.n_inputs > MAX_SPECTRUM_INPUTS:
        raise ValueError("spectrum enumeration capped at %d inputs, circuit has %d"
                         % (MAX_SPECTRUM_INPUTS, c.n_inputs))
    net, tree = prepare(c, eps, width_limit)
    prop = Propagator(tree, net)
    k = c.n_inputs
    table = np.zeros((1 << k, len(net.comparators)))
    for step in range(1 << k):
        idx = step ^ (step >> 1)
        bits = index_vector(idx, k)
        prop.set_evidence({v: bits[j] for j, v in enumerate(net.input_vars)})
        for j, comp in enumerate(net.comparators):
            table[idx, j] = cond_error(prop, comp)
    maxes = table.max(axis=1)
    return Spectrum(c.inputs, table, maxes, float(maxes.mean()), float(maxes.std()))

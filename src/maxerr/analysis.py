"""Circuit-level reliability quantities.

Builds on the search and the propagator: the worst-case output error of
a circuit is, per output, the conditional error probability at the most
error-prone input vector; sweeping the gate error probability locates
the point where that worst case stops being useful (crosses 0.5); the
spectrum enumerates every input vector.

A sweep builds one network over its whole eps grid, a leading batch axis
on every table (``ErrorModelNet.batch``), and runs ``max_errors`` and
``avg_error`` on it once: one search walk and one read per comparator
serve every grid value.  The grid is split into chunks where B x 2^width
would pass 2^17 cells (``_chunk_size``).  Each member's answer is the
one ``max_error`` gives on the network of its eps alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, index_vector, vector_string
# perfbench/tracing.py wraps the imported layer functions by name in this
# module, ``solve`` among them, though the reports here call ``search``.
from .jointree import BinaryJoinTree, build_tree, choose_order
from .mapsearch import PRUNE_TOL, MapQuery, search, solve
from .model import ErrorModelNet, build_error_model
from .propagate import Propagator, per_member
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


def cond_error(prop: Propagator, comp_var: int):
    """P(comparator = 1 | the evidence set on ``prop``), via
    P(comparator, evidence) normalized: a float, or an array over the
    members of an eps grid."""
    t = prop.var_belief(comp_var).table.T    # the comparator's states first
    return t[1] / (t[0] + t[1])


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


def max_errors(net: ErrorModelNet, tree: BinaryJoinTree,
               prune: bool = True, joint: bool = False) -> list[ErrorReport]:
    """Worst-case output error reports, one per member of ``net`` (see
    ``max_error``); every member is searched and read in the same
    batched passes."""
    cond_prop = Propagator(tree, net)
    map_prop = Propagator(tree, net, map_vars=net.input_vars)
    rows: list[list[OutputReport]] = [[] for _ in range(math.prod(net.batch))]
    names = list(net.circuit.outputs)
    if joint:
        queries = [("*", {v: 1 for v in net.comparators})]
    else:
        queries = [(names[j], {net.comparators[j]: 1}) for j in range(len(names))]

    for name, evid in queries:
        cone = _cone_inputs(net, evid)
        fixed = {v: 0 for v in net.input_vars if v not in cone}
        results = search(MapQuery(net, tree, {**evid, **fixed}), prune=prune, prop=map_prop)
        by_vector: dict[tuple, list[int]] = {}   # members per worst vector
        for m, res in enumerate(results):
            if res.p_map <= 0.0:
                rows[m].append(OutputReport(name, None, 0.0, True,
                                            res.nodes_expanded, res.nodes_pruned))
            else:
                by_vector.setdefault(tuple(res.assignment.values()), []).append(m)
        for ms in by_vector.values():   # one evidence setting and read per vector
            assign = {**fixed, **results[ms[0]].assignment}
            cond_prop.set_evidence(assign)
            if joint:
                p_inputs = per_member(cond_prop.query(tree.attach[net.input_vars[0]]))
                p = [res.p_map / pi for res, pi in zip(results, p_inputs)]
            else:
                p = per_member(cond_error(cond_prop, next(iter(evid))).tolist())
            vector = vector_string([assign[v] for v in net.input_vars])
            for m in ms:
                rows[m].append(OutputReport(name, vector, p[m], False,
                                            results[m].nodes_expanded, results[m].nodes_pruned))
    return [_report(net, r) for r in rows]


def _report(net: ErrorModelNet, rows: list[OutputReport]) -> ErrorReport:
    reachable = [r for r in rows if not r.unreachable]
    if not reachable:
        return ErrorReport(rows, 0.0, None, None, net.circuit.inputs)
    most = max(r.p_error for r in reachable)
    top = next(r for r in reachable if r.p_error >= most * (1.0 - PRUNE_TOL))
    return ErrorReport(rows, top.p_error, top.vector, top.output, net.circuit.inputs)


def max_error(net: ErrorModelNet, tree: BinaryJoinTree,
              prune: bool = True, joint: bool = False) -> ErrorReport:
    """Worst-case output error report of a network at one eps.

    Per output: search for the input vector maximizing P(inputs, output
    wrong), then condition that output's comparator on that vector.  The
    report's worst output is the first whose error ties the largest
    (within a relative ``PRUNE_TOL``, as in the search), so float noise
    among tied outputs cannot change it.  With ``joint`` the search instead
    evidences every comparator at once (all outputs wrong together).
    An output no fault combination can flip is marked unreachable.

    The search branches only on the inputs in the query's fan-in cone
    (the union of the cones in joint mode); the others cannot change
    the error, are held at 0 and are reported as 0.  ``nodes_expanded``
    and ``nodes_pruned`` count nodes over the cone inputs.  All searches
    share one max-mode propagator and its cached messages.
    """
    if net.batch:
        raise ValueError("max_error takes a network at one eps; max_errors takes an eps grid")
    return max_errors(net, tree, prune, joint)[0]


def avg_error(net: ErrorModelNet, tree: BinaryJoinTree):
    """Max over outputs of P(output wrong) with no input evidence, i.e.
    the error rate averaged over uniformly weighted input vectors: a
    float, or an array over the members of an eps grid, from one read
    per comparator."""
    prop = Propagator(tree, net)
    return np.maximum.reduce([cond_error(prop, comp) for comp in net.comparators])


# Cells per batched table past which a larger batch stops paying: the
# members' walks diverge, and every bound reads every member.  Sweeps
# of rca4-rca6 ran fastest near this size.
BATCH_CELLS_LOG2 = 17


def _chunk_size(tree: BinaryJoinTree, width_limit: int) -> int:
    """Grid values per batched pass: B x 2^width cells stay within
    2^BATCH_CELLS_LOG2 and within the 2^width_limit that the width
    limit allows one cluster, but B is at least 1."""
    return 1 << max(0, min(BATCH_CELLS_LOG2, width_limit) - tree.width)


def sweep(c: Circuit, grid, refine: bool = False,
          width_limit: int = DEFAULT_WIDTH_LIMIT) -> SweepCurve:
    """Max/avg error across a gate error probability grid.

    The whole grid is one network with a leading eps axis
    (``build_error_model`` over the grid), searched and read in batched
    passes on one join tree, in chunks of ``_chunk_size`` values.
    ``refine`` bisects the first 0.5 crossing of max_error down to
    +-1e-4 in eps on the same tree (``_bisect``).  The grid must
    be non-empty, strictly increasing and inside [0, 0.5]; every value
    is checked before anything is built (``ValueError`` otherwise), so
    the first crossing is the lowest eps on it and brackets the
    bisection.
    """
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("empty eps grid")
    bad = [e for e in grid if not 0.0 <= e <= 0.5]    # NaN fails both sides
    if bad:
        raise ValueError("eps grid value %r outside [0, 0.5]" % bad[0])
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    net, tree = prepare(c, grid, width_limit)
    size = _chunk_size(tree, width_limit)

    points: list[SweepPoint] = []
    for lo in range(0, len(grid), size):
        part = grid[lo:lo + size]
        part_net = net if len(part) == len(grid) else build_error_model(c, part)
        reports = max_errors(part_net, tree)
        avg = avg_error(part_net, tree).tolist()
        points += [SweepPoint(eps, rep.max_error, a, rep.worst_vector, rep.worst_output)
                   for eps, rep, a in zip(part, reports, avg)]

    curve = SweepCurve(points)
    crossing = next((i for i, p in enumerate(points) if p.max_error >= 0.5), None)
    if crossing is not None:
        curve.error_bound = points[crossing].epsilon
        if refine:
            lo = points[crossing - 1].epsilon if crossing else 0.0
            curve.refined_bound = _bisect(c, tree, lo, points[crossing].epsilon, size)
    return curve


REFINE_LEVELS = 5   # bisection steps batched into one pass (31 points)


def _bisect(c: Circuit, tree: BinaryJoinTree, lo: float, hi: float, size: int) -> float:
    """Bisect [lo, hi] down to +-1e-4 around the first eps whose
    max_error reaches 0.5.  The midpoints the next ``REFINE_LEVELS``
    steps could visit (at most ``size`` of them) are computed as the
    steps compute them and run in one batched pass; the steps then read
    their answers from it."""
    levels = min(REFINE_LEVELS, (size + 1).bit_length() - 1)
    while hi - lo > 2e-4:
        mids, stack = [], [(lo, hi, levels)]
        while stack:
            a, b, depth = stack.pop()
            if depth and b - a > 2e-4:
                mid = 0.5 * (a + b)
                mids.append(mid)
                stack += [(a, mid, depth - 1), (mid, b, depth - 1)]
        crossed = {mid: rep.max_error >= 0.5
                   for mid, rep in zip(mids, max_errors(build_error_model(c, mids), tree))}
        for _ in range(levels):
            if hi - lo <= 2e-4:
                break
            mid = 0.5 * (lo + hi)
            if crossed[mid]:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi)


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

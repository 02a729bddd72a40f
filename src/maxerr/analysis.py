"""Circuit-level reliability quantities.

Per output: the worst-case error, the conditional error probability at
the most error-prone input vector, the argmax of one read of the
output's fan-in cone (``max_error``, ``mapsearch``); the error at
every vector, read from the output's cone in the error-prone copy alone
(``spectrum``, on ``prepare_faulty``'s model); and across an eps grid,
the first eps where the worst case reaches 0.5 (``sweep``), run as
batched passes over the whole grid.  Every cone read is
``mapsearch.cone_tables``: a report's queries ride one evidence setting
as members of its evidence axis (``propagate``), as many per pass as
the batch cap allows (``_evidence_members``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, index_vector, vector_string
# perfbench/tracing.py wraps the imported layer functions by name in this
# module, ``solve`` among them, though the reports here read their cone
# tables with ``cone_tables`` and take each argmax with ``_Search``;
# so ``solve`` stays imported here, as do ``mapsearch.seed`` and
# ``propagate``'s ``combine``, ``reduce_mixed`` and ``reduce_all`` in
# their modules.
from .jointree import BinaryJoinTree, build_tree, choose_order
from .mapsearch import PRUNE_TOL, MapQuery, _Search, cone_tables, solve, var_order_heuristic
from .model import ErrorModelNet, build_error_model, build_faulty_model
from .propagate import Propagator
from .valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError


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
    mu: float
    sigma: float

    @property
    def max_probs(self) -> np.ndarray:   # (2**k,) max over outputs
        return self.per_output.max(axis=1)

    def above(self, threshold: float | None = None) -> list[tuple[str, float]]:
        """Vectors whose worst-output error reaches the threshold
        (default mu + sigma).  Values within a relative ``PRUNE_TOL``
        below it tie and count, so a flat spectrum returns every vector."""
        t = self.mu + self.sigma if threshold is None else threshold
        k = len(self.input_order)
        return [(vector_string(index_vector(i, k)), float(p))
                for i, p in enumerate(self.max_probs) if p >= t * (1.0 - PRUNE_TOL)]


def prepare(c: Circuit, eps, width_limit: int = DEFAULT_WIDTH_LIMIT):
    """Model plus join tree for a circuit; the usual entry point.

    Every CPT lies inside one cluster, so a gate whose CPT (the gate and
    its fan-in) spans more than ``width_limit`` variables raises
    ``WidthLimitError`` here, before any table is built."""
    return _prepared(build_error_model, c, eps, width_limit)


def prepare_faulty(c: Circuit, eps, width_limit: int = DEFAULT_WIDTH_LIMIT):
    """``prepare`` of the inputs and the error-prone copy alone
    (``model.build_faulty_model``): the model and tree ``spectrum`` reads."""
    return _prepared(build_faulty_model, c, eps, width_limit)


def _prepared(build, c: Circuit, eps, width_limit: int):
    widest = 1 + max((len(g.fanin) for g in c.gates), default=0)
    if widest > width_limit:
        raise WidthLimitError(widest, width_limit, "widest gate CPT")
    net = build(c, eps)
    return net, build_tree(net, choose_order(net), width_limit)


def max_errors(net: ErrorModelNet, tree: BinaryJoinTree, prune: bool = True,
               joint: bool = False) -> list[ErrorReport]:
    """Worst-case output error reports, one per eps member of ``net``
    (see ``max_error``); every eps member is served by the same reads and
    argmax.  The report's queries, one per output (or the one joint
    query), are members of one evidence setting, at most
    ``_evidence_members`` per pass, and each output's cone table is a
    member's slice of one read at its holding cluster; a joint query no
    cluster holds takes its groups' product (``mapsearch.cone_tables``).
    The queries share one fresh propagator."""
    return _max_errors(Propagator(tree, net), prune, joint)


def _max_errors(prop: Propagator, prune: bool = True, joint: bool = False) -> list[ErrorReport]:
    """``max_errors`` of ``prop``'s network and tree, read on ``prop``."""
    net, tree = prop.net, prop.tree
    order = var_order_heuristic(net)
    rows: list[list[OutputReport]] = [[] for _ in range(math.prod(net.batch))]
    names = list(net.circuit.outputs)
    if joint:
        queries = [("*", {v: 1 for v in net.comparators})]
    else:
        queries = [(names[j], {net.comparators[j]: 1}) for j in range(len(names))]
    reads = cone_tables(prop, [evid for _, evid in queries], _evidence_members(net, tree))

    for (name, evid), read in zip(queries, reads):
        cone = read[1]
        fixed = {v: 0 for v in net.input_vars if v not in cone}
        q = MapQuery(net, tree, {**evid, **fixed}, tuple(v for v in order if v in cone))
        for m, res in enumerate(_Search(q, read).results(prune)):
            reached = res.p_cone > 0.0
            vector = [res.assignment.get(v, 0) for v in net.input_vars]
            rows[m].append(OutputReport(
                name, vector_string(vector) if reached else None,
                math.ldexp(res.p_cone, len(cone)), not reached,
                res.nodes_expanded, res.nodes_pruned))
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

    Per output: the input vector maximizing P(inputs, output wrong); the
    error is P(output wrong | that vector), as inputs are uniform
    (``model``).  The report's worst output is the first whose error
    ties the largest (within a relative ``PRUNE_TOL``, as in the
    argmax), so float noise among tied outputs cannot change it.  With
    ``joint`` the query instead evidences every comparator at once (all
    outputs wrong together).  An output no fault combination can flip is
    marked unreachable.

    Only the inputs in the query's fan-in cone (the union of the cones
    in joint mode) are chosen; the others cannot change the error, are
    reported as 0.  ``nodes_expanded`` and ``nodes_pruned`` are those of
    a search tree over the d cone inputs: 1 + 2d and d, or with
    ``prune`` off 2^(d+1) - 1 and 0.  Each query is the argmax of its
    cone table P(cone inputs, wrong), with the other inputs held at 0
    (``mapsearch``); the tables are read on one propagator,
    every query a member of one evidence setting where the batch cap
    allows (``mapsearch.cone_tables``).  The error is 2^|cone| times the argmax's
    cell: 2^k P(vector, wrong) without the 2^-k prior, which underflows
    on many inputs.
    """
    if net.batch:
        raise ValueError("max_error takes a network at one eps; max_errors takes an eps grid")
    return max_errors(net, tree, prune, joint)[0]


def avg_error(net: ErrorModelNet, tree: BinaryJoinTree):
    """Max over outputs of P(output wrong) with no input evidence, i.e.
    the error rate averaged over uniformly weighted input vectors: a
    float, or an array over the members of an eps grid, from one read
    per comparator on a fresh propagator."""
    return _avg_error(Propagator(tree, net))


def _avg_error(prop: Propagator):
    """``avg_error`` read on ``prop``, whose evidence is still empty."""
    beliefs = [prop.var_belief(comp).table for comp in prop.net.comparators]   # states first
    return np.maximum.reduce([t[1] / (t[0] + t[1]) for t in beliefs])


# Cells per batched table past which a larger batch stops paying.  Refined
# sweeps of rca4-rca6, with the members on the innermost axis, ran
# fastest near this size (BENCH_member_axis_last.json).
BATCH_CELLS_LOG2 = 19


def _chunk_size(tree: BinaryJoinTree) -> int:
    """Members per batched pass, grid values times evidence members:
    B x E x 2^width cells stay within 2^BATCH_CELLS_LOG2 and within
    2^tree.width_limit.  A sweep's chunks take B up to it, and each pass
    the evidence members left (``_evidence_members``); both are at least 1."""
    return 1 << max(0, min(BATCH_CELLS_LOG2, tree.width_limit) - tree.width)


def _evidence_members(net: ErrorModelNet, tree: BinaryJoinTree) -> int:
    """Evidence members per pass on ``net``'s B grid values: the share
    of ``_chunk_size`` they leave, at least 1."""
    return max(1, _chunk_size(tree) // math.prod(net.batch))


def sweep(c: Circuit, grid, refine: bool = False,
          width_limit: int = DEFAULT_WIDTH_LIMIT) -> SweepCurve:
    """Max/avg error across a gate error probability grid.

    One model and join tree are built, at the grid's first value
    (``prepare``).  Each chunk of ``_chunk_size`` values runs on ``net.at``
    the chunk, whose eps-dependent tables end in an eps axis
    (``propagate``), on one propagator: the average is read first, with
    no evidence set, then the batched argmax pass sets its evidence and
    reuses the messages no evidence reaches.
    ``refine`` bisects the first 0.5 crossing of max_error down to
    +-1e-4 in eps on the same model and tree (``_bisect``).  The grid must
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
    net, tree = prepare(c, grid[0], width_limit)
    size = _chunk_size(tree)

    points: list[SweepPoint] = []
    for lo in range(0, len(grid), size):
        part = grid[lo:lo + size]
        prop = Propagator(tree, net.at(part))
        avg = _avg_error(prop).tolist()
        reports = _max_errors(prop)
        points += [SweepPoint(eps, rep.max_error, a, rep.worst_vector, rep.worst_output)
                   for eps, rep, a in zip(part, reports, avg)]

    curve = SweepCurve(points)
    crossing = next((i for i, p in enumerate(points) if p.max_error >= 0.5), None)
    if crossing is not None:
        curve.error_bound = points[crossing].epsilon
        if refine:
            lo = points[crossing - 1].epsilon if crossing else 0.0
            curve.refined_bound = _bisect(net, tree, lo, points[crossing].epsilon)
    return curve


REFINE_LEVELS = 5   # bisection steps batched into one pass (31 points)


def _bisect(net: ErrorModelNet, tree: BinaryJoinTree, lo: float, hi: float) -> float:
    """Bisect [lo, hi] down to +-1e-4 around the first eps whose
    max_error reaches 0.5.  The midpoints the next ``REFINE_LEVELS``
    steps could visit (at most ``_chunk_size`` of them) are computed as
    the steps compute them and run in one batched pass, on ``net.at``
    those midpoints; the steps then read their answers from it."""
    levels = min(REFINE_LEVELS, (_chunk_size(tree) + 1).bit_length() - 1)
    while hi - lo > 2e-4:
        mids, stack = [], [(lo, hi, levels)]
        while stack:
            a, b, depth = stack.pop()
            if depth and b - a > 2e-4:
                mid = 0.5 * (a + b)
                mids.append(mid)
                stack += [(a, mid, depth - 1), (mid, b, depth - 1)]
        crossed = {mid: rep.max_error >= 0.5
                   for mid, rep in zip(mids, max_errors(net.at(mids), tree))}
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
    """Exact per-vector error of every output over all 2**k input vectors.

    Given the inputs, the error-free copy is the constant f(x), so the
    model is the inputs and the error-prone copy alone
    (``prepare_faulty``).  Per output, two cone tables, with its faulty
    value at 1 and at 0, give P(cone, faulty = not f(x)) / P(cone),
    broadcast over the other inputs, with f from a simulation of the
    cone's vectors; ``ValueError`` if no cluster holds the cone.  All 2n tables
    are members of one evidence setting, read once per output's holding
    cluster (``mapsearch.cone_tables``), or split into passes of
    ``_evidence_members``: one per table when the tree is as wide as its
    ``width_limit``.
    Capped at 20 inputs, as the result has 2**k rows.  One eps or eps
    map; a grid is rejected.
    """
    if np.ndim(eps):
        raise ValueError("spectrum takes one eps or an eps map, not an eps grid")
    if c.n_inputs > MAX_SPECTRUM_INPUTS:
        raise ValueError("spectrum enumeration capped at %d inputs, circuit has %d"
                         % (MAX_SPECTRUM_INPUTS, c.n_inputs))
    net, tree = prepare_faulty(c, eps, width_limit)
    reads = cone_tables(Propagator(tree, net),
                        [{v: s} for v in net.faulty_outputs for s in (1, 0)],
                        _evidence_members(net, tree))
    table = np.empty((2,) * c.n_inputs + (c.n_outputs,))
    for j in range(c.n_outputs):
        (t1, cone), (t0, _) = reads[2 * j:2 * j + 2]
        # a read's axes follow its sorted scope, and input ids ascend
        axes = [2 if v in cone else 1 for v in net.input_vars]
        # f depends on the cone alone: simulate its vectors, the other
        # inputs at 0, the first cone input the most significant bit
        d = len(cone)
        rows = np.zeros((1 << d, c.n_inputs), dtype=bool)
        for m, v in enumerate(sorted(cone)):
            rows[:, v] = np.arange(1 << d) >> (d - 1 - m) & 1
        good = c.eval_batch(rows)[:, j].reshape(axes)
        t1, t0 = t1.reshape(axes), t0.reshape(axes)
        # t0 + t1, not 2^-|cone|: two reads that round alike give the nearer ratio
        table[..., j] = np.where(good, t0, t1) / (t0 + t1)
    table = table.reshape(1 << c.n_inputs, -1)
    maxes = table.max(axis=1)
    mu = math.fsum(maxes) / len(maxes)
    return Spectrum(c.inputs, table, mu, math.sqrt(math.fsum((maxes - mu) ** 2) / len(maxes)))

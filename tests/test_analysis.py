"""Report-level checks; the numeric anchors were derived once from the
fault-set enumeration oracle and are pinned here as literals."""

import gc
import math
import weakref
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import CHAINS, DISCONNECTED, GATE_FREE, WIDE_AND, and_chains, perfbench_circuits
from maxerr import analysis, mapsearch
from maxerr.analysis import (MAX_SPECTRUM_INPUTS, avg_error, max_error, max_errors, prepare,
                             prepare_faulty, spectrum, sweep)
from maxerr.circuit import (Circuit, all_input_vectors, index_vector, parse_bench,
                            vector_index)
from maxerr.model import build_faulty_model
from maxerr.oracle import FaultEnumerator, random_circuit
from maxerr.propagate import Propagator
from maxerr.valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError

GRID = [round(0.005 * i, 3) for i in range(1, 41)]  # 0.005 .. 0.2


def test_worst_case_report_frozen(c17):
    net, tree = prepare(c17, 0.05)
    rep = max_error(net, tree)
    assert rep.max_error == pytest.approx(0.3160, abs=1e-12)
    assert rep.worst_vector == "01111"
    assert rep.worst_output == "23"
    assert rep.input_order == c17.inputs
    by_name = {r.output: r for r in rep.per_output}
    assert by_name["22"].vector == "01110"
    assert by_name["22"].p_error == pytest.approx(0.3096, abs=1e-12)
    assert by_name["23"].p_error == pytest.approx(0.3160, abs=1e-12)
    assert not any(r.unreachable for r in rep.per_output)


def test_average_error_frozen(c17):
    net, tree = prepare(c17, 0.05)
    assert avg_error(net, tree) == pytest.approx(0.2398, abs=1e-12)


def test_per_output_matches_oracle_across_eps(c17):
    enum = FaultEnumerator(c17)
    for eps in (0.01, 0.2):
        net, tree = prepare(c17, eps)
        rep = max_error(net, tree)
        cond = enum.cond_errors(eps)
        for j, row in enumerate(rep.per_output):
            assert row.p_error == pytest.approx(cond[:, j].max(), abs=1e-12)
        assert avg_error(net, tree) == pytest.approx(cond.mean(axis=0).max(), abs=1e-12)


def test_search_counters_surface_in_report(c17, corpus):
    # a descent over the output's cone: 1 + 2d nodes expanded and d
    # pruned, d the cone's input count (4 of c17's 5 for each output)
    for c in [c17] + corpus[:20]:
        net, tree = prepare(c, 0.05)
        rep = max_error(net, tree)
        for row, comp in zip(rep.per_output, net.comparators):
            d = len(mapsearch._cone_inputs(tree, net, [comp]))
            assert (row.nodes_expanded, row.nodes_pruned) == (1 + 2 * d, d)
        if c is c17:
            assert [row.nodes_pruned for row in rep.per_output] == [4, 4]


def _queries(net, joint):
    """Each report row's comparator variables, in row order."""
    return [net.comparators] if joint else [[comp] for comp in net.comparators]


def _answer_rule_cases(c17, corpus):
    pb = perfbench_circuits()
    for n in (3, 4):
        c = pb.ripple_carry_adder(n)
        for seed in (0, 1, 2):
            yield c, pb.seeded_eps(c, seed)
    for c in [c17] + corpus[:40]:
        for eps in (0.01, 0.05, 0.2):
            yield c, eps


def test_cone_table_descent_matches_search(c17, corpus):
    # max_error holds the inputs outside a query's cone at 0 and walks the
    # cone inputs alone; a walk that branches on every input sees those
    # as tie levels whose children tie toward 0, so it takes the same
    # vector at the same value, over more nodes
    for c, eps in _answer_rule_cases(c17, corpus):
        net, tree = prepare(c, eps)
        k = len(net.input_vars)
        for joint in (False, True):
            rep = max_error(net, tree, joint=joint)
            for row, evid in zip(rep.per_output, _queries(net, joint)):
                d = len(mapsearch._cone_inputs(tree, net, evid))
                res = mapsearch.solve(mapsearch.MapQuery(net, tree, {v: 1 for v in evid}))
                reached = res.p_map > 0.0
                vector = "".join(str(res.assignment[v]) for v in net.input_vars)
                assert (row.vector, row.unreachable) == (vector if reached else None, not reached)
                assert row.p_error == math.ldexp(res.p_map, k)
                assert (row.nodes_expanded, row.nodes_pruned) == (1 + 2 * d, d)
                assert (res.nodes_expanded, res.nodes_pruned) == (1 + 2 * k, k)


def test_search_serves_unpruned_walks_and_cones_no_cluster_holds(corpus):
    # no cluster of corpus[4]'s tree holds the union of its output cones,
    # so its joint table is the product of its groups' reads: every leaf
    # of an unpruned walk over it is 2^-k times the enumerated error, and
    # the pruned walk ends at the unpruned walk's leaf
    eps = 0.05
    c = corpus[4]
    net, tree = prepare(c, eps)
    assert mapsearch._holder(tree, mapsearch._cone_inputs(tree, net, net.comparators)) is None
    assert len(mapsearch._cones(tree, net, net.comparators)) > 1
    k = len(net.input_vars)
    joint = _all_wrong(c, eps)
    q = mapsearch.MapQuery(net, tree, {v: 1 for v in net.comparators})
    leaves = {}

    def seen(partial, u):
        if len(partial) == k:
            leaves[vector_index([partial[v] for v in net.input_vars])] = u

    full = mapsearch.solve(q, prune=False, on_bound=seen)
    assert sorted(leaves) == list(range(2 ** k))
    for i, u in leaves.items():
        assert u == pytest.approx(0.5 ** k * joint[i], rel=1e-12, abs=0.0)
    cut = mapsearch.solve(q)
    assert (cut.assignment, cut.p_map) == (full.assignment, full.p_map)
    assert (full.nodes_expanded, full.nodes_pruned) == (2 ** (k + 1) - 1, 0)
    assert (cut.nodes_expanded, cut.nodes_pruned) == (1 + 2 * k, k)


def test_max_error_builds_one_propagator(c17, corpus, monkeypatch):
    # every query is one walk on one shared propagator, its reads members
    # of evidence settings, at most _chunk_size of them a pass: one pass
    # here at the default limit and one per read at the tree's own width.
    # A query whose cone a cluster holds is one read; the others
    # (corpus[4]'s joint query here) two per group
    # of outputs whose cones share no gate
    calls = {"init": 0, "evidence": 0}
    init, set_evidence = Propagator.__init__, Propagator.set_evidence

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_evidence(self, evidence):
        calls["evidence"] += 1
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "__init__", counted_init)
    monkeypatch.setattr(Propagator, "set_evidence", counted_evidence)
    split = 0
    for circuit in [c17] + corpus[:8]:
        net, wide = prepare(circuit, 0.05)
        for tree in (wide, prepare(circuit, 0.05, width_limit=wide.width)[1]):
            per_pass = mapsearch._chunk_size(tree)
            assert per_pass == (1 if tree.width_limit == tree.width else
                                1 << mapsearch.BATCH_CELLS_LOG2 - tree.width)
            for joint in (False, True):
                calls.update(init=0, evidence=0)
                max_error(net, tree, joint=joint)
                reads = 0
                for evid in _queries(net, joint):
                    if mapsearch._holder(tree, mapsearch._cone_inputs(tree, net, evid)) is None:
                        reads += 2 * len(mapsearch._cones(tree, net, evid))
                        split += 1
                    else:
                        reads += 1
                assert calls == {"init": 1, "evidence": -(-reads // per_pass)}
    assert split == 2


def test_spectrum_sets_evidence_twice_per_output(c17, monkeypatch):
    # spectrum evidences each faulty output at 1 and at 0 and reads its
    # cone, all four as members of one evidence setting, or, with the
    # width limit at the faulty tree's width, one member and one setting
    # each; avg_error reads every comparator with no evidence at all
    calls = []
    set_evidence = Propagator.set_evidence

    def counted(self, evidence):
        calls.append(evidence)
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "set_evidence", counted)
    want = spectrum(c17, 0.05)
    outs = build_faulty_model(c17, 0.05).faulty_outputs
    assert calls == [[{o: s} for o in outs for s in (1, 0)]]
    width = prepare_faulty(c17, 0.05)[1].width
    calls.clear()
    got = spectrum(c17, 0.05, width_limit=width)
    assert calls == [[{o: s}] for o in outs for s in (1, 0)]
    assert len(calls) == 2 * len(c17.outputs) == 4
    assert np.array_equal(got.per_output, want.per_output)
    calls.clear()
    avg_error(*prepare(c17, 0.05))
    assert calls == []


def _holderless(corpus, eps=0.05):
    """Model and tree of each circuit whose joint query's union cone no
    cluster holds: 46 corpus circuits, CHAINS and and_chains(3, 2)."""
    cases = []
    for c in corpus + [parse_bench(CHAINS), parse_bench(and_chains(3, 2))]:
        net, tree = prepare(c, eps)
        if mapsearch._holder(tree, mapsearch._cone_inputs(tree, net, net.comparators)) is None:
            cases.append((net, tree))
    assert len(cases) == 48
    return cases


def test_no_report_clears_evidence(c17, corpus, monkeypatch):
    # a report reads with no evidence only before its first evidence
    # setting, so none passes a propagator an evidence-free setting: a
    # holder-less joint query's free reads share their passes with its
    # evidenced ones.  A refined c17 sweep sets evidence once per argmax
    # pass, the grid's and the bisection's
    calls = []
    set_evidence = Propagator.set_evidence

    def recorded(self, evidence):
        calls.append(evidence)
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "set_evidence", recorded)
    for c in [c17, perfbench_circuits().ripple_carry_adder(4)] + corpus[:10]:
        for limit in (DEFAULT_WIDTH_LIMIT, prepare(c, 0.05)[1].width):
            max_error(*prepare(c, 0.05, limit))
        spectrum(c, 0.05)
        sweep(c, GRID, refine=True)
    for net, tree in _holderless(corpus):
        max_error(net, tree, joint=True)
    assert calls
    assert not [ev for ev in calls
                if all(not m for m in ([ev] if isinstance(ev, Mapping) else ev))]
    calls.clear()
    assert sweep(c17, GRID, refine=True).refined_bound is not None
    assert len(calls) == 2


def test_no_report_builds_a_map_query(c17, corpus, monkeypatch):
    # a report reads its cone tables with cone_tables and makes each row
    # from the argmax of the read itself: no report builds a query
    # object, so none pays for its per-input checks, nor a result object
    built = []
    post_init, result_init = mapsearch.MapQuery.__post_init__, mapsearch.MapResult.__init__

    def counted(self):
        built.append(self)
        post_init(self)

    def counted_result(self, *args, **kwargs):
        built.append(self)
        result_init(self, *args, **kwargs)

    monkeypatch.setattr(mapsearch.MapQuery, "__post_init__", counted)
    monkeypatch.setattr(mapsearch.MapResult, "__init__", counted_result)
    for c in [c17] + corpus[:10]:
        net, tree = prepare(c, 0.05)
        for t in (tree, prepare(c, 0.05, tree.width)[1]):
            for joint in (False, True):
                max_error(net, t, joint=joint)
        max_errors(*prepare(c, GRID))
        sweep(c, GRID, refine=True)
        spectrum(c, 0.05)
    assert built == []
    net, tree = prepare(c17, 0.05)
    mapsearch.solve(mapsearch.MapQuery(net, tree, {net.comparators[0]: 1}))
    assert [type(b) for b in built] == [mapsearch.MapQuery, mapsearch.MapResult]


def test_reports_take_each_table_before_the_next_pass(monkeypatch):
    # at one evidence member a pass, a report takes each cone table to
    # its rows as it comes and keeps none: when evidence is set, no read
    # of a pass before the last one is alive.  Per output on rca4 and its
    # spectrum, and joint on and_chains(3, 2), at the tree's width; the
    # 9-input joint union of CHAINS is past its tree's width 7, so there
    # the pass budget is cut to one member instead
    rca4 = perfbench_circuits().ripple_carry_adder(4)
    and32, chains = parse_bench(and_chains(3, 2)), parse_bench(CHAINS)
    (net4, tree4), (net32, tree32), (netc, treec) = (prepare(c, 0.05) for c in (rca4, and32, chains))
    want = [max_error(net4, tree4), max_error(net32, tree32, joint=True),
            spectrum(rca4, 0.05).per_output.tolist(), max_error(netc, treec, joint=True)]
    narrow4, narrow32 = (prepare(c, 0.05, t.width)[1] for c, t in ((rca4, tree4), (and32, tree32)))
    faulty_width = prepare_faulty(rca4, 0.05)[1].width

    passes: list[list[weakref.ref]] = []    # per pass, its reads
    belief, set_evidence = Propagator.belief, Propagator.set_evidence

    def tracked(self, *args, **kwargs):
        read = belief(self, *args, **kwargs)
        passes[-1].append(weakref.ref(read.table))
        return read

    def checked(self, evidence):
        assert len(evidence) == 1
        gc.collect()
        assert not [r for p in passes[:-1] for r in p if r() is not None]
        passes.append([])
        set_evidence(self, evidence)

    def streamed(report, *args):
        passes.clear()
        got = report(*args)
        assert len(passes) >= 4
        return got

    monkeypatch.setattr(Propagator, "belief", tracked)
    monkeypatch.setattr(Propagator, "set_evidence", checked)
    got = [streamed(max_error, net4, narrow4), streamed(max_error, net32, narrow32, True),
           streamed(spectrum, rca4, 0.05, faulty_width).per_output.tolist()]
    monkeypatch.setattr(mapsearch, "_chunk_size", lambda tree: 1)
    got.append(streamed(max_error, netc, treec, True))
    assert got == want


def test_holderless_joint_reports_agree_across_pass_sizes(corpus, monkeypatch):
    # every read of a holder-less joint query is a member of some pass,
    # its slice that read alone, so the report is the same however the
    # passes split: at the default budget, one member a pass at the
    # tree's own width (and_chains(3, 2): width 6, union 6), and 1, 2 and
    # 3 members a pass.  Every setting a report makes is a sequence
    calls = []
    set_evidence = Propagator.set_evidence

    def recorded(self, evidence):
        calls.append(evidence)
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "set_evidence", recorded)
    cases = _holderless(corpus)
    want = [max_error(net, tree, joint=True) for net, tree in cases]
    c = parse_bench(and_chains(3, 2))
    net, tree = prepare(c, 0.05)
    narrow = prepare(c, 0.05, width_limit=tree.width)[1]
    assert (narrow.width, len(mapsearch._cone_inputs(narrow, net, net.comparators))) == (6, 6)
    seen = len(calls)
    assert max_error(net, narrow, joint=True) == max_error(net, tree, joint=True)
    # two groups, each read with its evidence and free
    assert [len(ev) for ev in calls[seen:seen + 4]] == [1] * 4
    for size in (1, 2, 3):
        monkeypatch.setattr(mapsearch, "_chunk_size", lambda tree, size=size: size)
        assert [max_error(net, tree, joint=True) for net, tree in cases] == want
    assert calls and not [ev for ev in calls if isinstance(ev, Mapping)]


def test_joint_mode_matches_direct_enumeration(c17):
    eps = 0.05
    net, tree = prepare(c17, eps)
    rep = max_error(net, tree, joint=True)
    assert [r.output for r in rep.per_output] == ["*"]

    # independent route: weight the fault sets flipping every output at once
    w = FaultEnumerator(c17).weights(eps)
    fault_rows = all_input_vectors(c17.n_gates)
    vectors = all_input_vectors(c17.n_inputs)
    good = c17.eval_batch(vectors)
    per_vec = []
    for i in range(vectors.shape[0]):
        tiled = np.broadcast_to(vectors[i], (fault_rows.shape[0], c17.n_inputs))
        out = c17.eval_batch(tiled, fault_rows)
        per_vec.append(float(w @ (out != good[i]).all(axis=1)))
    assert rep.max_error == pytest.approx(max(per_vec), abs=1e-12)
    assert rep.worst_vector is not None


def test_zero_eps_marks_outputs_unreachable(c17):
    net, tree = prepare(c17, 0.0)
    rep = max_error(net, tree)
    assert all(r.unreachable for r in rep.per_output)
    assert all(r.vector is None and r.p_error == 0.0 for r in rep.per_output)
    assert rep.max_error == 0.0
    assert rep.worst_vector is None and rep.worst_output is None


def test_worst_output_is_the_first_of_tied_outputs(corpus):
    # g5 and g8 reach the same error up to an ulp (g8's is 1 ulp larger);
    # within PRUNE_TOL they tie, and the tie goes to the first output
    rep = max_error(*prepare(corpus[82], 0.01))
    by_name = {r.output: r for r in rep.per_output}
    assert by_name["g5"].p_error == pytest.approx(by_name["g8"].p_error, rel=1e-12)
    assert rep.worst_output == "g5"
    assert rep.max_error == by_name["g5"].p_error
    assert rep.worst_vector == by_name["g5"].vector


def test_sweep_curve_frozen(c17):
    curve = sweep(c17, GRID, refine=True)
    assert len(curve.points) == 40
    assert curve.error_bound == pytest.approx(0.110, abs=1e-12)
    assert curve.refined_bound == pytest.approx(0.105703, abs=2e-4)
    assert 0.1035 <= curve.refined_bound <= 0.1075
    for p in curve.points:
        # the worst vector stays put across the whole grid
        assert p.worst_vector == "01111"
        assert p.worst_output == "23"
        assert p.avg_error <= p.max_error + 1e-12
    at = {p.epsilon: p for p in curve.points}
    assert at[0.05].max_error == pytest.approx(0.3160, abs=1e-12)
    assert at[0.105].max_error < 0.5 < at[0.110].max_error


def test_sweep_compiles_plans_in_its_first_batched_pass_only(c17, monkeypatch):
    # the whole grid runs on one tree in one batched pass, the average
    # first, and the refine points, batched by bisection levels on that
    # tree, compile no new plans
    calls, trees, sizes = [], [], []

    def recording(name):
        fn = getattr(analysis, name)

        def wrapped(prop, *args, **kwargs):
            out = fn(prop, *args, **kwargs)
            calls.append((name, prop.net.batch))
            trees.append(prop.tree)
            sizes.append(len(prop.tree.plans))
            return out
        return wrapped

    for name in ("_avg_error", "_max_errors"):
        monkeypatch.setattr(analysis, name, recording(name))
    curve = sweep(c17, GRID, refine=True)
    assert curve.refined_bound is not None
    assert calls[:2] == [("_avg_error", (len(GRID),)), ("_max_errors", (len(GRID),))]
    assert [name for name, _ in calls[2:]] == ["_max_errors"]   # 5 levels, 31 midpoints
    assert calls[2][1] == (31,)
    assert all(t is trees[0] for t in trees)
    assert sizes[1] > 0 and sizes[-1] == sizes[1]


def test_sweep_without_crossing_leaves_bounds_unset(c17):
    curve = sweep(c17, [0.01, 0.03, 0.05], refine=True)
    assert curve.error_bound is None
    assert curve.refined_bound is None
    assert [p.epsilon for p in curve.points] == [0.01, 0.03, 0.05]


def test_sweep_rejects_empty_grid(c17):
    with pytest.raises(ValueError):
        sweep(c17, [])


@pytest.mark.parametrize("grid", [[0.3, 0.05, 0.2], [0.05, 0.05], [0.5, 0.2]])
def test_sweep_rejects_grid_not_strictly_increasing(c17, grid):
    # an unsorted grid would report a later point as the first crossing
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(c17, grid, refine=True)


def test_spectrum_frozen(c17):
    sp = spectrum(c17, 0.05)
    assert sp.per_output.shape == (32, 2)
    assert sp.mu == pytest.approx(0.2523, abs=1e-9)
    assert sp.sigma == pytest.approx(0.0325393, abs=1e-6)
    tail = sp.above()
    assert len(tail) == 6
    assert {v for v, _ in tail} == {"00111", "01110", "01111",
                                    "10111", "11110", "11111"}
    assert sp.above(0.5) == []
    assert np.allclose(sp.max_probs, sp.per_output.max(axis=1))


# Output g3 is the worst on every vector: an XOR passes each flip of g0
# or g3 through whatever the inputs are, so its error is 2 * 0.1 * 0.9
# = 0.18 everywhere at eps 0.05, equal only up to float noise.
FLAT = parse_bench("""
INPUT(i0)
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
INPUT(i6)
OUTPUT(g3)
OUTPUT(g4)
OUTPUT(g5)
g0 = AND(i1, i3)
g1 = OR(i2, g0)
g2 = NOR(g0, g1)
g3 = XOR(i5, g0)
g4 = BUF(i5)
g5 = AND(g1, g2)
""")


def test_spectrum_above_keeps_every_vector_when_flat():
    sp = spectrum(FLAT, 0.05)
    assert np.ptp(sp.max_probs) < 1e-15
    assert len(sp.above()) == 1 << 7


def test_spectrum_matches_oracle_cellwise(c17):
    sp = spectrum(c17, 0.05)
    cond = FaultEnumerator(c17).cond_errors(0.05)
    assert np.max(np.abs(sp.per_output - cond)) < 1e-12


def test_spectrum_input_cap():
    rng = np.random.default_rng(5)
    big = random_circuit(rng, MAX_SPECTRUM_INPUTS + 1, 3)
    with pytest.raises(ValueError):
        spectrum(big, 0.05)


def _per_vector_spectrum(c, eps) -> np.ndarray:
    """Every vector evidenced in turn, in Gray order, and every
    comparator read at its own cluster: the arithmetic ``spectrum`` ran
    before it read output cones.  ``eps`` may be an eps grid, whose
    members compute bit for bit as they would alone (``propagate``);
    shape (members, 2**k, outputs)."""
    net, tree = prepare(c, eps)
    prop = Propagator(tree, net)
    k = c.n_inputs
    table = np.zeros((1 << k, len(net.comparators)) + net.batch)
    for step in range(1 << k):
        idx = step ^ (step >> 1)
        prop.set_evidence(dict(zip(net.input_vars, index_vector(idx, k))))
        for j, comp in enumerate(net.comparators):
            t = prop.var_belief(comp).table    # P(comparator, vector)
            table[idx, j] = t[1] / (t[0] + t[1])
    return np.moveaxis(table.reshape(1 << k, len(net.comparators), -1), -1, 0)


def _spectrum_cases(c17, corpus):
    """(circuit, eps): c17 and the corpus over an eps grid, adders at
    seeded eps maps, FLAT at one eps."""
    pb = perfbench_circuits()
    grid = [0.01, 0.05, 0.2]
    yield c17, grid
    for n in (3, 4):
        adder = pb.ripple_carry_adder(n)
        yield from ((adder, pb.seeded_eps(adder, seed)) for seed in range(3))
    yield FLAT, 0.05
    yield from ((c, grid) for c in corpus)


def test_spectrum_matches_per_vector_reads(c17, corpus):
    for c, eps in _spectrum_cases(c17, corpus):
        members = eps if isinstance(eps, list) else [eps]
        for e, want in zip(members, _per_vector_spectrum(c, eps)):
            got = spectrum(c, e).per_output
            assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_every_output_cone_lies_in_one_cluster(c17, corpus):
    # each comparator's cone in the three-block tree, each faulty
    # output's in the tree of the error-prone copy alone
    for c, eps in _spectrum_cases(c17, corpus):
        for (net, tree), roots in [(prepare(c, eps), "comparators"),
                                   (prepare_faulty(c, eps), "faulty_outputs")]:
            for v in getattr(net, roots):
                cone = mapsearch._cone_inputs(tree, net, (v,))
                assert any(cone <= scope for scope in tree.scopes)


def test_spectrum_of_outputs_fed_by_inputs_is_zero():
    # no gate lies between an input and these outputs, so no vector is wrong
    sp = spectrum(GATE_FREE, 0.05)
    assert build_faulty_model(GATE_FREE, 0.05).faulty_outputs == (0, 1)
    assert np.array_equal(sp.per_output, np.zeros((4, 2)))
    assert np.array_equal(sp.per_output, FaultEnumerator(GATE_FREE).cond_errors(0.05))


def test_spectrum_rejects_a_cone_no_cluster_holds(monkeypatch):
    # DISCONNECTED's two inputs sit in separate pieces of its tree
    monkeypatch.setattr(mapsearch, "_cones", lambda tree, net, roots:
                        [(tuple(roots), frozenset(net.input_vars))])
    with pytest.raises(ValueError, match="no cluster holds the cone inputs of x'$"):
        spectrum(DISCONNECTED, 0.05)


def test_prepare_forwards_width_limit(c17):
    with pytest.raises(WidthLimitError):
        prepare(c17, 0.05, width_limit=2)
    # the tree keeps its limit, and a sweep's chunks follow it
    for limit, cells_log2 in ((8, 8), (DEFAULT_WIDTH_LIMIT, mapsearch.BATCH_CELLS_LOG2)):
        _, tree = prepare(c17, 0.05, width_limit=limit)
        assert tree.width_limit == limit
        assert analysis._chunk_size(tree) == 1 << (cells_log2 - tree.width)


def test_prepare_rejects_a_wide_gate_before_building_the_model(c17, monkeypatch):
    wide = parse_bench(WIDE_AND)
    calls = [0]
    build = analysis.build_error_model

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_error_model", counted)
    with pytest.raises(WidthLimitError) as exc:
        prepare(wide, 0.05, width_limit=5)
    assert (exc.value.width, exc.value.limit) == (21, 5)
    assert calls[0] == 0
    # every gate CPT fits in 5 variables, but c17's tree does not
    with pytest.raises(WidthLimitError):
        prepare(c17, 0.05, width_limit=5)
    assert calls[0] == 1


def test_reports_on_corpus_match_oracle(corpus):
    for circuit in corpus[:10]:
        enum = FaultEnumerator(circuit)
        net, tree = prepare(circuit, 0.1)
        rep = max_error(net, tree)
        cond = enum.cond_errors(0.1)
        for j, row in enumerate(rep.per_output):
            assert row.p_error == pytest.approx(cond[:, j].max(), abs=1e-9)


def _input_cone(c, nets) -> set[int]:
    """Indices of the primary inputs in the transitive fan-in of ``nets``,
    walked on the circuit itself."""
    gate_of = {g.output: g for g in c.gates}
    seen: set[str] = set()
    stack = list(nets)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            if name in gate_of:
                stack.extend(gate_of[name].fanin)
    return {j for j, name in enumerate(c.inputs) if name in seen}


def _all_wrong(c, eps) -> np.ndarray:
    """P(every output wrong | input vector) per vector, by fault-set
    enumeration; shape (2**k,)."""
    w = FaultEnumerator(c).weights(eps)
    fault_rows = all_input_vectors(c.n_gates)
    vectors = all_input_vectors(c.n_inputs)
    good = c.eval_batch(vectors)
    per_vec = []
    for i in range(vectors.shape[0]):
        tiled = np.broadcast_to(vectors[i], (fault_rows.shape[0], c.n_inputs))
        out = c.eval_batch(tiled, fault_rows)
        per_vec.append(float(w @ (out != good[i]).all(axis=1)))
    return np.array(per_vec)


def _check_cone_row(row, col, cone):
    assert row.p_error == pytest.approx(col.max(), abs=1e-12)
    bits = [int(ch) for ch in row.vector]
    assert col[vector_index(bits)] == pytest.approx(col.max(), abs=1e-12)
    assert all(b == 0 for j, b in enumerate(bits) if j not in cone)


def test_cone_search_matches_enumeration_on_corpus(corpus):
    eps = 0.05
    for c in corpus:
        net, tree = prepare(c, eps)
        cond = FaultEnumerator(c).cond_errors(eps)
        joint = _all_wrong(c, eps)
        for j, row in enumerate(max_error(net, tree).per_output):
            if row.unreachable:
                assert cond[:, j].max() == 0.0
                continue
            _check_cone_row(row, cond[:, j], _input_cone(c, [c.outputs[j]]))

        (row,) = max_error(net, tree, joint=True).per_output
        if row.unreachable:
            assert joint.max() == 0.0
        else:
            _check_cone_row(row, joint, _input_cone(c, c.outputs))


def test_joint_cones_no_cluster_holds_match_enumeration(corpus):
    # no cluster holds the union of the output cones of 46 corpus
    # circuits; their joint tables multiply the groups' conditional reads
    eps = 0.05
    split = 0
    for c in corpus:
        net, tree = prepare(c, eps)
        if mapsearch._holder(tree, mapsearch._cone_inputs(tree, net, net.comparators)) is not None:
            continue
        split += 1
        joint = _all_wrong(c, eps)
        rep = max_error(net, tree, joint=True)
        assert not rep.per_output[0].unreachable
        assert rep.max_error == pytest.approx(joint.max(), abs=1e-12)
        assert joint[vector_index([int(ch) for ch in rep.worst_vector])] == \
            pytest.approx(joint.max(), abs=1e-12)
    assert split == 46


def test_joint_union_past_the_width_limit_raises():
    # each cone has a cluster, the 26-input union has none and would not
    # fit the limit
    net, tree = prepare(parse_bench(and_chains(13, 12)), 0.05)
    assert len(mapsearch._cone_inputs(tree, net, net.comparators)) == 26 > DEFAULT_WIDTH_LIMIT
    assert not any(r.unreachable for r in max_error(net, tree).per_output)
    with pytest.raises(WidthLimitError):
        max_error(net, tree, joint=True)


def test_joint_union_obeys_the_trees_width_limit():
    # the holder-less joint product is bounded by the limit the tree was
    # built with, in both directions
    c = parse_bench(CHAINS)
    net, tree = prepare(c, 0.05, width_limit=8)
    union = mapsearch._cone_inputs(tree, net, net.comparators)
    assert (tree.width, len(union)) == (7, 9)
    assert mapsearch._holder(tree, union) is None
    with pytest.raises(WidthLimitError) as exc:
        max_error(net, tree, joint=True)
    assert (exc.value.width, exc.value.limit) == (9, 8)
    assert max_error(*prepare(c, 0.05, width_limit=9), joint=True) == \
        max_error(*prepare(c, 0.05), joint=True)


def _with_unused_inputs(c, m):
    return Circuit(c.inputs + tuple("u%d" % i for i in range(m)), c.gates, c.outputs)


def _counts(c):
    """Per output: name, vector on c17's inputs, p_error, node counts."""
    net, tree = prepare(c, 0.05)
    rep = max_error(net, tree)
    assert all(set(r.vector[5:]) <= {"0"} for r in rep.per_output)
    return [(r.output, r.vector[:5], r.p_error, r.nodes_expanded, r.nodes_pruned)
            for r in rep.per_output]


def test_unused_inputs_do_not_grow_the_search(c17):
    # an input outside every cone is a tie level of the walk, never an
    # axis of its table, so past numpy's 64 dimensions, and past the
    # 2^-1074 at which a 2^-k prior underflows, c17's answers stay put
    base = _counts(c17)
    for m in (4, 10, 59, 100, 1100):
        got = _counts(_with_unused_inputs(c17, m))
        assert [g[3:] for g in got] == [b[3:] for b in base]
        assert [g[:2] for g in got] == [b[:2] for b in base]
        for g, b in zip(got, base):
            assert g[2] == pytest.approx(b[2], abs=1e-12)
    m = 100
    net, tree = prepare(_with_unused_inputs(c17, m), 0.05)
    (row,), (want,) = (max_error(*nt, joint=True).per_output
                       for nt in ((net, tree), prepare(c17, 0.05)))
    assert (row.vector, row.nodes_expanded, row.nodes_pruned) == \
        (want.vector + "0" * m, want.nodes_expanded, want.nodes_pruned)
    assert row.p_error == pytest.approx(want.p_error, abs=1e-12)
    grid = [0.05, 0.1, 0.15]
    padded, plain = sweep(_with_unused_inputs(c17, m), grid, True), sweep(c17, grid, True)
    assert (padded.error_bound, padded.refined_bound) == (plain.error_bound, plain.refined_bound)
    for p, w in zip(padded.points, plain.points):
        assert (p.worst_vector, p.worst_output) == (w.worst_vector + "0" * m, w.worst_output)
        assert (p.max_error, p.avg_error) == pytest.approx((w.max_error, w.avg_error), abs=1e-12)
    # an all-free walk branches on every input, c17's and the unused
    k = len(net.input_vars)
    res = mapsearch.solve(mapsearch.MapQuery(net, tree, {net.comparator_of("23"): 1}))
    assert (res.nodes_expanded, res.nodes_pruned) == (1 + 2 * k, k)
    assert "".join(str(res.assignment[v]) for v in net.input_vars) == "01111" + "0" * m
    assert math.ldexp(res.p_map, k) == pytest.approx(0.3160, abs=1e-12)


def test_pruning_is_independent_of_prior_scale(c17):
    # 40 unused inputs scale every bound by 2**-40 through their priors;
    # an absolute pruning tolerance would then cut nothing
    base = _counts(c17)
    got = _counts(_with_unused_inputs(c17, 40))
    assert [g[3:] for g in got] == [b[3:] for b in base]


def _ripple_adder(n):
    lines = (["INPUT(a%d)" % i for i in range(n)] + ["INPUT(b%d)" % i for i in range(n)]
             + ["INPUT(cin)"] + ["OUTPUT(s%d)" % i for i in range(n)] + ["OUTPUT(c%d)" % n])
    carry = "cin"
    for i in range(n):
        lines += ["p%d = XOR(a%d, b%d)" % (i, i, i), "s%d = XOR(p%d, %s)" % (i, i, carry),
                  "g%d = AND(a%d, b%d)" % (i, i, i), "t%d = AND(%s, p%d)" % (i, carry, i),
                  "c%d = OR(g%d, t%d)" % (i + 1, i, i)]
        carry = "c%d" % (i + 1)
    return parse_bench("\n".join(lines))


def test_node_counts_do_not_depend_on_eps_draw():
    # many input vectors of an adder tie for the worst case; which of
    # them float noise favours must not change how much is searched
    adder = _ripple_adder(4)
    counts = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        eps = {gi: float(e) for gi, e in enumerate(rng.uniform(0.02, 0.08, adder.n_gates))}
        rep = max_error(*prepare(adder, eps))
        counts.add(tuple((r.nodes_expanded, r.nodes_pruned) for r in rep.per_output))
    assert len(counts) == 1

"""Worst-vector search (one argmax over a cone table, with the bounds
an audit reads) against the enumeration oracle."""

import itertools

import numpy as np
import pytest

from conftest import perfbench_circuits
from maxerr import jointree, mapsearch
from maxerr.circuit import all_input_vectors, index_vector, parse_bench, vector_index
from maxerr.jointree import build_tree
from maxerr.mapsearch import (PRUNE_TOL, MapQuery, MapResult, _cones, _holder, _Search,
                              cone_tables, search, seed, solve, var_order_heuristic)
from maxerr.model import build_error_model, joint_prob
from maxerr.oracle import FaultEnumerator, exact_map
from maxerr.propagate import Propagator

EPS = 0.05

SMALL = parse_bench("""
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
d = AND(a, b)
e = NOR(d, c)
z = NAND(e, a)
""")

TIED = parse_bench("""
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
""")

TWO_OUT = parse_bench("""
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
c = NAND(a, b)
y = NOR(c, b)
z = XOR(c, a)
""")


def _query(circuit, output_index=0, eps=EPS, **kw):
    net = build_error_model(circuit, eps)
    tree = build_tree(net)
    return MapQuery(net, tree, {net.comparators[output_index]: 1}, **kw)


def _vector_of(q: MapQuery, r: MapResult) -> tuple[int, ...]:
    return tuple(r.assignment[v] for v in q.net.input_vars)


def test_solve_matches_enumeration():
    for circuit in (SMALL, TWO_OUT):
        enum = FaultEnumerator(circuit)
        for j in range(circuit.n_outputs):
            q = _query(circuit, j)
            r = solve(q)
            truth = exact_map(circuit, EPS, j, enum)
            assert r.p_map == pytest.approx(truth.prob, abs=1e-12)
            got = enum.cond_errors(EPS)[vector_index(_vector_of(q, r)), j]
            assert got == pytest.approx(truth.cond_error, abs=1e-12)


def test_solve_matches_enumeration_on_corpus(corpus):
    for circuit in corpus[:12]:
        enum = FaultEnumerator(circuit)
        for j in range(circuit.n_outputs):
            q = _query(circuit, j)
            r = solve(q)
            truth = exact_map(circuit, EPS, j, enum)
            assert r.p_map == pytest.approx(truth.prob, abs=1e-9)
            got = enum.cond_errors(EPS)[vector_index(_vector_of(q, r)), j]
            assert got == pytest.approx(truth.cond_error, abs=1e-9)


def test_no_prune_visits_full_tree(c17):
    q = _query(c17)
    r = solve(q, use_seed=False, prune=False)
    k = c17.n_inputs
    assert r.nodes_expanded == 2 ** (k + 1) - 1 == 63
    assert r.nodes_pruned == 0
    assert r.seed_value is None


def test_pruning_and_seeding_do_not_change_answer(corpus):
    pb = perfbench_circuits()
    rca8 = pb.ripple_carry_adder(8)
    queries = [_query(circuit) for circuit in [SMALL] + corpus[:8]]
    # seeded rca8 at cout, whose cone is all 17 inputs
    queries.append(_query(rca8, rca8.n_outputs - 1, pb.seeded_eps(rca8, 0)))
    for q in queries:
        runs = [solve(q, use_seed=s, prune=p)
                for s in (True, False) for p in (True, False)]
        vectors = {_vector_of(q, r) for r in runs}
        probs = {round(r.p_map, 15) for r in runs}
        assert len(vectors) == 1
        assert len(probs) == 1


def test_seed_is_a_lower_bound(corpus):
    # the seed is the all-zero vector at its exact value
    for circuit in corpus[:8]:
        q = _query(circuit)
        assign, value = seed(q)
        assert assign == {v: 0 for v in q.var_order}
        cond = FaultEnumerator(circuit).cond_errors(EPS)[0, 0]
        assert value == pytest.approx(0.5 ** circuit.n_inputs * cond, abs=1e-12)
        r = solve(q, use_seed=True)
        assert r.seed_value == value
        assert r.seed_value <= r.p_map + 1e-15


def test_search_reads_one_bound_per_inner_node(c17, corpus, monkeypatch):
    # the answer is one argmax over the table, so without on_bound no
    # bound is read; with it, one per inner node of the answer's path
    # over d free inputs, or unpruned one per inner node of the full tree
    calls = [0]
    bound = _Search.bound

    def counted(self, key):
        calls[0] += 1
        return bound(self, key)

    monkeypatch.setattr(_Search, "bound", counted)
    for circuit in [c17] + corpus[:8]:
        for j in range(circuit.n_outputs):
            q = _query(circuit, j)
            d = len(q.var_order)
            for use_seed in (True, False):
                for prune, inner in ((True, d), (False, 2 ** d - 1)):
                    calls[0] = 0
                    r = solve(q, use_seed=use_seed, prune=prune)
                    assert calls[0] == 0
                    assert solve(q, use_seed, prune, on_bound=lambda a, u: None) == r
                    assert calls[0] == inner
                    if prune:
                        assert r.nodes_pruned == (r.nodes_expanded - 1) // 2 == d


def test_grid_bounds_carry_every_member(c17, corpus):
    # over an eps grid every on_bound call carries each member's bound at
    # its node, the one a search at that member's eps alone reads there;
    # pruned, the nodes are those on some member's path
    grid = [0.02, EPS, 0.2, 0.45]
    diverged = 0
    for circuit in [c17] + corpus[:8]:
        for j in range(circuit.n_outputs):
            alone = []    # each member's bounds at every node
            for eps in grid:
                seen = {}
                solve(_query(circuit, j, eps), prune=False,
                      on_bound=lambda a, u: seen.__setitem__(tuple(sorted(a.items())), u))
                alone.append(seen)
            q = _query(circuit, j, grid)
            for prune in (True, False):
                calls = []
                results = search(q, prune, on_bound=lambda a, u: calls.append((a, u)))
                for a, u in calls:
                    assert u == [seen[tuple(sorted(a.items()))] for seen in alone]
                d = len(q.var_order)
                keys = {tuple(r.assignment[v] for v in q.var_order) for r in results}
                nodes = ({key[:n] + (s,) for key in keys for n in range(d) for s in (0, 1)}
                         if prune else {t for n in range(1, d + 1)
                                        for t in itertools.product((0, 1), repeat=n)})
                assert len(calls) == len(nodes)
                assert {tuple(a[v] for v in q.var_order[:len(a)]) for a, _ in calls} == nodes
                diverged += prune and len(keys) > 1
    assert diverged


def test_ties_resolve_within_one_tolerance_of_the_maximum(monkeypatch):
    # the answer is the first cell along var_order within a relative
    # PRUNE_TOL of the maximum: here (0, 1).  Comparing sibling maxima
    # one level at a time would keep (0, 0), 1.4 PRUNE_TOL under it
    net = build_error_model(TIED, EPS)
    a, b = net.input_vars
    cells = 0.25 * np.array([[1 - 0.5 * PRUNE_TOL, 1], [1 + 0.9 * PRUNE_TOL, 0.5]])
    monkeypatch.setattr(mapsearch, "_cone_read", lambda q: (cells, frozenset((a, b))))
    q = MapQuery(net, build_tree(net), {net.comparators[0]: 1}, (a, b))
    for prune in (True, False):
        r = solve(q, prune=prune)
        assert (r.assignment, r.p_cone) == ({a: 0, b: 1}, 0.25)
        assert r.p_cone >= cells.max() / (1 + PRUNE_TOL)


def test_held_inputs_are_checked(c17):
    # held states are checked as Propagator.set_evidence checks evidence,
    # and True holds state 1
    net = build_error_model(c17, EPS)
    tree = build_tree(net)
    comp, x0, x4 = net.comparators[0], net.input_vars[0], net.input_vars[4]
    assert x4 not in mapsearch._cone_inputs(tree, net, (comp,))
    for v, s in ((x0, -1), (x4, 2)):
        with pytest.raises(ValueError, match=r"^evidence state of variable %d is %d, not 0 or 1$"
                           % (v, s)):
            MapQuery(net, tree, {comp: 1, v: s})
    with pytest.raises(KeyError):
        MapQuery(net, tree, {comp: 1, 999: 1})
    assert solve(MapQuery(net, tree, {comp: 1, x0: True})) == \
        solve(MapQuery(net, tree, {comp: 1, x0: 1}))


def test_pruning_reduces_work(c17):
    q = _query(c17)
    full = solve(q, use_seed=False, prune=False)
    cut = solve(q, use_seed=True, prune=True)
    assert cut.nodes_expanded <= full.nodes_expanded
    assert cut.nodes_pruned > 0


def test_ties_resolve_to_smallest_along_order():
    # one AND gate: every input vector has the same conditional error,
    # so the argmax set is all four vectors
    q = _query(TIED)
    enum = FaultEnumerator(TIED)
    cond = enum.cond_errors(EPS)[:, 0]
    assert cond.max() - cond.min() < 1e-15
    r = solve(q, use_seed=True)
    key = tuple(r.assignment[v] for v in q.var_order)
    assert key == (0, 0)
    # also without the seed
    r = solve(q, use_seed=False)
    assert tuple(r.assignment[v] for v in q.var_order) == (0, 0)


def test_var_order_is_a_permutation_and_overridable():
    net = build_error_model(SMALL, EPS)
    tree = build_tree(net)
    default = var_order_heuristic(net)
    assert sorted(default) == sorted(net.input_vars)

    evid = {net.comparators[0]: 1}
    base = solve(MapQuery(net, tree, evid))
    flipped = solve(MapQuery(net, tree, evid, var_order=tuple(reversed(default))))
    assert flipped.p_map == pytest.approx(base.p_map, abs=1e-12)
    assert {v: flipped.assignment[v] for v in net.input_vars} == \
           {v: base.assignment[v] for v in net.input_vars}


def test_complete_assignment_bound_is_exact():
    net = build_error_model(SMALL, EPS)
    k = SMALL.n_inputs
    cond = FaultEnumerator(SMALL).cond_errors(EPS)[:, 0]
    seen = {}
    solve(MapQuery(net, build_tree(net), {net.comparators[0]: 1}), prune=False,
          on_bound=lambda a, u: seen.__setitem__(tuple(sorted(a.items())), u))
    for bits in itertools.product((0, 1), repeat=k):
        u = seen[tuple(sorted(zip(net.input_vars, bits)))]
        assert u == pytest.approx(0.5 ** k * cond[vector_index(bits)], abs=1e-12)


def test_partial_assignment_bound_dominates_completions():
    net = build_error_model(SMALL, EPS)
    k = SMALL.n_inputs
    cond = FaultEnumerator(SMALL).cond_errors(EPS)[:, 0]
    seen = []
    solve(MapQuery(net, build_tree(net), {net.comparators[0]: 1}), prune=False,
          on_bound=lambda a, u: seen.append((a, u)))
    assert len(seen) == 2 ** (k + 1) - 2
    for partial, u in seen:
        best = max(0.5 ** k * cond[vector_index(bits)]
                   for bits in itertools.product((0, 1), repeat=k)
                   if all(bits[net.input_vars.index(v)] == s for v, s in partial.items()))
        assert u >= best - 1e-12


def test_held_inputs_bounds_equal_completion_maxima(c17, corpus):
    # a query that holds some inputs, inside its cone or not, walks the
    # rest: every bound is the exact maximum over the completions that
    # agree with the held states
    rng = np.random.default_rng(11)
    for circuit in [SMALL, c17] + corpus[:30]:
        k = circuit.n_inputs
        cond = FaultEnumerator(circuit).cond_errors(EPS)
        rows = all_input_vectors(k)
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        column = {v: rows[:, i] for i, v in enumerate(net.input_vars)}
        for j, comp in enumerate(net.comparators):
            held = {v: int(rng.integers(2)) for v in net.input_vars if rng.random() < 0.4}
            q = MapQuery(net, tree, {comp: 1, **held})
            seen = []
            r = solve(q, prune=False, on_bound=lambda a, u: seen.append((a, u)))
            assert len(seen) == 2 ** (k - len(held) + 1) - 2
            for partial, u in seen + [({}, r.p_map)]:
                under = np.ones(len(rows), dtype=bool)
                for v, s in {**held, **partial}.items():
                    under &= column[v] == s
                best = 0.5 ** k * cond[under, j].max()
                assert abs(u - best) <= 1e-12 * best


def test_leaf_values_match_sum_mode_reads_under_full_input_evidence(c17):
    # a complete assignment's value is the cone-table cell; the same
    # probability read with every input evidenced agrees to rounding
    rca4 = perfbench_circuits().ripple_carry_adder(4)
    rng = np.random.default_rng(5)
    for circuit in (SMALL, c17, rca4):
        for eps in (0.01, EPS, 0.3):
            net = build_error_model(circuit, eps)
            tree = build_tree(net)
            k = len(net.input_vars)
            for comp in net.comparators:
                q = MapQuery(net, tree, {comp: 1})
                leaves = {}
                solve(q, prune=False, on_bound=lambda a, u: leaves.__setitem__(
                    tuple(sorted(a.items())), u) if len(a) == k else None)
                assert len(leaves) == 2 ** k
                prop = Propagator(tree, net)
                for bits in [[0] * k, [1] * k] + rng.integers(0, 2, size=(6, k)).tolist():
                    inputs = dict(zip(net.input_vars, bits))
                    prop.set_evidence({**inputs, comp: 1})
                    want = prop.query(comp)
                    assert leaves[tuple(sorted(inputs.items()))] == \
                        pytest.approx(want, rel=1e-14, abs=0.0)


def test_cones_split_roots_into_gate_disjoint_groups(c17, corpus):
    # groups are the connected components of "shares a non-input
    # ancestor", in order of first root; the cone is the inputs reached
    for circuit in [c17, TWO_OUT] + corpus[:60]:
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        inputs = set(net.input_vars)
        above = {}
        for root in net.comparators:
            seen, stack = set(), [root]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    if v not in inputs:
                        stack.extend(p.id for p in net.cpts[v].parents)
            above[root] = seen
        groups = _cones(tree, net, net.comparators)
        order = list(net.comparators).index
        flat = [r for members, _ in groups for r in members]
        assert sorted(flat, key=order) == list(net.comparators)
        for run in [[members[0] for members, _ in groups]] + [list(m) for m, _ in groups]:
            assert run == sorted(run, key=order)
        for a, (ma, ca) in enumerate(groups):
            gates = set().union(*(above[r] for r in ma)) - inputs
            assert ca == frozenset(set().union(*(above[r] for r in ma)) & inputs)
            reached = {ma[0]}
            while True:    # the roots joined to the first through shared gates
                more = {r for r in ma if (above[r] - inputs) &
                        set().union(*(above[x] for x in reached))} - reached
                if not more:
                    break
                reached |= more
            assert reached == set(ma)
            for mb, _ in groups[a + 1:]:
                assert not gates & set().union(*(above[r] for r in mb))
        assert _cones(tree, net, net.comparators) is groups
        for root in net.comparators:
            ((members, cone),) = _cones(tree, net, (root,))
            assert members == (root,) and cone == frozenset(above[root] & inputs)


def test_holder_is_the_smallest_cluster_lowest_id_on_a_tie(c17, corpus):
    # the order eliminates inputs last, so some cluster holds each
    # output's cone; a union cone may have no holder
    missing = 0
    for circuit in [c17, TWO_OUT] + corpus[:60]:
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        cones = [_cones(tree, net, (comp,))[0][1] for comp in net.comparators]
        union = frozenset().union(*cones)
        for cone in cones + [union]:
            fits = [cid for cid, scope in enumerate(tree.scopes) if cone <= scope]
            if not fits:
                assert cone == union and _holder(tree, cone) is None
                missing += 1
                continue
            size = min(len(tree.scopes[cid]) for cid in fits)
            assert _holder(tree, cone) == min(cid for cid in fits
                                               if len(tree.scopes[cid]) == size)
    assert missing > 0


def test_bad_var_order_rejected():
    net = build_error_model(SMALL, EPS)
    tree = build_tree(net)
    with pytest.raises(ValueError):
        MapQuery(net, tree, {net.comparators[0]: 1},
                 var_order=(net.input_vars[0],))


def test_bound_audit_equals_completion_maxima(c17, corpus):
    # inputs go last in the elimination order, so every bound is the
    # exact maximum over its node's completions, not just an upper bound
    rca3 = perfbench_circuits().ripple_carry_adder(3)
    for circuit in [SMALL, c17, rca3] + corpus[:60]:
        enum = FaultEnumerator(circuit)
        rows = all_input_vectors(circuit.n_inputs)
        for eps in (0.0, EPS):
            joint = 0.5 ** circuit.n_inputs * enum.cond_errors(eps)
            net = build_error_model(circuit, eps)
            tree = build_tree(net)
            column = {v: rows[:, i] for i, v in enumerate(net.input_vars)}
            for j, comp in enumerate(net.comparators):
                q = MapQuery(net, tree, {comp: 1})
                seen = []
                solve(q, prune=False, on_bound=lambda a, u: seen.append((a, u)))
                assert len(seen) == 2 ** (circuit.n_inputs + 1) - 2    # every node but the root
                for partial, u in seen:
                    under = np.logical_and.reduce([column[v] == s for v, s in partial.items()])
                    best = joint[under, j].max()
                    if best == 0.0:
                        assert u == 0.0
                    else:
                        assert abs(u - best) <= 1e-12 * best


def test_walk_on_a_loose_tree_is_exact_or_raises(corpus, monkeypatch):
    # an unconstrained min-fill order can eliminate an input before a
    # gate; a cluster holding the cone is then read exactly all the same,
    # and a cone no cluster holds raises
    monkeypatch.setattr(jointree, "check_order", lambda net, order: None)
    pb = perfbench_circuits()
    exact = raised = 0
    for circuit in [pb.ripple_carry_adder(3), pb.ripple_carry_adder(4)] + corpus[:120]:
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        loose = build_tree(net, tuple(jointree._min_fill_pass(jointree.moral_graph(net),
                                                               set(range(net.n_vars)))))
        for comp in net.comparators:
            want = solve(MapQuery(net, tree, {comp: 1}))
            try:
                got = solve(MapQuery(net, loose, {comp: 1}))
            except ValueError as exc:
                assert "no cluster holds" in str(exc)
                raised += 1
                continue
            assert got.assignment == want.assignment
            assert got.p_map == pytest.approx(want.p_map, rel=1e-15, abs=0.0)
            exact += 1
    assert exact and raised


def test_joint_evidence_over_all_comparators():
    net = build_error_model(TWO_OUT, EPS)
    tree = build_tree(net)
    evid = {cv: 1 for cv in net.comparators}
    r = solve(MapQuery(net, tree, evid))

    def joint_wrong(bits):
        total = 0.0
        fixed = dict(zip(net.input_vars, bits))
        fixed.update(evid)
        free = [v.id for v in net.vars if v.id not in fixed]
        assign = [0] * net.n_vars
        for v, s in fixed.items():
            assign[v] = s
        for rest in itertools.product((0, 1), repeat=len(free)):
            for v, s in zip(free, rest):
                assign[v] = s
            total += joint_prob(net, assign)
        return total

    truth = max(joint_wrong(bits) for bits in itertools.product((0, 1), repeat=2))
    assert r.p_map == pytest.approx(truth, abs=1e-12)
    assert joint_wrong(_vector_of(MapQuery(net, tree, evid), r)) == \
        pytest.approx(truth, abs=1e-12)


def test_evidenced_inputs_are_held_not_searched(c17):
    net = build_error_model(c17, EPS)
    tree = build_tree(net)
    held = net.input_vars[0]
    evid = {net.comparators[0]: 1, held: 1}
    q = MapQuery(net, tree, evid)
    assert sorted(q.var_order) == sorted(net.input_vars[1:])
    with pytest.raises(ValueError):
        MapQuery(net, tree, evid, var_order=var_order_heuristic(net))

    r = solve(q, use_seed=False, prune=False)
    k = c17.n_inputs
    assert r.nodes_expanded == 2 ** k - 1   # full tree over the k - 1 free inputs
    assert held not in r.assignment
    cond = FaultEnumerator(c17).cond_errors(EPS)[:, 0]
    truth = max(cond[i] for i in range(2 ** k) if index_vector(i, k)[0] == 1)
    assert r.p_map == pytest.approx(0.5 ** k * truth, abs=1e-12)
    assert solve(q).p_map == r.p_map


def test_seed_shares_the_search_propagator_silently(c17):
    # the seed is the all-zero cell of the table the search reads: it
    # fires no bound and reads it bit for bit as ``seed`` does alone
    q = _query(c17)
    seen = []
    r = solve(q, use_seed=True, on_bound=lambda a, u: seen.append(u))
    assert r.seed_value == seed(q)[1]
    assert len(seen) == r.nodes_expanded - 1   # nor are the root's and the seed's


def test_shared_propagator_gives_fresh_answers(c17, corpus):
    # a cached message depends only on the evidence on its sending side,
    # so cone tables read on one propagator, in any order, equal a fresh
    # propagator's bit for bit
    for circuit in [c17] + corpus[:20]:
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        evids = [{cv: 1} for cv in net.comparators]
        fresh = [cone_tables(Propagator(tree, net), [evid])[0] for evid in evids]
        shared = Propagator(tree, net)
        for j in list(range(len(evids))) + list(reversed(range(len(evids)))):
            table, cone = cone_tables(shared, [evids[j]])[0]
            assert cone == fresh[j][1]
            assert table.shape == fresh[j][0].shape
            assert table.tobytes() == fresh[j][0].tobytes()


XOR_CHAIN = parse_bench("""
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
p = XOR(a, b)
q = XOR(p, c)
z = XOR(q, d)
""")


def _drawn_eps(circuit, seed):
    rng = np.random.default_rng(seed)
    return {gi: float(e) for gi, e in enumerate(rng.uniform(0.02, 0.08, circuit.n_gates))}


def test_tied_branches_are_cut():
    # an XOR chain fails on an odd number of gate faults whatever its
    # inputs, so every vector ties up to float noise: the search follows
    # one path of 0s and cuts each 1-branch
    k = XOR_CHAIN.n_inputs
    for seed_ in range(5):
        net = build_error_model(XOR_CHAIN, _drawn_eps(XOR_CHAIN, seed_))
        q = MapQuery(net, build_tree(net), {net.comparators[0]: 1})
        r = solve(q)
        assert (r.nodes_expanded, r.nodes_pruned) == (2 * k + 1, k)
        assert set(r.assignment.values()) == {0}
        full = solve(q, use_seed=False, prune=False)
        assert full.assignment == r.assignment and full.p_map == r.p_map


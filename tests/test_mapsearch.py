"""Branch-and-bound worst-vector search against the enumeration oracle."""

import itertools

import numpy as np
import pytest

from maxerr.circuit import index_vector, parse_bench, vector_index
from maxerr.jointree import build_tree
from maxerr.mapsearch import (MapQuery, MapResult, _Search, seed, solve,
                              var_order_heuristic)
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
    for circuit in [SMALL] + corpus[:8]:
        q = _query(circuit)
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
        r = solve(q)
        assert r.seed_value == value
        assert r.seed_value <= r.p_map + 1e-15


def test_search_issues_one_bound_per_node_plus_the_seed(c17, corpus, monkeypatch):
    calls = [0]
    bound = _Search.bound

    def counted(self, partial, new_var):
        calls[0] += 1
        return bound(self, partial, new_var)

    monkeypatch.setattr(_Search, "bound", counted)
    for circuit in [c17] + corpus[:8]:
        for j in range(circuit.n_outputs):
            q = _query(circuit, j)
            for use_seed in (True, False):
                calls[0] = 0
                r = solve(q, use_seed=use_seed)
                assert calls[0] == r.nodes_expanded - 1 + use_seed


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
    r = solve(q)
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


def test_bad_var_order_rejected():
    net = build_error_model(SMALL, EPS)
    tree = build_tree(net)
    with pytest.raises(ValueError):
        MapQuery(net, tree, {net.comparators[0]: 1},
                 var_order=(net.input_vars[0],))


def test_bound_audit_dominates_completions():
    q = _query(SMALL)
    enum = FaultEnumerator(SMALL)
    cond = enum.cond_errors(EPS)[:, 0]
    k = SMALL.n_inputs
    seen = []
    solve(q, use_seed=False, prune=False, on_bound=lambda a, u: seen.append((a, u)))
    assert len(seen) == 2 ** (k + 1) - 2    # every node but the root
    for partial, u in seen:
        best = max(0.5 ** k * cond[vector_index(bits)]
                   for bits in itertools.product((0, 1), repeat=k)
                   if all(bits[list(q.net.input_vars).index(v)] == s
                          for v, s in partial.items()))
        assert u >= best - 1e-12


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
    q = _query(c17)
    seen = []
    r = solve(q, use_seed=True, on_bound=lambda a, u: seen.append(u))
    assert r.seed_value is not None
    assert len(seen) == r.nodes_expanded - 1   # nor are the root's and the seed's

    # a propagator left with other evidence gives the seed bit for bit
    prop = Propagator(q.tree, q.net, map_vars=q.net.input_vars)
    prop.set_evidence({v: 1 for v in q.net.input_vars})
    prop.query(q.tree.attach[q.net.input_vars[0]])
    assert seed(q, prop) == seed(q)


def test_shared_propagator_gives_fresh_answers(c17, corpus):
    # a cached message depends only on the evidence on its sending side,
    # so queries that share one propagator, in any order, answer exactly
    # as on a fresh one
    for circuit in [c17] + corpus[:20]:
        net = build_error_model(circuit, EPS)
        tree = build_tree(net)
        queries = [MapQuery(net, tree, {cv: 1}) for cv in net.comparators]
        fresh = [solve(q) for q in queries]
        shared = Propagator(tree, net, map_vars=net.input_vars)
        for j in list(range(len(queries))) + list(reversed(range(len(queries)))):
            assert solve(queries[j], prop=shared) == fresh[j]


def test_foreign_propagator_rejected(c17):
    q = _query(c17)
    other = build_error_model(c17, EPS)
    for prop in (Propagator(q.tree, q.net),
                 Propagator(q.tree, other, map_vars=other.input_vars),
                 Propagator(build_tree(q.net), q.net, map_vars=q.net.input_vars)):
        with pytest.raises(ValueError):
            solve(q, prop=prop)
        with pytest.raises(ValueError):
            seed(q, prop)


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


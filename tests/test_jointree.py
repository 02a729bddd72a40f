from itertools import combinations

import numpy as np
import pytest

from conftest import DISCONNECTED, perfbench_circuits
from maxerr import jointree
from maxerr.circuit import Circuit, parse_bench
from maxerr.jointree import (BinaryJoinTree, InvalidOrderError, build_tree,
                             check_order, choose_order, moral_graph,
                             order_width, validate_tree)
from maxerr.model import VarClass, build_error_model
from maxerr.oracle import random_circuit
from maxerr.valuation import WidthLimitError


def test_choose_order_places_inputs_last(c17):
    net = build_error_model(c17, 0.05)
    order = choose_order(net)
    check_order(net, order)
    tail = set(order[-5:])
    assert tail == set(net.input_vars)


def _recount_min_fill(adj, pool):
    # the reference: every candidate's fill recounted at every step
    out = []
    while pool:
        v = min(pool, key=lambda u: (sum(b not in adj[a] for a, b in combinations(adj[u], 2)), u))
        jointree._eliminate(adj, v)
        pool.discard(v)
        out.append(v)
    return out


def test_min_fill_matches_full_recount(c17, corpus):
    pb = perfbench_circuits()
    circuits = ([c17] + [pb.ripple_carry_adder(n) for n in range(3, 9)] + corpus
                + [random_circuit(np.random.default_rng(s), 16, 60) for s in range(3)])
    for c in circuits:
        net = build_error_model(c, 0.05)
        inputs = set(net.input_vars)
        rest = set(range(net.n_vars)) - inputs
        got, want = moral_graph(net), moral_graph(net)
        order = jointree._min_fill_pass(got, set(rest))
        assert order == _recount_min_fill(want, set(rest))
        assert got == want
        assert choose_order(net) == tuple(order + _recount_min_fill(want, inputs))
        got, want = moral_graph(net), moral_graph(net)
        assert (jointree._min_fill_pass(got, set(range(net.n_vars)))
                == _recount_min_fill(want, set(range(net.n_vars))))
        assert got == want == {}


def test_min_fill_ties_break_on_lowest_id():
    # a star 0-{1,2,3} with a tail 3-4-5, and a 4-cycle 6-8-7-9-6
    adj = {v: set() for v in range(10)}
    for a, b in [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (6, 8), (8, 7), (7, 9), (9, 6)]:
        adj[a].add(b)
        adj[b].add(a)
    pool = set(adj)
    # 1, 2 and 5 tie on no fill; then 0 and 5; the cycle's four tie on
    # one, and eliminating 6 joins 8 and 9
    assert jointree._min_fill_pass(adj, pool) == [1, 2, 0, 3, 4, 5, 6, 7, 8, 9]
    assert pool == set() and adj == {}


def test_order_validation_rejects_bad_orders(c17):
    net = build_error_model(c17, 0.05)
    good = choose_order(net)
    with pytest.raises(InvalidOrderError):
        check_order(net, good[:-1])
    # inputs not trailing
    swapped = (good[-1],) + good[1:-1] + (good[0],)
    with pytest.raises(InvalidOrderError):
        check_order(net, swapped)


def test_moral_graph_covers_cpt_families(c17):
    net = build_error_model(c17, 0.05)
    adj = moral_graph(net)
    for cpt in net.cpts:
        fam = sorted(cpt.scope)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                assert b in adj[a] and a in adj[b]


def test_tree_valid_on_c17(c17):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []
    assert tree.width <= 12
    # each input's prior sits in a cluster of its own, the root of its bounds
    for v in net.input_vars:
        assert tree.scopes[v] == frozenset((v,))


def test_tree_valid_on_disconnected_network():
    net = build_error_model(DISCONNECTED, 0.1)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []


def test_tree_degree_capped(c17):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    deg = dict.fromkeys(range(tree.n_clusters), 0)
    for a, b in tree.edges:
        deg[a] += 1
        deg[b] += 1
    assert max(deg.values()) <= 3


def test_width_limit_enforced(c17):
    net = build_error_model(c17, 0.05)
    with pytest.raises(WidthLimitError):
        build_tree(net, width_limit=2)


def test_validate_reports_leaf_without_cpt(c17):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    # hang a CPT-less {comparator} leaf off the comparator's cluster
    v = net.comparators[0]
    assert len(tree.neighbors[v]) < 3
    leaf = tree.n_clusters
    grown = BinaryJoinTree(tree.scopes + [frozenset((v,))], tree.edges + [(v, leaf)])
    assert validate_tree(grown, net) == ["leaf cluster %d holds no CPT" % leaf]


# Each breaks a copy of c17's tree (scopes and edges in place) and
# returns the violations validate_tree must report.
def _close_a_cycle(net, tree, scopes, edges):
    a, b = [u for u, nb in enumerate(tree.neighbors) if len(nb) == 1][:2]
    edges.append((a, b))
    return ["edge count %d != clusters - 1" % len(edges)]


def _add_a_looped_cluster(net, tree, scopes, edges):
    # a scope-free cluster whose one edge loops back to it: the edge count holds
    k = len(scopes)
    scopes.append(frozenset())
    edges.append((k, k))
    return ["tree is not connected"]


def _move_a_leaf_to_a_full_cluster(net, tree, scopes, edges):
    b = v = net.input_vars[0]
    (a,) = tree.neighbors[b]
    h = next(h for h, nb in enumerate(tree.neighbors)
             if len(nb) == 3 and h != a and v in scopes[h])
    edges[edges.index((min(a, b), max(a, b)))] = (b, h)
    return ["cluster %d has degree 4" % h]


def _drop_a_comparator_everywhere(net, tree, scopes, edges):
    v = net.comparators[0]
    scopes[:] = [s - {v} for s in scopes]
    return ["variable %d in no cluster" % v,
            "cluster %d is missing or does not cover its CPT" % v]


def _cut_a_variable_path(net, tree, scopes, edges):
    # a CPT-less cluster between two neighbors holding v loses v
    u, v = next((u, v) for u in range(net.n_vars, len(scopes))
                for v in sorted(scopes[u])
                if sum(v in scopes[w] for w in tree.neighbors[u]) >= 2)
    scopes[u] = scopes[u] - {v}
    return ["running intersection fails for variable %d" % v]


def _empty_an_input_prior(net, tree, scopes, edges):
    # the prior's leaf still hangs off a cluster holding the input
    v = net.input_vars[0]
    scopes[v] = frozenset()
    return ["cluster %d is missing or does not cover its CPT" % v]


def _drop_every_cluster(net, tree, scopes, edges):
    scopes.clear()
    edges.clear()
    return (["edge count 0 != clusters - 1"]
            + ["variable %d in no cluster" % v for v in range(net.n_vars)]
            + ["cluster %d is missing or does not cover its CPT" % v
               for v in range(net.n_vars)])


@pytest.mark.parametrize("breaks", [
    _close_a_cycle, _add_a_looped_cluster, _move_a_leaf_to_a_full_cluster,
    _drop_a_comparator_everywhere, _cut_a_variable_path, _empty_an_input_prior,
    _drop_every_cluster], ids=lambda f: f.__name__.lstrip("_"))
def test_validate_reports_each_violation(c17, breaks):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    scopes, edges = list(tree.scopes), list(tree.edges)
    expected = breaks(net, tree, scopes, edges)
    assert validate_tree(BinaryJoinTree(scopes, edges), net) == expected


def test_order_width_reasonable(c17):
    net = build_error_model(c17, 0.05)
    w = order_width(net, choose_order(net))
    assert 1 <= w <= 10


def test_corpus_trees_valid(corpus):
    for c in corpus[:40]:
        net = build_error_model(c, 0.05)
        tree = build_tree(net)
        assert validate_tree(tree, net) == [], c.to_summary() \
            if hasattr(c, "to_summary") else "invalid tree"


def test_every_leaf_holds_a_cpt(c17, corpus):
    pb = perfbench_circuits()
    for c in [c17, DISCONNECTED] + [pb.ripple_carry_adder(n) for n in range(3, 9)] + corpus:
        net = build_error_model(c, 0.05)
        tree = build_tree(net)
        assert tree.scopes[:net.n_vars] == [cpt.scope for cpt in net.cpts]
        assert [u for u in range(net.n_vars, tree.n_clusters)
                if len(tree.neighbors[u]) <= 1] == []
        assert validate_tree(tree, net) == []


def test_no_cluster_only_forwards(c17, corpus):
    # a CPT-less cluster stays only where some message through it takes two
    # reduction steps: it has three neighbors, or a way x -> y that reduces
    # both at x and at it
    pb = perfbench_circuits()
    for c in [c17, DISCONNECTED] + [pb.ripple_carry_adder(n) for n in range(3, 9)] + corpus:
        net = build_error_model(c, 0.05)
        tree = build_tree(net)
        scope = tree.scopes
        for u in range(net.n_vars, tree.n_clusters):
            nb = tree.neighbors[u]
            if len(nb) == 3:
                continue
            assert len(nb) == 2, "CPT-less leaf %d" % u
            assert any(not scope[x] <= scope[u] and not scope[x] & scope[u] <= scope[y]
                       for x, y in (nb, nb[::-1])), "relay %d only forwards" % u


def test_every_cptless_cluster_has_three_neighbors(c17, corpus):
    # the fusion adds a cluster only to merge two, and joins a last pair
    # that nothing merges with again directly, so no CPT-less root is left
    pb = perfbench_circuits()
    for c in [c17, DISCONNECTED] + [pb.ripple_carry_adder(n) for n in range(3, 9)] + corpus:
        net = build_error_model(c, 0.05)
        tree = build_tree(net)
        assert [u for u in range(net.n_vars, tree.n_clusters)
                if len(tree.neighbors[u]) != 3] == []


def test_pieces_are_chained_by_their_lowest_clusters(c17, corpus):
    # the fusion joins only clusters sharing a variable; the links between
    # its pieces share none and run from each piece's lowest cluster id to
    # the next one up
    padded = [Circuit(c17.inputs + tuple("u%d" % i for i in range(m)), c17.gates,
                      c17.outputs) for m in (59, 1100)]
    for c in [DISCONNECTED] + padded + corpus:
        net = build_error_model(c, 0.05)
        tree = build_tree(net)
        piece = list(range(tree.n_clusters))

        def find(u):
            while piece[u] != u:
                u = piece[u]
            return u

        links = []
        for a, b in tree.edges:
            if tree.scopes[a] & tree.scopes[b]:
                ra, rb = find(a), find(b)
                piece[max(ra, rb)] = min(ra, rb)
            else:
                links.append((a, b))
        lows = sorted({find(u) for u in range(tree.n_clusters)})
        assert links == list(zip(lows, lows[1:]))
        assert all(u < net.n_vars for u in lows)
        assert validate_tree(tree, net) == []


def test_input_only_outputs_still_build():
    c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    net = build_error_model(c, 0.1)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []

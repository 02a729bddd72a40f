import pytest

from conftest import DISCONNECTED, perfbench_circuits
from maxerr.circuit import parse_bench
from maxerr.jointree import (BinaryJoinTree, Cluster, EliminationOrder,
                             InvalidOrderError, build_tree, choose_order,
                             moral_graph, order_width, validate_tree)
from maxerr.model import VarClass, build_error_model
from maxerr.valuation import WidthLimitError


def test_choose_order_places_inputs_last(c17):
    net = build_error_model(c17, 0.05)
    order = choose_order(net)
    order.validate(net)
    tail = set(order.order[-5:])
    assert tail == set(net.input_vars)


def test_order_validation_rejects_bad_orders(c17):
    net = build_error_model(c17, 0.05)
    good = choose_order(net)
    with pytest.raises(InvalidOrderError):
        EliminationOrder(good.order[:-1]).validate(net)
    # inputs not trailing
    swapped = (good.order[-1],) + good.order[1:-1] + (good.order[0],)
    with pytest.raises(InvalidOrderError):
        EliminationOrder(swapped).validate(net)


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
        assert tree.clusters[tree.attach[v]].scope == frozenset((v,))


def test_tree_valid_on_disconnected_network():
    net = build_error_model(DISCONNECTED, 0.1)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []


def test_tree_degree_capped(c17):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    deg = {c.id: 0 for c in tree.clusters}
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
    # hang a {comparator} leaf off the comparator's cluster, as a tree
    # that kept every singleton would
    v = net.comparators[0]
    host = tree.attach[v]
    assert len(tree.neighbors[host]) < 3
    leaf = Cluster(tree.n_clusters, frozenset((v,)))
    grown = BinaryJoinTree(tree.clusters + [leaf], tree.edges + [(host, leaf.id)],
                           dict(tree.attach), tree._scope_key)
    assert validate_tree(grown, net) == ["leaf cluster %d holds no CPT" % leaf.id]


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
        holders = set(tree.attach.values())
        assert [u for u in range(tree.n_clusters)
                if len(tree.neighbors[u]) <= 1 and u not in holders] == []
        assert validate_tree(tree, net) == []


def test_input_only_outputs_still_build():
    c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    net = build_error_model(c, 0.1)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []

import pytest

from maxerr.circuit import parse_bench
from maxerr.jointree import (EliminationOrder, InvalidOrderError, build_tree,
                             choose_order, moral_graph, order_width,
                             validate_tree)
from maxerr.model import VarClass, build_error_model
from maxerr.valuation import WidthLimitError

DISCONNECTED = parse_bench(
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(b)\n")


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
    # every variable has a singleton cluster by default
    assert set(tree.singleton) == {v.id for v in net.vars}


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


def test_validate_reports_missing_singleton(c17):
    net = build_error_model(c17, 0.05)
    tree = build_tree(net)
    v = net.comparators[0]
    del tree.singleton[v]
    assert validate_tree(tree, net) == ["variable %d has no singleton cluster" % v]


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


def test_input_only_outputs_still_build():
    c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    net = build_error_model(c, 0.1)
    tree = build_tree(net)
    assert validate_tree(tree, net) == []

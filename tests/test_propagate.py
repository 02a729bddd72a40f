"""Message passing: totals, cache deltas, bounds, root choices."""

import collections
import itertools

import numpy as np
import pytest

from maxerr.circuit import parse_bench, vector_index
from maxerr.jointree import build_tree
from maxerr.mapsearch import MapQuery, _Search
from maxerr.model import build_error_model, joint_prob
from maxerr.oracle import FaultEnumerator
from maxerr.propagate import Propagator, count_order_inversions, prob_evidence

SMALL = parse_bench("""
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
d = AND(a, b)
e = NOR(d, c)
z = NAND(e, a)
""")

EPS = 0.05


def _net_tree(circuit, eps=EPS):
    net = build_error_model(circuit, eps)
    return net, build_tree(net)


def _enum_prob(net, evidence):
    """Brute-force P(evidence) over all 2**N joint assignments."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=net.n_vars):
        if all(bits[v] == s for v, s in evidence.items()):
            total += joint_prob(net, bits)
    return total


def test_empty_evidence_sums_to_one(c17):
    for circuit in (SMALL, c17):
        net, tree = _net_tree(circuit)
        assert prob_evidence(tree, net, {}) == pytest.approx(1.0, abs=1e-9)


def test_empty_evidence_sums_to_one_on_corpus(corpus):
    for circuit in corpus[:15]:
        net, tree = _net_tree(circuit)
        assert prob_evidence(tree, net, {}) == pytest.approx(1.0, abs=1e-9)


def test_matches_brute_force_enumeration():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    for evidence in ({cmp_var: 1},
                     {cmp_var: 1, net.input_vars[0]: 0},
                     {cmp_var: 0, net.input_vars[1]: 1, net.input_vars[2]: 0}):
        want = _enum_prob(net, evidence)
        got = prob_evidence(tree, net, evidence)
        assert got == pytest.approx(want, abs=1e-12)


def test_every_root_gives_same_probability():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    p = Propagator(tree, net)
    p.set_evidence({cmp_var: 1})
    answers = [p.query(cid) for cid in sorted(set(tree.singleton.values()))]
    assert max(answers) - min(answers) < 1e-9


def test_var_belief_recovers_marginals():
    net, tree = _net_tree(SMALL)
    p = Propagator(tree, net)

    cells = p.var_belief(net.input_vars[0]).table
    assert cells == pytest.approx([0.5, 0.5], abs=1e-12)

    cmp_var = net.comparator_of("z")
    want1 = _enum_prob(net, {cmp_var: 1})
    cells = p.var_belief(cmp_var).table
    assert cells[1] == pytest.approx(want1, abs=1e-12)
    assert cells.sum() == pytest.approx(1.0, abs=1e-12)


def test_evidence_delta_matches_fresh_propagator():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    root = tree.singleton[cmp_var]
    i0, i1 = net.input_vars[0], net.input_vars[1]

    p = Propagator(tree, net)
    steps = [{}, {i0: 0}, {i0: 0, i1: 1}, {i0: 1, i1: 1}, {cmp_var: 1, i0: 1}]
    for ev in steps:
        p.set_evidence(ev)
        got = p.query(root)
        fresh = Propagator(tree, net)
        fresh.set_evidence(ev)
        assert got == pytest.approx(fresh.query(root), abs=1e-12)


def test_evidence_delta_keeps_unrelated_messages(c17):
    net, tree = _net_tree(c17)
    p = Propagator(tree, net)
    p.set_evidence({net.input_vars[0]: 0})
    p.query(tree.singleton[net.comparators[0]])
    before = set(p._msg)
    p.set_evidence({net.input_vars[0]: 1})
    assert before & set(p._msg), "flipping one input should not drop every message"
    # and the reused cache still gives the fresh answer
    got = p.query(tree.singleton[net.comparators[0]])
    fresh = Propagator(tree, net)
    fresh.set_evidence({net.input_vars[0]: 1})
    assert got == pytest.approx(fresh.query(tree.singleton[net.comparators[0]]), abs=1e-12)


def _sending_side(tree, b, c):
    """Clusters on b's side of the edge (b, c): a BFS from b that never
    crosses that edge."""
    side = {b}
    queue = collections.deque([b])
    while queue:
        u = queue.popleft()
        for w in tree.neighbors[u]:
            if w not in side and (u, w) != (b, c):
                side.add(w)
                queue.append(w)
    return side


@pytest.mark.parametrize("max_mode", [False, True])
def test_flip_drops_exactly_the_messages_that_saw_it(c17, corpus, max_mode):
    for circuit in [c17] + corpus[:5]:
        net, tree = _net_tree(circuit)
        ev = {v: 0 for v in net.input_vars}
        ev[net.comparators[0]] = 1
        roots = sorted({tree.singleton[v] for v in ev})
        map_vars = net.input_vars if max_mode else ()
        p = Propagator(tree, net, map_vars=map_vars)
        p.set_evidence(ev)
        for r in roots:
            p.query(r)
        for var in list(ev):
            before = set(p._msg)
            spot = tree.singleton[var]
            ev = {**ev, var: 1 - ev[var]}
            p.set_evidence(ev)
            assert set(p._msg) == {(b, c) for b, c in before
                                   if spot not in _sending_side(tree, b, c)}
            fresh = Propagator(tree, net, map_vars=map_vars)
            fresh.set_evidence(ev)
            for r in roots:
                assert p.query(r) == pytest.approx(fresh.query(r), abs=1e-12)


def test_propagate_belief_cells_are_joint_probs():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    bel = Propagator(tree, net).var_belief(cmp_var)
    assert bel.scope == (cmp_var,)
    assert bel.table[1] == pytest.approx(_enum_prob(net, {cmp_var: 1}), abs=1e-12)


def test_sum_only_schedule_has_no_inversions():
    net, tree = _net_tree(SMALL)
    for cid in range(tree.n_clusters):
        assert count_order_inversions(tree, cid, ()) == 0


def test_mixed_query_bounds_exact_max():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    k = SMALL.n_inputs
    enum = FaultEnumerator(SMALL)
    cond = enum.cond_errors(EPS)[:, 0]
    exact = 0.5 ** k * cond.max()

    p = Propagator(tree, net, map_vars=net.input_vars)
    p.set_evidence({cmp_var: 1})
    for cid in sorted(set(tree.singleton.values())):
        u = p.query(cid)
        assert u >= exact - 1e-12
        if count_order_inversions(tree, cid, net.input_vars) == 0:
            assert u == pytest.approx(exact, abs=1e-12)


def test_complete_assignment_bound_is_exact():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    k = SMALL.n_inputs
    enum = FaultEnumerator(SMALL)
    cond = enum.cond_errors(EPS)[:, 0]
    search = _Search(MapQuery(net, tree, {cmp_var: 1}), prune=False, on_bound=None)
    for bits in itertools.product((0, 1), repeat=k):
        partial = dict(zip(net.input_vars, bits))
        u = search.bound(partial, net.input_vars[-1])
        want = 0.5 ** k * cond[vector_index(bits)]
        assert u == pytest.approx(want, abs=1e-12)


def test_partial_assignment_bound_dominates_completions():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    k = SMALL.n_inputs
    enum = FaultEnumerator(SMALL)
    cond = enum.cond_errors(EPS)[:, 0]
    search = _Search(MapQuery(net, tree, {cmp_var: 1}), prune=False, on_bound=None)
    for pattern in itertools.product((None, 0, 1), repeat=k):
        partial = {net.input_vars[j]: b for j, b in enumerate(pattern) if b is not None}
        best = max(0.5 ** k * cond[vector_index(bits)]
                   for bits in itertools.product((0, 1), repeat=k)
                   if all(bits[j] == b for j, b in enumerate(pattern) if b is not None))
        u = search.bound(partial, max(partial, default=net.input_vars[0]))
        assert u >= best - 1e-12


def test_rejects_tree_from_other_network(c17):
    net_small, tree_small = _net_tree(SMALL)
    net_c17 = build_error_model(c17, EPS)
    with pytest.raises(ValueError):
        Propagator(tree_small, net_c17)


def test_evidence_requires_singleton_cluster():
    net, tree = _net_tree(SMALL)
    p = Propagator(tree, net)
    assert net.n_vars not in tree.singleton
    with pytest.raises(KeyError):
        p.set_evidence({net.n_vars: 1})

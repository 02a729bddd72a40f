"""Message passing: totals, cache deltas, bounds, root choices."""

import collections
import itertools

import numpy as np
import pytest

from conftest import DISCONNECTED
from maxerr.circuit import parse_bench, vector_index
from maxerr.jointree import build_tree
from maxerr.mapsearch import MapQuery, _Search
from maxerr.model import VarClass, build_error_model, joint_prob
from maxerr.oracle import FaultEnumerator
from maxerr.propagate import Propagator, prob_evidence
from maxerr.valuation import combine, indicator, reduce_mixed

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


def _cached(p):
    """The propagator's cached messages by (sender, receiver); edge e
    and its reverse e ^ 1 have their ends swapped."""
    return {(p._src[e], p._src[e ^ 1]): m for e, m in enumerate(p._msg) if m is not None}


def _directed(tree):
    """Every directed edge (sender, receiver) of the tree."""
    return {(b, c) for a, d in tree.edges for b, c in ((a, d), (d, a))}


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
    var = {v.name: v.id for v in net.vars}
    for evidence in ({cmp_var: 1},
                     {cmp_var: 1, net.input_vars[0]: 0},
                     {cmp_var: 0, net.input_vars[1]: 1, net.input_vars[2]: 0},
                     {cmp_var: 1, var["d"]: 1},             # error-free gate
                     {cmp_var: 1, var["e'"]: 0},            # error-prone gate
                     {var["d"]: 0, var["d'"]: 1, net.input_vars[2]: 1}):
        want = _enum_prob(net, evidence)
        got = prob_evidence(tree, net, evidence)
        assert got == pytest.approx(want, abs=1e-12)


def test_every_root_gives_same_probability():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    p = Propagator(tree, net)
    p.set_evidence({cmp_var: 1})
    answers = [p.query(cid) for cid in range(tree.n_clusters)]
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
    root = tree.attach[cmp_var]
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
    p.query(tree.attach[net.comparators[0]])
    before = set(_cached(p))
    p.set_evidence({net.input_vars[0]: 1})
    assert before & set(_cached(p)), "flipping one input should not drop every message"
    # and the reused cache still gives the fresh answer
    got = p.query(tree.attach[net.comparators[0]])
    fresh = Propagator(tree, net)
    fresh.set_evidence({net.input_vars[0]: 1})
    assert got == pytest.approx(fresh.query(tree.attach[net.comparators[0]]), abs=1e-12)


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
        roots = sorted({tree.attach[v] for v in ev})
        map_vars = net.input_vars if max_mode else ()
        p = Propagator(tree, net, map_vars=map_vars)
        p.set_evidence(ev)
        for r in roots:
            p.query(r)
        for var in list(ev):
            before = set(_cached(p))
            spot = tree.attach[var]
            ev = {**ev, var: 1 - ev[var]}
            p.set_evidence(ev)
            assert set(_cached(p)) == {(b, c) for b, c in before
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


def test_mixed_query_bounds_exact_max():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    k = SMALL.n_inputs
    enum = FaultEnumerator(SMALL)
    cond = enum.cond_errors(EPS)[:, 0]
    exact = 0.5 ** k * cond.max()

    p = Propagator(tree, net, map_vars=net.input_vars)
    p.set_evidence({cmp_var: 1})
    for cid in range(tree.n_clusters):
        assert p.query(cid) >= exact - 1e-12
    # the search roots its bounds at the clusters of the input priors
    for v in net.input_vars:
        assert p.query(tree.attach[v]) == pytest.approx(exact, abs=1e-12)


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


def test_potentials_built_once_per_net_and_tree(c17):
    net, tree = _net_tree(c17)
    a = Propagator(tree, net)
    b = Propagator(tree, net, map_vars=net.input_vars)
    assert a._potential is b._potential is net.potentials[tree]
    other = build_tree(net)
    assert Propagator(other, net)._potential is not a._potential
    assert set(net.potentials) == {tree, other}


def test_rejects_tree_from_other_network(c17):
    net_small, tree_small = _net_tree(SMALL)
    net_c17 = build_error_model(c17, EPS)
    with pytest.raises(ValueError):
        Propagator(tree_small, net_c17)


def test_evidence_on_unknown_variable_raises_key_error():
    net, tree = _net_tree(SMALL)
    p = Propagator(tree, net)
    ev = {net.input_vars[0]: 1}
    p.set_evidence(ev)
    want = p.query(0)
    assert net.n_vars not in tree.attach
    with pytest.raises(KeyError):
        p.set_evidence({net.n_vars: 1})
    assert p.evidence == ev and p.query(0) == want


def test_message_counter(c17, corpus):
    for circuit in [c17] + corpus[:8]:
        net, tree = _net_tree(circuit)
        ev = {v: 0 for v in net.input_vars}
        for root in range(tree.n_clusters):
            p = Propagator(tree, net)
            p.query(root)
            full = len(_toward(tree, root))
            assert p.messages == full
            p.query(root)
            assert p.messages == full
        root = tree.attach[net.comparators[0]]
        p = Propagator(tree, net, map_vars=net.input_vars)
        p.set_evidence(ev)
        p.query(root)
        for var in net.input_vars:
            ev = {**ev, var: 1 - ev[var]}
            kept, done = len(_cached(p)), p.messages
            p.set_evidence(ev)
            dropped = kept - len(_cached(p))
            p.query(root)
            assert p.messages - done == dropped


@pytest.mark.parametrize("max_mode", [False, True])
def test_dropped_counter(c17, corpus, max_mode):
    for circuit in [c17] + corpus[:8]:
        net, tree = _net_tree(circuit)
        ev = {v: 0 for v in net.input_vars}
        root = tree.attach[net.comparators[0]]
        p = Propagator(tree, net, map_vars=net.input_vars if max_mode else ())
        p.set_evidence(ev)
        p.query(root)
        assert p.dropped == 0
        for var in net.input_vars:
            ev = {**ev, var: 1 - ev[var]}
            kept, dropped, done = len(_cached(p)), p.dropped, p.messages
            p.set_evidence(ev)
            gone = kept - len(_cached(p))
            assert gone > 0
            assert p.dropped - dropped == gone
            p.query(root)
            assert p.messages - done == gone


def _toward(tree, r):
    """Directed edges pointing at cluster r: (u, parent of u) with the
    tree hung from r."""
    edges, seen, queue = set(), {r}, collections.deque([r])
    while queue:
        u = queue.popleft()
        for w in tree.neighbors[u]:
            if w not in seen:
                seen.add(w)
                edges.add((w, u))
                queue.append(w)
    return edges


def _random_change(rng, ev, inputs, comparators):
    """Set, flip or clear an input at random; with ``comparators``, a
    quarter of the changes set one of them instead."""
    kind = rng.integers(4 if comparators else 3)
    if kind == 3:
        ev[int(rng.choice(comparators))] = int(rng.integers(2))
    elif kind == 2 and ev:
        del ev[int(rng.choice(sorted(ev)))]
    else:
        v = int(rng.choice(inputs))
        ev[v] = 1 - ev[v] if kind == 1 and v in ev else int(rng.integers(2))


@pytest.mark.parametrize("max_mode", [False, True])
def test_collect_computes_exactly_the_missing_edges(c17, corpus, max_mode):
    """Random evidence changes and beliefs at random clusters: every
    belief is bit-identical to a fresh propagator's, and each collect
    computes exactly the edges toward its root that were not cached."""
    rng = np.random.default_rng(2026)
    for circuit in [c17] + corpus[:20]:
        net, tree = _net_tree(circuit)
        map_vars = net.input_vars if max_mode else ()
        p = Propagator(tree, net, map_vars=map_vars)
        ev: dict[int, int] = {}
        for _ in range(12):
            _random_change(rng, ev, net.input_vars, net.comparators if max_mode else ())
            p.set_evidence(ev)
            for r in rng.choice(tree.n_clusters, size=3):
                r = int(r)
                before, done = set(_cached(p)), p.messages
                got = p.belief(r)
                missing = _toward(tree, r) - before
                assert set(_cached(p)) == before | missing
                assert p.messages - done == len(missing)
                fresh = Propagator(tree, net, map_vars=map_vars)
                fresh.set_evidence(ev)
                want = fresh.belief(r)
                assert got.scope == want.scope
                assert np.array_equal(got.table, want.table)


def _unfolded(p, cid):
    """The shared potential at ``cid`` and the indicator of the evidence
    on that CPT's variable: the operands its local factor folds into one."""
    pot = p.net.potentials[p.tree][cid]
    if pot is None:
        return []
    v = next(v for v, c in p.tree.attach.items() if c == cid)
    return [pot, indicator(v, p.evidence[v])] if v in p.evidence else [pot]


def _reference_message(p, b, c):
    """The message (b, c) from the unfolded local operands and the
    messages from every other neighbor by ``combine`` and
    ``reduce_mixed``, the path the folded factors and compiled plans
    replace."""
    cached = _cached(p)
    parts = _unfolded(p, b) + [cached[a, b] for a in p.tree.neighbors[b] if a != c]
    val = parts[0]
    for q in parts[1:]:
        val = combine(val, q)
    drop = (p.tree.clusters[b].scope - p.tree.clusters[c].scope) & set(val.scope)
    return reduce_mixed(val, drop - p.map_vars, drop & p.map_vars)


@pytest.mark.parametrize("max_mode", [False, True])
def test_compiled_messages_equal_combine_then_reduce(c17, corpus, max_mode):
    for circuit in [c17] + corpus[:20]:
        net, tree = _net_tree(circuit)
        inputs = net.input_vars
        gates = [v.id for v in net.vars if v.klass is VarClass.INTERNAL]
        for ev in ({}, {v: j % 2 for j, v in enumerate(inputs[::2])},
                   {v: j % 2 for j, v in enumerate(inputs)},
                   {v: j % 2 for j, v in enumerate(gates[::3] + list(net.comparators))}):
            p = Propagator(tree, net, map_vars=inputs if max_mode else ())
            p.set_evidence(ev)
            beliefs = [p.belief(cid) for cid in range(tree.n_clusters)]
            cached = _cached(p)
            assert set(cached) == _directed(tree)
            for edge in _directed(tree):
                want = _reference_message(p, *edge)
                got = cached[edge]
                assert got.scope == want.scope
                assert np.array_equal(got.table, want.table)
            for cid, bel in enumerate(beliefs):
                parts = _unfolded(p, cid) + [cached[a, cid] for a in tree.neighbors[cid]]
                want = parts[0]
                for q in parts[1:]:
                    want = combine(want, q)
                assert bel.scope == want.scope
                assert np.array_equal(bel.table, want.table)


def test_every_sending_side_holds_a_cpt_and_every_edge_is_scheduled(c17, corpus):
    for circuit in [c17, DISCONNECTED] + corpus[:20]:
        net, tree = _net_tree(circuit)
        p = Propagator(tree, net)
        holders = set(tree.attach.values())
        assert [u for u in range(tree.n_clusters)
                if len(tree.neighbors[u]) <= 1 and u not in holders] == []
        for b, c in _directed(tree):
            assert holders & _sending_side(tree, b, c)
        for b, out in enumerate(p._out):
            assert [(p._src[e], p._src[e ^ 1]) for e in out] == \
                [(b, a) for a in tree.neighbors[b]]
        n_edges = len(p._msg)
        for e, into in enumerate(p._into):
            b, c = p._src[e], (p._src[e ^ 1] if e < n_edges else None)
            assert [(p._src[f], p._src[f ^ 1]) for f in into] == \
                [(a, b) for a in tree.neighbors[b] if a != c]


def test_evidence_on_one_propagator_leaves_another_alone(c17, corpus):
    # both read the potentials kept on the net; evidence must not write them
    for circuit in [c17] + corpus[:8]:
        net, tree = _net_tree(circuit)
        other = Propagator(tree, net)
        before = [other.belief(cid).table.copy() for cid in range(tree.n_clusters)]
        p = Propagator(tree, net)
        for ev in ({v: 1 for v in net.input_vars}, {net.comparators[0]: 1}, {}):
            p.set_evidence(ev)
            p.belief(0)
            for q in (other, Propagator(tree, net)):
                for cid, want in enumerate(before):
                    assert np.array_equal(q.belief(cid).table, want)

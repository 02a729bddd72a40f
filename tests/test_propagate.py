"""Message passing: totals, cache deltas, root choices."""

import collections
import itertools

import numpy as np
import pytest

from conftest import DISCONNECTED
from maxerr.circuit import parse_bench
from maxerr.jointree import BinaryJoinTree, build_tree
from maxerr.model import VarClass, build_error_model, joint_prob
from maxerr.propagate import Propagator, prob_evidence
from maxerr.valuation import combine, indicator, reduce_all, reduce_mixed

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
GRID = [0.01, 0.05, 0.1, 0.2, 0.3]


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


def _forwarded(tree, net):
    """The directed edges out of a CPT leaf whose scope lies inside its
    neighbor's: their message is the leaf's factor, always cached."""
    return {(b, c) for b, c in _directed(tree)
            if b < net.n_vars and tree.neighbors[b] == [c] and tree.scopes[b] <= tree.scopes[c]}


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
    root = cmp_var
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
    p.query(net.comparators[0])
    before = set(_cached(p))
    p.set_evidence({net.input_vars[0]: 1})
    assert before & set(_cached(p)), "flipping one input should not drop every message"
    # and the reused cache still gives the fresh answer
    got = p.query(net.comparators[0])
    fresh = Propagator(tree, net)
    fresh.set_evidence({net.input_vars[0]: 1})
    assert got == pytest.approx(fresh.query(net.comparators[0]), abs=1e-12)


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


@pytest.mark.parametrize("eps", [EPS, GRID], ids=["point", "grid"])
def test_flip_drops_exactly_the_messages_that_saw_it(c17, corpus, eps):
    for circuit in [c17] + corpus[:5]:
        net, tree = _net_tree(circuit, eps)
        ev = {v: 0 for v in net.input_vars}
        ev[net.comparators[0]] = 1
        roots = sorted(ev)
        p = Propagator(tree, net)
        p.set_evidence(ev)
        for r in roots:
            p.query(r)
        forwarded = _forwarded(tree, net)
        assert forwarded
        for var in list(ev):
            before = set(_cached(p))
            assert forwarded <= before
            ev = {**ev, var: 1 - ev[var]}
            p.set_evidence(ev)
            # a forwarded message is replaced with its factor, not dropped
            assert set(_cached(p)) == forwarded | {(b, c) for b, c in before
                                                   if var not in _sending_side(tree, b, c)}
            fresh = Propagator(tree, net)
            fresh.set_evidence(ev)
            for r in roots:
                assert p.query(r) == pytest.approx(fresh.query(r), abs=1e-12)


def test_propagate_belief_cells_are_joint_probs():
    net, tree = _net_tree(SMALL)
    cmp_var = net.comparator_of("z")
    bel = Propagator(tree, net).var_belief(cmp_var)
    assert bel.scope == (cmp_var,)
    assert bel.table[1] == pytest.approx(_enum_prob(net, {cmp_var: 1}), abs=1e-12)


def test_potentials_built_once_per_net_and_shared_by_every_tree(c17):
    net, tree = _net_tree(c17)
    pots = net.potentials
    for v, cpt in enumerate(net.cpts):
        want = cpt.to_valuation()
        assert pots[v].scope == want.scope and np.array_equal(pots[v].table, want.table)
    for p in (Propagator(tree, net), Propagator(build_tree(net), net)):
        assert p.net.potentials is pots
        # each factor is its potential viewed with a length-1 evidence axis
        for f, pot in zip(p._factor, pots):
            assert f.scope == pot.scope and f.table.shape == pot.table.shape + (1,)
            assert np.shares_memory(f.table, pot.table)
        assert p._factor[net.n_vars:] == [None] * (p.tree.n_clusters - net.n_vars)


def test_rejects_tree_from_other_network(c17):
    net_small, tree_small = _net_tree(SMALL)
    net_c17 = build_error_model(c17, EPS)
    with pytest.raises(ValueError, match="different network structure"):
        Propagator(tree_small, net_c17)


def test_rejects_tree_with_two_cpt_scopes_swapped(c17):
    net, tree = _net_tree(c17)
    v = net.input_vars[0]
    g = next(cpt.child.id for cpt in net.cpts if v in cpt.scope and cpt.child.id != v)
    scopes = list(tree.scopes)
    scopes[v], scopes[g] = scopes[g], scopes[v]
    with pytest.raises(ValueError, match="different network structure"):
        Propagator(BinaryJoinTree(scopes, tree.edges), net)


@pytest.mark.parametrize("unknown", [-1, "n_vars"])
def test_evidence_on_unknown_variable_raises_key_error(unknown):
    net, tree = _net_tree(SMALL)
    unknown = net.n_vars if unknown == "n_vars" else unknown
    p = Propagator(tree, net)
    ev = {net.input_vars[0]: 1}
    p.set_evidence(ev)
    want = p.query(0)
    cached = list(p._msg)
    with pytest.raises(KeyError):
        p.set_evidence({net.input_vars[0]: 0, unknown: 1})
    assert p.evidence == ev and p.dropped == 0
    assert all(m is c for m, c in zip(p._msg, cached))
    assert p.query(0) == want
    with pytest.raises(KeyError):
        p.var_belief(unknown)


@pytest.mark.parametrize("state", [-1, 2, [1], np.array([1])])
def test_evidence_state_other_than_0_or_1_raises_value_error(c17, state):
    net, tree = _net_tree(c17)
    p = Propagator(tree, net)
    ev = {net.input_vars[0]: 1}
    p.set_evidence(ev)
    want = p.query(0)
    cached = list(p._msg)
    with pytest.raises(ValueError, match="not 0 or 1"):
        p.set_evidence({net.input_vars[0]: 0, net.input_vars[1]: state})
    assert p.evidence == ev and p.dropped == 0
    assert all(m is c for m, c in zip(p._msg, cached))
    assert p.query(0) == want


def test_message_counter(c17, corpus):
    for circuit in [c17] + corpus[:8]:
        net, tree = _net_tree(circuit)
        ev = {v: 0 for v in net.input_vars}
        forwarded = _forwarded(tree, net)
        for root in range(tree.n_clusters):
            p = Propagator(tree, net)
            p.query(root)
            # every edge toward the root but the forwarded ones is computed
            full = len(_toward(tree, root) - forwarded)
            assert p.messages == full
            p.query(root)
            assert p.messages == full
        root = net.comparators[0]
        p = Propagator(tree, net)
        p.set_evidence(ev)
        p.query(root)
        for var in net.input_vars:
            ev = {**ev, var: 1 - ev[var]}
            kept, done = len(_cached(p)), p.messages
            p.set_evidence(ev)
            dropped = kept - len(_cached(p))
            p.query(root)
            assert p.messages - done == dropped


@pytest.mark.parametrize("eps", [EPS, GRID], ids=["point", "grid"])
def test_dropped_counter(c17, corpus, eps):
    for circuit in [c17] + corpus[:8]:
        net, tree = _net_tree(circuit, eps)
        ev = {v: 0 for v in net.input_vars}
        root = net.comparators[0]
        p = Propagator(tree, net)
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


@pytest.mark.parametrize("with_comparators", [False, True], ids=["inputs", "comparators"])
def test_collect_computes_exactly_the_missing_edges(c17, corpus, with_comparators):
    """Random evidence changes and beliefs at random clusters: every
    belief is bit-identical to a fresh propagator's, and each collect
    computes exactly the edges toward its root that were not cached."""
    rng = np.random.default_rng(2026)
    for circuit in [c17] + corpus[:20]:
        net, tree = _net_tree(circuit)
        p = Propagator(tree, net)
        ev: dict[int, int] = {}
        for _ in range(12):
            _random_change(rng, ev, net.input_vars,
                           net.comparators if with_comparators else ())
            p.set_evidence(ev)
            for r in rng.choice(tree.n_clusters, size=3):
                r = int(r)
                before, done = set(_cached(p)), p.messages
                got = p.belief(r)
                missing = _toward(tree, r) - before
                assert set(_cached(p)) == before | missing
                assert p.messages - done == len(missing)
                fresh = Propagator(tree, net)
                fresh.set_evidence(ev)
                want = fresh.belief(r)
                assert got.scope == want.scope
                assert np.array_equal(got.table, want.table)


def _unfolded(p, cid):
    """The shared potential at ``cid`` and the indicator of the evidence
    on that CPT's variable: the operands its local factor folds into one."""
    if cid >= p.net.n_vars:
        return []
    pot = p.net.potentials[cid]
    return [pot, indicator(cid, p.evidence[cid])] if cid in p.evidence else [pot]


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
    drop = (p.tree.scopes[b] - p.tree.scopes[c]) & set(val.scope)
    return reduce_mixed(val, drop, ())


def test_compiled_messages_equal_combine_then_reduce(c17, corpus):
    for circuit in [c17] + corpus[:20]:
        net, tree = _net_tree(circuit)
        inputs = net.input_vars
        gates = [v.id for v in net.vars if v.klass is VarClass.INTERNAL]
        for ev in ({}, {v: j % 2 for j, v in enumerate(inputs[::2])},
                   {v: j % 2 for j, v in enumerate(inputs)},
                   {v: j % 2 for j, v in enumerate(gates[::3] + list(net.comparators))}):
            p = Propagator(tree, net)
            p.set_evidence(ev)
            beliefs = [p.belief(cid) for cid in range(tree.n_clusters)]
            cached = _cached(p)
            assert set(cached) == _directed(tree)
            for edge in _directed(tree):
                want = _reference_message(p, *edge)
                got = cached[edge]
                # messages keep the length-1 evidence axis that reads drop
                assert got.scope == want.scope
                assert got.table.shape == want.table.shape + (1,)
                assert np.array_equal(got.table[..., 0], want.table)
            want_beliefs = []
            for cid, bel in enumerate(beliefs):
                parts = _unfolded(p, cid) + [cached[a, cid] for a in tree.neighbors[cid]]
                want = parts[0]
                for q in parts[1:]:
                    want = combine(want, q)
                assert bel.scope == want.scope
                assert np.array_equal(bel.table, want.table)
                assert p.query(cid) == reduce_all(want)
                want_beliefs.append(want)
            for c in net.comparators:
                want = want_beliefs[c]
                drop = set(want.scope) - {c}
                want = reduce_mixed(want, drop, ())
                got = p.var_belief(c)
                assert got.scope == want.scope == (c,)
                assert np.array_equal(got.table, want.table)


def test_every_sending_side_holds_a_cpt_and_every_edge_is_scheduled(c17, corpus):
    for circuit in [c17, DISCONNECTED] + corpus[:20]:
        net, tree = _net_tree(circuit)
        p = Propagator(tree, net)
        holders = set(range(net.n_vars))
        assert [u for u in range(net.n_vars, tree.n_clusters)
                if len(tree.neighbors[u]) <= 1] == []
        for b, c in _directed(tree):
            assert holders & _sending_side(tree, b, c)
        for b, out in enumerate(p._out):
            assert [(p._src[e], p._src[e ^ 1]) for e in out] == \
                [(b, a) for a in tree.neighbors[b]]
        assert len(p._into) == len(p._msg) == 2 * len(tree.edges)
        for e, into in enumerate(p._into):
            b, c = p._src[e], p._src[e ^ 1]
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


def _layout_evidence(net):
    """No evidence; an input, whose potential has no grid axis; an
    error-prone gate and a comparator, whose potentials have one."""
    faulty = [v for v in range(net.n_vars) if v not in net.comparators
              and net.potentials[v].table.ndim > len(net.cpts[v].scope)]
    cases = [{}, {net.input_vars[0]: 1}, {net.comparators[0]: 1}]
    if faulty:
        cases.append({faulty[0]: 0, net.comparators[-1]: 1})
    return cases


def test_grid_member_axis_is_last_and_each_slice_is_that_members_read(c17, corpus):
    # every read over a 3-eps grid ends in the member axis, and its slice m
    # is bit for bit the read on member m's network alone
    grid = [0.01, 0.05, 0.2]
    for circuit in [c17] + corpus[:20]:
        net = build_error_model(circuit, grid)
        tree = build_tree(net)
        alone = [build_error_model(circuit, eps) for eps in grid]
        for ev in _layout_evidence(net):
            p = Propagator(tree, net)
            p.set_evidence(ev)
            members = [Propagator(tree, a) for a in alone]
            for q in members:
                q.set_evidence(ev)
            reads = [lambda r, cid=cid: r.belief(cid) for cid in range(tree.n_clusters)]
            reads += [lambda r, v=v: r.var_belief(v) for v in range(net.n_vars)]
            for read in reads:
                got = read(p)
                assert got.table.shape == (2,) * len(got.scope) + (len(grid),)
                for m, q in enumerate(members):
                    want = read(q)
                    assert got.scope == want.scope
                    assert np.array_equal(got.table[..., m], want.table)

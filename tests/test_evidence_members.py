"""Evidence members: a sequence of evidence mappings read at once, each
member's slice against the same read under that member's evidence
alone, and reads of a run of members against the full read; forwarded
messages after evidence on their leaf; and reports whose passes are
split down to one member each."""

from collections.abc import Mapping

import numpy as np
import pytest

from conftest import perfbench_circuits
from maxerr import mapsearch
from maxerr.analysis import max_error, prepare, prepare_faulty, spectrum, sweep
from maxerr.jointree import build_tree, choose_order
from maxerr.model import build_error_model
from maxerr.propagate import Propagator

GRID4 = [0.01, 0.05, 0.2, 0.45]


def _cases(c17, corpus, grid):
    """(circuit, eps) pairs: c17, rca4 at seeded eps 0-2 (at one eps) and
    the first 50 corpus circuits, at 0.05 or over a 4-point grid."""
    rca4 = perfbench_circuits().ripple_carry_adder(4)
    if grid:
        return [(c, GRID4) for c in [c17, rca4] + corpus[:50]]
    seeded = [(rca4, perfbench_circuits().seeded_eps(rca4, s)) for s in (0, 1, 2)]
    return [(c17, 0.05)] + seeded + [(c, 0.05) for c in corpus[:50]]


def _members(net):
    """No evidence, a comparator at 0 and at 1, two comparators at 1 (or
    one, on a single output), and a comparator at 0 with an input at 1."""
    first, last = net.comparators[0], net.comparators[-1]
    return [{}, {first: 0}, {first: 1}, {first: 1, last: 1}, {last: 0, net.input_vars[0]: 1}]


def _reads(net, tree):
    """Every belief at a cluster, every variable's marginal, and the
    query at cluster 0, as functions of a propagator."""
    reads = [lambda p, cid=cid: p.belief(cid).table for cid in range(tree.n_clusters)]
    reads += [lambda p, v=v: p.var_belief(v).table for v in range(net.n_vars)]
    return reads + [lambda p: np.array(p.query(0))]


@pytest.mark.parametrize("grid", [False, True], ids=["point", "grid"])
def test_each_members_slice_is_its_read_alone(c17, corpus, grid):
    for c, eps in _cases(c17, corpus, grid):
        net = build_error_model(c, eps)
        tree = build_tree(net)
        members = _members(net)
        p = Propagator(tree, net)
        p.set_evidence(members)
        alone = []
        for ev in members:
            q = Propagator(tree, net)
            q.set_evidence(ev)
            alone.append(q)
        for read in _reads(net, tree):
            got = read(p)
            assert got.shape[-1] == len(members)
            for m, q in enumerate(alone):
                want = read(q)
                assert got[..., m].shape == want.shape
                assert got[..., m].tobytes() == want.tobytes()
        # a read of a run of members multiplies only theirs, to the same cells
        for cid in range(tree.n_clusters):
            full = p.belief(cid).table
            for run in (slice(0, 1), slice(1, 3), slice(2, 5)):
                got = p.belief(cid, members=run).table
                assert got.shape == full[..., run].shape
                assert got.tobytes() == full[..., run].tobytes()


def _forwarding_tree(net):
    """A tree whose comparator leaves are forwarded: comparators
    eliminated after every gate, so each comparator's CPT lands inside
    the cluster that merges it."""
    rest = [v for v in choose_order(net) if v not in net.comparators]
    gates, inputs = rest[:-len(net.input_vars)], rest[-len(net.input_vars):]
    return build_tree(net, tuple(gates) + tuple(net.comparators) + tuple(inputs))


def test_evidence_on_a_forwarded_leaf_leaves_no_stale_message(c17):
    rca4 = perfbench_circuits().ripple_carry_adder(4)
    for c, eps in ((c17, 0.05), (rca4, perfbench_circuits().seeded_eps(rca4, 0)),
                   (c17, GRID4)):
        net = build_error_model(c, eps)
        tree = _forwarding_tree(net)
        p = Propagator(tree, net)
        leaves = {p._src[e] for e in p._fwd}
        x, comp = net.input_vars[0], net.comparators[0]
        assert {x, comp} <= leaves
        steps = [{}, {x: 1}, {x: 0}, {x: 0, comp: 1}, {comp: 0},
                 [{comp: 1}, {x: 1}], [{comp: 1}, {x: 1}, {}], {x: 1}, {}]
        # a propagator on the default tree, whose comparator edges are
        # computed, gives each variable's marginal up to rounding
        other = Propagator(build_tree(net), net)
        reads = _reads(net, tree)
        for ev in steps:
            p.set_evidence(ev)
            fresh = Propagator(tree, net)
            fresh.set_evidence(ev)
            for read in reads:
                got, want = read(p), read(fresh)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            other.set_evidence(ev)
            for v in range(net.n_vars):
                assert np.allclose(p.var_belief(v).table, other.var_belief(v).table,
                                   rtol=1e-12, atol=1e-15)


def _one_member_per_pass(c, eps):
    """The default tree, and the same tree with ``width_limit`` at its
    width, where every pass holds one evidence member."""
    net, tree = prepare(c, eps)
    return net, tree, prepare(c, eps, width_limit=tree.width)[1]


def test_reports_split_to_one_member_per_pass_answer_alike(c17, corpus, monkeypatch):
    members = []
    set_evidence = Propagator.set_evidence

    def counted(self, evidence):
        assert not isinstance(evidence, Mapping)
        members.append(len(evidence))
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "set_evidence", counted)
    pb = perfbench_circuits()
    rca4 = pb.ripple_carry_adder(4)
    # corpus 34, 92 and 108 have outputs sharing a holding cluster and
    # cone with an output not next to them: several runs at one holder
    cases = [(c17, 0.05), (rca4, pb.seeded_eps(rca4, 0))] + [
        (c, 0.05) for c in corpus[:20] + [corpus[34], corpus[92], corpus[108]]]
    for c, eps in cases:
        net, tree, narrow = _one_member_per_pass(c, eps)
        union = mapsearch._cone_inputs(tree, net, net.comparators)
        # a joint query no cluster holds reads each group with and without its evidence
        joint_reads = (1 if mapsearch._holder(tree, union) is not None else
                       2 * len(mapsearch._cones(tree, net, net.comparators)))
        for joint in (False, True):
            reads = joint_reads if joint else c.n_outputs
            members.clear()
            want = max_error(net, tree, joint=joint)
            # at the default limit every read rides one setting
            assert members == [reads]
            members.clear()
            assert max_error(net, narrow, joint=joint) == want
            assert members == [1] * reads
        members.clear()
        want = spectrum(c, eps)
        assert members == [2 * c.n_outputs]
        members.clear()
        # spectrum reads the tree of the error-prone copy alone
        got = spectrum(c, eps, width_limit=prepare_faulty(c, eps)[1].width)
        assert members == [1] * 2 * c.n_outputs
        assert np.array_equal(got.per_output, want.per_output)
        assert (got.mu, got.sigma, got.input_order) == (want.mu, want.sigma, want.input_order)
    grid = [round(0.005 * i, 3) for i in range(1, 41)]
    want = sweep(c17, grid, refine=True)
    members.clear()
    assert sweep(c17, grid, refine=True, width_limit=prepare(c17, 0.05)[1].width) == want
    assert want.refined_bound is not None and set(members) == {1}

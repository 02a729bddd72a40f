"""Report-level checks; the numeric anchors were derived once from the
fault-set enumeration oracle and are pinned here as literals."""

import numpy as np
import pytest

from maxerr.analysis import (MAX_SPECTRUM_INPUTS, avg_error, max_error,
                             prepare, spectrum, sweep)
from maxerr.circuit import Circuit, all_input_vectors, parse_bench, vector_index
from maxerr.oracle import FaultEnumerator, random_circuit
from maxerr.propagate import Propagator
from maxerr.valuation import WidthLimitError

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


def test_search_counters_surface_in_report(c17):
    net, tree = prepare(c17, 0.05)
    rep = max_error(net, tree, prune=False)
    for row in rep.per_output:
        # the full tree over the output's cone: each c17 output depends on
        # 4 of the 5 inputs
        assert row.nodes_expanded == 2 ** (4 + 1) - 1
        assert row.nodes_pruned == 0


def test_max_error_builds_two_propagators(c17, corpus, monkeypatch):
    # one sum-mode propagator for the conditional errors and one
    # max-mode propagator that every output's search shares
    calls = [0]
    init = Propagator.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", counted)
    for circuit in [c17] + corpus[:8]:
        net, tree = prepare(circuit, 0.05)
        for joint in (False, True):
            calls[0] = 0
            max_error(net, tree, joint=joint)
            assert calls[0] == 2


def test_evidence_is_set_once_per_vector(c17, monkeypatch):
    # spectrum reads every comparator under one evidence setting per
    # vector; avg_error reads them with no evidence at all
    calls = [0]
    set_evidence = Propagator.set_evidence

    def counted(self, evidence):
        calls[0] += 1
        set_evidence(self, evidence)

    monkeypatch.setattr(Propagator, "set_evidence", counted)
    spectrum(c17, 0.05)
    assert calls[0] == 32
    calls[0] = 0
    avg_error(*prepare(c17, 0.05))
    assert calls[0] == 0


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
    # the whole grid runs on one tree in one batched pass, and the refine
    # points, batched by bisection levels on that tree, compile no new plans
    import maxerr.analysis as analysis
    calls, trees, sizes = [], [], []

    def recording(name):
        fn = getattr(analysis, name)

        def wrapped(net, tree, *args, **kwargs):
            out = fn(net, tree, *args, **kwargs)
            calls.append((name, net.batch))
            trees.append(tree)
            sizes.append(sum(len(plans) for plans in tree.plans.values()))
            return out
        return wrapped

    for name in ("max_errors", "avg_error", "max_error"):
        monkeypatch.setattr(analysis, name, recording(name))
    curve = sweep(c17, GRID, refine=True)
    assert curve.refined_bound is not None
    assert calls[:2] == [("max_errors", (len(GRID),)), ("avg_error", (len(GRID),))]
    assert [name for name, _ in calls[2:]] == ["max_errors"]   # 5 levels, 31 midpoints
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


def test_prepare_forwards_width_limit(c17):
    with pytest.raises(WidthLimitError):
        prepare(c17, 0.05, width_limit=2)


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
        for j, row in enumerate(max_error(net, tree).per_output):
            if row.unreachable:
                assert cond[:, j].max() == 0.0
                continue
            _check_cone_row(row, cond[:, j], _input_cone(c, [c.outputs[j]]))

        (row,) = max_error(net, tree, joint=True).per_output
        joint = _all_wrong(c, eps)
        if row.unreachable:
            assert joint.max() == 0.0
        else:
            _check_cone_row(row, joint, _input_cone(c, c.outputs))


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
    base = _counts(c17)
    for m in (4, 10):
        got = _counts(_with_unused_inputs(c17, m))
        assert [g[3:] for g in got] == [b[3:] for b in base]
        assert [g[:2] for g in got] == [b[:2] for b in base]
        for g, b in zip(got, base):
            assert g[2] == pytest.approx(b[2], abs=1e-12)


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

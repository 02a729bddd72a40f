from itertools import product

import numpy as np
import pytest

from maxerr.circuit import GateFunc, parse_bench
from maxerr.model import (Cpt, ErrorModelNet, Var, VarClass, build_error_model,
                          cpt_for_gate, eps_by_net_name, joint_prob)

AND2 = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")


def test_variable_layout(c17):
    net = build_error_model(c17, 0.05)
    k, G, n = 5, 6, 2
    assert net.n_vars == k + 2 * G + n
    assert [v.klass for v in net.vars[:k]] == [VarClass.INPUT] * k
    assert net.vars[k].name == "10"
    assert net.vars[k + G].name == "10'"
    assert net.vars[-1].name == "err:23"
    assert len(net.cpts) == net.n_vars
    assert net.input_vars == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("reorder", [lambda cpts: [cpts[1], cpts[0]] + cpts[2:],
                                     lambda cpts: cpts[:-1]], ids=["swapped", "missing"])
def test_cpts_must_follow_variable_order(reorder):
    net = build_error_model(AND2, 0.05)
    with pytest.raises(ValueError, match="one CPT per variable, in variable order"):
        ErrorModelNet(AND2, list(net.vars), reorder(list(net.cpts)), net.comparators,
                      net.faulty_outputs)


def test_faulty_cpt_entries_are_twice_eps():
    child = Var(2, "z", VarClass.INTERNAL)
    parents = (Var(0, "a", VarClass.INPUT), Var(1, "b", VarClass.INPUT))
    cpt = cpt_for_gate(GateFunc.AND, 2, 0.05, True, child, parents)
    # correct AND output gets 0.9, its complement 0.1, in every row
    assert cpt.prob(1, (1, 1)) == pytest.approx(0.9)
    assert cpt.prob(0, (1, 1)) == pytest.approx(0.1)
    assert cpt.prob(0, (0, 1)) == pytest.approx(0.9)
    assert cpt.prob(1, (0, 1)) == pytest.approx(0.1)


def test_ideal_cpt_deterministic():
    child = Var(2, "z", VarClass.INTERNAL)
    parents = (Var(0, "a", VarClass.INPUT), Var(1, "b", VarClass.INPUT))
    cpt = cpt_for_gate(GateFunc.NAND, 2, 0.0, False, child, parents)
    assert set(np.unique(cpt.table)) == {0.0, 1.0}
    assert cpt.prob(0, (1, 1)) == 1.0


def test_eps_validation():
    child = Var(1, "z", VarClass.INTERNAL)
    parent = (Var(0, "a", VarClass.INPUT),)
    with pytest.raises(ValueError):
        cpt_for_gate(GateFunc.NOT, 1, 0.6, True, child, parent)
    with pytest.raises(ValueError):
        cpt_for_gate(GateFunc.NOT, 1, -0.1, True, child, parent)


@pytest.mark.parametrize("eps", [-3.0, float("nan"), 0.7])
def test_eps_is_checked_without_any_gate(eps):
    # no gate CPT is built here, so the model itself must reject the eps,
    # built or derived with ``at``, and leave the net ``at`` is called on as it was
    wire = parse_bench("INPUT(a)\nOUTPUT(a)\n")
    wire_net, and_net = build_error_model(wire, 0.05), build_error_model(AND2, 0.05)
    nets = (wire_net, and_net)
    before = [(net.batch, net.cpts, list(net.potentials)) for net in nets]
    calls = [(lambda e: build_error_model(wire, e), form) for form in (eps, [0.05, eps])]
    calls += [(wire_net.at, form) for form in (eps, [0.05, eps])]
    calls += [(lambda e: build_error_model(AND2, e), {0: eps}), (and_net.at, {0: eps})]
    for build, form in calls:
        with pytest.raises(ValueError, match="gate error probability .* outside"):
            build(form)
    assert [(net.batch, net.cpts, net.potentials) for net in nets] == before


def test_cpt_column_tolerance_is_allclose_default():
    """Columns must sum to 1 within 1e-12 + 1e-5 (np.allclose with
    atol=1e-12 and its default rtol); NaN never passes."""
    child, parent = Var(1, "z", VarClass.INTERNAL), Var(0, "a", VarClass.INPUT)
    ok = np.array([[0.5, 0.3], [0.5 + 5e-6, 0.7]])
    assert Cpt(child, (parent,), ok).table is not None
    for bad in (0.5 + 2e-5, 0.5 - 2e-5, np.nan):
        with pytest.raises(ValueError):
            Cpt(child, (parent,), np.array([[0.5, 0.3], [bad, 0.7]]))
    with pytest.raises(ValueError):
        Cpt(child, (), np.array([0.5, np.inf]))


def test_comparator_is_deterministic_xor():
    net = build_error_model(AND2, 0.1)
    comp = net.cpts[net.comparators[0]]
    assert len(comp.parents) == 2
    for a in (0, 1):
        for b in (0, 1):
            assert comp.prob(a ^ b, (a, b)) == 1.0


def test_output_fed_by_input_gets_constant_comparator():
    c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    net = build_error_model(c, 0.1)
    comp = net.cpts[net.comparator_of("a")]
    # both copies are the same shared input: never a mismatch
    assert len(comp.parents) == 1
    assert comp.prob(0, (0,)) == 1.0 and comp.prob(0, (1,)) == 1.0


def test_per_gate_eps_map(c17):
    eps = {gi: 0.01 * (gi + 1) for gi in range(6)}
    net = build_error_model(c17, eps)
    # gate 3's error-prone copy flips with probability 2 * eps in every row
    g = c17.gates[3]
    cpt = net.cpts[c17.n_inputs + c17.n_gates + 3]
    for pa in product((0, 1), repeat=len(g.fanin)):
        assert cpt.prob(g.func.eval(pa) ^ 1, pa) == pytest.approx(2 * 0.04)
    with pytest.raises(ValueError):
        build_error_model(c17, {0: 0.05})  # missing gates


def test_eps_by_net_name(c17):
    m = eps_by_net_name(c17, {"22": 0.02}, default=0.01)
    gate = {g.output: gi for gi, g in enumerate(c17.gates)}
    assert m[gate["22"]] == pytest.approx(0.02)
    assert m[gate["10"]] == pytest.approx(0.01)
    with pytest.raises(ValueError):
        eps_by_net_name(c17, {"nope": 0.1}, default=0.01)
    with pytest.raises(ValueError):
        eps_by_net_name(c17, {"22": 0.1})  # no default for the rest


def test_joint_prob_sums_to_one():
    net = build_error_model(AND2, 0.07)
    total = 0.0
    for code in range(1 << net.n_vars):
        assign = [(code >> i) & 1 for i in range(net.n_vars)]
        total += joint_prob(net, assign)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_prob_zero_on_ideal_violation():
    net = build_error_model(AND2, 0.07)
    # inputs 1,1 force the ideal AND variable to 1; setting it 0 is impossible
    assign = [1, 1, 0, 1, 0]
    assert joint_prob(net, assign) == 0.0


def test_joint_marginal_matches_flip_semantics():
    # P(faulty z wrong | a=1, b=1) must be 2*eps exactly for one gate
    eps = 0.08
    net = build_error_model(AND2, eps)
    wrong = 0.0
    seen = 0.0
    for code in range(1 << net.n_vars):
        assign = [(code >> i) & 1 for i in range(net.n_vars)]
        if assign[0] == 1 and assign[1] == 1:
            p = joint_prob(net, assign)
            seen += p
            if assign[3] != 1:  # faulty copy of z disagrees with AND(1,1)
                wrong += p
    assert wrong / seen == pytest.approx(2 * eps, abs=1e-12)

"""Enumeration and sampling oracles: hand checks and internal consistency."""

import numpy as np
import pytest

from maxerr.circuit import all_input_vectors, parse_bench, to_bench, vector_index
from maxerr.oracle import (MAX_ENUM_GATES, MAX_ENUM_INPUTS, MC_SHARD, FaultEnumerator,
                           McConfig, exact_cond_error, exact_map, monte_carlo,
                           random_circuit)

CHAIN = parse_bench("""
INPUT(a)
OUTPUT(z)
y = NOT(a)
z = NOT(y)
""")

ONE_GATE = parse_bench("""
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
""")


def test_weights_form_a_distribution(c17):
    enum = FaultEnumerator(c17)
    for eps in (0.0, 0.01, 0.25, 0.5):
        w = enum.weights(eps)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()


def test_weights_hand_check():
    # two gates, eps 0.05 -> each misfires with probability 0.1
    enum = FaultEnumerator(CHAIN)
    w = enum.weights(0.05)
    # fault set rows follow binary order 00, 01, 10, 11
    assert w == pytest.approx([0.81, 0.09, 0.09, 0.01], abs=1e-15)


def test_weights_per_gate_map():
    enum = FaultEnumerator(CHAIN)
    w = enum.weights({0: 0.0, 1: 0.25})
    assert w == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)


def test_eps_outside_range_rejected():
    enum = FaultEnumerator(CHAIN)
    # NaN compares False both ways, so only an in-range test rejects it
    for bad in (-0.01, -0.1, 0.51, 1.0, float("inf"), float("nan"), {0: 0.1, 1: float("nan")}):
        with pytest.raises(ValueError):
            enum.weights(bad)
        with pytest.raises(ValueError):
            monte_carlo(CHAIN, [0], bad, McConfig(runs=10))


def test_single_gate_error_rate_is_flip_probability():
    enum = FaultEnumerator(ONE_GATE)
    cond = enum.cond_errors(0.05)
    assert cond == pytest.approx(np.full((4, 1), 0.10), abs=1e-15)


def test_chain_error_rate_is_odd_flip_probability():
    # output wrong iff exactly one of the two inverters misfires
    f = 0.1
    cond = FaultEnumerator(CHAIN).cond_errors(0.05)
    assert cond == pytest.approx(np.full((2, 1), 2 * f * (1 - f)), abs=1e-15)


def test_cond_errors_agree_with_single_vector_route(c17):
    enum = FaultEnumerator(c17)
    table = enum.cond_errors(0.05)
    for idx, bits in enumerate(all_input_vectors(c17.n_inputs)):
        row = exact_cond_error(c17, bits.tolist(), 0.05)
        assert row == pytest.approx(table[idx], abs=1e-12)


def test_zero_eps_means_no_errors(c17):
    assert FaultEnumerator(c17).cond_errors(0.0) == pytest.approx(0.0, abs=0.0)


def test_exact_map_consistency(c17):
    enum = FaultEnumerator(c17)
    truth = exact_map(c17, 0.05, 0, enum)
    col = enum.cond_errors(0.05)[:, 0]
    assert truth.cond_error == pytest.approx(col.max(), abs=1e-15)
    assert truth.prob == pytest.approx(0.5 ** c17.n_inputs * col.max(), abs=1e-15)
    assert col[vector_index(truth.vector)] == truth.cond_error


def test_exact_map_breaks_ties_low():
    truth = exact_map(ONE_GATE, 0.05, 0)
    assert truth.vector == (0, 0)  # all four vectors tie at 0.10


def test_monte_carlo_is_deterministic(c17):
    cfg = McConfig(runs=50_000, seed=42)
    a = monte_carlo(c17, [0, 1, 1, 1, 1], 0.05, cfg)
    b = monte_carlo(c17, [0, 1, 1, 1, 1], 0.05, cfg)
    assert (a.p_error == b.p_error).all()
    assert a.runs == 50_000


def test_monte_carlo_converges_to_enumeration(c17):
    exact = exact_cond_error(c17, [0, 1, 1, 1, 1], 0.05)
    est = monte_carlo(c17, [0, 1, 1, 1, 1], 0.05, McConfig(runs=200_000, seed=3))
    assert np.all(np.abs(est.p_error - exact) <= 4 * est.stderr + 1e-9)


def test_monte_carlo_partial_last_shard():
    runs = 2 * MC_SHARD + 100   # two full shards, then one of 100 runs
    est = monte_carlo(CHAIN, [1], 0.05, McConfig(runs=runs, seed=1))
    assert est.runs == runs
    assert 0.0 <= est.p_error[0] <= 1.0


@pytest.mark.parametrize("runs", [0, -5])
def test_monte_carlo_rejects_non_positive_runs(runs):
    with pytest.raises(ValueError, match="at least 1 run"):
        monte_carlo(CHAIN, [1], 0.05, McConfig(runs=runs))


def test_enumeration_caps():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        FaultEnumerator(random_circuit(rng, 2, MAX_ENUM_GATES + 1))
    with pytest.raises(ValueError):
        FaultEnumerator(random_circuit(rng, MAX_ENUM_INPUTS + 1, 3))


def test_random_circuit_is_reproducible_and_well_formed():
    a = random_circuit(np.random.default_rng(99), 4, 8)
    b = random_circuit(np.random.default_rng(99), 4, 8)
    assert to_bench(a) == to_bench(b)
    assert a.n_inputs == 4 and a.n_gates == 8
    assert a.outputs, "generator must leave at least one unconsumed net"
    # text form round-trips and evaluates
    again = parse_bench(to_bench(a))
    vec = [0, 1, 0, 1]
    assert again.eval(vec) == a.eval(vec)


def test_random_corpus_outputs_nonempty(corpus):
    for c in corpus:
        assert c.outputs
        assert 2 <= c.n_inputs <= 8
        assert 3 <= c.n_gates <= 12

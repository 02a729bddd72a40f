"""The batched eps sweep against the same answers computed one point at
a time, its grid checks, and c17's coin-flip eps in closed form."""

import math
import re

import numpy as np
import pytest

import maxerr.analysis as analysis
import maxerr.mapsearch as mapsearch
from conftest import DISCONNECTED, GATE_FREE, perfbench_circuits
from maxerr.analysis import avg_error, max_error, max_errors, prepare, spectrum, sweep
from maxerr.mapsearch import MapQuery, seed, solve
from maxerr.model import build_error_model, build_faulty_model
from maxerr.oracle import FaultEnumerator
from maxerr.propagate import Propagator

# the unreachable eps 0, gates that are fair coins (0.25) and inverters (0.5)
GRID12 = [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5]
C17_COIN_FLIP = (3.0 - math.sqrt(3.0)) / 12.0   # 0.10566243270259357


def _circuits(c17, corpus):
    adders = perfbench_circuits()
    return [c17, adders.ripple_carry_adder(3), adders.ripple_carry_adder(4),
            DISCONNECTED, GATE_FREE] + corpus[:40]


def _refined_one_at_a_time(c, tree, lo, hi):
    while hi - lo > 2e-4:
        mid = 0.5 * (lo + hi)
        if max_error(build_error_model(c, mid), tree).max_error >= 0.5:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_batched_sweep_equals_point_by_point(c17, corpus, monkeypatch):
    for c in _circuits(c17, corpus):
        curve = sweep(c, GRID12, refine=True)
        assert [p.epsilon for p in curve.points] == GRID12
        for p in curve.points:
            net, tree = prepare(c, p.epsilon)
            rep = max_error(net, tree)
            assert (p.max_error, p.worst_vector, p.worst_output) == \
                (rep.max_error, rep.worst_vector, rep.worst_output)
            assert p.avg_error == avg_error(net, tree)
        crossing = next((i for i, p in enumerate(curve.points) if p.max_error >= 0.5), None)
        if crossing is None:
            assert curve.error_bound is curve.refined_bound is None
        else:
            assert curve.error_bound == GRID12[crossing]
            lo = GRID12[crossing - 1] if crossing else 0.0
            assert curve.refined_bound == _refined_one_at_a_time(
                c, tree, lo, GRID12[crossing])

        monkeypatch.setattr(analysis, "_chunk_size", lambda tree: 3)
        assert sweep(c, GRID12, refine=True) == curve
        monkeypatch.undo()


@pytest.mark.parametrize("joint", [False, True])
def test_batched_search_matches_each_member_alone(c17, corpus, joint):
    # every row, node counts included, as the search of that eps alone
    for c in _circuits(c17, corpus):
        net, tree = prepare(c, GRID12)
        reports = max_errors(net, tree, joint=joint)
        assert len(reports) == len(GRID12)
        for eps, rep in zip(GRID12, reports):
            assert rep == max_error(build_error_model(c, eps), tree, joint=joint)


@pytest.mark.parametrize("joint", [False, True])
def test_average_on_the_searched_propagator_equals_a_fresh_one(c17, corpus, joint):
    # a sweep chunk reads its average first, with no evidence set, then
    # runs its argmax pass on the same propagator: the pass reuses the
    # messages no evidence reaches, and both answer as on fresh ones
    for c in _circuits(c17, corpus):
        net, tree = prepare(c, GRID12)
        prop = Propagator(tree, net)
        shared = analysis._avg_error(prop)
        done = prop.messages
        reports = analysis._max_errors(prop, joint=joint)
        fresh = Propagator(tree, net)
        assert np.array_equal(shared, avg_error(net, tree))
        assert reports == analysis._max_errors(fresh, joint=joint)
        assert prop.messages - done <= fresh.messages


def test_max_errors_orders_the_inputs_once_per_call(c17, monkeypatch):
    # every query branches along the one order, restricted to its cone
    calls = []
    for owner in (analysis, mapsearch):
        def counted(net, _fn=owner.var_order_heuristic):
            calls.append(net)
            return _fn(net)
        monkeypatch.setattr(owner, "var_order_heuristic", counted)
    for c in (c17, perfbench_circuits().ripple_carry_adder(3)):
        for eps in (0.05, GRID12):
            net, tree = prepare(c, eps)
            calls.clear()
            max_errors(net, tree)
            assert calls == [net]


def test_batched_model_cells_equal_the_scalar_model(c17):
    grid = build_error_model(c17, GRID12)
    assert grid.batch == (len(GRID12),)
    for m, eps in enumerate(GRID12):
        alone = build_error_model(c17, eps)
        for a, b in zip(grid.cpts, alone.cpts):
            table = a.table[m] if a.table.ndim > b.table.ndim else a.table
            assert table.tobytes() == b.table.tobytes()

    # ``at`` builds the eps-dependent tables as ``build`` does and
    # shares the rest, potentials included, with the network it derives
    # from, on the three-block model and on the error-prone copy alone
    adders = perfbench_circuits()
    rca4 = adders.ripple_carry_adder(4)
    for build in (build_error_model, build_faulty_model):
        for c, was, eps in [(rca4, GRID12, 0.05), (rca4, 0.05, GRID12),
                            (rca4, GRID12[:3], adders.seeded_eps(rca4, 0)),
                            (rca4, GRID12, GRID12[3:6]), (rca4, 0.05, adders.seeded_eps(rca4, 1)),
                            (GATE_FREE, GRID12, 0.05), (GATE_FREE, 0.05, GRID12)]:
            net = build(c, was)
            at, built = net.at(eps), build(c, eps)
            assert (at.batch, at.comparators, at.faulty_outputs) == \
                (built.batch, built.comparators, built.faulty_outputs)
            assert len(at.cpts) == len(built.cpts) == len(at.potentials) == len(built.potentials)
            for a, b in zip(at.cpts, built.cpts):
                assert a.table.shape == b.table.shape and a.table.tobytes() == b.table.tobytes()
            for a, b in zip(at.potentials, built.potentials):
                assert a.scope == b.scope and a.table.tobytes() == b.table.tobytes()
            assert at.vars is net.vars
            # the inputs, and the error-free copy of the three-block model
            for v in range(net.n_vars - c.n_gates - len(net.comparators)):
                assert at.cpts[v] is net.cpts[v] and at.potentials[v] is net.potentials[v]


def test_sweep_builds_the_model_once(c17, monkeypatch):
    # every chunk and bisection pass runs on ``net.at`` of the one model
    calls = [0]
    build = analysis.build_error_model

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_error_model", counted)
    assert sweep(c17, GRID12, refine=True).refined_bound is not None
    assert calls[0] == 1
    # 4 chunks of 3 and bisection passes of 3 midpoints
    monkeypatch.setattr(analysis, "_chunk_size", lambda tree: 3)
    calls[0] = 0
    rca4 = perfbench_circuits().ripple_carry_adder(4)
    assert sweep(rca4, GRID12, refine=True).refined_bound is not None
    assert calls[0] == 1


@pytest.mark.parametrize("grid, bad", [([0.1, 0.6], "0.6"),
                                       ([0.01, 0.02, float("nan")], "nan"),
                                       ([0.1, float("inf")], "inf"),
                                       ([-0.1, 0.1], "-0.1")])
def test_sweep_checks_every_grid_value_before_building(c17, monkeypatch, grid, bad):
    calls = []
    for name in ("build_error_model", "prepare", "max_errors", "max_error"):
        def counted(*args, _fn=getattr(analysis, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    with pytest.raises(ValueError, match=re.escape("value %s " % bad)):
        sweep(c17, grid, refine=True)
    assert calls == []


def test_spectrum_rejects_a_grid_before_building(c17, monkeypatch):
    calls = []
    for name in ("build_error_model", "prepare", "build_faulty_model", "prepare_faulty"):
        def counted(*args, _fn=getattr(analysis, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    with pytest.raises(ValueError, match="spectrum takes one eps or an eps map"):
        spectrum(c17, [0.1, 0.2])
    assert calls == []


def test_single_eps_entry_points_reject_a_grid_network(c17):
    net, tree = prepare(c17, [0.1, 0.2])
    with pytest.raises(ValueError, match="max_error takes a network at one eps"):
        max_error(net, tree)
    for entry in (solve, seed):
        with pytest.raises(ValueError, match="a MapQuery takes a network at one eps"):
            entry(MapQuery(net, tree, {net.comparators[0]: 1}))


def test_c17_coin_flip_eps_closed_form(c17):
    enum = FaultEnumerator(c17)
    lo, hi = 0.105, 0.110      # the grid bracket around the crossing
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if enum.cond_errors(mid).max() >= 0.5:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - C17_COIN_FLIP) <= 1e-12
    refined = sweep(c17, [round(0.005 * i, 3) for i in range(1, 41)], refine=True).refined_bound
    assert abs(refined - C17_COIN_FLIP) <= 1e-4

"""The batched eps sweep against the same answers computed one point at
a time, its grid checks, and c17's coin-flip eps in closed form."""

import math
import re

import pytest

import maxerr.analysis as analysis
from conftest import DISCONNECTED, perfbench_circuits
from maxerr.analysis import avg_error, max_error, max_errors, prepare, sweep
from maxerr.circuit import parse_bench
from maxerr.model import build_error_model
from maxerr.oracle import FaultEnumerator

# the unreachable eps 0, gates that are fair coins (0.25) and inverters (0.5)
GRID12 = [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5]
C17_COIN_FLIP = (3.0 - math.sqrt(3.0)) / 12.0   # 0.10566243270259357
# no gate depends on eps, so only the comparators carry the grid axis
GATE_FREE = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(b)\n")


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

        monkeypatch.setattr(analysis, "_chunk_size", lambda tree, limit: 3)
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


def test_batched_model_cells_equal_the_scalar_model(c17):
    grid = build_error_model(c17, GRID12)
    assert grid.batch == (len(GRID12),)
    for m, eps in enumerate(GRID12):
        alone = build_error_model(c17, eps)
        for a, b in zip(grid.cpts, alone.cpts):
            table = a.table[m] if a.table.ndim > b.table.ndim else a.table
            assert table.tobytes() == b.table.tobytes()


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

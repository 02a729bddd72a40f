import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxerr.valuation import (Valuation, WidthLimitError, combine, from_cells,
                              indicator, marg_max, marg_sum, reduce_all,
                              reduce_mixed)


def rand_val(rng, scope):
    shape = (2,) * len(scope)
    return Valuation(tuple(scope), rng.random(shape) + 1e-3)


# -- hypothesis strategies ------------------------------------------------

scopes = st.lists(st.integers(0, 5), min_size=0, max_size=4, unique=True).map(
    lambda s: tuple(sorted(s)))


@st.composite
def valuations(draw):
    scope = draw(scopes)
    cells = draw(st.lists(st.floats(0.0, 10.0, allow_subnormal=False),
                          min_size=2 ** len(scope), max_size=2 ** len(scope)))
    return from_cells(scope, np.array(cells))


@given(valuations(), valuations())
@settings(max_examples=150, deadline=None)
def test_combine_commutes(a, b):
    ab, ba = combine(a, b), combine(b, a)
    assert ab.scope == ba.scope
    np.testing.assert_allclose(ab.table, ba.table, rtol=1e-12)


@given(valuations(), valuations(), valuations())
@settings(max_examples=100, deadline=None)
def test_combine_associates(a, b, c):
    left = combine(combine(a, b), c)
    right = combine(a, combine(b, c))
    assert left.scope == right.scope
    np.testing.assert_allclose(left.table, right.table, rtol=1e-9, atol=1e-300)


@given(valuations())
@settings(max_examples=100, deadline=None)
def test_unit_is_neutral(v):
    w = combine(v, Valuation((), np.array(1.0)))
    assert w.scope == v.scope
    np.testing.assert_allclose(w.table, v.table)


@given(valuations())
@settings(max_examples=100, deadline=None)
def test_sum_marginal_order_irrelevant(v):
    if len(v.scope) < 2:
        return
    a, b = v.scope[0], v.scope[1]
    one = marg_sum(marg_sum(v, [a]), [b])
    both = marg_sum(v, [a, b])
    np.testing.assert_allclose(one.table, both.table, rtol=1e-12)


def test_combine_broadcasts_disjoint_scopes():
    a = from_cells((1,), [2.0, 3.0])
    b = from_cells((4,), [5.0, 7.0])
    ab = combine(a, b)
    assert ab.scope == (1, 4)
    np.testing.assert_allclose(ab.table, [[10, 14], [15, 21]])


def test_combine_aligns_shared_vars():
    a = from_cells((1, 2), [1, 2, 3, 4])
    b = from_cells((2,), [10, 100])
    ab = combine(a, b)
    assert ab.scope == (1, 2)
    np.testing.assert_allclose(ab.table, [[10, 200], [30, 400]])


def test_from_cells_canonicalizes_scope_order():
    # cells given with scope (3, 1) must transpose into sorted scope (1, 3)
    v = from_cells((3, 1), [0.0, 1.0, 2.0, 3.0])
    assert v.scope == (1, 3)
    # cell for var1=0, var3=1 sat at index (1, 0) of the given order
    assert v.table[0, 1] == 2.0


def test_marg_max_witness_is_lexicographically_smallest():
    v = from_cells((1, 2), [5.0, 5.0, 5.0, 5.0])
    m, wit = marg_max(v, [1, 2])
    assert m.scope == ()
    assert int(wit) == 0  # packed (var1, var2) = (0, 0)


def test_indicator_zeroes_other_state():
    v = from_cells((4,), [3.0, 5.0])
    e = combine(v, indicator(4, 1))
    np.testing.assert_allclose(e.table, [0.0, 5.0])


def test_reduce_mixed_sum_before_max():
    rng = np.random.default_rng(3)
    v = rand_val(rng, (0, 1, 2))
    got = reduce_mixed(v, drop_sum=[1], drop_max=[0])
    want = marg_max(marg_sum(v, [1]), [0])[0]
    np.testing.assert_allclose(got.table, want.table)


def test_summing_an_axis_with_a_zero_slice_equals_maxing_it():
    # axes are summed one at a time, so summing an axis whose other slice
    # is all zero adds exact zeros, and x + 0 = max(x, 0) bit for bit
    rng = np.random.default_rng(11)
    scope = tuple(range(10))
    for _ in range(40):
        v = rand_val(rng, scope)
        u = int(rng.integers(len(scope)))
        v.table[(slice(None),) * u + (int(rng.integers(2)),)] = 0.0
        others = [w for w in scope if w != u and rng.random() < 0.6]
        got = marg_sum(v, others + [u])
        want = reduce_mixed(v, others, [u])
        assert got.scope == want.scope
        assert np.array_equal(got.table, want.table)


def test_reduce_all_scalar():
    v = from_cells((0, 1), [1.0, 2.0, 3.0, 4.0])
    assert reduce_all(v) == pytest.approx(10.0)
    assert reduce_all(v, max_vars=[0, 1]) == pytest.approx(4.0)


def test_max_inside_sum_dominates():
    # summing X after maximizing I can only grow: checked cell-wise
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rand_val(rng, tuple(sorted(rng.choice(6, rng.integers(2, 5), replace=False))))
        xs = [x for x in v.scope[: len(v.scope) // 2]]
        is_ = [x for x in v.scope[len(v.scope) // 2:]]
        upper = marg_sum(marg_max(v, is_)[0], xs)
        exact = marg_max(marg_sum(v, xs), is_)[0]
        assert np.all(upper.table >= exact.table - 1e-12)


def test_width_guard_trips():
    vals = [from_cells((i, 25), np.ones(4)) for i in range(6)]
    acc = vals[0]
    with pytest.raises(WidthLimitError):
        for v in vals[1:]:
            acc = combine(acc, v, width_limit=5)


def test_scope_must_be_sorted_unique():
    with pytest.raises(ValueError):
        Valuation((2, 1), np.ones((2, 2)))
    with pytest.raises(ValueError):
        Valuation((1, 1), np.ones((2, 2)))

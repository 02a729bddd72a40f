"""Valuation algebra over binary variables.

A valuation is a nonnegative table over an ordered scope of variable
ids.  The scope is kept sorted ascending and the table is a dense numpy
array of shape (2,)*len(scope); flattened in C order the first scope
variable is the most significant bit of the cell index.  Combination is
pointwise multiplication over the union scope, marginalization removes
variables by summing or maximizing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

DEFAULT_WIDTH_LIMIT = 25


class WidthLimitError(RuntimeError):
    """A scope grew past the configured width limit (intractable clique)."""

    def __init__(self, width, limit, context=""):
        self.width = width
        self.limit = limit
        msg = "scope of %d variables exceeds the width limit %d" % (width, limit)
        if context:
            msg += " (%s)" % context
        super().__init__(msg)


class Valuation:
    __slots__ = ("scope", "table")

    def __init__(self, scope: Sequence[int], table: np.ndarray):
        self.scope = tuple(scope)
        self.table = np.asarray(table, dtype=np.float64)
        if self.table.shape != (2,) * len(self.scope):
            raise ValueError("table shape %s does not match scope size %d"
                             % (self.table.shape, len(self.scope)))
        if any(a >= b for a, b in zip(self.scope, self.scope[1:])):
            raise ValueError("scope must be strictly increasing: %s" % (self.scope,))

    def __repr__(self):
        return "Valuation(scope=%s)" % (self.scope,)


def trusted(scope: tuple[int, ...], table: np.ndarray) -> Valuation:
    """Valuation from a sorted scope and a float64 table of the matching
    shape, taken as given: the constructor's checks are skipped."""
    v = Valuation.__new__(Valuation)
    v.scope = scope
    v.table = table
    return v


def from_cells(scope: Sequence[int], cells: Sequence[float]) -> Valuation:
    """Valuation from a flat cell list in the given (not necessarily
    sorted) scope order; axes are permuted into canonical order."""
    scope = tuple(scope)
    table = np.asarray(cells, dtype=np.float64).reshape((2,) * len(scope))
    perm = sorted(range(len(scope)), key=lambda i: scope[i])
    return Valuation(tuple(scope[i] for i in perm), np.transpose(table, perm))


def indicator(var: int, state: int) -> Valuation:
    """Evidence valuation: 1 on the observed state, 0 elsewhere."""
    t = np.zeros(2)
    t[state] = 1.0
    return Valuation((var,), t)


def _merge_scopes(a: tuple[int, ...], b: tuple[int, ...]):
    """Union of two sorted scopes plus broadcast shapes for each operand."""
    union: list[int] = []
    sa: list[int] = []
    sb: list[int] = []
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] < b[j]):
            union.append(a[i]); sa.append(2); sb.append(1); i += 1
        elif i >= len(a) or b[j] < a[i]:
            union.append(b[j]); sa.append(1); sb.append(2); j += 1
        else:
            union.append(a[i]); sa.append(2); sb.append(2); i += 1; j += 1
    return tuple(union), tuple(sa), tuple(sb)


def combine(a: Valuation, b: Valuation,
            width_limit: int = DEFAULT_WIDTH_LIMIT) -> Valuation:
    """Pointwise product over the union scope."""
    union, sa, sb = _merge_scopes(a.scope, b.scope)
    if len(union) > width_limit:
        raise WidthLimitError(len(union), width_limit, "combine")
    ta = a.table.reshape(sa)
    tb = b.table.reshape(sb)
    return Valuation(union, ta * tb)


def _drop_axes(v: Valuation, drop: Iterable[int]):
    drop = set(drop)
    extra = drop - set(v.scope)
    if extra:
        raise ValueError("variables %s not in scope %s" % (sorted(extra), v.scope))
    axes = tuple(i for i, var in enumerate(v.scope) if var in drop)
    kept = tuple(var for var in v.scope if var not in drop)
    return axes, kept


def sum_axes(table: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Sum ``table`` over ``axes`` one length-2 axis at a time, highest
    first: one ``a + b`` per cell and step, whatever numpy's grouping."""
    for axis in sorted((a % table.ndim for a in axes), reverse=True):
        table = np.add.reduce(table, axis=axis)
    return table


def marg_sum(v: Valuation, drop: Iterable[int]) -> Valuation:
    """Sum out the given variables (``sum_axes``)."""
    axes, kept = _drop_axes(v, drop)
    return Valuation(kept, sum_axes(v.table, axes))


def marg_max(v: Valuation, drop: Iterable[int]):
    """Max out the given variables.

    Returns ``(valuation, witness)`` where witness is an int array over
    the kept cells giving one maximizing assignment of the dropped
    variables, packed as a binary number whose most significant bit is
    the lowest dropped variable id.  Ties resolve to the smallest packed
    value, i.e. the lexicographically smallest assignment.
    """
    axes, kept = _drop_axes(v, drop)
    if not axes:
        return v, np.zeros(v.table.shape, dtype=np.int64)
    moved = np.moveaxis(v.table, axes, range(len(kept), len(v.scope)))
    flat = moved.reshape(moved.shape[:len(kept)] + (-1,))
    witness = np.argmax(flat, axis=-1)
    table = np.max(flat, axis=-1)
    return Valuation(kept, table), witness


def reduce_mixed(v: Valuation, drop_sum: Iterable[int], drop_max: Iterable[int]) -> Valuation:
    """Drop ``drop_sum`` by summation, then ``drop_max`` by maximization.

    Summing first keeps the result as tight as this split allows while
    staying an upper bound of the sum-before-max value whenever some max
    variable must leave early.
    """
    out = marg_sum(v, drop_sum)
    axes, kept = _drop_axes(out, drop_max)
    if not axes:
        return out
    return Valuation(kept, np.max(out.table, axis=axes))


def reduce_all(v: Valuation, max_vars: Iterable[int] = ()) -> float:
    """Collapse the whole scope to a scalar: sum variables not in
    ``max_vars``, then max the rest."""
    mv = set(max_vars) & set(v.scope)
    return float(reduce_mixed(v, set(v.scope) - mv, mv).table)

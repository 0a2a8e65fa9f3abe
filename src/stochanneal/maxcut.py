"""Max-Cut instances and the Boltzmann energy algebra.

A cut assignment is a binary vector x (0 = first partition, 1 = second).
The value to maximize is the total weight crossing the partition,

    M(x) = sum_{i<j} w_ij [(1 - x_i) x_j + (1 - x_j) x_i],

and the network minimizes E(x) = -M(x) written in Boltzmann standard form

    E(x) = b.x - 1/2 x.W_B.x   with   b_i = -sum_j w_ij,  W_B_ij = -2 w_ij.

Weights are integers, so all energies here are exact integers; convergence
bookkeeping never sees float drift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DuplicateEdge, IndexOutOfRange, InvalidParameter,
                     SelfLoop, TooLarge)

# a form's fields and energies stay below this, so they are exact as doubles
_EXACT_INT_LIMIT = 2 ** 53
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


@dataclass(frozen=True, init=False, eq=False)
class MaxCutInstance:
    """Undirected weighted graph; one entry per unordered pair, 0-indexed.

    The edges are three read-only int64 arrays in canonical order, by
    `heads` and then `tails`: the endpoints `heads` < `tails`, and `weights`.
    A weight past int64, or a summed |w| past 2**63 - 1, is TooLarge; so
    every cut, and every sum of weights, is exact in int64.

    Pass the edges either as three one-dimensional arrays of equal length
    (`heads=`, `tails=`, `weights=`, in any order and orientation) or as a
    sequence `edges` of `(i, j, w)` tuples, which costs one `np.array`
    conversion; anything else is a ValueError. So is an endpoint or weight
    that is not an integer (1.5, NaN, 'x'; 2.0 is 2). Either way they are
    checked once for that, self-loops, range and repeated pairs, and a fault
    names the first faulty edge in input order; the width comes last.
    `edges` is a view: the canonical tuple of `(i, j, w)` tuples, built anew
    on each access.
    Nothing on the path from generating or reading an instance to solving
    it reads it.
    """

    n: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray
    name: str = ""
    best_known: Optional[int] = None

    def __init__(self, n: int, edges: Sequence = (), name: str = "",
                 best_known: Optional[int] = None, *, heads=None, tails=None, weights=None):
        if n < 0:
            raise ValueError("node count must be >= 0")
        if heads is None and tails is None and weights is None:
            table = np.array(edges, dtype=object)
            if table.shape != (0,) and table.shape[1:] != (3,):
                raise ValueError(f"edges must be (i, j, w) triples, got an array of "
                                 f"shape {table.shape}")
            heads, tails, weights = table.reshape(-1, 3).T
        elif heads is None or tails is None or weights is None or len(edges):
            raise ValueError("pass either edges or all of heads, tails and weights")
        columns = [_column(c) for c in (heads, tails, weights)]
        if not (all(c.ndim == 1 for c in columns) and len({c.size for c in columns}) == 1):
            raise ValueError(f"heads, tails and weights must be one-dimensional and of equal "
                             f"length, got shapes {', '.join(str(c.shape) for c in columns)}")
        ints = [_integers(c) for c in columns]
        # only a column rebuilt by _integers holds None
        fractional = [np.equal(i, None) for i, c in zip(ints, columns) if i is not c]
        if np.any(fractional):
            k = int(np.argmax(np.any(fractional, axis=0)))
            edge = tuple(c[k:k + 1].tolist()[0] for c in columns)
            raise ValueError(f"edge {edge!r}: endpoints and weights must be integers")
        # an endpoint past int64 is out of range, and stays so clamped
        heads, tails = (np.asarray(np.clip(c, -1, _INT64_MAX) if c.dtype == object else c,
                                   dtype=np.int64) for c in ints[:2])
        weights = ints[2]
        lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if not np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))):
            order = np.lexsort((hi, lo))  # stable, so a pair's repeats follow its first listing
            lo, hi, weights = lo[order], hi[order], weights[order]
            bad[order[1:]] |= (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if bad.any():
            # the first faulty edge in input order, named by its own ints
            k = int(np.argmax(bad))
            i, j = (int(c[k]) for c in ints[:2])
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            i, j = min(i, j), max(i, j)
            if not (0 <= i < j < n):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
            raise DuplicateEdge(f"edge ({i}, {j}) listed twice", pair=(i, j))
        weights = _int64_weights(weights)
        for a in (lo, hi, weights):
            a.flags.writeable = False
        for field_name, value in (("n", n), ("heads", lo), ("tails", hi), ("weights", weights),
                                  ("name", name), ("best_known", best_known)):
            object.__setattr__(self, field_name, value)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.heads.tolist(), self.tails.tolist(), self.weights.tolist()))

    @property
    def m(self) -> int:
        return self.heads.size

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.n, self.name, self.best_known) == (other.n, other.name, other.best_known)
                and all(map(np.array_equal, (self.heads, self.tails, self.weights),
                            (other.heads, other.tails, other.weights))))

    def __hash__(self):
        return hash((self.n, self.m, self.name, self.best_known))

    @functools.cached_property
    def form(self) -> "BoltzmannForm":
        """The instance's Boltzmann form, built on first use and freed with it."""
        return build_form(self)


def _column(values) -> np.ndarray:
    """values as an array, each value as given: numpy would turn [0, 'x']
    into the strings ['0', 'x']."""
    a = np.asarray(values)
    return np.array(values, dtype=object) if a.dtype.kind in "SU" else a


def _integers(a: np.ndarray) -> np.ndarray:
    """The values of a as integers: a itself when it holds only integers,
    else an object array of Python ints, with None for each value that is
    not an integer (1.5, NaN, 'x'; 2.0 is 2)."""
    if a.dtype.kind in "biu":
        return a
    values = a.tolist()
    if set(map(type, values)) <= {int}:
        return a
    return np.array([_integer(v) for v in values], dtype=object)


def _integer(v) -> Optional[int]:
    """int(v) if it equals v, else None."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v else None


def _int64_weights(w: np.ndarray) -> np.ndarray:
    """An int64 copy of the weights w; TooLarge if a weight, or the summed |w|,
    does not fit in int64."""
    lo, hi = int(w.min(initial=0)), int(w.max(initial=0))
    if lo < _INT64_MIN or hi > _INT64_MAX:
        raise TooLarge("an edge weight does not fit in int64")
    w = np.array(w, dtype=np.int64)
    # the Python sum only where m max|w| leaves int64, and exact there
    if w.size * max(-lo, hi) > _INT64_MAX and sum(map(abs, w.tolist())) > _INT64_MAX:
        raise TooLarge("the summed |edge weight| does not fit in int64")
    return w


@dataclass(frozen=True)
class BoltzmannForm:
    """b vector and sparse symmetric W_B in CSR layout (zero diagonal)."""

    n: int
    b: np.ndarray                     # int64, length n
    indptr: np.ndarray                # int64, length n+1
    indices: np.ndarray               # int64, neighbor node ids
    weights: np.ndarray               # int64, W_B values (-2 w_ij)

    @functools.cached_property
    def csr_lists(self) -> tuple[list, list, list]:
        """indptr, indices and weights as lists, which the Python sampling loop indexes."""
        return self.indptr.tolist(), self.indices.tolist(), self.weights.tolist()

    @functools.cached_property
    def field_bound(self) -> int:
        """max_i (|b_i| + sum_j |W_B_ij|), which bounds every local field |u_i|."""
        return int(np.max(np.abs(self.b) + _row_sums(self.indptr, np.abs(self.weights)),
                          initial=0))


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sum of each CSR row of values."""
    csum = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def build_form(inst: MaxCutInstance) -> BoltzmannForm:
    """Assemble b_i = -sum_j w_ij and W_B_ij = -2 w_ij from the edge arrays.

    Row i of the CSR lists the neighbours of i in increasing order. The
    arrays are read-only. Raises TooLarge unless sum_i |b_i| + sum |W_B_ij|
    < 2**53, which bounds every local field and energy: they are then exact
    in int64 and as doubles, in the Python loop and the compiled kernel alike.
    """
    n, w = inst.n, inst.weights
    wide = "the summed |b_i| and |W_B_ij| reach 2**53: fields would not be exact as doubles"
    # sum |W_B_ij| = 4 sum |w| and sum |b_i| <= 2 sum |w|: past this check no
    # entry or sum below can leave int64 (the instance bounds sum |w| by it)
    abs_w = int(np.abs(w).sum())
    if 4 * abs_w >= _EXACT_INT_LIMIT:
        raise TooLarge(wide)
    # each edge as (tail, head) and then as (head, tail): the edges are in
    # canonical order, so a stable sort by row lists each row's neighbours
    # in increasing order, those below the row before those above it
    src = np.concatenate([inst.tails, inst.heads])
    dst = np.concatenate([inst.heads, inst.tails])
    w2 = np.concatenate([w, w])
    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    indices = dst[order]
    w2 = w2[order]
    weights = -2 * w2
    b = -_row_sums(indptr, w2)
    if int(np.abs(b).sum()) + 4 * abs_w >= _EXACT_INT_LIMIT:
        raise TooLarge(wide)
    for a in (b, indptr, indices, weights):
        a.flags.writeable = False
    return BoltzmannForm(n=n, b=b, indptr=indptr, indices=indices, weights=weights)


def _check_x(n: int, x: Sequence[int]) -> np.ndarray:
    """x as an array; DimensionMismatch unless it has n entries, and
    InvalidParameter unless each is 0 or 1 (False and True too)."""
    if len(x) != n:
        raise DimensionMismatch(f"configuration length {len(x)} != n = {n}")
    x = np.asarray(x)
    if not ((x == 0) | (x == 1)).all():
        raise InvalidParameter("a configuration's entries must be 0 or 1")
    return x


def cut_value(inst: MaxCutInstance, x: Sequence[int]) -> int:
    """Total weight of edges crossing the partition encoded by x."""
    x = _check_x(inst.n, x)
    return int(inst.weights[x[inst.heads] != x[inst.tails]].sum())


def _field_sums(form: BoltzmannForm, x: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(x != 0, b, W_B.x), b and W_B.x in int64, exact."""
    on = np.asarray(x) != 0
    return on, form.b, _row_sums(form.indptr, np.where(on[form.indices], form.weights, 0))


def _sums_energy(on: np.ndarray, b: np.ndarray, wx: np.ndarray) -> int:
    """E(x) from the `_field_sums` of x."""
    # every W_B entry is even, so the quadratic term halves exactly
    return int(b[on].sum()) - int(wx[on].sum()) // 2


def energy(form: BoltzmannForm, x: Sequence[int]) -> int:
    """E(x) = b.x - 1/2 x.W_B.x, exact integer arithmetic."""
    return _sums_energy(*_field_sums(form, _check_x(form.n, x)))


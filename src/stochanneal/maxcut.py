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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateEdge, IndexOutOfRange, SelfLoop, TooLarge

# local fields and energies below this are exact as doubles, so int64 and
# Python ints agree, and so does every int/float comparison
_EXACT_INT_LIMIT = 2 ** 53
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# the edge weights w for which W_B = -2 w fits in int64
_W_MIN, _W_MAX = -(2 ** 62 - 1), 2 ** 62


@dataclass(frozen=True, init=False, eq=False)
class MaxCutInstance:
    """Undirected weighted graph; one entry per unordered pair, 0-indexed.

    The edges are three read-only arrays in canonical order, by `heads` and
    then `tails`: the int64 endpoints `heads` < `tails`, and `weights`. The
    weights are int64 unless one is past int64; then all of them are exact
    Python ints in an object array. Such an instance is legal, and
    `build_form` raises TooLarge for it.

    Pass the edges either as three one-dimensional arrays of equal length
    (`heads=`, `tails=`, `weights=`, in any order and orientation) or as a
    sequence `edges` of `(i, j, w)` tuples, which costs one `np.array`
    conversion; anything else is a ValueError. Either way they are checked once
    for self-loops, range and repeated pairs, and a fault names the first
    faulty edge in input order. `edges` is a view: the canonical tuple of
    `(i, j, w)` tuples, built anew on each access. Nothing on the path from
    generating or reading an instance to solving it reads it.
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
        from_tuples = heads is None and tails is None and weights is None
        if from_tuples:
            table = np.array(edges, dtype=object)
            if table.shape != (0,) and table.shape[1:] != (3,):
                raise ValueError(f"edges must be (i, j, w) triples, got an array of "
                                 f"shape {table.shape}")
            table = table.reshape(-1, 3)
            # an endpoint past int64 is out of range, and stays so clamped
            heads, tails = np.clip(table[:, :2], -1, _INT64_MAX).astype(np.int64).T
            weights = table[:, 2]
        elif heads is None or tails is None or weights is None or len(edges):
            raise ValueError("pass either edges or all of heads, tails and weights")
        heads, tails = np.asarray(heads, dtype=np.int64), np.asarray(tails, dtype=np.int64)
        weights = _exact(weights)
        if not (heads.ndim == tails.ndim == weights.ndim == 1
                and heads.size == tails.size == weights.size):
            raise ValueError(f"heads, tails and weights must be one-dimensional and of equal "
                             f"length, got shapes {heads.shape}, {tails.shape}, {weights.shape}")
        lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if not np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))):
            order = np.lexsort((hi, lo))  # stable, so a pair's repeats follow its first listing
            lo, hi, weights = lo[order], hi[order], weights[order]
            bad[order[1:]] |= (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if bad.any():
            # the first faulty edge in input order, named by its own ints
            k = int(np.argmax(bad))
            i, j = map(int, edges[k][:2] if from_tuples else (heads[k], tails[k]))
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            i, j = min(i, j), max(i, j)
            if not (0 <= i < j < n):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
            raise DuplicateEdge(f"edge ({i}, {j}) listed twice", pair=(i, j))
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


def _exact(w) -> np.ndarray:
    """A copy of the weights w: int64, or exact Python ints when one is past int64."""
    try:
        return np.array(w, dtype=np.int64)
    except OverflowError:
        return np.array(w, dtype=object)


def _exact_sum(w: np.ndarray) -> int:
    """sum(w), exact: in int64 where no partial sum can leave it, else in Python ints."""
    if w.dtype != object:
        bound = max(-int(w.min(initial=0)), int(w.max(initial=0)))
        if w.size * bound <= _INT64_MAX:
            return int(w.sum())
    return int(w.sum(dtype=object))


@dataclass(frozen=True)
class BoltzmannForm:
    """b vector and sparse symmetric W_B in CSR layout (zero diagonal)."""

    n: int
    b: np.ndarray                     # int64, length n
    indptr: np.ndarray                # int64, length n+1
    indices: np.ndarray               # int64, neighbor node ids
    weights: np.ndarray               # int64, W_B values (-2 w_ij)
    total_weight: int = field(default=0)  # sum of w_ij, for identities

    def neighbors(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    @functools.cached_property
    def fits_in_53_bits(self) -> bool:
        """Whether every local field and energy is below 2**53 in magnitude.

        Only then do `init_fields`, `energy` and the compiled sampling kernel
        compute in int64: the sums stay exact, and so do doubles of them.
        """
        total = sum(map(abs, self.b.tolist())) + sum(map(abs, self.weights.tolist()))
        return total < _EXACT_INT_LIMIT

    @functools.cached_property
    def csr_lists(self) -> tuple[list, list, list]:
        """indptr, indices and weights as lists, which the Python sampling loop indexes."""
        return self.indptr.tolist(), self.indices.tolist(), self.weights.tolist()

    @functools.cached_property
    def field_bound(self) -> int:
        """max_i (|b_i| + sum_j |W_B_ij|), which bounds every local field |u_i|."""
        # exact Python ints where an |entry| or a row sum could leave int64
        dtype = np.int64 if self.fits_in_53_bits else object
        rows = _row_sums(self.indptr, np.abs(self.weights.astype(dtype)), dtype)
        return int(np.max(np.abs(self.b.astype(dtype)) + rows, initial=0))


def _row_sums(indptr: np.ndarray, values: np.ndarray, dtype) -> np.ndarray:
    """The sum of each CSR row of values, computed in dtype."""
    csum = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values.astype(dtype, copy=False), out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def build_form(inst: MaxCutInstance) -> BoltzmannForm:
    """Assemble b_i = -sum_j w_ij and W_B_ij = -2 w_ij from the edge arrays.

    Row i of the CSR lists the neighbours of i in increasing order. The
    arrays are read-only. Raises TooLarge when a b_i or a W_B_ij would not
    fit in int64.
    """
    n, w = inst.n, inst.weights
    if w.dtype == object:
        raise TooLarge("an edge weight does not fit in int64")
    if w.size and not (_W_MIN <= int(w.min()) and int(w.max()) <= _W_MAX):
        raise TooLarge(f"an edge weight outside [{_W_MIN}, {_W_MAX}]: -2 w does not fit in int64")
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
    # an int64 cumsum may wrap, but each row's difference is exact modulo
    # 2**64, so exact while no node's summed |w| can leave int64; past that,
    # b is summed in Python ints and range-checked
    wide = int(deg.max(initial=0)) * int(np.abs(w).max(initial=0)) > _INT64_MAX
    b = -_row_sums(indptr, w2, object if wide else np.int64)
    if wide:
        if not all(_INT64_MIN <= v <= _INT64_MAX for v in b.tolist()):
            raise TooLarge("a node's summed edge weight does not fit in int64")
        b = b.astype(np.int64)
    for a in (b, indptr, indices, weights):
        a.flags.writeable = False
    return BoltzmannForm(n=n, b=b, indptr=indptr, indices=indices, weights=weights,
                         total_weight=_exact_sum(w))


def _check_x(n: int, x: Sequence[int]) -> None:
    if len(x) != n:
        raise DimensionMismatch(f"configuration length {len(x)} != n = {n}")


def cut_value(inst: MaxCutInstance, x: Sequence[int]) -> int:
    """Total weight of edges crossing the partition encoded by x."""
    _check_x(inst.n, x)
    x = np.asarray(x)
    return _exact_sum(inst.weights[x[inst.heads] != x[inst.tails]])


def _field_sums(form: BoltzmannForm, x: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(x != 0, b, W_B.x), b and W_B.x exact: int64 when the form fits in
    53 bits, else Python ints."""
    dtype = np.int64 if form.fits_in_53_bits else object
    on = np.asarray(x) != 0
    wx = _row_sums(form.indptr, np.where(on[form.indices], form.weights, 0), dtype)
    return on, form.b.astype(dtype, copy=False), wx


def energy(form: BoltzmannForm, x: Sequence[int]) -> int:
    """E(x) = b.x - 1/2 x.W_B.x, exact integer arithmetic."""
    _check_x(form.n, x)
    on, b, wx = _field_sums(form, x)
    # every W_B entry is even, so the quadratic term halves exactly
    return int(b[on].sum()) - int(wx[on].sum()) // 2


def local_field(form: BoltzmannForm, x: Sequence[int], i: int) -> int:
    """u_i = sum_j W_B_ij x_j - b_i, the energy drop of setting x_i to 1."""
    if not 0 <= i < form.n:
        raise IndexOutOfRange(f"node {i} outside [0, {form.n})")
    _check_x(form.n, x)
    idx, wts = form.neighbors(i)
    acc = 0
    for k in range(idx.size):
        if x[idx[k]]:
            acc += int(wts[k])
    return acc - int(form.b[i])


def init_fields(form: BoltzmannForm, x: Sequence[int]) -> list[int]:
    """All local fields for configuration x (scratch O(n + E) build)."""
    _check_x(form.n, x)
    _, b, wx = _field_sums(form, x)
    return (wx - b).tolist()


def update_fields_after_assign(
    form: BoltzmannForm, u: list, x: list, i: int, new_xi: int
) -> None:
    """Apply x_i <- new_xi and repair every neighbor field in O(deg(i)).

    No-op when new_xi equals the current value. u must be consistent with x
    on entry; it is consistent with the updated x on exit.
    """
    if not 0 <= i < form.n:
        raise IndexOutOfRange(f"node {i} outside [0, {form.n})")
    delta = int(new_xi) - int(x[i])
    if delta == 0:
        return
    x[i] = int(new_xi)
    indptr, indices, weights = form.indptr, form.indices, form.weights
    for k in range(indptr[i], indptr[i + 1]):
        u[indices[k]] += int(weights[k]) * delta

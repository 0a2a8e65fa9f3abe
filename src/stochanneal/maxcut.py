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


@dataclass(frozen=True)
class MaxCutInstance:
    """Undirected weighted graph; one entry per unordered pair, 0-indexed."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    name: str = ""
    best_known: Optional[int] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be >= 0")
        ends, weights = [], []
        for i, j, w in self.edges:
            ends += (int(i), int(j))
            weights.append(int(w))  # exact: a weight past int64 is build_form's TooLarge
        try:
            ij = np.array(ends, dtype=np.int64)
        except OverflowError:  # such an endpoint is out of range, and stays so clamped
            ij = np.array([min(max(e, -1), _INT64_MAX) for e in ends], dtype=np.int64)
        del ends
        lo, hi = np.minimum(ij[0::2], ij[1::2]), np.maximum(ij[0::2], ij[1::2])
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        order = np.lexsort((hi, lo))  # stable, so a pair's repeats follow its first listing
        lo, hi = lo[order], hi[order]
        bad[order[1:]] |= (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if bad.any():
            # the first faulty edge in input order, named by its own ints
            i, j, _ = self.edges[int(np.argmax(bad))]
            i, j = int(i), int(j)
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            i, j = min(i, j), max(i, j)
            if not (0 <= i < j < self.n):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {self.n})")
            raise DuplicateEdge(f"edge ({i}, {j}) listed twice", pair=(i, j))
        object.__setattr__(self, "edges", tuple(zip(
            lo.tolist(), hi.tolist(), [weights[k] for k in order.tolist()])))

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def form(self) -> "BoltzmannForm":
        """The instance's Boltzmann form, built on first use and freed with it."""
        return build_form(self)


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
    """Assemble b_i = -sum_j w_ij and W_B_ij = -2 w_ij from the edge list.

    Row i of the CSR lists the neighbours of i in increasing order. The
    arrays are read-only. Raises TooLarge when a b_i or a W_B_ij would not
    fit in int64.
    """
    n, m = inst.n, inst.m
    try:
        edges = np.array(inst.edges, dtype=np.int64).reshape(m, 3)
    except OverflowError:
        raise TooLarge("an edge weight does not fit in int64") from None
    w = edges[:, 2]
    if m and not (_W_MIN <= int(w.min()) and int(w.max()) <= _W_MAX):
        raise TooLarge(f"an edge weight outside [{_W_MIN}, {_W_MAX}]: -2 w does not fit in int64")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w2 = np.concatenate([w, w])
    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    order = np.lexsort((dst, src))
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
    total = int(sum(wij for _, _, wij in inst.edges))
    return BoltzmannForm(n=n, b=b, indptr=indptr, indices=indices, weights=weights,
                         total_weight=total)


def _check_x(n: int, x: Sequence[int]) -> None:
    if len(x) != n:
        raise DimensionMismatch(f"configuration length {len(x)} != n = {n}")


def cut_value(inst: MaxCutInstance, x: Sequence[int]) -> int:
    """Total weight of edges crossing the partition encoded by x."""
    _check_x(inst.n, x)
    return sum(w for i, j, w in inst.edges if x[i] != x[j])


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

import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochanneal import maxcut, sampler
from stochanneal.errors import (
    DimensionMismatch,
    DuplicateEdge,
    IndexOutOfRange,
    InvalidParameter,
    SelfLoop,
    TooLarge,
)
from stochanneal.io_ingest import generate_instance
from stochanneal.maxcut import MaxCutInstance, _field_sums, build_form, cut_value, energy


def random_instance(rng, n=None, p=0.5, wmax=3):
    n = n if n is not None else int(rng.integers(2, 13))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = 0
                while w == 0:
                    w = int(rng.integers(-wmax, wmax + 1))
                edges.append((i, j, w))
    return MaxCutInstance(n=n, edges=tuple(edges))


def row(form, i):
    """The neighbours of node i in the form's CSR, and their W_B entries."""
    lo, hi = form.indptr[i], form.indptr[i + 1]
    return form.indices[lo:hi], form.weights[lo:hi]


def fields(form, x):
    """The local fields u_i = sum_j W_B_ij x_j - b_i, as the sampler starts from them."""
    _, b, wx = _field_sums(form, x)
    return (wx - b).tolist()


class TestBuildForm:
    def test_triangle(self, k3):
        form = build_form(k3)
        assert form.b.tolist() == [-2, -2, -2]
        for i in range(3):
            idx, wts = row(form, i)
            assert sorted(idx.tolist()) == sorted(set(range(3)) - {i})
            assert wts.tolist() == [-2, -2]

    def test_empty_graph(self):
        form = build_form(MaxCutInstance(n=4, edges=()))
        assert form.b.tolist() == [0, 0, 0, 0]
        assert form.indices.size == 0

    def test_single_negative_edge(self):
        form = build_form(MaxCutInstance(n=3, edges=((0, 1, -1),)))
        assert form.b.tolist() == [1, 1, 0]
        idx, wts = row(form, 0)
        assert idx.tolist() == [1] and wts.tolist() == [2]


class TestCutValue:
    def test_triangle_split(self, k3):
        assert cut_value(k3, [1, 0, 0]) == 2

    def test_all_zeros(self, k3):
        assert cut_value(k3, [0, 0, 0]) == 0

    def test_single_negative_edge(self):
        inst = MaxCutInstance(n=2, edges=((0, 1, -1),))
        assert cut_value(inst, [1, 0]) == -1

    def test_dimension_mismatch(self, k3):
        with pytest.raises(DimensionMismatch):
            cut_value(k3, [0, 1])

    def test_triangle_optimum_by_enumeration(self, k3):
        best = max(cut_value(k3, x) for x in itertools.product((0, 1), repeat=3))
        assert best == 2


class TestEnergy:
    def test_triangle(self, k3):
        form = build_form(k3)
        assert energy(form, [1, 0, 0]) == -2

    def test_all_zeros_and_all_ones(self, k3):
        form = build_form(k3)
        assert energy(form, [0, 0, 0]) == 0
        assert energy(form, [1, 1, 1]) == 0

    def test_all_ones_any_instance(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            form = build_form(inst)
            assert energy(form, [1] * inst.n) == 0

    def test_energy_equals_minus_cut_exhaustive(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            form = build_form(inst)
            for x in itertools.product((0, 1), repeat=inst.n):
                assert energy(form, list(x)) == -cut_value(inst, list(x))

    @pytest.mark.parametrize("x", [[2, 1], [-1, 1], [0.5, 0]])
    def test_entries_other_than_0_and_1_raise(self, x):
        # on one edge E(x) would read 0 and M(x) 1, breaking E = -M
        inst = MaxCutInstance(n=2, edges=((0, 1, 1),))
        with pytest.raises(InvalidParameter, match="0 or 1"):
            cut_value(inst, x)
        with pytest.raises(InvalidParameter, match="0 or 1"):
            energy(build_form(inst), x)

    def test_bools_are_0_and_1(self, k3):
        x = [True, False, False]
        assert energy(build_form(k3), x) == -cut_value(k3, x) == -2

    def test_complement_symmetry(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            x = rng.integers(0, 2, inst.n).tolist()
            xc = [1 - b for b in x]
            assert cut_value(inst, x) == cut_value(inst, xc)


class TestLocalField:
    def test_triangle_from_zero(self, k3):
        assert fields(build_form(k3), [0, 0, 0])[0] == 2

    def test_isolated_node(self):
        form = build_form(MaxCutInstance(n=3, edges=((0, 1, 1),)))
        assert fields(form, [1, 0, 1])[2] == 0
        assert fields(form, [0, 1, 0])[2] == 0

    def test_field_is_energy_drop(self, rng):
        for _ in range(1000):
            inst = random_instance(rng)
            form = build_form(inst)
            x = rng.integers(0, 2, inst.n).tolist()
            i = int(rng.integers(inst.n))
            x0 = list(x)
            x0[i] = 0
            x1 = list(x)
            x1[i] = 1
            assert fields(form, x)[i] == energy(form, x0) - energy(form, x1)


class TestIncrementalFields:
    def test_matches_scratch_after_many_assignments(self, rng, ref_surface):
        # the fields the Python loop repairs over 10^4 iterations, against a rebuild
        state = sampler.make_state(random_instance(rng, n=12), sampler.BoltzmannConfig(),
                                   ref_surface)
        sampler._advance(state, 10_000)
        assert state.u.tolist() == fields(state.form, state.x)
        assert state.energy == energy(state.form, state.x)


class TestInstanceValidation:
    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            MaxCutInstance(n=3, edges=((1, 1, 1),))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            MaxCutInstance(n=3, edges=((0, 1, 1), (1, 0, 2)))

    def test_out_of_range_edge(self):
        with pytest.raises(IndexOutOfRange):
            MaxCutInstance(n=3, edges=((0, 3, 1),))

    def test_edges_stored_canonically(self):
        inst = MaxCutInstance(n=3, edges=((2, 0, 5),))
        assert inst.edges == ((0, 2, 5),)

    @staticmethod
    def checked_by_loop(n, edges):
        """The edges' check and canonical order as a loop over tuples and a set,
        then the int64 width of the weights and of their summed |w|."""
        canon = []
        seen = set()
        for i, j, w in edges:
            i, j, w = int(i), int(j), int(w)
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < n):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
            if (i, j) in seen:
                raise DuplicateEdge(f"edge ({i}, {j}) listed twice")
            seen.add((i, j))
            canon.append((i, j, w))
        if not all(-2 ** 63 <= w < 2 ** 63 for _, _, w in canon):
            raise TooLarge("an edge weight does not fit in int64")
        if sum(abs(w) for _, _, w in canon) >= 2 ** 63:
            raise TooLarge("the summed |edge weight| does not fit in int64")
        return tuple(sorted(canon))

    @staticmethod
    def outcome(check, n, edges):
        try:
            return repr(check(n, edges))
        except (SelfLoop, IndexOutOfRange, DuplicateEdge, TooLarge) as e:
            return type(e), str(e)

    def random_faulty_edges(self, rng):
        n = int(rng.integers(2, 40))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < rng.random()
        huge = [2 ** 63, 2 ** 63 + 7, -(2 ** 63) - 1, 2 ** 70]
        edges = []
        for (i, j), k in zip(pairs, keep):
            if k:
                w = int(rng.integers(-3, 4)) or huge[int(rng.integers(len(huge)))]
                edges.append((j, i, w) if rng.random() < 0.5 else (i, j, w))
        edges = [edges[k] for k in rng.permutation(len(edges))]
        for _ in range(int(rng.integers(0, 4))):
            kind = int(rng.integers(3))
            v = int(rng.integers(n))
            if kind == 0:  # a self-loop, maybe also out of range
                bad = (v, v) if rng.random() < 0.7 else (n + v, n + v)
            elif kind == 1:  # out of range, within int64 or past it, either end
                far = [n, n + v, -1 - v, 2 ** 64 + v, -(2 ** 70)][int(rng.integers(5))]
                bad = (v, far) if rng.random() < 0.5 else (far, v)
            elif edges:  # a repeat of an earlier pair, either way round
                i, j, _ = edges[int(rng.integers(len(edges)))]
                bad = (j, i) if rng.random() < 0.5 else (i, j)
            else:
                continue
            edges.insert(int(rng.integers(len(edges) + 1)), (*bad, int(rng.integers(1, 4))))
        return n, tuple(edges)

    def test_same_edges_and_errors_as_a_loop(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(400):
            n, edges = self.random_faulty_edges(rng)
            want = self.outcome(self.checked_by_loop, n, edges)
            got = self.outcome(lambda n, e: MaxCutInstance(n, e).edges, n, edges)
            assert got == want, (n, edges)
            kinds.add(want[0] if isinstance(want, tuple) else "ok")
        assert kinds == {"ok", SelfLoop, IndexOutOfRange, DuplicateEdge, TooLarge}

    @pytest.mark.parametrize("w", [2 ** 63, 2 ** 70, -(2 ** 63) - 1, np.float64(2.0 ** 70)])
    def test_weights_past_int64_raise(self, w):
        # once kept exact as Python ints, until build_form raised
        with pytest.raises(TooLarge, match="an edge weight does not fit in int64"):
            MaxCutInstance(n=3, edges=((2, 1, w), (1, 0, 1)))
        with pytest.raises(TooLarge, match="an edge weight does not fit in int64"):
            MaxCutInstance(n=3, heads=[2, 1], tails=[1, 0], weights=[w, 1])

    def test_unsigned_weights_past_int64_raise(self):
        # a uint64 weight of 2**63 was once stored as -2**63
        ends = np.array([0, 1], dtype=np.uint64)
        with pytest.raises(TooLarge, match="an edge weight does not fit in int64"):
            MaxCutInstance(n=3, heads=ends, tails=ends + 1,
                           weights=np.array([1, 2 ** 63], dtype=np.uint64))

    @pytest.mark.parametrize("weights", [
        (2 ** 63 - 1,), (-(2 ** 63) + 1,),  # m max|w| fits in int64
        (2 ** 62, 2 ** 62 - 1), (-(2 ** 62), 1 - 2 ** 62), (2 ** 63 - 2, -1),  # it does not
    ])
    def test_summed_weight_at_int64_is_exact(self, weights):
        inst = MaxCutInstance(n=3, edges=tuple((k, k + 1, w) for k, w in enumerate(weights)))
        assert cut_value(inst, [0, 1, 0]) == sum(weights)
        assert inst.weights.tolist() == list(weights)

    @pytest.mark.parametrize("weights", [
        (-(2 ** 63),), (2 ** 62, 2 ** 62), (-(2 ** 62), -(2 ** 62)), (2 ** 63 - 1, 1),
    ])
    def test_summed_weight_past_int64_raises(self, weights):
        with pytest.raises(TooLarge, match=r"the summed \|edge weight\| does not fit in int64"):
            MaxCutInstance(n=3, edges=tuple((k, k + 1, w) for k, w in enumerate(weights)))

    @pytest.mark.parametrize("edges", [
        ((0, 1), (1, 2), (0, 2)),  # pairs, once read as the triples (0, 1, 1), (2, 0, 2)
        ((0, 1, 1), (1, 2)),
        ((0, 1, 1, 5),),
        ((),),
        (0, 1, 1),
    ])
    def test_edges_not_triples(self, edges):
        with pytest.raises(ValueError, match=r"\(i, j, w\) triples"):
            MaxCutInstance(3, edges=edges)

    @pytest.mark.parametrize("value", [1.5, 0.7, float("nan"), float("inf"), "x", "1", None])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_integer_named_by_edge(self, value, at):
        # once truncated: (0, 1, 1.5) was the edge (0, 1, 1), and a head 0.7 node 0
        edges = [[0, 1, 1], [1, 2, -2], [0, 2, 3]]
        edges[1][at] = edges[2][at] = value
        bad = repr(tuple(edges[1])).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=rf"edge {bad}: endpoints and weights must be integers"):
            MaxCutInstance(3, edges=[tuple(e) for e in edges])
        heads, tails, weights = zip(*edges)
        with pytest.raises(ValueError, match=rf"edge {bad}: endpoints and weights must be integers"):
            MaxCutInstance(3, heads=list(heads), tails=list(tails), weights=list(weights))

    def test_non_integer_arrays(self):
        with pytest.raises(ValueError, match=r"edge \(0\.7, 1, 1\)"):
            MaxCutInstance(2, heads=np.array([0.7]), tails=np.array([1]), weights=np.array([1]))
        with pytest.raises(ValueError, match=r"edge \(0, 1, nan\)"):
            MaxCutInstance(2, heads=np.array([0]), tails=np.array([1]), weights=np.array([np.nan]))

    @pytest.mark.parametrize("i, j, w", [
        (2.0, 0, 5), (np.float64(2), np.int32(0), 5.0), (2, False, True),
        (2, 0, np.float64(2.0 ** 62)),
    ])
    def test_integral_values_kept(self, i, j, w):
        want = ((0, 2, int(w)),)
        assert MaxCutInstance(3, edges=((i, j, w),)).edges == want
        assert MaxCutInstance(3, heads=[i], tails=[j], weights=[w]).edges == want
        assert MaxCutInstance(3, heads=np.array([float(i)]), tails=np.array([float(j)]),
                              weights=np.array([float(w)])).edges == want

    @pytest.mark.parametrize("arrays", [
        dict(heads=[0, 1], tails=[1, 2], weights=[1]),  # once m == 2 with one weight
        dict(heads=[0, 1], tails=[1], weights=[1, 1]),
        dict(heads=[[0, 1]], tails=[[1, 2]], weights=[[1, 1]]),
        dict(heads=[0, 1]),
        dict(heads=[0, 1], tails=[1, 2]),
        dict(tails=[1, 2], weights=[1, 1]),
        dict(heads=[0], tails=[1], weights=[1], edges=((1, 2, 1),)),
    ])
    def test_arrays_not_one_entry_per_edge(self, arrays):
        with pytest.raises(ValueError, match="heads, tails and weights"):
            MaxCutInstance(3, **arrays)


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = tuple(
        (i, j, draw(st.integers(min_value=-3, max_value=3).filter(lambda w: w != 0)))
        for i, j in chosen
    )
    return MaxCutInstance(n=n, edges=edges)


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.randoms(use_true_random=False))
def test_energy_identity_property(inst, pyrandom):
    form = build_form(inst)
    x = [pyrandom.randint(0, 1) for _ in range(inst.n)]
    assert energy(form, x) == -cut_value(inst, x)
    assert cut_value(inst, x) == cut_value(inst, [1 - b for b in x])


# -- the vectorized form against the loops it replaced ---------------------------


def loop_build_form(inst):
    """The edge-by-edge assembly `build_form` used before it was vectorized."""
    n = inst.n
    b = np.zeros(n, dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    for i, j, w in inst.edges:
        b[i] -= w
        b[j] -= w
        deg[i] += 1
        deg[j] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.zeros(inst.m * 2, dtype=np.int64)
    weights = np.zeros(inst.m * 2, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for i, j, w in inst.edges:
        indices[cursor[i]] = j
        weights[cursor[i]] = -2 * w
        cursor[i] += 1
        indices[cursor[j]] = i
        weights[cursor[j]] = -2 * w
        cursor[j] += 1
    return b, indptr, indices, weights


def loop_init_fields(form, x):
    u = [-int(bi) for bi in form.b]
    for j in range(form.n):
        if x[j]:
            for k in range(form.indptr[j], form.indptr[j + 1]):
                u[form.indices[k]] += int(form.weights[k])
    return u


def loop_energy(form, x):
    e = 0
    for i in range(form.n):
        if x[i]:
            acc = 0
            for k in range(form.indptr[i], form.indptr[i + 1]):
                if x[form.indices[k]]:
                    acc += int(form.weights[k])
            e += int(form.b[i]) - acc // 2
    return e


BIG = MaxCutInstance(n=4, edges=((0, 1, 2**60), (1, 2, -1), (2, 3, 1)), best_known=1)


def form_sum(inst):
    """sum_i |b_i| + sum |W_B_ij| of the form of inst, by a loop over its edges."""
    b = [0] * inst.n
    for i, j, w in inst.edges:
        b[i] -= w
        b[j] -= w
    return sum(map(abs, b)) + sum(4 * abs(w) for _, _, w in inst.edges)


# paths 0-1-2-3 with weights (a, -c, 1), a >= c > 0, whose form_sum is
# 6a + 4c + 4: 2**53 - 2, the largest below 2**53 (a form_sum is always
# even), and 2**53
AT_CEILING = MaxCutInstance(n=4, edges=((0, 1, (2**52 - 7) // 3), (1, 2, -2), (2, 3, 1)))
PAST_CEILING = MaxCutInstance(n=4, edges=((0, 1, (2**52 - 4) // 3), (1, 2, -1), (2, 3, 1)))


def vector_cases():
    rng = np.random.default_rng(7)
    yield MaxCutInstance(n=0, edges=())
    yield MaxCutInstance(n=1, edges=())
    yield MaxCutInstance(n=5, edges=())
    # isolated nodes at both ends and in the middle
    yield MaxCutInstance(n=8, edges=((1, 2, 3), (2, 5, -4), (1, 5, 1)))
    yield MaxCutInstance(n=4, edges=((3, 0, -2), (2, 1, -7)))
    for _ in range(15):
        yield random_instance(rng, n=int(rng.integers(2, 30)), p=0.3, wmax=9)
    yield generate_instance(60, 5.0, weight_set=(-3, 2), seed=3)
    yield generate_instance(200, 4.0, seed=9)
    # the form at its ceiling, and fields near 2**53 on every row
    yield AT_CEILING
    yield random_instance(rng, n=25, p=0.3, wmax=2**44)


class TestVectorizedForm:
    @pytest.mark.parametrize("inst", list(vector_cases()), ids=lambda i: f"n{i.n}m{i.m}")
    def test_csr_equals_loop(self, inst):
        form = build_form(inst)
        for got, want in zip((form.b, form.indptr, form.indices, form.weights),
                             loop_build_form(inst)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
        assert form.n == inst.n

    @pytest.mark.parametrize("inst", list(vector_cases()), ids=lambda i: f"n{i.n}m{i.m}")
    def test_fields_and_energy_equal_loops(self, inst):
        form = build_form(inst)
        rng = np.random.default_rng(inst.n)
        xs = [[0] * inst.n, [1] * inst.n] + [rng.integers(0, 2, inst.n).tolist()
                                             for _ in range(5)]
        for x in xs:
            u = fields(form, x)
            assert u == loop_init_fields(form, x)
            assert all(type(v) is int for v in u)
            e = energy(form, x)
            assert type(e) is int and e == loop_energy(form, x)

    @pytest.mark.parametrize("inst", list(vector_cases()), ids=lambda i: f"n{i.n}m{i.m}")
    def test_field_bound_equals_loop_and_bounds_fields(self, inst):
        form = build_form(inst)
        rows = [abs(int(form.b[i])) + sum(abs(int(w)) for w in row(form, i)[1])
                for i in range(inst.n)]
        assert type(form.field_bound) is int and form.field_bound == max(rows, default=0)
        rng = np.random.default_rng(inst.n)
        for x in [[0] * inst.n, [1] * inst.n] + [rng.integers(0, 2, inst.n).tolist()
                                                 for _ in range(5)]:
            assert all(abs(v) <= form.field_bound for v in fields(form, x))

    def test_big_weights_stay_exact(self):
        # in the instance and its cuts; its form's fields would reach 2**53
        assert BIG.weights.tolist() == [2**60, -1, 1]
        assert cut_value(BIG, [1, 0, 0, 1]) == 2**60 + 1
        with pytest.raises(TooLarge, match=r"reach 2\*\*53"):
            build_form(BIG)
        # fields past 2**53 on every row, once run on exact Python ints
        with pytest.raises(TooLarge):
            build_form(random_instance(np.random.default_rng(7), n=25, p=0.3, wmax=2**58))


class TestFormOverflow:
    def test_wrapping_b_raises(self):
        # b_0 = -3 * 2**62 is below int64; int64 sums would wrap it to +2**62
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge):
                build_form(MaxCutInstance(n=4, edges=((0, 1, 2**62), (0, 2, 2**62),
                                                      (0, 3, 2**62))))

    @pytest.mark.parametrize("w", [2**62 + 1, -(2**62), 2**63, -(2**70)])
    def test_weight_beyond_int64_raises(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge):
                build_form(MaxCutInstance(n=2, edges=((0, 1, w),)))

    @pytest.mark.parametrize("w", [2**62, -(2**62 - 1)])
    def test_extreme_weights_that_fit(self, w):
        # in the instance; -2 w fits in int64 too, but the fields reach 2**53
        inst = MaxCutInstance(n=2, edges=((0, 1, w),))
        assert inst.weights.tolist() == [w]
        with pytest.raises(TooLarge):
            build_form(inst)

    def test_large_partial_sums_raise(self):
        # b_0 = -(2**62) - 1 fits in int64, but the summed |w| does not
        with pytest.raises(TooLarge, match=r"summed \|edge weight\|"):
            MaxCutInstance(n=4, edges=((0, 1, 2**62), (0, 2, 2**62), (0, 3, 1 - 2**62)))

    def test_ceiling(self):
        assert form_sum(AT_CEILING) == 2**53 - 2 and form_sum(PAST_CEILING) == 2**53
        form = build_form(AT_CEILING)
        assert int(np.abs(form.b).sum()) + int(np.abs(form.weights).sum()) == 2**53 - 2
        with pytest.raises(TooLarge, match=r"reach 2\*\*53"):
            build_form(PAST_CEILING)
        # the first check, 4 sum |w| < 2**53, passes here; the exact sum decides
        assert 4 * sum(abs(w) for _, _, w in PAST_CEILING.edges) < 2**53


class TestFormCache:
    def test_ensemble_builds_the_form_once(self, k3, ref_surface, monkeypatch):
        calls = []

        def counted(inst):
            calls.append(inst)
            return build_form(inst)

        monkeypatch.setattr(maxcut, "build_form", counted)
        cfg = sampler.BoltzmannConfig(max_iters=200, runs=10, seed=3)
        traces = sampler.ensemble(k3, cfg, ref_surface)
        assert len(traces) == 10
        assert calls == [k3]
        assert k3.form is k3.form

    def test_cached_arrays_reject_writes(self, k3):
        form = k3.form
        for a in (form.b, form.indptr, form.indices, form.weights):
            with pytest.raises(ValueError):
                a[0] = 7
        assert form.b.tolist() == [-2, -2, -2]

    def test_form_freed_with_instance(self, ref_surface):
        inst = generate_instance(300, 4.0, seed=5)
        sampler.ensemble(inst, sampler.BoltzmannConfig(max_iters=500, runs=2), ref_surface)
        assert "form" in vars(inst)
        ref_inst, ref_form = weakref.ref(inst), weakref.ref(inst.form.b)
        del inst
        gc.collect()
        assert ref_inst() is None and ref_form() is None

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import stochanneal
from stochanneal import io_ingest
from stochanneal.errors import (
    DuplicateEdge,
    InvalidDegree,
    Malformed,
    SelfLoop,
    TooLarge,
)
from stochanneal.io_ingest import (
    RESULT_COLUMNS,
    BestKnownRegistry,
    ResultRow,
    brute_force_maxcut,
    file_sha256,
    generate_instance,
    parse_rudy,
    read_measurements,
    read_results,
    serialize_rudy,
    write_manifest,
    write_results,
)
from stochanneal.maxcut import MaxCutInstance, build_form, cut_value


class TestParseRudy:
    def test_minimal_triangle(self):
        inst = parse_rudy("3 3\n1 2 1\n1 3 1\n2 3 1")
        assert inst.n == 3
        assert inst.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))

    def test_self_loop(self):
        with pytest.raises(SelfLoop) as exc:
            parse_rudy("2 1\n1 1 1")
        assert "line 2" in str(exc.value)

    def test_comments_and_whitespace(self):
        text = "# generated\n\n  3   2  \n1 2 1  # first\n  2 3 -1\n"
        inst = parse_rudy(text)
        assert inst.edges == ((0, 1, 1), (1, 2, -1))

    def test_count_mismatch(self):
        with pytest.raises(Malformed):
            parse_rudy("3 2\n1 2 1")

    def test_bad_token_carries_line_number(self):
        with pytest.raises(Malformed) as exc:
            parse_rudy("3 1\n1 two 1")
        assert "line 2" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(Malformed):
            parse_rudy("3\n1 2 1")

    def test_node_out_of_range(self):
        with pytest.raises(Malformed):
            parse_rudy("3 1\n1 4 1")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_rudy("3 2\n1 2 1\n2 1 1")

    def test_first_duplicate_in_file_order_named_1_based(self):
        with pytest.raises(DuplicateEdge) as exc:
            parse_rudy("3 4\n2 3 1\n3 2 1\n1 2 1\n2 1 1")
        assert str(exc.value) == "edge (2, 3) listed twice"

    def test_zero_weight_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            inst = parse_rudy("3 2\n1 2 0\n2 3 1")
        assert inst.edges == ((1, 2, 1),)

    def test_empty_file(self):
        with pytest.raises(Malformed):
            parse_rudy("")

    # each message as the line parser gave it before files were read as arrays
    @pytest.mark.parametrize("text, kind, message", [
        ("3 1\n1 two 1\n", Malformed, "line 2: non-integer token in '1 two 1'"),
        ("3 x\n1 2 1\n", Malformed, "line 1: non-integer header token in '3 x'"),
        ("3\n1 2 1\n", Malformed, "line 1: expected header 'N M', got '3'"),
        ("3 -1\n", Malformed, "line 1: negative count in header"),
        ("3 1\n1 2\n", Malformed, "line 2: expected 'i j w', got '1 2'"),
        ("3 1\n1 2 1 1\n", Malformed, "line 2: expected 'i j w', got '1 2 1 1'"),
        ("3 1\n0 2 1\n", Malformed, "line 2: node id outside 1..3"),
        ("3 1\n1 4 1\n", Malformed, "line 2: node id outside 1..3"),
        ("3 1\n1 99999999999999999999 1\n", Malformed, "line 2: node id outside 1..3"),
        ("3 2\n1 2 1\n3 3 1\n", SelfLoop, "line 3: self-loop at node 3"),
        ("4 5\n2 3 1\n1 4 1\n3 2 1\n1 2 1\n4 1 1\n", DuplicateEdge,
         "edge (2, 3) listed twice"),
        ("3 2\n1 2 1\n", Malformed, "edge count mismatch: header says 2, file has 1"),
        ("", Malformed, "line 1: empty instance file"),
        ("# a comment\n\n   # another\n", Malformed, "line 1: empty instance file"),
        ("# c\n3 2\n\n1 2 1 # ok\n1 5 1\n", Malformed, "line 5: node id outside 1..3"),
        ("3 2\r\n1 2 1\r\n2 2 1\r\n", SelfLoop, "line 3: self-loop at node 2"),
        ("5 1\n+5 5 1\n", SelfLoop, "line 2: self-loop at node 5"),
        ("1_000 1\n1_000 1_000 1\n", SelfLoop, "line 2: self-loop at node 1000"),
    ], ids=["bad-token", "bad-header-token", "one-token-header", "negative-count",
            "two-token-edge", "four-token-edge", "node-0", "node-n+1", "node-past-int64",
            "self-loop", "first-duplicate", "count-mismatch", "empty", "comment-only",
            "comment-and-blank-lines-counted", "crlf", "plus-sign", "underscore"])
    def test_error_pinned(self, text, kind, message):
        with pytest.raises(kind) as exc:
            parse_rudy(text)
        assert type(exc.value) is kind and str(exc.value) == message
        if kind is DuplicateEdge:
            assert exc.value.pair == (1, 2)

    @pytest.mark.parametrize("text", [
        "3 2\n2 1 5\n2 3 -1\n",
        "3 2\n1 2 5\n2 3 -1",
        "3 2\r\n1 2 5\r\n2 3 -1\r\n",
        "# c\n 3  2\n\n1\t2 +5  # x\n2 3 -1\n",
        "3 2\n01 2 5\n2 3 -0_1\n",
        "3 3\n1 2 5\n1 3 0\n2 3 -1\n",
    ], ids=["turned-round", "no-final-newline", "crlf", "comments-and-spacing",
            "leading-zeros-and-underscores", "zero-weight"])
    def test_every_layout_reads_as_the_written_one(self, text):
        want = MaxCutInstance(3, ((0, 1, 5), (1, 2, -1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parse_rudy(text) == want
        assert [str(w.message) for w in caught] == (
            ["line 3: zero-weight edge (1, 3) dropped"] if " 0\n" in text else [])

    def test_weights_at_int64_round_trip(self):
        inst = MaxCutInstance(3, ((0, 1, 2 ** 63 - 2), (1, 2, -1)))
        text = serialize_rudy(inst)
        assert text == f"3 2\n1 2 {2 ** 63 - 2}\n2 3 -1\n"
        assert parse_rudy(text) == inst

    @pytest.mark.parametrize("w", [2 ** 70, -(2 ** 63) - 1, -(2 ** 63), 2 ** 63 - 1])
    def test_weights_past_int64_do_not_read(self, w):
        # once read as exact Python ints; the last two pass int64 in the summed |w|
        with pytest.raises(TooLarge, match="does not fit in int64"):
            parse_rudy(f"3 2\n1 2 {w}\n2 3 -1\n")

    def test_reading_peaks_below_80_bytes_per_edge(self):
        text = serialize_rudy(generate_instance(20_000, 4.0, seed=1))
        parse_rudy("2 1\n1 2 1\n")
        tracemalloc.start()
        try:
            inst = parse_rudy(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * inst.m, peak / inst.m

    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(3)
        for k in range(100):
            inst = generate_instance(int(rng.integers(5, 40)), 3.0, seed=k)
            again = parse_rudy(serialize_rudy(inst), name=inst.name)
            assert again.n == inst.n and again.edges == inst.edges


class TestGenerateInstance:
    def test_edge_count_binomial(self):
        inst = generate_instance(100, 4.0, seed=11)
        # 3 sigma around the binomial mean of 200
        assert 150 <= inst.m <= 250

    def test_weight_set_respected(self):
        inst = generate_instance(50, 4.0, weight_set=(1,), seed=0)
        assert all(w == 1 for _, _, w in inst.edges)
        inst = generate_instance(50, 4.0, weight_set=(-1, 0, 1), seed=0)
        assert all(w in (-1, 1) for _, _, w in inst.edges)

    def test_deterministic(self):
        a = generate_instance(60, 3.0, seed=5)
        b = generate_instance(60, 3.0, seed=5)
        assert a.edges == b.edges

    def test_invalid_degree(self):
        with pytest.raises(InvalidDegree):
            generate_instance(10, 0.0)
        with pytest.raises(InvalidDegree):
            generate_instance(10, 10.0)
        with pytest.raises(InvalidDegree):
            generate_instance(1, 0.5)


def _dense_generate_instance(n, avg_degree, weight_set=(-1, 1), seed=0, name=None):
    """Reference: one uniform per pair of the full np.triu_indices(n, k=1)."""
    weights = sorted({int(w) for w in weight_set} - {0})
    p = avg_degree / (n - 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    wi = rng.integers(0, len(weights), size=int(mask.sum()))
    table = np.array(weights, dtype=np.int64)
    edges = tuple(
        (int(a), int(b), int(table[k]))
        for a, b, k in zip(iu[mask], ju[mask], wi)
    )
    return MaxCutInstance(
        n=n, edges=edges, name=name or f"rand_n{n}_d{avg_degree:g}_s{seed}"
    )


def _tuple_text(inst):
    """The instance file written edge by edge from the `edges` tuples."""
    return f"{inst.n} {inst.m}\n" + "".join(f"{i + 1} {j + 1} {w}\n" for i, j, w in inst.edges)


@pytest.mark.parametrize("n, degree, wset, seed", [
    (2, 1.0, (1,), 0), (7, 6.0, (-1, 1), 3), (125, 4.0, (-3, 0, 2), 17),
    (500, 12.0, (1, 2, 5), 9), (2000, 4.0, (-1, 1), 1),
])
def test_arrays_from_generation_to_form_match_the_tuple_built_reference(n, degree, wset, seed):
    want = _dense_generate_instance(n, degree, weight_set=wset, seed=seed)
    text = serialize_rudy(generate_instance(n, degree, weight_set=wset, seed=seed))
    assert text == _tuple_text(want)
    got = parse_rudy(text, name=want.name)
    assert got == want and got.edges == want.edges
    form, ref = build_form(got), build_form(want)
    for field in ("b", "indptr", "indices", "weights"):
        assert np.array_equal(getattr(form, field), getattr(ref, field)), field
    assert form.total_weight == ref.total_weight == sum(w for _, _, w in want.edges)


class TestBlockedGeneration:
    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("n", [2, 3, 7, 125, 2000])
    def test_matches_dense_draw(self, n, block, monkeypatch):
        if block is not None:
            # blocks of n - 1 pairs, which start and end mid-row
            monkeypatch.setattr(io_ingest, "_GEN_BLOCK", block)
        degrees = {0.5, min(4.0, n - 1)}
        if n <= 125:
            # near-complete and complete graphs
            degrees |= {0.98 * (n - 1), float(n - 1)}
        else:
            degrees.add(12.0)
        for degree, wset, seed in itertools.product(
            sorted(degrees), [(-1, 1), (1,), (-3, 0, 2)], [0, 1, 17]
        ):
            got = generate_instance(n, degree, weight_set=wset, seed=seed)
            want = _dense_generate_instance(n, degree, weight_set=wset, seed=seed)
            assert got.name == want.name
            assert got.edges == want.edges, (n, degree, wset, seed)

    def test_pinned_file_digest(self):
        # digest of the file written by the whole-triangle draw
        text = serialize_rudy(generate_instance(2000, 4.0, seed=1))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "29ce49af45ec101fa76f3e2152de045a80783e080e18fb6849cf25ed4caf9198"
        )

    def test_allocation_peak_is_bounded(self):
        # one reused block of draws; a block of 2**20 draws alone is 8 MiB
        generate_instance(50, 4.0)
        tracemalloc.start()
        try:
            generate_instance(3000, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak

    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    def test_split_does_not_matter(self, parts, monkeypatch):
        # parts forced past the cap, with blocks of 3 pairs, so that parts
        # begin mid-row and mid-block
        monkeypatch.setattr(io_ingest, "_cpus", lambda: parts)
        monkeypatch.setattr(io_ingest, "_GEN_PARTS", 8)
        monkeypatch.setattr(io_ingest, "_GEN_BLOCK", 3)
        spans = []
        pair_hits = io_ingest._pair_hits

        def spy(seed, first, stop, size, p):
            spans.append((first, stop))
            return pair_hits(seed, first, stop, size, p)

        monkeypatch.setattr(io_ingest, "_pair_hits", spy)
        for n, degree, wset, seed in itertools.product(
            [7, 125, 2000], [0.5, 4.0], [(-1, 1), (-3, 0, 2)], [0, 17]
        ):
            spans.clear()
            got = generate_instance(n, degree, weight_set=wset, seed=seed)
            want = _dense_generate_instance(n, degree, weight_set=wset, seed=seed)
            assert got.edges == want.edges, (n, degree, wset, seed)
            pairs = n * (n - 1) // 2
            assert sorted(spans) == [(pairs * k // parts, pairs * (k + 1) // parts)
                                     for k in range(parts)]

    @pytest.mark.parametrize("n, parts", [(500, 1), (600, 2), (20_000, 4)])
    def test_parts_and_threads(self, n, parts, monkeypatch):
        # one part per whole block, up to the CPUs and the cap; the first in
        # this thread, each other one in a thread of its own
        monkeypatch.setattr(io_ingest, "_cpus", lambda: 64)
        threads = []
        pair_hits = io_ingest._pair_hits

        def spy(*args):
            threads.append(threading.current_thread())
            return pair_hits(*args)

        monkeypatch.setattr(io_ingest, "_pair_hits", spy)
        generate_instance(n, 4.0, seed=1)
        assert len(threads) == len(set(threads)) == parts
        assert threading.main_thread() in threads

    def test_part_failure_is_raised(self, monkeypatch):
        class Failed(Exception):
            pass

        pair_hits = io_ingest._pair_hits

        def failing_past_first(seed, first, stop, size, p):
            if first:
                raise Failed
            return pair_hits(seed, first, stop, size, p)

        monkeypatch.setattr(io_ingest, "_cpus", lambda: 2)
        monkeypatch.setattr(io_ingest, "_pair_hits", failing_past_first)
        before = threading.active_count()
        with pytest.raises(Failed):
            generate_instance(600, 4.0, seed=1)
        assert threading.active_count() == before

    @staticmethod
    def gen_in_512_mib(tmp_path, prelude=""):
        """The stdout of `gen --nodes 20000`, run after prelude in a process
        capped at 512 MiB of address space."""
        resource = pytest.importorskip("resource")
        limit = 512 * 1024 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        out = tmp_path / "g.rudy"
        src = os.path.dirname(os.path.dirname(stochanneal.__file__))
        # BLAS thread buffers would count against the cap on many-core hosts
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        code = (
            f"from stochanneal import cli, io_ingest; {prelude}"
            f"cli.main(['gen', '--nodes', '20000', '--seed', '1', '--out', {str(out)!r}])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, preexec_fn=cap,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"wrote {out} (20000 nodes," in proc.stdout
        return proc.stdout

    def test_gen_in_bounded_address_space(self, tmp_path):
        self.gen_in_512_mib(tmp_path)

    def test_gen_at_the_part_cap_in_bounded_address_space(self, tmp_path):
        # as many parts as the cap allows, whatever this host's CPU count
        cap = io_ingest._GEN_PARTS
        stdout = self.gen_in_512_mib(tmp_path, (
            f"io_ingest._cpus = lambda: {cap}; pair_hits = io_ingest._pair_hits; "
            "import atexit; parts = []; atexit.register(lambda: print(len(parts), 'parts')); "
            "io_ingest._pair_hits = lambda *a: parts.append(a) or pair_hits(*a); "
        ))
        assert stdout.endswith(f"\n{cap} parts\n"), stdout


class TestBruteForce:
    def test_triangle(self, k3):
        cut, x = brute_force_maxcut(k3)
        assert cut == 2
        assert cut_value(k3, x.tolist()) == 2

    def test_single_edge(self):
        inst = MaxCutInstance(n=2, edges=((0, 1, 1),))
        assert brute_force_maxcut(inst)[0] == 1

    def test_empty_graph(self):
        inst = MaxCutInstance(n=4, edges=())
        assert brute_force_maxcut(inst)[0] == 0

    def test_too_large(self):
        inst = MaxCutInstance(n=21, edges=())
        with pytest.raises(TooLarge):
            brute_force_maxcut(inst)

    @pytest.mark.parametrize("w", [2 ** 62, -(2 ** 63), 2 ** 63])
    def test_summed_weight_past_int64(self, w):
        # at 2**62 the maximum cut of K4, 2**64, once wrapped to 0 in int64;
        # the instance now refuses such weights before brute force sees them
        with pytest.raises(TooLarge, match="does not fit in int64"):
            brute_force_maxcut(MaxCutInstance(
                n=4, edges=[(i, j, w) for i, j in itertools.combinations(range(4), 2)]))

    def test_summed_weight_at_int64_is_exact(self):
        inst = MaxCutInstance(n=3, edges=((0, 1, 2 ** 62), (1, 2, 2 ** 62 - 1)))
        assert brute_force_maxcut(inst)[0] == 2 ** 63 - 1
        assert cut_value(inst, [0, 1, 0]) == 2 ** 63 - 1

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            inst = generate_instance(int(rng.integers(5, 11)), 3.0, seed=100 + k)
            want = max(
                cut_value(inst, list(x)) for x in itertools.product((0, 1), repeat=inst.n)
            )
            assert brute_force_maxcut(inst)[0] == want

    def test_dominates_random_configurations(self):
        rng = np.random.default_rng(10)
        inst = generate_instance(14, 4.0, seed=77)
        best, _ = brute_force_maxcut(inst)
        for _ in range(1000):
            x = rng.integers(0, 2, inst.n).tolist()
            assert best >= cut_value(inst, x)


class TestRegistry:
    def test_round_trip(self, tmp_path):
        reg = BestKnownRegistry()
        reg.set_entry("a", 17, "exact")
        reg.set_entry("b", 500, "proxy")
        path = tmp_path / "registry.json"
        reg.save(path)
        again = BestKnownRegistry.load(path)
        assert again.get("a") == 17
        assert again.provenance("b") == "proxy"
        assert again.get("missing") is None

    def test_provenance_validated(self):
        with pytest.raises(ValueError):
            BestKnownRegistry().set_entry("a", 1, "guess")

    @pytest.mark.parametrize("cut, shown", [(7.9, "7.9"), (True, "true"), ("12", '"12"')],
                             ids=["float", "bool", "text"])
    def test_non_integer_cut_rejected(self, cut, shown):
        # once stored as 7, 1 and 12
        reg = BestKnownRegistry()
        with pytest.raises(ValueError, match=f"^cut {shown} is not a JSON integer$"):
            reg.set_entry("a", cut, "exact")
        assert reg.entries == {}

    def test_numpy_integer_cut_stored_as_int(self):
        reg = BestKnownRegistry()
        reg.set_entry("a", np.int64(12), "proxy")
        assert reg.entries == {"a": {"cut": 12, "provenance": "proxy"}}
        assert type(reg.entries["a"]["cut"]) is int


class TestResults:
    def row(self, **kw):
        base = dict(
            run_id=0, instance="k3", n=3, scheme="ideal", m_hrs=0.0, d2d_cv=0.0,
            calibrated=False, seed=42, converged_at=10, best_cut=2,
            settling_energy=-2.0, iterations=100, clamp_events=0,
        )
        base.update(kw)
        return ResultRow(**base)

    def test_empty_rows_header_only(self, tmp_path):
        write_results(tmp_path / "r.csv", [])
        assert (tmp_path / "r.csv").read_text() == ",".join(RESULT_COLUMNS) + "\n"

    def test_column_order_fixed(self, tmp_path):
        write_results(tmp_path / "r.csv", [self.row()])
        assert (tmp_path / "r.csv").read_text().splitlines() == [
            ",".join(RESULT_COLUMNS), "0,k3,3,ideal,0.0,0.0,0,42,10,2,-2.0,100,0"]

    def test_round_trip(self, tmp_path):
        rows = [self.row(), self.row(run_id=1, converged_at=None, best_cut=1)]
        path = tmp_path / "results.csv"
        write_results(path, rows)
        back = read_results(path)
        assert len(back) == 2
        assert back[0]["best_cut"] == "2"
        assert back[1]["converged_at"] == ""
        assert int(back[1]["run_id"]) == 1


class TestManifest:
    def test_hash_tracks_params_file(self, tmp_path):
        p1 = tmp_path / "params.json"
        p1.write_text('{"a": 1}')
        m1 = write_manifest(tmp_path / "m1.json", "solve", {"x": 1}, 0, p1)
        m2 = write_manifest(tmp_path / "m2.json", "solve", {"x": 1}, 0, p1)
        assert m1["params_sha256"] == m2["params_sha256"]
        p1.write_text('{"a": 2}')
        m3 = write_manifest(tmp_path / "m3.json", "solve", {"x": 1}, 0, p1)
        assert m3["params_sha256"] != m1["params_sha256"]

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, "gen", {"nodes": 8}, 5)
        d = json.loads(path.read_text())
        assert d["command"] == "gen"
        assert d["seed"] == 5
        assert "version" in d and "timestamp" in d


class TestReadMeasurements:
    def test_reads_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("v_set,hrs_kohm,t_set_s\n1.6,10,1e-5\n\n2.2,500,2e-7\n")
        assert read_measurements(path).tolist() == [[1.6, 10.0, 1e-5], [2.2, 500.0, 2e-7]]

    @pytest.mark.parametrize("row", ["nan,10,1e-5", "1.6,inf,1e-5", "1.6,10,nan",
                                     "1.6,10,-inf", "1.6,10,NaN"])
    def test_non_finite_value_names_its_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"v_set,hrs_kohm,t_set_s\n1.6,10,1e-5\n{row}\n")
        with pytest.raises(Malformed, match="line 3: expected three finite numbers"):
            read_measurements(path)

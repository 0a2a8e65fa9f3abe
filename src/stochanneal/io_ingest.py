"""File boundary: instance parsing/generation, registry, result tables.

Every file the package writes is opened by `open_output`, or by
`open_staged` where a failure must leave no part of it, so a failed write
is an `IoFailure` naming the path; every CSV table is written by
`write_table`, which holds the one cell rule.

Instance files use the plain edge-list dialect: first non-comment line
`N M`, then M lines `i j w` with 1-indexed endpoints. `#` starts a comment,
blank lines are skipped, extra whitespace is tolerated. Zero-weight edges
are accepted but dropped with a warning (they cannot affect any cut).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import platform
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import (
    DuplicateEdge,
    InvalidDegree,
    IoFailure,
    Malformed,
    SelfLoop,
    TooLarge,
)
from .maxcut import MaxCutInstance

PROVENANCES = ("exact", "literature", "proxy")


# -- output files ----------------------------------------------------------------


@contextlib.contextmanager
def open_output(path) -> Iterator[TextIO]:
    """path opened as UTF-8 text for writing, newlines untranslated; an
    OSError raised while opening or writing it becomes IoFailure."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def open_staged(path) -> Iterator[TextIO]:
    """Like open_output, but the text goes to `<path>.part` beside path,
    which replaces path only when the block ends without an exception;
    otherwise it is removed, and path is left as it was."""
    part = f"{path}.part"
    try:
        if os.path.isdir(path):  # which os.replace would find only after the block
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        with open(part, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(part, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(part)


def _cell(v):
    """A CSV cell: None is empty, a bool 0 or 1, a float its repr."""
    if v is None:
        return ""
    if isinstance(v, bool):  # before int: bool is an int
        return int(v)
    if isinstance(v, float):  # numpy 2 reprs an np.float64 as "np.float64(...)"
        return repr(float(v))
    return v


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV table at path: the header line, then one line per row."""
    with open_output(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


# -- instance files -------------------------------------------------------------


# edge lines rendered per block when an instance file is written or checked
_LINES_BLOCK = 1 << 12


def _edge_lines(i: np.ndarray, j: np.ndarray, w: np.ndarray) -> Iterator[str]:
    """The edge lines `i j w` of the columns, in blocks of _LINES_BLOCK lines."""
    for k in range(0, i.size, _LINES_BLOCK):
        rows = slice(k, k + _LINES_BLOCK)
        block = np.column_stack((i[rows], j[rows], w[rows]))
        yield ("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist())


def _rudy_text(inst: MaxCutInstance) -> Iterator[str]:
    """The instance file of inst, in pieces: the header, then blocks of edge lines."""
    yield f"{inst.n} {inst.m}\n"
    yield from _edge_lines(inst.heads + 1, inst.tails + 1, inst.weights)


def _parse_written(text: str, name: str) -> Optional[MaxCutInstance]:
    """The instance in text when text is exactly as `serialize_rudy` writes
    files (whatever the edges' order) and holds no faulty edge; else None.

    numpy reads every token in one pass. It also reads some tokens that are
    not plain decimal ints, and saturates past int64, so the text must equal
    the numbers written back, byte for byte.
    """
    try:
        values = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:  # a token numpy cannot read
        return None
    if values.size < 2 or values.size != 2 + 3 * int(values[1]) or values[0] < 0:
        return None
    n, m = int(values[0]), int(values[1])
    i, j, w = values[2:].reshape(m, 3).T
    header = f"{n} {m}\n"
    if not text.startswith(header):
        return None
    at = len(header)
    for lines in _edge_lines(i, j, w):
        if not text.startswith(lines, at):
            return None
        at += len(lines)
    if at != len(text) or ((i == j) | (np.minimum(i, j) < 1) | (np.maximum(i, j) > n)).any():
        return None
    zero = np.flatnonzero(w == 0)
    for k in zero.tolist():  # line k + 2: no line here is blank or a comment
        warnings.warn(f"line {k + 2}: zero-weight edge ({i[k]}, {j[k]}) dropped")
    if zero.size:
        i, j, w = (c[w != 0] for c in (i, j, w))
    i -= 1
    j -= 1
    return MaxCutInstance(n, name=name, heads=i, tails=j, weights=w)


def _parse_lines(text: str, name: str) -> MaxCutInstance:
    """The instance in text, read line by line; a fault raises, naming its line."""
    n = m = None
    edges = []
    declared = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2:
                raise Malformed(f"line {lineno}: expected header 'N M', got {raw!r}")
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise Malformed(f"line {lineno}: non-integer header token in {raw!r}")
            if n < 0 or m < 0:
                raise Malformed(f"line {lineno}: negative count in header")
            continue
        if len(tokens) != 3:
            raise Malformed(f"line {lineno}: expected 'i j w', got {raw!r}")
        try:
            i, j, w = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError:
            raise Malformed(f"line {lineno}: non-integer token in {raw!r}")
        declared += 1
        if i == j:
            raise SelfLoop(f"line {lineno}: self-loop at node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise Malformed(f"line {lineno}: node id outside 1..{n}")
        if w == 0:
            warnings.warn(f"line {lineno}: zero-weight edge ({i}, {j}) dropped")
            continue
        edges.append((i - 1, j - 1, w))
    if n is None:
        raise Malformed("line 1: empty instance file")
    if declared != m:
        raise Malformed(f"edge count mismatch: header says {m}, file has {declared}")
    return MaxCutInstance(n=n, edges=tuple(edges), name=name)


def parse_rudy(text: str, name: str = "") -> MaxCutInstance:
    """Parse an edge-list instance; errors carry the offending line number.

    A file as `serialize_rudy` writes it is read as arrays in one pass; any
    other file, and any file with a fault, is read line by line, which
    accepts every token `int()` accepts and names the faulty line.
    """
    try:
        return _parse_written(text, name) or _parse_lines(text, name)
    except DuplicateEdge as e:  # the one fault left; name the pair as the file does
        i, j = e.pair
        raise DuplicateEdge(f"edge ({i + 1}, {j + 1}) listed twice", pair=e.pair) from None


def serialize_rudy(inst: MaxCutInstance) -> str:
    return "".join(_rudy_text(inst))


def read_instance(path) -> MaxCutInstance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_rudy(text, name=os.path.splitext(os.path.basename(path))[0])


def write_instance(path, inst: MaxCutInstance) -> None:
    with open_output(path) as fh:
        fh.writelines(_rudy_text(inst))


# -- measurement campaigns ---------------------------------------------------------

MEASUREMENT_HEADER = ("v_set", "hrs_kohm", "t_set_s")


def read_measurements(path) -> np.ndarray:
    """Load a (v, r, t_set) campaign CSV; header must match exactly, and every value be finite."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise Malformed("line 1: empty measurement file")
        if tuple(h.strip() for h in header) != MEASUREMENT_HEADER:
            raise Malformed(
                f"line 1: expected header {','.join(MEASUREMENT_HEADER)}, got {header}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = (float(row[0]), float(row[1]), float(row[2]))
            except (ValueError, IndexError):
                raise Malformed(f"line {lineno}: expected three numbers, got {row}")
            if not all(map(math.isfinite, values)):
                raise Malformed(f"line {lineno}: expected three finite numbers, got {row}")
            rows.append(values)
    return np.asarray(rows, dtype=float)


# -- generation ------------------------------------------------------------------

# uniform draws per block of node pairs in generate_instance (512 KiB of
# doubles); a block holds at least n - 1 pairs, so there are at most n blocks
_GEN_BLOCK = 1 << 16
# generate_instance draws its pairs in at most this many parts at once. Each
# part past the first is a thread, which reserves a stack and a malloc arena:
# `gen --nodes 20000` peaked at 116 MB of address space in one part, 250 MB
# in 2, 337 MB in 4 and 694 MB in 8
_GEN_PARTS = 4


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _instance_stream(seed: int, skip: int) -> np.random.Generator:
    """The random stream of generate_instance's seed, past its first skip draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(skip))


def _pair_hits(seed: int, first: int, stop: int, size: int, p: float) -> np.ndarray:
    """The flat indices k in [first, stop) of the node pairs whose uniform
    draw, draw k of the instance stream, is below p; the draws are taken in
    blocks of at most size, each into the same reused buffer."""
    rng = _instance_stream(seed, first)
    draws = np.empty(min(size, stop - first))
    hits = []
    for k in range(first, stop, draws.size):
        block = draws[:stop - k]
        rng.random(out=block)
        hits.append(np.flatnonzero(block < p) + k)
    return np.concatenate(hits)


def generate_instance(
    n: int,
    avg_degree: float,
    weight_set: Sequence[int] = (-1, 1),
    seed: int = 0,
    name: Optional[str] = None,
) -> MaxCutInstance:
    """Erdos-Renyi instance: edge probability avg_degree/(n-1), seeded.

    Node pairs (i, j), i < j, are visited in row-major upper-triangle order
    (the order of `np.triu_indices(n, k=1)`): one uniform draw per pair
    decides the edge, then one `integers` call picks every edge's weight.
    Each uniform is one 64-bit output of the seed's PCG64 stream, so pair k
    is decided by output k, which `PCG64.advance(k)` reaches without drawing
    those before it. The pairs are split into contiguous parts: one per CPU,
    but at most _GEN_PARTS and at most one per whole block of _GEN_BLOCK
    pairs, so an instance of fewer than two blocks starts no thread. The
    first part is drawn in this thread, each other one in a thread of its
    own, and the weights on the stream advanced past every pair; so every
    seed's edges, and its `.rudy` bytes, are those of one draw over the
    whole triangle, whatever the number of CPUs. A part takes its draws in
    blocks of max(_GEN_BLOCK, n - 1) pairs, each into one reused buffer, and
    keeps each hit as its flat pair index; the hits are mapped to their
    (i, j) once all are drawn, so memory is O(parts * block + n + m) rather
    than O(n^2). Zeros in weight_set are treated as absent edges and ignored.
    """
    if n < 2:
        raise InvalidDegree(f"need n >= 2, got {n}")
    if not 0 < avg_degree < n:
        raise InvalidDegree(f"avg_degree must be in (0, {n}), got {avg_degree}")
    weights = sorted({int(w) for w in weight_set} - {0})
    if not weights:
        raise ValueError("weight_set must contain a nonzero weight")
    p = avg_degree / (n - 1)
    # row_start[i]: flat index of pair (i, i+1); row_start[n-1] = n(n-1)/2
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    pairs = int(row_start[-1])
    parts = max(1, min(_cpus(), pairs // _GEN_BLOCK, _GEN_PARTS))
    bounds = [pairs * j // parts for j in range(parts + 1)]
    size = max(_GEN_BLOCK, n - 1)
    # threads start as parts are submitted, so a single part starts none
    with ThreadPoolExecutor(max(parts - 1, 1), thread_name_prefix="stochanneal-gen") as pool:
        rest = [pool.submit(_pair_hits, seed, first, stop, size, p)
                for first, stop in zip(bounds[1:], bounds[2:])]
        hits = np.concatenate([_pair_hits(seed, 0, bounds[1], size, p)]
                              + [part.result() for part in rest])
    heads = np.searchsorted(row_start, hits, side="right") - 1
    tails = hits - row_start[heads] + heads + 1
    wi = _instance_stream(seed, pairs).integers(0, len(weights), size=hits.size)
    return MaxCutInstance(
        n, name=name or f"rand_n{n}_d{avg_degree:g}_s{seed}",
        heads=heads, tails=tails, weights=np.array(weights, dtype=np.int64)[wi],
    )


# -- exhaustive oracle -------------------------------------------------------------


def brute_force_maxcut(inst: MaxCutInstance) -> tuple[int, np.ndarray]:
    """Exact maximum cut by enumeration; n <= 20.

    Complement symmetry lets node n-1 stay in partition 0, so 2^(n-1)
    configurations are scanned, vectorized per edge. The cuts are summed in
    int64, which is exact: the instance keeps the summed |w| inside int64.
    """
    n = inst.n
    if n > 20:
        raise TooLarge(f"brute force capped at 20 nodes, got {n}")
    if n == 0:
        return 0, np.zeros(0, dtype=np.uint8)
    count = 1 << max(n - 1, 0)
    codes = np.arange(count, dtype=np.uint32)
    cuts = np.zeros(count, dtype=np.int64)
    for i, j, w in zip(inst.heads.tolist(), inst.tails.tolist(), inst.weights.tolist()):
        bi = (codes >> i) & 1 if i < n - 1 else np.zeros(count, dtype=np.uint32)
        bj = (codes >> j) & 1 if j < n - 1 else np.zeros(count, dtype=np.uint32)
        cuts += w * (bi ^ bj).astype(np.int64)
    best = int(cuts.argmax())
    x = np.array([(best >> i) & 1 for i in range(n - 1)] + [0], dtype=np.uint8)[:n]
    return int(cuts[best]), x


# -- best-known registry -------------------------------------------------------------


@dataclass
class BestKnownRegistry:
    """instance name -> (best-known cut, provenance)."""

    entries: dict = field(default_factory=dict)

    def set_entry(self, name: str, cut: int, provenance: str) -> None:
        if provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        self.entries[name] = {"cut": int(cut), "provenance": provenance}

    def get(self, name: str) -> Optional[int]:
        e = self.entries.get(name)
        return None if e is None else int(e["cut"])

    def provenance(self, name: str) -> Optional[str]:
        e = self.entries.get(name)
        return None if e is None else e["provenance"]

    def save(self, path) -> None:
        with open_output(path) as fh:
            json.dump(self.entries, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BestKnownRegistry":
        """The registry a file holds; Malformed, naming the file, if it holds none
        or an entry whose cut is not a JSON integer."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                entries = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise Malformed(f"{path}: not JSON ({exc})") from None
        if not isinstance(entries, dict):
            raise Malformed(f"{path}: a registry holds one JSON object")
        reg = cls()
        for name, e in entries.items():
            try:
                cut = e["cut"]
                if isinstance(cut, bool) or not isinstance(cut, int):  # no 7.9, true or "12"
                    raise ValueError(f"cut {json.dumps(cut)} is not a JSON integer")
                reg.set_entry(name, cut, e["provenance"])
            except (KeyError, TypeError, ValueError) as exc:
                raise Malformed(f"{path}: entry {name!r} needs an integer cut and a "
                                f"provenance ({exc!r})") from None
        return reg


# -- result tables --------------------------------------------------------------------


@dataclass
class ResultRow:
    run_id: int
    instance: str
    n: int
    scheme: str
    m_hrs: float
    d2d_cv: float
    calibrated: bool
    seed: int
    converged_at: Optional[int]
    best_cut: int
    settling_energy: float
    iterations: int
    clamp_events: int


RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def write_results(path, rows: Iterable[ResultRow]) -> None:
    write_table(path, RESULT_COLUMNS, map(dataclasses.astuple, rows))


def read_results(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- manifests ---------------------------------------------------------------------------


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, config: dict, seed: int, params_path=None,
                   loops=None) -> dict:
    """Record everything needed to reproduce a run byte-for-byte.

    `params_path` None stands for the packaged reference parameter file,
    whose hash is recorded too. `loops` counts every run the command made
    under (RunTrace.kernel, RunTrace.drawn_ahead); from it come `kernel`, the
    sampling loops that ran ("c", "python" or "c,python"), and `drawn_ahead`,
    how many runs drew their random blocks on a second thread, both null
    without it. The timestamp is manifest-only; result CSVs never embed it.
    """
    from . import __version__
    from .reference import reference_sha256

    manifest = {
        "command": command,
        "config": config,
        "seed": int(seed),
        "params_file": None if params_path is None else str(params_path),
        "params_sha256": reference_sha256() if params_path is None else file_sha256(params_path),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": None if loops is None else ",".join(sorted({k for k, _ in loops})) or None,
        "drawn_ahead": None if loops is None else sum(n for (_, a), n in loops.items() if a),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open_output(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest

"""File boundary: instance parsing/generation, registry, result tables.

Every file the package writes is opened by `open_output`, so a failed
write is an `IoFailure` naming the path; every CSV table is written by
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
import hashlib
import json
import math
import os
import platform
import warnings
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


def parse_rudy(text: str, name: str = "") -> MaxCutInstance:
    """Parse an edge-list instance; errors carry the offending line number."""
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
    try:
        return MaxCutInstance(n=n, edges=tuple(edges), name=name)
    except DuplicateEdge as e:  # the one fault left; name the pair as the file does
        i, j = e.pair
        raise DuplicateEdge(f"edge ({i + 1}, {j + 1}) listed twice", pair=e.pair) from None


def serialize_rudy(inst: MaxCutInstance) -> str:
    out = [f"{inst.n} {inst.m}"]
    for i, j, w in inst.edges:
        out.append(f"{i + 1} {j + 1} {w}")
    return "\n".join(out) + "\n"


def read_instance(path) -> MaxCutInstance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_rudy(text, name=os.path.splitext(os.path.basename(path))[0])


def write_instance(path, inst: MaxCutInstance) -> None:
    with open_output(path) as fh:
        fh.write(serialize_rudy(inst))


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

# uniform draws per block of rows in generate_instance (512 KiB of doubles)
_GEN_BLOCK = 1 << 16


def _grown(a: np.ndarray, used: int, size: int) -> np.ndarray:
    """A copy of a[:used] in a new array of `size` elements."""
    out = np.empty(size, dtype=a.dtype)
    out[:used] = a[:used]
    return out


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
    The draws are taken in blocks of whole rows, _GEN_BLOCK draws at most
    (a longer row is a block of its own), each into the same reused buffer;
    this yields the same stream as drawing them all at once. The endpoints
    collect in two int64 arrays that grow geometrically, so memory is
    O(block + n + m) rather than O(n^2). Zeros in weight_set are treated as
    absent edges and ignored.
    """
    if n < 2:
        raise InvalidDegree(f"need n >= 2, got {n}")
    if not 0 < avg_degree < n:
        raise InvalidDegree(f"avg_degree must be in (0, {n}), got {avg_degree}")
    weights = sorted({int(w) for w in weight_set} - {0})
    if not weights:
        raise ValueError("weight_set must contain a nonzero weight")
    p = avg_degree / (n - 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # row_start[i]: flat index of pair (i, i+1); row_start[n-1] = n(n-1)/2
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    # one block's draws and their comparison with p, reused by every block
    draws = np.empty(max(min(_GEN_BLOCK, int(row_start[-1])), n - 1))
    below = np.empty(draws.size, dtype=bool)
    heads = tails = np.empty(0, dtype=np.int64)
    m = 0
    i = 0
    while i < n - 1:
        # whole rows i..e-1, at least one, within one block of draws
        e = int(np.searchsorted(row_start, row_start[i] + _GEN_BLOCK, side="right")) - 1
        e = max(e, i + 1)
        k = int(row_start[e] - row_start[i])
        rng.random(out=draws[:k])
        hits = np.flatnonzero(np.less(draws[:k], p, out=below[:k]))
        starts = row_start[i:e] - row_start[i]
        r = np.searchsorted(starts, hits, side="right") - 1
        if m + hits.size > heads.size:
            size = max(2 * heads.size, m + hits.size)
            heads, tails = _grown(heads, m, size), _grown(tails, m, size)
        np.add(r, i, out=heads[m:m + hits.size])
        tails[m:m + hits.size] = i + 1 + r + (hits - starts[r])
        m += hits.size
        i = e
    wi = rng.integers(0, len(weights), size=m)
    w = np.array(weights, dtype=np.int64)[wi]
    edges = tuple(zip(heads[:m].tolist(), tails[:m].tolist(), w.tolist()))
    return MaxCutInstance(
        n=n,
        edges=edges,
        name=name or f"rand_n{n}_d{avg_degree:g}_s{seed}",
    )


# -- exhaustive oracle -------------------------------------------------------------


def brute_force_maxcut(inst: MaxCutInstance) -> tuple[int, np.ndarray]:
    """Exact maximum cut by enumeration; n <= 20.

    Complement symmetry lets node n-1 stay in partition 0, so 2^(n-1)
    configurations are scanned, vectorized per edge.
    """
    n = inst.n
    if n > 20:
        raise TooLarge(f"brute force capped at 20 nodes, got {n}")
    if n == 0:
        return 0, np.zeros(0, dtype=np.uint8)
    count = 1 << max(n - 1, 0)
    codes = np.arange(count, dtype=np.uint32)
    cuts = np.zeros(count, dtype=np.int64)
    for i, j, w in inst.edges:
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
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        reg = cls()
        for name, e in entries.items():
            reg.set_entry(name, e["cut"], e["provenance"])
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
                   kernel: Optional[str] = None, drawn_ahead: Optional[int] = None) -> dict:
    """Record everything needed to reproduce a run byte-for-byte.

    `params_path` None stands for the packaged reference parameter file,
    whose hash is recorded too. `kernel` names the sampling loop that ran
    ("c", "python"), where the caller knows it, and `drawn_ahead` how many of
    its runs drew their random blocks on a second thread. The timestamp is
    manifest-only; result CSVs never embed it.
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
        "kernel": kernel,
        "drawn_ahead": drawn_ahead,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open_output(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest

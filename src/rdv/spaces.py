"""Seeded generators for benchmark spaces, plus space/report file I/O.

Generators are deterministic functions of their parameters.  Point counts
are capped (4096 by default, overridable through the ``RDV_CAP``
environment variable) so a mistyped size fails fast instead of allocating
gigabytes.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DisconnectedAfterRetriesError,
    KernelSpace,
    NonFiniteEntryError,
    ParseError,
    SchemaError,
    SubsetPair,
    TooLargeError,
    validate_kernel,
)
from .report import AnalysisReport

DEFAULT_POINT_CAP = 4096
CAP_ENV_VAR = "RDV_CAP"
_MAX_GRAPH_RETRIES = 64


def point_cap(cap: Optional[int] = None) -> int:
    """Resolve the active point-count cap: explicit arg, env override, default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_POINT_CAP


# Each family's own fields, in the order of its inline spec's arguments:
# ``circle(m, metric, radius)``.
FAMILY_FIELDS = {"interval_grid": ("m",), "circle": ("m", "metric", "radius"),
                 "hypercube": ("dim",), "random_graph": ("m", "edge_prob", "seed")}


@dataclass(frozen=True)
class SpaceDescriptor:
    """Parameters for one generated space; ``kind`` picks the family."""

    kind: str
    m: int = 0
    metric: str = "chord"
    radius: float = 1.0
    dim: int = 0
    edge_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_FIELDS:
            raise SchemaError(f"unknown generator kind {self.kind!r}")
        if "m" in FAMILY_FIELDS[self.kind] and self.m < 1:
            raise SchemaError(f"{self.kind} needs at least one point, got m={self.m}")
        if self.kind == "circle":
            if self.metric not in ("chord", "arc"):
                raise SchemaError(f"circle metric must be chord or arc, got {self.metric!r}")
            if not (self.radius > 0):
                raise SchemaError(f"circle radius must be positive, got {self.radius!r}")
        if self.dim < 0:
            raise SchemaError(f"hypercube dimension must be nonnegative, got {self.dim}")
        if self.seed < 0:
            raise SchemaError(f"random seed must be nonnegative, got {self.seed}")
        if self.kind == "random_graph" and not (0.0 < self.edge_prob <= 1.0):
            raise SchemaError(f"edge probability must lie in (0, 1], got {self.edge_prob!r}")


def interval_grid(m: int) -> SpaceDescriptor:
    return SpaceDescriptor(kind="interval_grid", m=m)


def circle(m: int, metric: str = "chord", radius: float = 1.0) -> SpaceDescriptor:
    return SpaceDescriptor(kind="circle", m=m, metric=metric, radius=radius)


def hypercube(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor(kind="hypercube", dim=dim)


def random_graph(m: int, edge_prob: float = 0.5, seed: int = 0) -> SpaceDescriptor:
    return SpaceDescriptor(kind="random_graph", m=m, edge_prob=edge_prob, seed=seed)


def _grid_kernel(m: int) -> np.ndarray:
    if m == 1:
        return np.zeros((1, 1))
    # float indices subtract exactly, so no m x m integer temporary is needed
    x = np.arange(m, dtype=float)
    k = x[:, None] - x[None, :]
    np.abs(k, out=k)
    k /= float(m - 1)
    return k


def _circle_kernel(m: int, metric: str, radius: float) -> np.ndarray:
    # build from a half-row and mirror so the matrix is symmetric to the bit
    row = np.empty(m)
    for d in range(m // 2 + 1):
        if metric == "chord":
            row[d] = 2.0 * radius * math.sin(math.pi * d / m)
        else:
            row[d] = radius * (2.0 * math.pi * d / m)
    for d in range(m // 2 + 1, m):
        row[d] = row[m - d]
    # K[i, j] = row[(i - j) % m]: row i is the reversed row, doubled, read
    # from position m - 1 - i, so each row is a window one step left of the last
    doubled = np.concatenate((row[::-1], row[::-1]))
    windows = np.lib.stride_tricks.as_strided(doubled[m - 1:], shape=(m, m),
                                              strides=(-doubled.itemsize, doubled.itemsize))
    return windows.copy()


def _hypercube_kernel(dim: int) -> tuple[np.ndarray, tuple[str, ...]]:
    m = 1 << dim
    # K[i, j] is the popcount of i ^ j; a new top bit adds 1 off the diagonal
    # blocks: K' = [[K, K + 1], [K + 1, K]], built in place in float, exactly
    k = np.empty((m, m))
    k[0, 0] = 0.0
    for d in range(dim):
        n = 1 << d
        np.add(k[:n, :n], 1.0, out=k[:n, n:2 * n])
        k[n:2 * n, :n] = k[:n, n:2 * n]
        k[n:2 * n, n:2 * n] = k[:n, :n]
    labels = tuple(format(i, f"0{max(dim, 1)}b") for i in range(m))
    return k, labels


def _positive_off_diagonal(kernel: np.ndarray) -> bool:
    """Whether every off-diagonal entry of a finite nonnegative kernel is
    positive, counted with no m x m temporary."""
    m = kernel.shape[0]
    return np.count_nonzero(kernel) - np.count_nonzero(kernel.diagonal()) == m * (m - 1)


def _floyd_warshall(weights: np.ndarray) -> np.ndarray:
    d = weights.copy()
    step = np.empty_like(d)
    for via in range(d.shape[0]):
        np.add(d[:, via, None], d[via], out=step)
        np.minimum(d, step, out=d)
    return d


def _connected(adj: np.ndarray) -> bool:
    """Whether the finite entries of ``adj`` link every point to point 0."""
    linked = np.isfinite(adj)
    seen, grown = None, linked[0]
    while not np.array_equal(seen, grown):
        seen, grown = grown, linked[grown].any(axis=0)
    return bool(seen.all())


def _uniforms(rng: np.random.Generator, size: int):
    """The values of successive ``rng.random()`` calls, drawn ``size`` at a
    time: an array draw takes the same values from the stream in order."""
    while True:
        yield from rng.random(size).tolist()


def _random_graph_kernel(m: int, edge_prob: float, seed: int) -> np.ndarray:
    # One draw per pair, and one more per edge for its weight.  Python
    # floats from buffered array draws cost a fraction of one Generator call
    # per draw.
    draw = _uniforms(np.random.default_rng(seed), max(1, m * m)).__next__
    for _ in range(_MAX_GRAPH_RETRIES):
        adj = np.full((m, m), np.inf)
        np.fill_diagonal(adj, 0.0)
        ends, weights = [], []
        for i in range(m):
            for j in range(i + 1, m):
                if draw() < edge_prob:
                    # rng.uniform(0.0, 0.9) is 0.0 + 0.9 * rng.random(), so
                    # the weight is uniform on (0.1, 1.0]
                    ends.append((i, j))
                    weights.append(1.0 - (0.0 + 0.9 * draw()))
        if ends:
            i, j = np.array(ends).T
            adj[i, j] = adj[j, i] = weights
        if _connected(adj):
            return _floyd_warshall(adj)
    raise DisconnectedAfterRetriesError(
        f"no connected graph on {m} points with edge probability {edge_prob} "
        f"after {_MAX_GRAPH_RETRIES} draws (seed {seed})"
    )


def generate(desc: SpaceDescriptor, cap: Optional[int] = None) -> KernelSpace:
    """Build the kernel space described by ``desc``.

    Generated kernels are metric by construction; the expensive axiom scan
    is skipped here and exercised by the validation tests instead.  A kernel
    that overflows (a circle of huge radius) raises ``NonFiniteEntryError``.
    """
    limit = point_cap(cap)
    if desc.kind == "hypercube":
        m = 1 << desc.dim
    else:
        m = desc.m
    if m > limit:
        raise TooLargeError(f"{desc.kind} would have {m} points; cap is {limit}")

    labels = tuple(str(i) for i in range(m))  # the hypercube's are bit strings
    if desc.kind == "interval_grid":
        kernel = _grid_kernel(m)
        name = f"interval_grid({m})"
    elif desc.kind == "circle":
        kernel = _circle_kernel(m, desc.metric, desc.radius)
        name = f"circle({m},{desc.metric},r={desc.radius:g})"
    elif desc.kind == "hypercube":
        kernel, labels = _hypercube_kernel(desc.dim)
        name = f"hypercube({desc.dim})"
    else:
        kernel = _random_graph_kernel(m, desc.edge_prob, desc.seed)
        name = f"random_graph({m},p={desc.edge_prob:g},seed={desc.seed})"

    # reductions, not an m x m mask: a NaN or an infinity reaches max or min
    if not (math.isfinite(float(kernel.max())) and math.isfinite(float(kernel.min()))):
        raise NonFiniteEntryError(f"{name} has a non-finite kernel entry")
    is_metric = m == 1 or _positive_off_diagonal(kernel)
    return KernelSpace(name=name, points=labels, kernel=kernel, is_metric=is_metric)


# --------------------------------------------------------------------------
# space files

_SPACE_FIELDS = {"name", "points", "kernel", "is_metric", "subsets"}
_SPACE_REQUIRED = {"name", "points", "kernel"}


def load_space(document: str) -> tuple[KernelSpace, Optional[SubsetPair]]:
    """Parse a space document (JSON text) and validate its kernel.

    ``is_metric`` defaults to true, which makes loading enforce the metric
    axioms; kernels that are not metrics must say so explicitly.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(f"space document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a mapping")
    missing = sorted(_SPACE_REQUIRED - doc.keys())
    extra = sorted(doc.keys() - _SPACE_FIELDS)
    if missing or extra:
        raise SchemaError(f"space fields off schema: missing {missing}, extra {extra}")

    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise SchemaError("points must be an array of string labels")
    kernel = doc["kernel"]
    if not isinstance(kernel, list) or not kernel:
        raise SchemaError("kernel must be a nonempty array of rows")
    n = len(kernel)
    rows = []
    for i, row in enumerate(kernel):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"kernel row {i} has length {len(row) if isinstance(row, list) else 'n/a'}, expected {n}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"kernel row {i} contains non-numeric entry {v!r}")
        rows.append([float(v) for v in row])
    if len(points) != n:
        raise SchemaError(f"{len(points)} point labels for a {n}x{n} kernel")

    require_metric = doc.get("is_metric", True)
    if not isinstance(require_metric, bool):
        raise SchemaError("is_metric must be a boolean")

    pair = None
    if "subsets" in doc:
        sub = doc["subsets"]
        if not isinstance(sub, dict) or sorted(sub.keys()) != ["H", "L"]:
            raise SchemaError("subsets must be a record with integer arrays H and L")
        for key in ("H", "L"):
            arr = sub[key]
            if not isinstance(arr, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in arr
            ):
                raise SchemaError(f"subsets.{key} must be an array of integers")
            if any(v < 0 or v >= n for v in arr):
                raise SchemaError(f"subsets.{key} index out of range for {n} points")
        pair = SubsetPair(tuple(sub["H"]), tuple(sub["L"]))

    space = validate_kernel(rows, require_metric=require_metric,
                            name=str(doc["name"]), points=tuple(points))
    return space, pair


def load_space_file(path: str) -> tuple[KernelSpace, Optional[SubsetPair]]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_space(fh.read())


def space_to_document(space: KernelSpace, pair: Optional[SubsetPair] = None) -> dict:
    doc = {
        "name": space.name,
        "points": list(space.points),
        "kernel": [[float(v) for v in row] for row in space.kernel],
        "is_metric": bool(space.is_metric),
    }
    if pair is not None:
        doc["subsets"] = {"H": list(pair.H), "L": list(pair.L)}
    return doc


def save_space(space: KernelSpace, path: Optional[str],
               pair: Optional[SubsetPair] = None) -> None:
    """Write a space file, or the same text to stdout when ``path`` is None."""
    _write_json(space_to_document(space, pair), path)


# --------------------------------------------------------------------------
# output text, report files and CSV export

def write_text(text: str, path: Optional[str]) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(doc: dict, path: Optional[str]) -> None:
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def save_report(report: AnalysisReport, path: Optional[str]) -> None:
    """Write a report file, or its text to stdout when ``path`` is None;
    identical reports produce byte-identical text."""
    _write_json(report.to_dict(), path)


def load_report(path: str) -> AnalysisReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"report file is not valid JSON: {e}") from e
    return AnalysisReport.from_dict(doc)


def report_to_csv(report: AnalysisReport) -> str:
    """One ``name,value`` row per named scalar, sorted by name."""
    lines = ["name,value"]
    for k in sorted(report.scalars):
        v = float(report.scalars[k])
        lines.append(f"{k},{'inf' if math.isinf(v) else repr(v)}")
    return "\n".join(lines) + "\n"

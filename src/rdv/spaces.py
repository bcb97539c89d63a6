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
        if self.kind not in ("interval_grid", "circle", "hypercube", "random_graph"):
            raise SchemaError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("interval_grid", "circle", "random_graph") and self.m < 1:
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
    idx = np.arange(m)
    return np.abs(idx[:, None] - idx[None, :]) / float(m - 1)


def _circle_kernel(m: int, metric: str, radius: float) -> np.ndarray:
    # build from a half-row and mirror so the matrix is symmetric to the bit
    steps = np.arange(m)
    row = np.empty(m)
    for d in range(m // 2 + 1):
        if metric == "chord":
            row[d] = 2.0 * radius * math.sin(math.pi * d / m)
        else:
            row[d] = radius * (2.0 * math.pi * d / m)
    for d in range(m // 2 + 1, m):
        row[d] = row[m - d]
    diff = (steps[:, None] - steps[None, :]) % m
    return row[diff]


def _hypercube_kernel(dim: int) -> tuple[np.ndarray, tuple[str, ...]]:
    m = 1 << dim
    idx = np.arange(m, dtype=np.uint64)
    k = np.bitwise_count(np.bitwise_xor.outer(idx, idx)).astype(float)
    labels = tuple(format(i, f"0{max(dim, 1)}b") for i in range(m))
    return k, labels


def _floyd_warshall(weights: np.ndarray) -> np.ndarray:
    d = weights.copy()
    m = d.shape[0]
    for via in range(m):
        np.minimum(d, d[:, via][:, None] + d[via, :][None, :], out=d)
    return d


def _random_graph_kernel(m: int, edge_prob: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_GRAPH_RETRIES):
        adj = np.full((m, m), np.inf)
        np.fill_diagonal(adj, 0.0)
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < edge_prob:
                    w = 1.0 - rng.uniform(0.0, 0.9)  # uniform on (0.1, 1.0]
                    adj[i, j] = adj[j, i] = w
        dist = _floyd_warshall(adj)
        if np.all(np.isfinite(dist)):
            return dist
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

    if desc.kind == "interval_grid":
        kernel = _grid_kernel(m)
        name = f"interval_grid({m})"
        labels = tuple(str(i) for i in range(m))
    elif desc.kind == "circle":
        kernel = _circle_kernel(m, desc.metric, desc.radius)
        name = f"circle({m},{desc.metric},r={desc.radius:g})"
        labels = tuple(str(i) for i in range(m))
    elif desc.kind == "hypercube":
        kernel, labels = _hypercube_kernel(desc.dim)
        name = f"hypercube({desc.dim})"
    else:
        kernel = _random_graph_kernel(m, desc.edge_prob, desc.seed)
        name = f"random_graph({m},p={desc.edge_prob:g},seed={desc.seed})"
        labels = tuple(str(i) for i in range(m))

    if not np.all(np.isfinite(kernel)):
        raise NonFiniteEntryError(f"{name} has a non-finite kernel entry")
    is_metric = m == 1 or bool(np.all(kernel + np.eye(m) > 0))
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

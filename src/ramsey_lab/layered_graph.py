"""Layered (cyclically k-partite) graphs.

A layered graph has k parts of m vertices each and edges only between
cyclically consecutive parts.  Vertex ids are global 0-based integers:
part ``i`` (0-based) occupies ids ``[i*m, (i+1)*m)``, so ``part_of`` and
local offsets are O(1) arithmetic.

Adjacency is stored as one dense boolean block per consecutive part pair:
``blocks[i][a, b]`` is True iff local vertex ``a`` of part ``i`` is joined
to local vertex ``b`` of part ``(i+1) % k``.  Rows/columns double as the
bit masks the cycle enumeration intersects; sorted neighbor lists (CSR)
are derived lazily.

Random generation draws one uniform per candidate pair from a Philox
stream keyed by the seed, consuming draws in (part, row, column) ascending
order, so equal seeds give bit-identical graphs independent of platform.
Both constructors from outside input (random generation and edge lists)
refuse, before allocating, a graph whose arrays would not fit in the
machine's physical memory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError, UnknownVertexError
from .seeds import make_rng

__all__ = [
    "GraphParams",
    "CanonicalParams",
    "canonical_params",
    "LayeredGraph",
    "generate_random",
    "complete_layered",
    "neighbors",
]


@dataclass(frozen=True)
class GraphParams:
    """Parameters of the random layered-graph model."""

    k: int
    part_size: int
    edge_prob: float
    seed: int

    def __post_init__(self):
        if self.k < 3:
            raise ParameterError(f"k must be >= 3, got {self.k}")
        if self.part_size < 1:
            raise ParameterError(f"part_size must be >= 1, got {self.part_size}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ParameterError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")
        if not 0 <= int(self.seed) < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class CanonicalParams:
    """Canonical host parameterization for target path length n and r colors.

    Fixes the density multiplier c = 16*k^2*r and edge probability
    p = sqrt(ln n / n); parts then have c*n vertices each.  This is a
    convenience constructor: part_size and p may be overridden freely
    when building desk-scale instances.
    """

    k: int
    r: int
    n: int

    @property
    def c(self) -> int:
        return 16 * self.k * self.k * self.r

    @property
    def p(self) -> float:
        return math.sqrt(math.log(self.n) / self.n)

    @property
    def part_size(self) -> int:
        return self.c * self.n

    def graph_params(self, seed: int) -> GraphParams:
        return GraphParams(k=self.k, part_size=self.part_size, edge_prob=self.p, seed=seed)


def canonical_params(k: int, r: int, n: int) -> CanonicalParams:
    """Validated canonical parameterization (k >= 3, r >= 2, n >= k)."""
    if k < 3:
        raise ParameterError(f"k must be >= 3, got {k}")
    if r < 2:
        raise ParameterError(f"r must be >= 2, got {r}")
    if n < k:
        raise ParameterError(f"n must be >= k, got n={n}, k={k}")
    return CanonicalParams(k=k, r=r, n=n)


class LayeredGraph:
    """Immutable k-partite graph with edges between consecutive parts only."""

    def __init__(self, k: int, part_size: int, blocks: list[np.ndarray]):
        if k < 3:
            raise ParameterError(f"k must be >= 3, got {k}")
        if part_size < 1:
            raise ParameterError(f"part_size must be >= 1, got {part_size}")
        if len(blocks) != k:
            raise ParameterError(f"expected {k} adjacency blocks, got {len(blocks)}")
        m = part_size
        for i, b in enumerate(blocks):
            if b.shape != (m, m) or b.dtype != np.bool_:
                raise ParameterError(f"block {i} must be a ({m}, {m}) boolean array")
        self.k = k
        self.m = m
        self.blocks = [np.ascontiguousarray(b) for b in blocks]
        for b in self.blocks:
            b.setflags(write=False)
        self._csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.k * self.m

    def part_of(self, v: int) -> int:
        self._check_vertex(v)
        return v // self.m

    def local(self, v: int) -> int:
        return v % self.m

    def vertex(self, part: int, local: int) -> int:
        return part * self.m + local

    def edge_count(self) -> int:
        return int(sum(int(b.sum()) for b in self.blocks))

    def adjacent(self, u: int, v: int) -> bool:
        """True iff uv is an edge (both directions checked, parts validated)."""
        pu, pv = self.part_of(u), self.part_of(v)
        if (pv - pu) % self.k == 1:
            return bool(self.blocks[pu][u % self.m, v % self.m])
        if (pu - pv) % self.k == 1:
            return bool(self.blocks[pv][v % self.m, u % self.m])
        return False

    def forward_mask(self, v: int) -> np.ndarray:
        """Boolean mask over the next part's locals adjacent to v."""
        p = self.part_of(v)
        return self.blocks[p][v % self.m]

    def backward_mask(self, v: int) -> np.ndarray:
        """Boolean mask over the previous part's locals adjacent to v."""
        p = self.part_of(v)
        return self.blocks[(p - 1) % self.k][:, v % self.m]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.k * self.m:
            raise UnknownVertexError(f"vertex {v} not in graph with {self.k * self.m} vertices")

    # -- derived neighbor lists ---------------------------------------------

    def csr(self, part: int) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the sorted forward neighbor lists of one part:
        the rows of ``blocks[part]`` (part -> part+1)."""
        cached = self._csr.get(part)
        if cached is not None:
            return cached
        mat = self.blocks[part]
        counts = mat.sum(axis=1)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        indices = np.nonzero(mat)[1].astype(np.int32)
        self._csr[part] = (indptr, indices)
        return indptr, indices

    # -- serialization -------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) global pairs with u < v, sorted lexicographically."""
        pairs = []
        for i, b in enumerate(self.blocks):
            rows, cols = np.nonzero(b)
            u = rows.astype(np.int64) + i * self.m
            v = cols.astype(np.int64) + ((i + 1) % self.k) * self.m
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            pairs.append(np.stack([lo, hi], axis=1))
        if not pairs:
            return []
        allp = np.concatenate(pairs)
        order = np.lexsort((allp[:, 1], allp[:, 0]))
        return [(int(a), int(b)) for a, b in allp[order]]

    def to_json(self) -> dict:
        return {"k": self.k, "m": self.m, "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_edges(cls, k: int, m: int, edges) -> "LayeredGraph":
        if k < 3 or m < 1:
            raise ParameterError(f"need k >= 3 and m >= 1, got k={k}, m={m}")
        _check_fits_in_memory(k * m * m)
        blocks = [np.zeros((m, m), dtype=bool) for _ in range(k)]
        n = k * m
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of vertex range [0, {n})")
            pu, pv = u // m, v // m
            if (pv - pu) % k == 1:
                blocks[pu][u % m, v % m] = True
            elif (pu - pv) % k == 1:
                blocks[pv][v % m, u % m] = True
            else:
                raise ParameterError(
                    f"edge ({u}, {v}) joins non-consecutive parts {pu} and {pv}"
                )
        return cls(k, m, blocks)

    @classmethod
    def from_json(cls, doc: dict) -> "LayeredGraph":
        if not all(type(doc[key]) is int for key in ("k", "m")):
            raise ParameterError(f"k and m must be integers, got {doc['k']!r}, {doc['m']!r}")
        return cls.from_edges(doc["k"], doc["m"], doc["edges"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LayeredGraph":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.m == other.m
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def __repr__(self) -> str:
        return f"LayeredGraph(k={self.k}, m={self.m}, edges={self.edge_count()})"


def _check_fits_in_memory(required: int) -> None:
    """Raise ResourceLimitError when ``required`` bytes exceed physical memory."""
    cap = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if required > cap:
        raise ResourceLimitError("graph arrays need more bytes than physical memory", required, cap)


def generate_random(params: GraphParams) -> LayeredGraph:
    """Sample the random layered graph defined by ``params``.

    Each of the k*m^2 consecutive-part pairs is an edge independently with
    probability ``edge_prob``.  Candidate pair (i, u, w) consumes the
    ((i*m + u)*m + w)-th uniform draw of the Philox stream for the seed.
    """
    k, m, p = params.k, params.part_size, params.edge_prob
    # the float64 draws and the boolean blocks are alive together
    _check_fits_in_memory(9 * k * m * m)
    rng = make_rng(int(params.seed))
    draws = rng.random((k, m, m))
    blocks = [draws[i] < p for i in range(k)]
    return LayeredGraph(k, m, blocks)


def complete_layered(k: int, m: int) -> LayeredGraph:
    """Deterministic reference graph with all k*m^2 consecutive-part edges."""
    if k < 3:
        raise ParameterError(f"k must be >= 3, got {k}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return LayeredGraph(k, m, [np.ones((m, m), dtype=bool) for _ in range(k)])


def neighbors(g: LayeredGraph, v: int, direction: str = "forward") -> np.ndarray:
    """Sorted global ids of v's neighbors in the next (or previous) part."""
    g._check_vertex(v)
    if direction == "forward":
        mask = g.forward_mask(v)
        part = (g.part_of(v) + 1) % g.k
    elif direction == "backward":
        mask = g.backward_mask(v)
        part = (g.part_of(v) - 1) % g.k
    else:
        raise ParameterError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return np.nonzero(mask)[0].astype(np.int64) + part * g.m

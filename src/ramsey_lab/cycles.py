"""Proper cycles, proper paths, and the tight-path hypergraph.

A *proper cycle* of a layered graph visits each part exactly once (one
vertex per part, cyclically adjacent); proper cycles are the hyperedges of
the tight-path hypergraph.  A *proper path* visits at most one vertex per
part, along a consecutive arc of parts.

Canonical encoding: a proper cycle is stored part-indexed, so it has one
representation - a tuple (or an ``(N, k)`` row block) of global vertex ids
whose entry ``i`` lies in part ``i`` - and is ranked by the mixed-radix key
``sum(local_i * m**(k-1-i))`` over parts ``i``.  The codec - ``_radices``,
``encode_keys`` and ``decode_keys`` - is the only code that knows this
format; everything else encodes and decodes through it.  Enumeration emits
keys in ascending order, into one array of exactly the counted total, which
is refused before allocation when it would not fit in physical memory.
Part 0's closed-walk counts give each start vertex its own slice of that
array, so the start vertices are enumerated in parallel on every CPU the
process may run on (there is no setting for it) - on fewer threads when
more would hold over a quarter of the key array in temporaries - and each
start's keys are checked against its own count: paths grow through the
middle parts, and the last level expands only to vertices that close the
cycle, so no path that fails to close is built.
Every block-chain count (total, per vertex, meeting a vertex set) sums
``_closed_walks`` over the float64 blocks from ``_float_blocks``, as Python
ints; the kernel refuses a chain only when one of its own computed entries
reaches 2**53, where float64 stops being exact.  The meeting count sums it
over the set's own rows only, counting each cycle at the first part where
it meets the set.

A (k-1)-vertex proper path is a row of a ``TrashFamily``: an ``(N, k-1)``
int64 array that only ``trash_family`` builds, after checking every row and
that the rows are pairwise vertex-disjoint.  A row runs along its arc of
parts and starts in the lower-numbered of its two endpoint parts.  Both
extension counts go through ``_count_extensions``, a plain sum of
``_completion_mask`` sizes over the rows with no keys encoded: two
(k-1)-subsets of one k-set share k-2 >= 1 vertices, so no cycle extends
two paths of a disjoint family.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError, UnknownVertexError
from .layered_graph import LayeredGraph, _check_fits_in_memory
from .reporting import _write_rows

__all__ = [
    "TrashFamily",
    "trash_family",
    "count_proper_cycles",
    "cycles_per_vertex",
    "cycles_through_vertex",
    "cycle_keys",
    "encode_keys",
    "decode_keys",
    "extend_path",
    "count_family_extensions",
    "count_restricted_extensions",
    "count_cycles_meeting",
    "TightHypergraph",
    "build_hypergraph",
    "validate_tight_path",
    "validate_tight_path_verbose",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrashFamily:
    """Pairwise vertex-disjoint proper paths of exactly k-1 vertices each.

    ``rows`` is a read-only ``(N, k-1)`` int64 array, one path per row; only
    ``trash_family`` builds it.
    """

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def trash_family(g: LayeredGraph, paths) -> TrashFamily:
    """Validate and orient a family of pairwise-disjoint (k-1)-vertex proper paths.

    Each path must have k-1 distinct vertices in distinct parts, consecutive
    ones adjacent; it is stored starting in the lower-numbered of its two
    endpoint parts.
    """
    rows: list[list[int]] = []
    seen: set[int] = set()
    for p in paths:
        seq = list(p)
        if len(seq) != g.k - 1:
            raise InvariantViolationError(
                f"trash paths must have exactly {g.k - 1} vertices, got {len(seq)}"
            )
        parts = [g.part_of(v) for v in seq]  # refuses non-integer ids before the cast
        seq = [int(v) for v in seq]
        if len(set(seq)) != len(seq):
            raise InvariantViolationError("proper path has repeated vertices")
        if len(set(parts)) != len(parts):
            raise InvariantViolationError("proper path hits a part twice")
        for a, b in zip(seq, seq[1:]):
            if not g.adjacent(a, b):
                raise InvariantViolationError(f"consecutive vertices {a}, {b} not adjacent")
        # adjacency forces consecutive parts to differ by +-1 cyclically; with all
        # parts distinct the walk is monotone, so the part set is an arc.
        if parts[0] > parts[-1]:
            seq.reverse()
        for v in seq:
            if v in seen:
                raise InvariantViolationError(f"trash paths overlap at vertex {v}")
            seen.add(v)
        rows.append(seq)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), g.k - 1)
    arr.setflags(write=False)
    return TrashFamily(arr)


# ---------------------------------------------------------------------------
# exact counting via adjacency-block products
# ---------------------------------------------------------------------------


def _float_blocks(g: LayeredGraph) -> list[np.ndarray]:
    """Fresh float64 copies of the adjacency blocks, refused before copying
    when their ``8 * k * m**2`` bytes would exceed physical memory."""
    _check_fits_in_memory("float blocks", 8 * g.k * g.m * g.m)
    return [b.astype(np.float64) for b in g.blocks]


def _closed_walks(fb: list[np.ndarray], part: int, rows=slice(None)) -> np.ndarray:
    """Proper cycles through the local vertices ``rows`` of ``part``: the closing
    diagonal of the block chain rotated to start at ``part`` (closed walks
    part -> part+1 -> ... -> part), as int64.

    Every entry of the chain is a sum of non-negative integers, so float64
    holds it exactly while it stays below 2**53; and since rounding is
    monotone, a sum that ever reached 2**53 still reads at least 2**53 in
    any summation order.  So each prefix product and the closing diagonal
    are checked as they are computed, and ``ResourceLimitError`` is raised
    at the first entry that reaches 2**53.  (That holds for the GEMM behind
    ``@``; a Strassen-type product, which subtracts, would not keep it.)
    """
    k = len(fb)
    prefix = fb[part][rows]
    for j in range(1, k - 1):
        prefix = _exact(prefix @ fb[(part + j) % k])
    return _exact(np.einsum("ab,ba->a", prefix, fb[(part - 1) % k][:, rows])).astype(np.int64)


def _exact(counts: np.ndarray) -> np.ndarray:
    """``counts`` itself, or ``ResourceLimitError`` when an entry reaches 2**53."""
    top = counts.max(initial=0.0)
    if top >= 2**53:
        raise ResourceLimitError("exact float64 counting range exceeded", int(top), 2**53)
    return counts


def count_proper_cycles(g: LayeredGraph) -> int:
    """Total number of proper cycles (no materialization)."""
    return sum(_closed_walks(_float_blocks(g), 0).tolist())


def cycles_per_vertex(g: LayeredGraph) -> np.ndarray:
    """Proper-cycle count through every vertex, as an int64 array of length k*m."""
    fb = _float_blocks(g)
    return np.concatenate([_closed_walks(fb, part) for part in range(g.k)])


def cycles_through_vertex(g: LayeredGraph, v: int) -> int:
    """Number of proper cycles containing vertex v."""
    g._check_vertex(v)
    part, local = divmod(int(v), g.m)
    return int(_closed_walks(_float_blocks(g), part, [local])[0])


def count_cycles_meeting(g: LayeredGraph, cset) -> int:
    """Number of proper cycles intersecting the vertex set ``cset``.

    First-hit rule: a cycle is counted once, at the first part q (in order
    0..k-1) that holds one of its vertices in ``cset``.  For each q in turn
    the count adds the closed walks through cset's locals in part q, then
    zeroes those rows of block q so that no later part counts the cycle
    again.  Each chain runs on cset's rows only, so the cost grows with
    |cset|*m**2 per chain step, not with m**3.
    """
    cset = list(cset)
    for v in cset:
        g._check_vertex(v)
    if not cset:
        return 0
    part, local = np.divmod(np.unique(np.array(cset, dtype=np.int64)), g.m)
    fb = _float_blocks(g)
    count = 0
    for q in range(g.k):
        rows = local[part == q]
        if rows.size:
            count += sum(_closed_walks(fb, q, rows).tolist())
            fb[q][rows] = 0.0
    return count


# ---------------------------------------------------------------------------
# enumeration (canonical ascending keys)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _radices(k: int, m: int) -> np.ndarray:
    """Per-part key radices ``m**(k-1-i)``; read-only, computed once per (k, m)."""
    if m**k >= 2**64:
        raise ResourceLimitError("canonical key space exceeds 64 bits", m**k, 2**64)
    radix = np.array([m ** (k - 1 - i) for i in range(k)], dtype=np.uint64)
    radix.setflags(write=False)
    return radix


def encode_keys(cols, m: int):
    """Canonical keys from k columns of part-local indices (column i: part i).

    Columns broadcast against each other, so a scalar column fixes that
    part's index for every key; all-scalar columns give one key.
    """
    radix = _radices(len(cols), m)
    return sum(np.asarray(c, dtype=np.uint64) * r for c, r in zip(cols, radix))


def cycle_keys(g: LayeredGraph) -> np.ndarray:
    """All proper cycles as ascending canonical keys (uint64).

    Counts first via matrix products: the closed walks through each vertex
    ``a`` of part 0 are its cycles, and their running sum gives ``a`` its
    own slice ``out[bounds[a]:bounds[a+1]]`` of one array of exactly
    ``total`` keys.  ``ResourceLimitError`` is raised when that array's
    ``8 * total`` bytes would exceed physical memory, so runaway parameters
    fail before it is allocated.  The start vertices are dealt round-robin
    to ``_worker_count`` threads (numpy releases the GIL in the gathers and
    passes that do the work); each fills only its own slices, so the keys
    do not depend on the scheduling or the number of threads.  A worker's
    exception is raised here, and a start whose enumerated cycles differ
    from its own count raises ``InvariantViolationError``.
    """
    from concurrent.futures import ThreadPoolExecutor

    per_start = _closed_walks(_float_blocks(g), 0).tolist()
    bounds = [0, *itertools.accumulate(per_start)]
    total = bounds[-1]
    _check_fits_in_memory("cycle keys", 8 * total)
    out = np.empty(total, dtype=np.uint64)
    workers = _worker_count(g.k, per_start, total)
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(lambda w: _fill_keys(g, out, bounds, range(w, g.m, workers)), range(workers)))
    return out


def _worker_count(k: int, per_start: list[int], total: int) -> int:
    """Threads for ``cycle_keys``: one per CPU the process may run on, but no
    more than keep the workers' temporaries under a quarter of the key
    array's ``8 * total`` bytes (so never more than one per start vertex).

    A start holds up to about ``8 * (k + 5)`` bytes per cycle of its own
    while it is enumerated (its gathered columns, their uint64 copies and
    the running key sum), so ``w`` workers hold at most
    ``w * 8 * (k + 5) * max(per_start)``.  One worker is always used, so a
    start with most of the cycles still takes its own temporaries.
    """
    per_worker = max(4 * (k + 5) * max(per_start), 1)
    return max(1, min(_available_cpus(), total // per_worker))


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_keys(g: LayeredGraph, out: np.ndarray, bounds: list[int], starts) -> None:
    """Write the keys of the proper cycles through each part-0 vertex ``a`` in
    ``starts`` into ``out[bounds[a]:bounds[a+1]]``, ascending.

    Paths from ``a`` grow through the middle parts 1..k-2 along the rows of
    the dense blocks, and the last level expands only to the part-(k-1)
    vertices that close back to ``a``, so no path that fails to close is
    ever built.  Raises ``InvariantViolationError`` before writing when a
    start's cycles do not number exactly its slice.
    """
    k, m = g.k, g.m
    last, close = g.blocks[k - 2], g.blocks[k - 1]
    for a in starts:
        lo, hi = bounds[a], bounds[a + 1]
        found = 0
        closers = np.flatnonzero(close[:, a])
        if closers.size:
            # part-local columns of the paths through the middle parts 1..k-2
            cols: list[np.ndarray] = []
            ends = np.array([a], dtype=np.int64)
            for part in range(k - 2):
                # row-major order over (path, next vertex) is ascending key order
                rep, ends = np.nonzero(g.blocks[part][ends])
                if ends.size == 0:
                    break
                cols = [c[rep] for c in cols]
                cols.append(ends)
            else:  # every middle level had paths
                # row-major order over (path, closer) is ascending key order
                path, closer = np.divmod(np.flatnonzero(last[ends][:, closers]), closers.size)
                found = path.size
                if found == hi - lo:
                    out[lo:hi] = encode_keys([a] + [c[path] for c in cols] + [closers[closer]], m)
        if found != hi - lo:
            raise InvariantViolationError(
                f"start vertex {a}: enumerated {found} proper cycles, counted {hi - lo}"
            )


def decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """Decode canonical keys into (len, k) int64 part-local indices."""
    radix = _radices(k, m)
    out = np.empty((keys.size, k), dtype=np.int64)
    rem = keys.astype(np.uint64)
    for i in range(k):
        out[:, i], rem = np.divmod(rem, radix[i])
    return out


# ---------------------------------------------------------------------------
# path extensions
# ---------------------------------------------------------------------------


def _completion_mask(
    g: LayeredGraph, vertices, allowed: np.ndarray | None = None
) -> tuple[int, dict[int, int], np.ndarray]:
    """Where a (k-1)-vertex proper path closes into proper cycles.

    Returns the one part q the path misses, the path's part-local indices
    keyed by part, and the mask over q's locals adjacent to the path's
    vertices in parts q-1 and q+1; with ``allowed`` (a bool mask over all
    vertices) a completing vertex must also be allowed.
    """
    k, m = g.k, g.m
    locs = {v // m: v % m for v in vertices}
    (q,) = set(range(k)) - locs.keys()
    mask = g.blocks[(q - 1) % k][locs[(q - 1) % k]] & g.blocks[q][:, locs[(q + 1) % k]]
    if allowed is not None:
        mask &= allowed[q * m : (q + 1) * m]
    return q, locs, mask


def _extensions(
    g: LayeredGraph, vertices, allowed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Completions of a (k-1)-vertex proper path into proper cycles.

    Returns the completing vertices (ascending global ids) and the canonical
    keys of the cycles they close, as ``_completion_mask`` allows them.
    """
    q, locs, mask = _completion_mask(g, vertices, allowed)
    locs[q] = mask.nonzero()[0]
    return locs[q] + q * g.m, encode_keys([locs[i] for i in range(g.k)], g.m)


def extend_path(g: LayeredGraph, vertices) -> np.ndarray:
    """Global ids of vertices completing a (k-1)-vertex proper path into a cycle.

    The path is validated as a one-row family.  The completing vertex lies in
    the one part the path misses and must be adjacent to both path endpoints;
    each returned vertex closes a distinct proper cycle.
    """
    (row,) = trash_family(g, [vertices]).rows.tolist()
    return _extensions(g, row)[0]


def _count_extensions(g: LayeredGraph, fam: TrashFamily, allowed=None) -> int:
    """Proper cycles extending some family path (by an allowed vertex).

    A per-path sum of completion masks, with no keys encoded: the family is
    disjoint, so no cycle extends two paths.
    """
    return sum(
        int(np.count_nonzero(_completion_mask(g, row, allowed)[2])) for row in fam.rows.tolist()
    )


def count_family_extensions(g: LayeredGraph, fam: TrashFamily) -> int:
    """Number of distinct proper cycles extending at least one family path."""
    return _count_extensions(g, fam)


def count_restricted_extensions(g: LayeredGraph, aset, fam: TrashFamily) -> int:
    """Distinct cycles extending a family path by a vertex from aset or the family."""
    allowed = np.zeros(g.num_vertices, dtype=bool)
    for v in aset:
        g._check_vertex(v)
        allowed[int(v)] = True
    allowed[fam.rows] = True
    return _count_extensions(g, fam, allowed)


# ---------------------------------------------------------------------------
# tight-path hypergraph
# ---------------------------------------------------------------------------


class TightHypergraph:
    """The k-uniform hypergraph whose hyperedges are proper cycles of a graph.

    Hyperedges are held as the ascending canonical key array; ids are ranks
    in that order.  Built by ``build_hypergraph``, whose ``cycle_keys``
    emits the keys strictly ascending.  Membership tests and extension
    lookups run directly on the key array, so the structure stays usable at
    tens of millions of hyperedges.
    """

    def __init__(self, graph: LayeredGraph, keys: np.ndarray):
        self.graph = graph
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.keys.setflags(write=False)

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def vertex_rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Hyperedges lo..hi-1 as an (N, k) int64 block of part-indexed global ids."""
        g = self.graph
        return decode_keys(self.keys[lo:hi], g.k, g.m) + np.arange(g.k, dtype=np.int64) * g.m

    def hyperedge(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < len(self):
            raise IndexError(f"hyperedge id {idx} out of range [0, {len(self)})")
        return tuple(self.vertex_rows(idx, idx + 1)[0].tolist())

    def hyperedges(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.vertex_rows().tolist()]

    def edge_id(self, vertices) -> int:
        """Id of the hyperedge with this one-per-part vertex set (any order), or -1."""
        g = self.graph
        locs = [-1] * g.k
        for v in vertices:
            p = g.part_of(v)
            if locs[p] != -1:
                raise InvariantViolationError("vertex set hits a part twice")
            locs[p] = g.local(int(v))
        if -1 in locs:
            raise InvariantViolationError("vertex set misses a part")
        return int(self.ids_for_keys(encode_keys(locs, g.m)))

    def ids_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids for canonical keys; -1 where the key is not a hyperedge."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(self) == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys)
        ok = self.keys[np.minimum(pos, len(self) - 1)] == keys
        return np.where(ok, pos, -1).astype(np.int64)

    def extension_ids(self, path) -> np.ndarray:
        """Ids of hyperedges extending a (k-1)-path (the on-demand path index)."""
        keys = _extensions(self.graph, path)[1]
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = self.ids_for_keys(keys)
        return ids[ids >= 0]

    def save(self, path) -> None:
        """Write ``{"vertices": N, "edges": [...]}`` through ``_write_rows``, which
        decodes a chunk of hyperedges at a time, so memory stays near the key
        array's."""
        _write_rows(path, {"vertices": self.num_vertices}, "edges", self.vertex_rows, len(self))


def build_hypergraph(g: LayeredGraph) -> TightHypergraph:
    """Enumerate all proper cycles of g into a TightHypergraph."""
    return TightHypergraph(g, cycle_keys(g))


# ---------------------------------------------------------------------------
# tight-path validation
# ---------------------------------------------------------------------------


def validate_tight_path_verbose(
    h: TightHypergraph, seq, coloring=None, color: int | None = None, deleted=None
) -> tuple[bool, str | None]:
    """Check a vertex sequence is a tight path of h; returns (ok, reason).

    Reasons: too-short, unknown-vertex, repeated-vertex, window-not-one-per-part,
    window-not-hyperedge, window-wrong-color, deleted-window (a window whose
    hyperedge is set in the ``deleted`` mask over hyperedge ids).  A given
    coloring's working ``color`` must be one of its colors.
    """
    if coloring is not None:
        coloring.check_color(color)
    g = h.graph
    seq = list(seq)
    if len(seq) < g.k:
        return False, "too-short"
    for v in seq:
        try:
            g._check_vertex(v)
        except UnknownVertexError:
            return False, "unknown-vertex"
    seq = [int(v) for v in seq]
    if len(set(seq)) != len(seq):
        return False, "repeated-vertex"
    for start in range(len(seq) - g.k + 1):
        window = seq[start : start + g.k]
        parts = {g.part_of(v) for v in window}
        if len(parts) != g.k:
            return False, "window-not-one-per-part"
        eid = h.edge_id(window)
        if eid < 0:
            return False, "window-not-hyperedge"
        if coloring is not None and int(coloring.colors[eid]) != color:
            return False, "window-wrong-color"
        if deleted is not None and deleted[eid]:
            return False, "deleted-window"
    return True, None


def validate_tight_path(
    h: TightHypergraph, seq, coloring=None, color: int | None = None
) -> bool:
    """True iff seq is a tight path of h (optionally monochromatic in color)."""
    ok, _ = validate_tight_path_verbose(h, seq, coloring, color)
    return ok

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
format; everything else encodes and decodes through it.  Its keys are
uint64; the only width rule is the store's.

Enumeration emits keys in ascending order into a ``KeyStore`` of exactly
the counted total: the low 16, 32 or 64 bits of every key, plus one int64
offset table over the high bits, at the width that makes the store
smallest (see ``_store_layout``; at 65.8M keys of 31 bits that is 16-bit
halves under 2**15 buckets, 2 bytes a key, and a sparse host keeps one
bucket of whole keys).  The store is refused before allocation when its
bytes would not fit in physical memory.  Part 0's closed-walk counts give
each start vertex its own ids in the store, and every bucket edge lies in
one start's key range, so the start vertices are enumerated in parallel on
every CPU the process may run on (there is no setting for it) - on fewer
threads when more would hold over a quarter of the store in temporaries -
and each start's keys are checked against its own count: paths grow
through the middle parts, and the last level expands only to vertices that
close the cycle, so no path that fails to close is built; the start's low
halves are taken from one table that encodes every (path, closer) pair
modulo the width.
Every block-chain count (total, per vertex, meeting a vertex set) sums
``_closed_walks`` over the float32 blocks from ``_float_blocks``, as Python
ints.  Float32 holds the chain's integers exactly below 2**24; when one of
its computed entries reaches 2**24, the kernel redoes that step in
float64, after replacing the caller's blocks in place with read-only
float64 copies, each float32 block freed as its copy is made; the rest of
that call, and every later count on the same list, runs in float64.  It
refuses the chain only when an entry reaches 2**53, where float64 stops
being exact.  The kernel never writes into a block, so a caller that holds
the list can pass it to any number of counts.  The chain runs ``_ROW_BLOCK``
rows at a time, so no m x m prefix is built.  The meeting count sums it
over the set's own rows only, counting each cycle at the first part where
it meets the set: the chains of later parts skip the set's vertices in
earlier parts.

A (k-1)-vertex proper path is a row of a ``TrashFamily``: an ``(N, k-1)``
int64 array that only ``trash_family`` builds, after checking every row and
that the rows are pairwise vertex-disjoint.  A row runs along its arc of
parts and starts in the lower-numbered of its two endpoint parts.  Both
extension counts go through ``_count_extensions``, a plain sum of
``_completion_mask`` sizes with no keys encoded, one mask call for the
rows that miss the same part: two (k-1)-subsets of one k-set share
k-2 >= 1 vertices, so no cycle extends two paths of a disjoint family.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolationError,
    ParameterError,
    ResourceLimitError,
    UnknownVertexError,
)
from .layered_graph import LayeredGraph, _check_color, _check_fits_in_memory
from .reporting import _write_rows

__all__ = [
    "TrashFamily",
    "trash_family",
    "count_proper_cycles",
    "cycles_per_vertex",
    "cycles_through_vertex",
    "cycle_keys",
    "KeyStore",
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

# rows per block-chain pass: bounds each prefix at _ROW_BLOCK x m floats
# (4 bytes each in float32, 8 after a float64 fallback)
_ROW_BLOCK = 512

# the integers a float dtype holds exactly: those below 2**(mantissa bits + 1)
_EXACT_BELOW = {np.dtype(np.float32): 2**24, np.dtype(np.float64): 2**53}


def _float_blocks(g: LayeredGraph) -> list[np.ndarray]:
    """Read-only float32 copies of the adjacency blocks, refused before copying
    when their ``4 * k * m**2`` bytes would exceed physical memory.

    No count writes into them, so one list can serve many counts on ``g``;
    the first count that leaves float32's exact range widens the list in
    place (see ``_float64_blocks``), and the later ones run in float64.
    """
    _check_fits_in_memory("float blocks", 4 * g.k * g.m * g.m)
    fb = [b.astype(np.float32) for b in g.blocks]
    for b in fb:
        b.setflags(write=False)
    return fb


def _float64_blocks(fb: list[np.ndarray]) -> None:
    """Replace the blocks of ``fb`` in place with read-only float64 copies,
    for a chain that left float32's exact range; refused before copying
    when their ``8 * k * m**2`` bytes would exceed physical memory.

    One block is copied at a time, so each float32 block is freed as its
    copy is made when ``fb`` held the only reference to it.
    """
    _check_fits_in_memory("float64 blocks", 8 * len(fb) * fb[0].size)
    for i, b in enumerate(fb):
        fb[i] = b.astype(np.float64)
        fb[i].setflags(write=False)


def _closed_walks(fb: list[np.ndarray], part: int, rows=None, skip=None) -> np.ndarray:
    """Proper cycles through the local vertices ``rows`` of ``part`` (all of
    them by default) that avoid the ``skip`` vertices: the closing diagonal
    of the block chain rotated to start at ``part`` (closed walks
    part -> part+1 -> ... -> part), as int64.

    ``skip``, if given, holds one array of part-local indices per part; its
    entry for ``part`` itself is not read.  Before the chain multiplies
    through a part, and before it closes, it zeroes the prefix columns of
    that part's skipped vertices, so the walks through them are dropped and
    ``fb`` is only read.  The chain runs ``_ROW_BLOCK`` rows at a time, so no
    prefix larger than ``_ROW_BLOCK`` x m is ever built.

    ``fb`` is float32 (from ``_float_blocks``) or float64.  Every entry of
    the chain is a sum of non-negative integers, so its dtype holds it
    exactly while it stays below 2**24 (float32) or 2**53 (float64); and
    since rounding is monotone, a sum that ever reached that limit still
    reads at least the limit in any summation order.  So each prefix
    product and the closing diagonal are checked as they are computed (see
    ``_exact``).  A float32 step that reaches 2**24 is redone in float64
    from its exact float32 prefix, after ``_float64_blocks`` has widened
    ``fb`` itself in place, so a fallback holds 8 bytes per vertex pair
    rather than 12, and the rest of the call, like every later count on
    ``fb``, runs in float64.  ``ResourceLimitError`` is raised at the first
    float64 entry that reaches 2**53.  (That holds for the GEMM behind
    ``@``; a Strassen-type product, which subtracts, would not keep it.)
    """
    k, m = len(fb), fb[part].shape[0]
    size = m if rows is None else len(rows)
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, size)
        block = slice(lo, hi) if rows is None else rows[lo:hi]
        prefix = fb[part][block]
        for j in range(1, k):
            q = (part + j) % k
            if skip is not None and len(skip[q]):
                prefix = prefix.copy()  # the first prefix may be a view of fb
                prefix[:, skip[q]] = 0.0
            walks = _exact(_chain_step(prefix, fb[q], block, j == k - 1))
            if walks is None:  # so fb is still float32
                # the prefix first: one that is a view of fb would keep its block
                prefix = prefix.astype(np.float64)
                _float64_blocks(fb)
                walks = _exact(_chain_step(prefix, fb[q], block, j == k - 1))
            prefix = walks
        out[lo:hi] = prefix
    return out


def _chain_step(prefix: np.ndarray, b: np.ndarray, block, close: bool) -> np.ndarray:
    """The chain's next prefix ``prefix @ b``, or, when ``close``, the closing
    diagonal through the ``block`` columns of ``b``."""
    if close:
        return np.einsum("ab,ba->a", prefix, b[:, block])
    return prefix @ b


def _exact(counts: np.ndarray) -> np.ndarray | None:
    """``counts`` itself while every entry lies in its dtype's exact range;
    ``None`` when a float32 entry reaches 2**24, and ``ResourceLimitError``
    when a float64 entry reaches 2**53."""
    top = counts.max(initial=0)
    if top < _EXACT_BELOW[counts.dtype]:
        return counts
    if counts.dtype == np.float32:
        return None
    raise ResourceLimitError("exact float64 counting range exceeded", int(top), 2**53)


def count_proper_cycles(g: LayeredGraph) -> int:
    """Total number of proper cycles (no materialization)."""
    return sum(_closed_walks(_float_blocks(g), 0).tolist())


def cycles_per_vertex(g: LayeredGraph, fb: list[np.ndarray] | None = None) -> np.ndarray:
    """Proper-cycle count through every vertex, as an int64 array of length k*m.

    ``fb`` is ``_float_blocks(g)`` when the caller already holds it; without
    it the count makes its own.
    """
    fb = _float_blocks(g) if fb is None else fb
    return np.concatenate([_closed_walks(fb, part) for part in range(g.k)])


def cycles_through_vertex(g: LayeredGraph, v: int) -> int:
    """Number of proper cycles containing vertex v: those meeting the set {v}."""
    return count_cycles_meeting(g, [v])


def count_cycles_meeting(g: LayeredGraph, cset, fb: list[np.ndarray] | None = None) -> int:
    """Number of proper cycles intersecting the vertex set ``cset``.

    First-hit rule: a cycle is counted once, at the first part q (in order
    0..k-1) that holds one of its vertices in ``cset``.  For each q in turn
    the count adds the closed walks through cset's locals in part q that
    skip cset's vertices in parts 0..q-1.  Each chain runs on cset's rows
    only, so the cost grows with |cset|*m**2 per chain step, not with m**3.
    ``fb`` is ``_float_blocks(g)`` when the caller already holds it; the
    count only reads it, so one copy serves any number of sets.
    """
    cset = list(cset)
    for v in cset:
        g._check_vertex(v)
    if not cset:
        return 0
    part, local = np.divmod(np.unique(np.array(cset, dtype=np.int64)), g.m)
    fb = _float_blocks(g) if fb is None else fb
    skip = [local[:0]] * g.k
    count = 0
    for q in range(g.k):
        rows = local[part == q]
        if rows.size:
            count += sum(_closed_walks(fb, q, rows, skip).tolist())
        skip[q] = rows
    return count


# ---------------------------------------------------------------------------
# enumeration (canonical ascending keys)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _radices(k: int, m: int) -> np.ndarray:
    """Per-part key radices ``m**(k-1-i)`` as uint64, the key dtype;
    read-only, computed once per (k, m)."""
    if m**k >= 2**64:
        raise ResourceLimitError("canonical key space exceeds 64 bits", m**k, 2**64)
    radix = np.array([m ** (k - 1 - i) for i in range(k)], dtype=np.uint64)
    radix.setflags(write=False)
    return radix


def encode_keys(cols, m: int, dtype=None):
    """Canonical keys, as uint64, from k columns of part-local indices
    (column i: part i).

    Columns broadcast against each other, so a scalar column fixes that
    part's index for every key; all-scalar columns give one key.  The terms
    are summed in uint64 and the result is cast to it, so no mix of scalars
    and 0-d arrays changes the keys' dtype.

    With ``dtype``, an unsigned integer dtype, each key's low bits that fit
    it: the columns and the radices are cast to it, which keeps their low
    bits, and its sums wrap, which keeps the low bits of the key.
    """
    radix = _radices(len(cols), m)
    dtype = radix.dtype if dtype is None else np.dtype(dtype)
    radix = radix.astype(dtype, copy=False)
    terms = (np.asarray(c).astype(dtype, copy=False) * r for c, r in zip(cols, radix))
    return functools.reduce(np.add, terms).astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class KeyStore:
    """Ascending canonical keys, split into low halves and a bucket table.

    ``low`` holds the low ``width`` bits of every key, in the unsigned dtype
    of that width (16, 32 or 64 bits); ``offsets`` is an int64 table over
    the high bits, so the keys whose high bits are ``j`` are
    ``low[offsets[j]:offsets[j + 1]]``.  With one bucket, ``low`` is the
    keys themselves.  Both arrays are read-only; ``cycle_keys`` fills them.
    """

    low: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.low.setflags(write=False)
        self.offsets.setflags(write=False)

    def __len__(self) -> int:
        return self.low.size

    @property
    def width(self) -> int:
        return 8 * self.low.itemsize

    @property
    def nbytes(self) -> int:
        return self.low.nbytes + self.offsets.nbytes

    def keys(self, ids=slice(None)) -> np.ndarray:
        """The keys of the ids ``ids`` selects (a slice or an int array; all
        by default), as uint64.  A key's high bits are the bucket whose
        offsets enclose its id."""
        low = self.low[ids]
        if self.offsets.size == 2:
            return low.astype(np.uint64, copy=False)
        ids = np.arange(*ids.indices(len(self))) if isinstance(ids, slice) else np.asarray(ids)
        ids = np.where(ids < 0, ids + len(self), ids)
        high = np.searchsorted(self.offsets, ids, side="right") - 1
        return (high.astype(np.uint64) << self.width) | low

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the canonical ``keys`` (an array of any integer dtype), as
        int64; -1 where a key is not stored.

        The queries are cast to the stored dtype (through uint64 when there
        is more than one bucket), so that no search copies the store; a key
        that a cast changes (one beyond the stored width, or negative) is
        not stored.  With one bucket the lookup is a plain ``searchsorted``.
        Otherwise each query is bisected inside its own bucket, all queries
        at once, in as many steps as the largest of their buckets needs.
        """
        n, low = self.low.size, self.low
        if n == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        if self.offsets.size == 2:
            want = keys.astype(low.dtype, copy=False)
            lo = np.searchsorted(low, want)
            fits = want == keys
        else:
            query = keys.astype(np.uint64, copy=False)
            high = query >> self.width
            fits = (high < self.offsets.size - 1) & (query == keys)
            high = np.where(fits, high, 0).astype(np.intp)
            want = query.astype(low.dtype)  # the cast keeps the low bits
            lo, end = self.offsets[high], self.offsets[high + 1]
            hi = end
            for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
                mid = (lo + hi) >> 1
                less = low[np.minimum(mid, n - 1)] < want
                lo = np.where(less & (mid < hi), mid + 1, lo)
                hi = np.where(less, hi, mid)
            fits &= lo < end
        # past the last key, lo is n (or its bucket's end), and low[n - 1] < want
        return np.where(fits & (low[np.minimum(lo, n - 1)] == want), lo, -1)


def _store_bytes(total: int, width: int, buckets: int) -> int:
    """Bytes of a store of ``total`` keys split at ``width`` into ``buckets``."""
    return total * width // 8 + 8 * (buckets + 1)


def _store_layout(k: int, m: int, total: int) -> tuple[int, int]:
    """The low width and bucket count of a store of ``total`` keys of (k, m):
    of 16, 32 and 64 bits, the width that makes the store's bytes smallest
    (the narrower on a tie), with one bucket per value of the bits above it
    in the largest key, m**k - 1."""
    bits = (m**k - 1).bit_length()
    layouts = [(w, 2 ** max(bits - w, 0)) for w in (16, 32, 64)]
    return min(layouts, key=lambda layout: _store_bytes(total, *layout))


def _new_store(k: int, m: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """The unfilled ``low`` and ``offsets`` of a ``KeyStore`` for ``total``
    keys of (k, m), laid out by ``_store_layout``.

    ``ResourceLimitError`` is raised when the store's bytes would exceed
    physical memory, before anything is allocated.  The offsets of the
    bucket edges at or beyond m**k, past every key, are set here; the rest
    are left to the caller.
    """
    width, buckets = _store_layout(k, m, total)
    _check_fits_in_memory("cycle keys", _store_bytes(total, width, buckets))
    low = np.empty(total, dtype=f"uint{width}")
    offsets = np.empty(buckets + 1, dtype=np.int64)
    offsets[-(-(m**k) >> width) :] = total
    return low, offsets


def cycle_keys(g: LayeredGraph) -> KeyStore:
    """All proper cycles as the ``KeyStore`` of their ascending canonical keys.

    Counts first via matrix products: the closed walks through each vertex
    ``a`` of part 0 are its cycles, and their running sum gives ``a`` its
    own ids ``bounds[a]:bounds[a+1]`` of a store of exactly ``total`` keys.
    ``ResourceLimitError`` is raised when that store's bytes (see
    ``_new_store``) would exceed physical memory, so runaway parameters fail
    before it is allocated.  The start vertices are dealt round-robin to
    ``_worker_count`` threads (numpy releases the GIL in the gathers and
    passes that do the work); each fills only its own ids and the offsets
    of the bucket edges inside its own key range, so the store does not
    depend on the scheduling or the number of threads.  A worker's
    exception is raised here, and a start whose enumerated cycles differ
    from its own count raises ``InvariantViolationError``.
    """
    from concurrent.futures import ThreadPoolExecutor

    fb = _float_blocks(g)
    per_start = _closed_walks(fb, 0)
    bounds = [0, *itertools.accumulate(per_start.tolist())]
    low, offsets = _new_store(g.k, g.m, bounds[-1])
    held = _held_bytes(g, fb, per_start, low.itemsize)
    del fb
    workers = _worker_count(held, low.nbytes)
    starts = [range(w, g.m, workers) for w in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(lambda s: _fill_keys(g, low, offsets, bounds, s), starts))
    return KeyStore(low, offsets)


def _held_bytes(
    g: LayeredGraph, fb: list[np.ndarray], per_start: np.ndarray, itemsize: int
) -> np.ndarray:
    """Bytes each part-0 vertex holds while ``_fill_keys`` enumerates it, as
    float64, for key low halves of ``itemsize`` bytes.

    With P paths through the middle parts and C closers, that is the P x m
    row gather of the last middle block, the P int64 row keys and their
    encoding, the P x C bool submatrix and table of low halves, and the
    int64 flat index of the start's ``per_start`` cycles.  Both come from
    ``fb``, the float blocks, in their own dtype, so no block is cast: P is
    a matrix-vector chain over the blocks into the last middle part, and C
    a column sum of the closing block.  Only these length-m vectors are
    cast to float64.
    """
    k, m = g.k, g.m
    paths = functools.reduce(lambda v, b: b @ v, reversed(fb[: k - 2]), np.ones(m, fb[0].dtype))
    paths, closers = paths.astype(np.float64), fb[k - 1].sum(axis=0, dtype=np.float64)
    return paths * (m + 16 + (1 + itemsize) * closers) + 8 * per_start


def _worker_count(held: np.ndarray, key_bytes: int) -> int:
    """Threads for ``cycle_keys``: one per CPU the process may run on, but no
    more than keep the workers' temporaries under a quarter of the
    ``key_bytes`` of the store's low halves (so never more than one per
    start vertex).

    ``held`` is ``_held_bytes``, so ``w`` workers hold at most
    ``w * max(held)``; since a start's flat index alone takes at least the
    bytes of its own low halves, the rule never admits more workers than a
    quarter of the starts.  One worker is always used, so a start with most
    of the cycles still takes its own temporaries.
    """
    per_worker = max(4 * int(held.max(initial=0)), 1)
    return max(1, min(_available_cpus(), key_bytes // per_worker))


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_keys(
    g: LayeredGraph, low: np.ndarray, offsets: np.ndarray, bounds: list[int], starts
) -> None:
    """Write the low halves of the keys of the proper cycles through each
    part-0 vertex ``a`` in ``starts`` into ``low[bounds[a]:bounds[a+1]]``,
    ascending, and the offsets of the bucket edges inside ``a``'s key range.

    Paths from ``a`` grow through the middle parts 1..k-2 along the rows of
    the dense blocks, and the last level expands only to the part-(k-1)
    vertices that close back to ``a``, so no path that fails to close is
    ever built.  The low halves of every (path, closer) pair are encoded as
    one table, and the pairs whose last edge exists are taken from it.
    Raises ``InvariantViolationError`` before writing keys when a start's
    cycles do not number exactly its ids.

    ``a``'s keys are ``a * span`` plus a path's row key (its key with
    closer 0, a multiple of m) plus its closer's index.  A bucket edge
    ``j * 2**w`` in that range splits at most one row, so the keys below it
    are a searchsorted over the row keys, then over that row's closers,
    then over the flat index of the taken pairs.
    """
    k, m = g.k, g.m
    width, span = 8 * low.itemsize, m ** (k - 1)
    last, close = g.blocks[k - 2], g.blocks[k - 1]
    for a in starts:
        lo, hi = bounds[a], bounds[a + 1]
        j0, j1 = -(-a * span >> width), -(-(a + 1) * span >> width)
        # the bucket edges in a's key range, relative to its first key a * span;
        # only an edge inside the range is below span, so only then is it int64
        edges = np.arange(j1 - j0, dtype=np.int64) << width
        if j1 > j0:
            edges += (j0 << width) - a * span
        below = np.zeros(edges.size, dtype=np.int64)  # a's keys below each edge
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
                flat = np.flatnonzero(last[ends][:, closers])
                found = flat.size
                if found == hi - lo:
                    table = encode_keys([a, *(c[:, None] for c in cols), closers], m, low.dtype)
                    # flat indexes the table's own shape, so "clip" clips nothing;
                    # unlike the default mode, it writes into low without a buffer
                    np.take(table.ravel(), flat, out=low[lo:hi], mode="clip")
                    rows = encode_keys([0, *cols, 0], m).astype(np.int64)
                    row = np.searchsorted(rows, edges) - 1  # the row an edge splits, -1: none
                    split = row * closers.size + np.searchsorted(closers, edges - rows[row])
                    below = np.searchsorted(flat, np.where(row >= 0, split, 0))
        if found != hi - lo:
            raise InvariantViolationError(
                f"start vertex {a}: enumerated {found} proper cycles, counted {hi - lo}"
            )
        offsets[j0:j1] = lo + below


def decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """Decode canonical keys (of any integer dtype) into (len, k) int64
    part-local indices.

    ``ParameterError`` when a key lies outside 0..m**k - 1, which is when
    its leading digit, the quotient by m**(k-1), is m or more: the keys are
    decoded as uint64, where a negative key wraps past m**k.  A digit is a
    floor division by its radix and the remainder a multiply and subtract,
    which together run faster than ``divmod``; digit i is written to row i
    of a (k, len) array, so every write is contiguous, and the result is
    that array's transpose.
    """
    radix = _radices(k, m)
    rem = np.asarray(keys).astype(np.uint64, copy=False)
    digits = np.empty((k, rem.size), dtype=np.uint64)
    for i in range(k - 1):
        np.floor_divide(rem, radix[i], out=digits[i])
        rem = rem - digits[i] * radix[i]
    digits[-1] = rem
    if digits[0].max(initial=0) >= m:
        raise ParameterError("keys", f"a key is not below m**k = {m**k}")
    return digits.T.view(np.int64)


# ---------------------------------------------------------------------------
# path extensions
# ---------------------------------------------------------------------------


def _completion_mask(
    g: LayeredGraph, rows, allowed: np.ndarray | None = None
) -> tuple[int, list[dict[int, int]], np.ndarray]:
    """Where (k-1)-vertex proper paths that miss one part close into proper cycles.

    ``rows`` is one path (k-1 global ids, in any order) or an (N, k-1)
    block of them, each row missing the part q its first row misses.
    Returns q, each path's part-local indices keyed by part, and the mask
    over q's locals adjacent to the path's vertices in parts q-1 and q+1:
    of shape (m,) for one path, read through views of the blocks, and
    (N, m) for a block.  With ``allowed`` (a bool mask over all vertices) a
    completing vertex must also be allowed.
    """
    k, m = g.k, g.m
    one = np.isscalar(rows[0])
    paths = [rows] if one else np.asarray(rows).tolist()
    locs = [{v // m: v % m for v in path} for path in paths]
    (q,) = set(range(k)) - locs[0].keys()
    a, b = (q - 1) % k, (q + 1) % k
    # one path, the greedy's per-step case, indexes the blocks by scalars: views, no copies
    before = locs[0][a] if one else [loc[a] for loc in locs]
    after = locs[0][b] if one else [loc[b] for loc in locs]
    mask = g.blocks[a][before] & g.blocks[q].T[after]
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
    q, (locs,), mask = _completion_mask(g, vertices, allowed)
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

    A sum of completion masks, with no keys encoded: the family is
    disjoint, so no cycle extends two paths.  The rows that miss the same
    part share one ``_completion_mask`` call, ``_ROW_BLOCK`` rows at a time.
    """
    k, m = g.k, g.m
    # a row holds one vertex in each part but the one it misses
    missing = k * (k - 1) // 2 - (fam.rows // m).sum(axis=1)
    total = 0
    for q in range(k):
        group = fam.rows[missing == q]
        for lo in range(0, len(group), _ROW_BLOCK):
            mask = _completion_mask(g, group[lo : lo + _ROW_BLOCK], allowed)[2]
            total += int(np.count_nonzero(mask))
    return total


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

    Hyperedges are held as the ``KeyStore`` of their ascending canonical
    keys; ids are ranks in that order.  Built by ``build_hypergraph``,
    whose ``cycle_keys`` emits the keys strictly ascending.  Membership
    tests and extension lookups run directly on the store, so the structure
    stays usable at tens of millions of hyperedges.
    """

    def __init__(self, graph: LayeredGraph, store: KeyStore):
        """``store`` is ``cycle_keys(graph)``."""
        self.graph = graph
        self.store = store

    def __len__(self) -> int:
        return self.store.low.size

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def vertex_rows(self, ids=slice(None)) -> np.ndarray:
        """The hyperedges ``ids`` selects (a slice or an int array of ids; all by
        default) as an (N, k) int64 block of part-indexed global ids.  Only the
        selected keys are rebuilt and decoded."""
        g = self.graph
        return decode_keys(self.store.keys(ids), g.k, g.m) + np.arange(0, g.num_vertices, g.m)

    def hyperedge(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < len(self):
            raise IndexError(f"hyperedge id {idx} out of range [0, {len(self)})")
        return tuple(self.vertex_rows(slice(idx, idx + 1))[0].tolist())

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
        """Ids for canonical keys; -1 where the key is not a hyperedge (see
        ``KeyStore.find``)."""
        return self.store.find(np.asarray(keys))

    def extension_ids(self, path) -> np.ndarray:
        """Ids of hyperedges extending a (k-1)-path (the on-demand path index)."""
        keys = _extensions(self.graph, path)[1]
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = self.ids_for_keys(keys)
        return ids[ids >= 0]

    def save(self, path) -> None:
        """Write ``{"vertices": N, "edges": [...]}`` through ``_write_rows``, which
        decodes a chunk of hyperedges at a time, so memory stays near the
        store's."""
        _write_rows(path, {"vertices": self.num_vertices}, "edges", self.vertex_rows, len(self))


def build_hypergraph(g: LayeredGraph) -> TightHypergraph:
    """Enumerate all proper cycles of g into a TightHypergraph."""
    return TightHypergraph(g, cycle_keys(g))


# ---------------------------------------------------------------------------
# tight-path validation
# ---------------------------------------------------------------------------


def _check_coloring(h: TightHypergraph, col, color: int) -> None:
    """Refuse a coloring that does not give every hyperedge of h a color, then
    a working ``color`` that is not one of its colors."""
    if col.colors.size != len(h):
        raise ParameterError("col", "coloring is not total over the hypergraph")
    _check_color(color, col.r)


def validate_tight_path_verbose(
    h: TightHypergraph, seq, coloring=None, color: int | None = None, deleted=None
) -> tuple[bool, str | None]:
    """Check a vertex sequence is a tight path of h; returns (ok, reason).

    Reasons: too-short, unknown-vertex, repeated-vertex, window-not-one-per-part,
    window-not-hyperedge, window-wrong-color, deleted-window (a window whose
    hyperedge is set in the ``deleted`` mask over hyperedge ids).  A given
    coloring must pass ``_check_coloring`` with the working ``color``.
    """
    if coloring is not None:
        _check_coloring(h, coloring, color)
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

"""Colorings of the tight-path hypergraph and the greedy path builder.

The builder maintains a working-color tight path A, a trash family of
(k-1)-vertex proper paths, and the unused vertex set U.  A round either
reaches a path of n vertices, fills the trash to n paths, or runs out of
eligible starting edges.  The outer loop restarts after each full trash,
deleting every working-color hyperedge that extends a trashed path, and
finishes with either a found path or an audited certificate.

Every choice (starting edge, extension vertex) is the lexicographically
least eligible option, so runs are replayable.  Within a round the
start-edge scan resumes at the last start edge, because the eligible set
only shrinks there (see ``greedy_round``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .cycles import (
    TightHypergraph,
    TrashFamily,
    count_proper_cycles,
    decode_keys,
    encode_keys,
    trash_family,
    validate_tight_path_verbose,
    _extensions,
)
from .errors import ParameterError, ResourceLimitError
from .layered_graph import LayeredGraph, _check_color, _check_n, _check_r, _check_seed
from .reporting import _write_rows
from .seeds import make_rng
from .verifier import RoundAudit, meeting_check, restricted_check

__all__ = [
    "Coloring",
    "random_coloring",
    "adversarial_coloring",
    "pick_majority_color",
    "RoundOutcome",
    "RoundResult",
    "GreedyState",
    "greedy_round",
    "FoundPath",
    "Certificate",
    "RoundRecord",
    "CertificateAudit",
    "run_outer",
    "audit_certificate",
    "outcome_to_json",
]

_SCAN_CHUNK = 1 << 20
_FIRST_SCAN_CHUNK = 1 << 10
_BALANCED_GREEDY_CAP = 200_000


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Total assignment of one of r colors to every hyperedge, in canonical order."""

    r: int
    colors: np.ndarray

    def __post_init__(self):
        _check_r(self.r)
        colors = np.asarray(self.colors)
        if colors.ndim != 1:
            raise ParameterError("colors", f"must be a flat array, got shape {colors.shape}")
        if colors.size and (
            colors.dtype.kind not in "iu" or colors.min() < 0 or colors.max() >= self.r
        ):
            raise ParameterError("colors", f"must be integers in 0..{self.r - 1}")
        object.__setattr__(self, "colors", np.ascontiguousarray(colors, dtype=np.uint8))
        self.colors.setflags(write=False)

    def check_color(self, color: int) -> None:
        """Refuse a working color that is not one of this coloring's r colors."""
        _check_color(color, self.r)

    def counts(self) -> np.ndarray:
        """Hyperedges per color, as int64; one pass per color, so the uint8
        colors are never widened."""
        return np.array(
            [np.count_nonzero(self.colors == c) for c in range(self.r)], dtype=np.int64
        )

    @classmethod
    def from_json(cls, doc: dict) -> "Coloring":
        if type(doc["r"]) is not int:
            raise ParameterError("r", f"must be an integer, got {doc['r']!r}")
        return cls(doc["r"], np.asarray(doc["colors"]))

    def save(self, path) -> None:
        """Write ``{"r": r, "colors": [...]}`` through ``_write_rows``."""
        colors = self.colors
        _write_rows(path, {"r": self.r}, "colors", lambda lo, hi: colors[lo:hi], colors.size)


def random_coloring(h: TightHypergraph, r: int, seed: int) -> Coloring:
    """I.i.d. uniform colors from the Philox stream for ``seed``."""
    _check_r(r)
    _check_seed(seed)
    colors = make_rng(seed).integers(0, r, size=len(h), dtype=np.uint8)
    return Coloring(r, colors)


def _vertex_cut_coloring(h: TightHypergraph, r: int, seed: int) -> Coloring:
    g = h.graph
    rng = make_rng(seed)
    size = max(1, g.num_vertices // 4)
    cut = np.zeros(g.num_vertices, dtype=bool)
    cut[rng.choice(g.num_vertices, size=size, replace=False)] = True
    colors = np.empty(len(h), dtype=np.uint8)
    for lo in range(0, len(h), _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, len(h))
        verts = h.vertex_rows(lo, hi)
        colors[lo:hi] = np.where(cut[verts].any(axis=1), 0, 1)
    return Coloring(r, colors)


def _balanced_greedy_coloring(h: TightHypergraph, r: int) -> Coloring:
    """Chain-averse coloring: each edge takes the color minimizing the number
    of already-colored tight neighbors (edges differing in one part slot),
    breaking ties toward the least-used color, then the smallest index."""
    if len(h) > _BALANCED_GREEDY_CAP:
        raise ResourceLimitError(
            "balanced-greedy strategy is for small hypergraphs", len(h), _BALANCED_GREEDY_CAP
        )
    g = h.graph
    locs = decode_keys(h.keys, g.k, g.m)
    # slot[q][eid]: the key of edge eid with part q's index zeroed, shared by
    # every edge that differs from it in part q only
    slot = [
        encode_keys([0 if i == q else locs[:, i] for i in range(g.k)], g.m).tolist()
        for q in range(g.k)
    ]
    neighbor_counts: dict[tuple[int, int], np.ndarray] = {}
    used = np.zeros(r, dtype=np.int64)
    colors = np.empty(len(h), dtype=np.uint8)
    for eid in range(len(h)):
        wildcards = [(q, slot[q][eid]) for q in range(g.k)]
        score = np.zeros(r, dtype=np.int64)
        for w in wildcards:
            cnt = neighbor_counts.get(w)
            if cnt is not None:
                score += cnt
        best = min(range(r), key=lambda c: (int(score[c]), int(used[c]), c))
        colors[eid] = best
        used[best] += 1
        for w in wildcards:
            cnt = neighbor_counts.setdefault(w, np.zeros(r, dtype=np.int64))
            cnt[best] += 1
    return Coloring(r, colors)


def adversarial_coloring(
    h: TightHypergraph, r: int, strategy: str, seed: int = 0
) -> Coloring:
    """Structured colorings for stress tests.

    balanced_greedy: chain-averse (see above); vertex_cut: edges meeting a
    random quarter of the vertices get color 0, the rest color 1;
    round_robin: colors cycle 0..r-1 in canonical edge order.
    """
    _check_r(r)
    _check_seed(seed)
    if strategy == "round_robin":
        return Coloring(r, (np.arange(len(h)) % r).astype(np.uint8))
    if strategy == "vertex_cut":
        return _vertex_cut_coloring(h, r, seed)
    if strategy == "balanced_greedy":
        return _balanced_greedy_coloring(h, r)
    raise ParameterError("strategy", f"unknown adversarial strategy {strategy!r}")


def pick_majority_color(counts: np.ndarray) -> int:
    """Color with the most edges in a ``Coloring.counts`` tally; ties break to
    the smallest color index."""
    if not counts.any():
        raise ParameterError("counts", "cannot pick a majority color of an empty hypergraph")
    return int(np.argmax(counts))


# ---------------------------------------------------------------------------
# one greedy round
# ---------------------------------------------------------------------------


class RoundOutcome(Enum):
    PATH_FOUND = "path_found"
    TRASH_FULL = "trash_full"
    NO_WORKING_EDGE = "no_working_edge"


@dataclass
class RoundResult:
    kind: RoundOutcome
    path: list[int]
    trash: TrashFamily


@dataclass
class GreedyState:
    """Mutable state of one greedy round: the working path, this round's
    trash (vertex tuples, validated by ``trash_family`` when the round ends),
    and the unused-vertex mask (complement of path and trash)."""

    path: list[int]
    trash: list[tuple[int, ...]]
    unused: np.ndarray

    @classmethod
    def fresh(cls, num_vertices: int) -> "GreedyState":
        return cls(path=[], trash=[], unused=np.ones(num_vertices, dtype=bool))

    def claim(self, vertices) -> None:
        self.path.extend(vertices)
        self.unused[list(vertices)] = False

    def trash_tail(self, g: LayeredGraph) -> None:
        """Move the last k-1 path vertices into the trash (they stay used)."""
        self.trash.append(tuple(self.path[-(g.k - 1) :]))
        del self.path[-(g.k - 1) :]

    def release_stump(self) -> None:
        """A leftover shorter than k is no tight path; return it to U."""
        for v in self.path:
            self.unused[v] = True
        self.path = []

    def check_invariants(self, h: TightHypergraph, col, color, deleted) -> None:
        g = h.graph
        in_path = set(self.path)
        in_trash = {v for p in self.trash for v in p}
        assert len(in_path) == len(self.path), "path repeats a vertex"
        assert not (in_path & in_trash), "path and trash overlap"
        expected = np.ones(g.num_vertices, dtype=bool)
        expected[sorted(in_path | in_trash)] = False
        assert np.array_equal(expected, self.unused), "unused mask out of sync"
        if len(self.path) >= g.k:
            ok, reason = validate_tight_path_verbose(h, self.path, col, color, deleted)
            assert ok, f"path is not a live working-color tight path: {reason}"


def _find_start_edge(
    h: TightHypergraph,
    colors: np.ndarray,
    color: int,
    deleted: np.ndarray,
    unused: np.ndarray,
    lo: int = 0,
) -> int | None:
    """Least working-color, non-deleted hyperedge inside U with id >= ``lo``.

    The scan starts with a chunk of ``_FIRST_SCAN_CHUNK`` ids and doubles it
    up to ``_SCAN_CHUNK``, so a hit near ``lo`` decodes few keys.
    """
    step = _FIRST_SCAN_CHUNK
    while lo < len(h):
        hi = min(lo + step, len(h))
        elig = (colors[lo:hi] == color) & ~deleted[lo:hi]
        if elig.any():
            idxs = np.nonzero(elig)[0].astype(np.int64) + lo
            ok = unused[h.vertex_rows(lo, hi)[idxs - lo]].all(axis=1)
            if ok.any():
                return int(idxs[ok][0])
        lo = hi
        step = min(2 * step, _SCAN_CHUNK)
    return None


def _eligible_extensions(
    h: TightHypergraph,
    colors: np.ndarray,
    color: int,
    deleted: np.ndarray,
    unused: np.ndarray,
    path: list[int],
) -> np.ndarray:
    """Unused vertices extending the last k-1 of the path by a working edge."""
    ext, keys = _extensions(h.graph, path[-(h.graph.k - 1) :], unused)
    if ext.size == 0:
        return ext
    ids = h.ids_for_keys(keys)
    ok = ids >= 0
    ok[ok] &= (colors[ids[ok]] == color) & ~deleted[ids[ok]]
    return ext[ok]


def greedy_round(
    h: TightHypergraph,
    g: LayeredGraph,
    col: Coloring,
    color: int,
    n: int,
    deleted: np.ndarray | None = None,
    debug: bool = False,
) -> RoundResult:
    """Run one greedy round against the non-deleted working-color hyperedges.

    Each start-edge scan resumes at the last start edge (the cursor ``lo``).
    This is exact: every scan runs with an empty path, so U = V \\ trash;
    within a round the trash only grows, and ``deleted`` and the colors do
    not change; so the eligible set only shrinks, and its least id never
    decreases.
    """
    if g is not h.graph:
        raise ParameterError("g", "hypergraph was built over a different graph")
    col.check_color(color)
    _check_n(n, g.k)
    if col.colors.size != len(h):
        raise ParameterError("col", "coloring is not total over the hypergraph")
    if deleted is None:
        deleted = np.zeros(len(h), dtype=bool)
    colors = col.colors
    state = GreedyState.fresh(g.num_vertices)

    def checked(kind: RoundOutcome, path: list[int]) -> RoundResult:
        if debug:
            state.check_invariants(h, col, color, deleted)
        return RoundResult(kind, list(path), trash_family(g, state.trash))

    lo = 0
    while True:
        eid = _find_start_edge(h, colors, color, deleted, state.unused, lo)
        if debug:
            assert eid == _find_start_edge(h, colors, color, deleted, state.unused), (
                "start-edge cursor skipped an eligible edge"
            )
        if eid is None:
            return checked(RoundOutcome.NO_WORKING_EDGE, [])
        lo = eid
        state.claim(h.hyperedge(eid))
        if debug:
            state.check_invariants(h, col, color, deleted)
        if len(state.path) >= n:
            return checked(RoundOutcome.PATH_FOUND, state.path)
        while state.path:
            ext = _eligible_extensions(h, colors, color, deleted, state.unused, state.path)
            if ext.size:
                state.claim([int(ext[0])])
                if debug:
                    state.check_invariants(h, col, color, deleted)
                if len(state.path) >= n:
                    return checked(RoundOutcome.PATH_FOUND, state.path)
                continue
            # no extension: trash the last k-1 vertices and retreat
            state.trash_tail(g)
            if len(state.trash) >= n:
                return checked(RoundOutcome.TRASH_FULL, list(state.path))
            if len(state.path) < g.k:
                state.release_stump()
            if debug:
                state.check_invariants(h, col, color, deleted)


# ---------------------------------------------------------------------------
# outer loop and certificate audit
# ---------------------------------------------------------------------------


@dataclass
class RoundRecord:
    """Snapshot of one exhausted round: the path at trash-full time and its family."""

    path_snapshot: list[int]
    trash: TrashFamily


@dataclass
class FoundPath:
    color: int
    vertices: list[int]

    kind = "path"


@dataclass
class CertificateAudit:
    """Recomputed counting facts behind a certificate.

    Checks: (a) working-color edges <= sum of per-round restricted extension
    counts plus the final intersecting count; (b) every round's restricted
    count stays under family_extensions/(2kr); (c) the intersecting count
    stays under total/(2r); (d) the rounds' family extension counts sum to
    at most k * total; (e) the working color holds strictly less than 1/r
    of all hyperedges.
    """

    k: int
    r: int
    color: int
    total_cycles: int
    working_color_edges: int
    rounds: list[RoundAudit]
    meeting_final_trash: int
    meeting_bound: float
    accounting_ok: bool  # (a)
    per_round_ok: bool  # (b)
    meeting_ok: bool  # (c)
    extension_budget_ok: bool  # (d)
    minority_ok: bool  # (e)
    minority_margin: float

    def contradiction_consistent(self) -> bool:
        """(b) and (c) passing must force (e); False flags an accounting leak."""
        return self.minority_ok or not (self.per_round_ok and self.meeting_ok)


@dataclass
class Certificate:
    color: int
    rounds: list[RoundRecord]
    final_trash: TrashFamily
    intersecting_set: list[int]
    audit: CertificateAudit | None = None

    kind = "certificate"


GreedyOutcome = FoundPath | Certificate


def audit_certificate(
    outcome: Certificate,
    h: TightHypergraph,
    g: LayeredGraph,
    col: Coloring,
) -> CertificateAudit:
    """Recompute every certificate quantity from scratch on the graph."""
    if g is not h.graph:
        raise ParameterError("g", "hypergraph was built over a different graph")
    color = outcome.color
    total = count_proper_cycles(g)
    if total != len(h):
        raise ParameterError("h", "hypergraph does not enumerate all proper cycles of g")
    working = int((col.colors == color).sum())
    k, r = g.k, col.r
    rounds = [restricted_check(g, rec.path_snapshot, rec.trash, r) for rec in outcome.rounds]
    meeting, meeting_bound = meeting_check(g, outcome.intersecting_set, r, total)
    sum_y = sum(a.restricted_extensions for a in rounds)
    sum_fam = sum(a.family_extensions for a in rounds)
    return CertificateAudit(
        k=k,
        r=r,
        color=color,
        total_cycles=total,
        working_color_edges=working,
        rounds=rounds,
        meeting_final_trash=meeting,
        meeting_bound=meeting_bound,
        accounting_ok=working <= sum_y + meeting,
        per_round_ok=all(a.ok for a in rounds),
        meeting_ok=meeting < meeting_bound,
        extension_budget_ok=sum_fam <= k * total,
        minority_ok=working < total / r,
        minority_margin=total / r - working,
    )


def run_outer(
    h: TightHypergraph,
    g: LayeredGraph,
    col: Coloring,
    n: int,
    color: int | None = None,
) -> GreedyOutcome:
    """Greedy rounds with restarts until a path is found or edges run out.

    After each trash-full round, every working-color hyperedge extending a
    trashed path is deleted and the round restarts with a fresh trash set;
    vertices stay usable.  Terminates because each trashed path forces at
    least one fresh deletion (the window that carried it into the path).
    A certificate is returned with its audit attached.
    """
    if color is None:
        color = pick_majority_color(col.counts())
    deleted = np.zeros(len(h), dtype=bool)
    rounds: list[RoundRecord] = []
    for _ in range(len(h) + 2):
        res = greedy_round(h, g, col, color, n, deleted)
        if res.kind is RoundOutcome.PATH_FOUND:
            return FoundPath(color=color, vertices=res.path)
        if res.kind is RoundOutcome.TRASH_FULL:
            rounds.append(RoundRecord(path_snapshot=res.path, trash=res.trash))
            for row in res.trash.rows.tolist():
                ids = h.extension_ids(row)
                if ids.size:
                    deleted[ids[col.colors[ids] == color]] = True
            continue
        cset = sorted(res.trash.rows.ravel().tolist())
        cert = Certificate(
            color=color, rounds=rounds, final_trash=res.trash, intersecting_set=cset
        )
        cert.audit = audit_certificate(cert, h, g, col)
        return cert
    raise AssertionError("outer loop failed to terminate")  # pragma: no cover


def outcome_to_json(outcome: GreedyOutcome) -> dict:
    """JSON form of a greedy outcome for run reports."""
    if isinstance(outcome, FoundPath):
        return {
            "kind": "path",
            "color": outcome.color,
            "vertices": list(map(int, outcome.vertices)),
        }
    audit = outcome.audit
    return {
        "kind": "certificate",
        "color": outcome.color,
        "rounds": [
            {
                "path_snapshot": list(map(int, rec.path_snapshot)),
                "trash": rec.trash.rows.tolist(),
            }
            for rec in outcome.rounds
        ],
        "final_trash": outcome.final_trash.rows.tolist(),
        "intersecting_set": list(map(int, outcome.intersecting_set)),
        "audit": None if audit is None else asdict(audit),
    }

"""Monte Carlo checks of the construction's counting properties.

Properties (i) and (ii) are one function each, ``restricted_check`` and
``meeting_check``, shared by the sampled checks and the certificate audit.
Each adds its bound to the counts of one ``cycles._family_counts`` or
``cycles._meeting_counts`` call over every trial or round; the meeting
counts of every trial run in one block chain per part, so property (ii)
makes k chains for its per-vertex count and at most k for all its trials.

The structural claims are universally quantified over exponentially many
family/set choices, so desk-scale verification samples them: random
disjoint path families with random restriction sets for the extension
ratio, random (plus one adversarial, highest-traffic) vertex sets for the
intersection ratio, and repeated graph regeneration for concentration of
the counting statistics.  Every trial derives its RNG stream from
(master seed, trial index), so reports are reproducible.  Trials run one
after another; the only parallelism is the BLAS library behind numpy's
matrix products.

A trial returns ``(value, bound)``, or ``None`` when it is skipped; a
property trial passes iff ``value < bound``, the rule ``RoundAudit.ok``
uses too.  A concentration trial pairs its value with the expectation.
Every report carries one row per kept trial; rows are always built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import chernoff_lower, chernoff_upper, expected_stats, poly_concentration_scale
from .cycles import (
    TrashFamily,
    _family_counts,
    _meeting_counts,
    count_family_extensions,
    count_proper_cycles,
    cycles_per_vertex,
    cycles_through_vertex,
    trash_family,
)
from .errors import ParameterError
from .layered_graph import (
    GraphParams,
    LayeredGraph,
    _check_integer,
    _check_k,
    _check_m,
    _check_r,
    _check_seed,
    generate_random,
)
from .seeds import derive_seed, spawn_rng

__all__ = [
    "EPSILON_GRID",
    "PropertyReport",
    "RatioReport",
    "ConcentrationReport",
    "RoundAudit",
    "restricted_check",
    "meeting_check",
    "sample_trash_family",
    "check_property_i",
    "check_property_ii",
    "check_property_iii",
    "concentration_experiment",
    "CONCENTRATION_STATISTICS",
]

EPSILON_GRID = (0.1, 0.25, 0.5)

CONCENTRATION_STATISTICS = (
    "total_cycles",
    "cycles_through_vertex",
    "single_path_extensions",
)


@dataclass
class PropertyReport:
    """Outcome of sampled checks of one structural property."""

    property_id: str
    trials: int
    violations: int
    passes: int
    skips: int
    margin_min: float | None
    margin_mean: float | None
    params: dict
    rows: list[dict]

    def __post_init__(self):
        if self.violations + self.passes + self.skips != self.trials:
            raise ParameterError("trials", "trial counts do not add up")


@dataclass
class RatioReport:
    """Total cycle count against the (n ln n)^(k/2) scaling denominators."""

    total_cycles: int
    c_eff: float
    ratio_c: float
    ratio_r: float
    params: dict


@dataclass
class RoundAudit:
    """Property (i) on one family; its fields are the report's ``audit.rounds`` keys."""

    restricted_extensions: int  # cycles extending a family path by a vertex of aset or the family
    family_extensions: int  # cycles extending some family path
    bound: float  # family_extensions / (2kr)
    margin: float
    ok: bool


def restricted_check(g: LayeredGraph, pairs, r: int) -> list[RoundAudit]:
    """Property (i) on each ``(aset, fam)`` pair: the cycles extending a
    path of ``fam`` by a vertex of aset or of the family stay under the
    cycles extending one, over 2kr.  Returns one ``RoundAudit`` per pair,
    from one ``cycles._family_counts`` pass over every pair.
    """
    restricted, family = _family_counts(g, pairs)
    audits = []
    for y, t_fam in zip(restricted.tolist(), family.tolist()):
        bound = t_fam / (2 * g.k * r)
        audits.append(RoundAudit(y, t_fam, bound, margin=bound - y, ok=y < bound))
    return audits


def meeting_check(g: LayeredGraph, csets, r: int, total: int) -> tuple[list[int], float]:
    """Property (ii) on each vertex set of ``csets``: the cycles meeting it
    stay under total/(2r).  Returns the counts, in set order, from one
    ``cycles._meeting_counts`` call, and the bound."""
    return _meeting_counts(g, csets), total / (2 * r)


def sample_trash_family(
    g: LayeredGraph, n_paths: int, rng: np.random.Generator
) -> TrashFamily | None:
    """Greedy random packing of disjoint (k-1)-vertex proper paths.

    Each attempt picks a uniform unused start vertex and walks forward
    through unused vertices; ``None`` on starvation (100*n attempts spent)
    rather than an error.
    """
    nv = g.num_vertices
    used = np.zeros(nv, dtype=bool)
    paths = []
    unused_ids = np.arange(nv)
    attempts = 0
    while len(paths) < n_paths:
        if attempts >= 100 * n_paths:
            return None
        attempts += 1
        if unused_ids.size == 0:
            return None
        start = int(unused_ids[rng.integers(unused_ids.size)])
        seq = [start]
        ok = True
        for _ in range(g.k - 2):
            prev = g.part_of(seq[-1])
            part = (prev + 1) % g.k
            mask = g.blocks[prev][seq[-1] % g.m] & ~used[part * g.m : (part + 1) * g.m]
            cand = np.nonzero(mask)[0]
            if cand.size == 0:
                ok = False
                break
            seq.append(int(cand[rng.integers(cand.size)]) + part * g.m)
        if not ok:
            continue
        paths.append(seq)
        used[seq] = True
        unused_ids = np.flatnonzero(~used)
    return trash_family(g, paths)


def _rows(statistic: str, outcomes: list) -> list[dict]:
    """One CSV row per kept ``(value, expectation)`` trial outcome."""
    rows = []
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            continue
        value, expectation = outcome
        rows.append(
            {
                "trial": i,
                "statistic": statistic,
                "value": value,
                "expectation": expectation,
                "ratio": (value / expectation) if expectation else None,
            }
        )
    return rows


def _finish(prop: str, statistic: str, outcomes: list, params: dict) -> PropertyReport:
    kept = [o for o in outcomes if o is not None]
    margins = [bound - value for value, bound in kept]
    passes = sum(1 for value, bound in kept if value < bound)
    return PropertyReport(
        property_id=prop,
        trials=len(outcomes),
        violations=len(kept) - passes,
        passes=passes,
        skips=len(outcomes) - len(kept),
        margin_min=min(margins) if margins else None,
        margin_mean=(sum(margins) / len(margins)) if margins else None,
        params=params,
        rows=_rows(statistic, outcomes),
    )


def _check_trials(trials: int) -> None:
    _check_integer("trials", trials)
    if trials < 0:
        raise ParameterError("trials", f"must be >= 0, got {trials}")


def _check_trial_args(r: int, n: int, trials: int, seed: int) -> None:
    _check_r(r)
    _check_integer("n", n)
    if n < 1:
        raise ParameterError("n", f"must be >= 1, got {n}")
    _check_trials(trials)
    _check_seed(seed)


def _check_ratio_args(r: int, n: int) -> None:
    _check_r(r)
    _check_integer("n", n)
    if n < 2:
        raise ParameterError("n", f"must be >= 2 for the ln n scaling, got {n}")


def _ratio_scales(k: int, m: int, r: int, n: int) -> tuple[float, float]:
    """Property (iii)'s denominators c^k (n ln n)^(k/2), at c = m/n, and
    r^k (n ln n)^(k/2), after refusing r and n.

    They depend on the parameters alone, so a run can refuse them before its
    graph exists: ``ParameterError`` (field k) when one overflows float64 or
    underflows to 0, so that no ratio could be taken.
    """
    _check_ratio_args(r, n)
    _check_k(k)
    _check_m(m)
    try:
        scale = (n * math.log(n)) ** (k / 2.0)
        dens = ((m / n) ** k * scale, r**k * scale)
        if 0.0 not in dens:
            return dens
    except OverflowError:
        pass
    raise ParameterError(
        "k", f"the property (iii) scales leave float64 at k = {k}, m = {m}, r = {r}, n = {n}"
    )


def check_property_i(g: LayeredGraph, r: int, n: int, trials: int, seed: int) -> PropertyReport:
    """Sampled check that restricted extensions stay under family/(2kr).

    Per trial: a family of n disjoint (k-1)-paths (skip on starvation) and
    a disjoint vertex set of size min(n, rest), drawn from the trial's own
    stream; a violation iff the restricted extension count reaches
    family_extensions/(2kr).  One ``restricted_check`` call checks every
    kept trial.
    """
    _check_trial_args(r, n, trials, seed)
    k = g.k

    def draw(trial: int):
        rng = spawn_rng(seed, trial)
        fam = sample_trash_family(g, n, rng)
        if fam is None:
            return None
        free = np.ones(g.num_vertices, dtype=bool)
        free[fam.rows] = False
        rest = np.flatnonzero(free)
        a_size = min(n, rest.size)
        aset = rng.choice(rest, size=a_size, replace=False) if a_size else np.empty(0, int)
        return aset, fam

    draws = [draw(t) for t in range(trials)]
    audits = iter(restricted_check(g, [d for d in draws if d is not None], r))
    outcomes = [None if d is None else next(audits) for d in draws]
    outcomes = [None if a is None else (a.restricted_extensions, a.bound) for a in outcomes]
    params = {
        "k": k,
        "m": g.m,
        "r": r,
        "n": n,
        "seed": seed,
        "trials": trials,
        # the canonical-scale comparator mean for restricted extensions is
        # 2*n*ln(n); the check itself counts per the definition, which admits
        # up to k*n^2 candidate pairs, so the two are reported side by side
        "restricted_pairs_reference_mean": 2.0 * n * math.log(n) if n > 1 else 0.0,
    }
    return _finish("i", "restricted_extensions", outcomes, params)


def check_property_ii(g: LayeredGraph, r: int, n: int, trials: int, seed: int) -> PropertyReport:
    """Sampled check that cycles meeting a (k-1)n-set stay under total/(2r).

    Trial 0 uses the adversarial set of the (k-1)n vertices carrying the
    most cycles; remaining trials sample uniformly.  Trials on a cycle-free
    graph are vacuous skips.  One ``meeting_check`` call counts every
    trial's set.
    """
    _check_trial_args(r, n, trials, seed)
    k = g.k
    c_size = (k - 1) * n
    if g.num_vertices < c_size:
        raise ParameterError("n", f"graph has {g.num_vertices} vertices, need {c_size}")
    per_vertex = cycles_per_vertex(g)
    total = sum(per_vertex[: g.m].tolist())  # every cycle has one vertex in part 0

    def draw(trial: int):
        if trial == 0:
            return np.argsort(-per_vertex, kind="stable")[:c_size]
        return spawn_rng(seed, trial).choice(g.num_vertices, size=c_size, replace=False)

    csets = [draw(t) for t in range(trials)] if total else []
    counts, bound = meeting_check(g, csets, r, total)
    outcomes = [(count, bound) for count in counts] if total else [None] * trials
    params = {
        "k": k,
        "m": g.m,
        "r": r,
        "n": n,
        "seed": seed,
        "trials": trials,
        "set_size": c_size,
        "adversarial_first": trials > 0 and total > 0,
    }
    return _finish("ii", "meeting_count", outcomes, params)


def check_property_iii(g: LayeredGraph, r: int, n: int) -> RatioReport:
    """Total cycle count relative to c^k (n ln n)^(k/2), at c = m/n, and r^k (n ln n)^(k/2)."""
    den_c, den_r = _ratio_scales(g.k, g.m, r, n)
    total = count_proper_cycles(g)
    return RatioReport(
        total_cycles=total, c_eff=g.m / n, ratio_c=total / den_c, ratio_r=total / den_r,
        params={"k": g.k, "m": g.m, "r": r, "n": n},
    )


# ---------------------------------------------------------------------------
# concentration experiments
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationReport:
    statistic: str
    trials: int
    skips: int
    expectation: float
    mean: float | None
    variance: float | None
    minimum: float | None
    maximum: float | None
    outside_fraction: dict[str, float]
    analytic_bounds: dict[str, dict[str, float]]
    params: dict
    rows: list[dict]


def concentration_experiment(
    base: GraphParams, statistic: str, trials: int, seed: int, fixed_vertex: int = 0
) -> ConcentrationReport:
    """Regenerate the random graph per trial and track one counting statistic.

    Reports mean/variance/min/max, the fraction of trials outside
    (1 +- eps) * expectation for eps in EPSILON_GRID, and the binomial-style
    analytic tail bounds at those deviations.  For cycles_through_vertex the
    degree-k concentration threshold inversion is reported as well (with the
    vertex count standing in for the union-bound range).
    """
    if statistic not in CONCENTRATION_STATISTICS:
        raise ParameterError("statistic", f"unknown statistic {statistic!r}")
    _check_trials(trials)
    _check_seed(seed)
    _check_integer("fixed_vertex", fixed_vertex)
    num_vertices = base.k * base.part_size
    if not 0 <= fixed_vertex < num_vertices:
        raise ParameterError(
            "fixed_vertex", f"vertex {fixed_vertex} not in graph with {num_vertices} vertices"
        )
    stats = expected_stats(base.k, base.part_size, base.edge_prob)
    expectation = {
        "total_cycles": stats.total_cycles,
        "cycles_through_vertex": stats.cycles_per_vertex,
        "single_path_extensions": stats.extensions_per_path,
    }[statistic]
    # m**k overflows to inf, and inf times a p**k that underflows to 0 is NaN
    if not math.isfinite(expectation):
        raise ParameterError(
            "k", f"the {statistic} expectation leaves float64 at k = {base.k}, "
            f"m = {base.part_size}, p = {base.edge_prob}"
        )

    def one(trial: int):
        params = GraphParams(
            k=base.k,
            part_size=base.part_size,
            edge_prob=base.edge_prob,
            seed=derive_seed(seed, trial, 0),
        )
        g = generate_random(params)
        if statistic == "total_cycles":
            return float(count_proper_cycles(g))
        if statistic == "cycles_through_vertex":
            return float(cycles_through_vertex(g, fixed_vertex))
        fam = sample_trash_family(g, 1, spawn_rng(seed, trial, 1))
        if fam is None:
            return None
        return float(count_family_extensions(g, fam))

    values = [one(t) for t in range(trials)]
    kept = [v for v in values if v is not None]
    skips = len(values) - len(kept)
    arr = np.array(kept, dtype=np.float64)
    outside = {}
    analytic = {}
    for eps in EPSILON_GRID:
        key = f"{eps:g}"
        if arr.size and expectation > 0:
            frac = float((np.abs(arr - expectation) > eps * expectation).mean())
        else:
            frac = 0.0
        outside[key] = frac
        if expectation > 0:
            lam = eps * expectation
            analytic[key] = {
                "binomial_lower": chernoff_lower(expectation, lam),
                "binomial_upper": chernoff_upper(expectation, lam),
            }
            if statistic == "cycles_through_vertex" and stats.cycles_per_vertex_prime > 0:
                # the degree-k threshold 8^k sqrt(k!) sqrt(E E') lam^k, solved for the
                # lam that puts it at this deviation; the tail beyond it is
                # O(exp(-lam + (k-1) ln N)) with N the vertex count
                scale = poly_concentration_scale(base.k) * math.sqrt(
                    stats.cycles_per_vertex * stats.cycles_per_vertex_prime
                )
                lam_poly = (lam / scale) ** (1.0 / base.k)
                analytic[key]["poly_lambda"] = lam_poly
                analytic[key]["poly_tail_exponent"] = -lam_poly + (
                    base.k - 1
                ) * math.log(base.k * base.part_size)
        else:
            analytic[key] = {}
    return ConcentrationReport(
        statistic=statistic,
        trials=trials,
        skips=skips,
        expectation=expectation,
        mean=float(arr.mean()) if arr.size else None,
        variance=float(arr.var(ddof=1)) if arr.size > 1 else None,
        minimum=float(arr.min()) if arr.size else None,
        maximum=float(arr.max()) if arr.size else None,
        outside_fraction=outside,
        analytic_bounds=analytic,
        params={
            "k": base.k,
            "m": base.part_size,
            "p": base.edge_prob,
            "seed": seed,
            "trials": trials,
            "fixed_vertex": fixed_vertex,
        },
        rows=_rows(statistic, [None if v is None else (v, expectation) for v in values]),
    )

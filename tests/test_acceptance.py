"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale instance
(k=3, r=2, n=30, part size 40*n, p = sqrt(ln n / n)) is built once and shared;
it carries roughly 66 million hyperedges, so this module needs ~1.5 GB RAM
and about 75 s on two cores.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ramsey_lab import (
    Certificate,
    FoundPath,
    GraphParams,
    LayeredGraph,
    adversarial_coloring,
    arrow_check,
    build_hypergraph,
    chernoff_lower,
    chernoff_upper,
    complete_layered,
    concentration_experiment,
    count_proper_cycles,
    cycles_per_vertex,
    generate_random,
    poly_concentration_scale,
    random_coloring,
    run_outer,
)
from ramsey_lab.cli import run as cli_run
from ramsey_lab.oracle import brute_force_cycle_keys, brute_force_cycles
from ramsey_lab.reporting import canonical_json
from ramsey_lab.seeds import derive_seed
from conftest import contradiction_consistent

DESK_K = 3
DESK_R = 2
DESK_N = 30
DESK_M = 40 * DESK_N
DESK_P = math.sqrt(math.log(DESK_N) / DESK_N)
DESK_SEED = 20260810

AC5_SEEDS = 20

_cert_pool: list[tuple[str, Certificate]] = []


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_graph():
    return generate_random(
        GraphParams(k=DESK_K, part_size=DESK_M, edge_prob=DESK_P, seed=DESK_SEED)
    )


@pytest.fixture(scope="module")
def desk_hypergraph(desk_graph):
    return build_hypergraph(desk_graph)


@pytest.fixture(scope="module")
def ac1_sweep():
    """Oracle-equivalence sweep shared by AC-1 and AC-2."""
    t0 = time.monotonic()
    cells = {}
    handshake_failures = 0
    for k in (3, 4, 5):
        for m in (4, 6, 8):
            for p in (0.2, 0.5, 0.8):
                mismatches = 0
                for trial in range(100):
                    seed = derive_seed(801, k, m, round(p * 10), trial)
                    g = generate_random(
                        GraphParams(k=k, part_size=m, edge_prob=p, seed=seed)
                    )
                    fast = build_hypergraph(g).keys()
                    brute = brute_force_cycle_keys(g)
                    if not np.array_equal(fast, brute):
                        mismatches += 1
                    if cycles_per_vertex(g).sum() != k * fast.size:
                        handshake_failures += 1
                cells[(k, m, p)] = mismatches
    return {
        "cells": cells,
        "handshake_failures": handshake_failures,
        "elapsed": time.monotonic() - t0,
    }


def _desk_graph_config():
    return {"k": DESK_K, "m": DESK_M, "p": DESK_P, "seed": DESK_SEED}


def _ac4_run():
    """The AC-4 pipeline through the CLI layer: properties i, ii, iii."""
    out = {}
    out["i"] = cli_run(
        "verify",
        {
            **_desk_graph_config(),
            "property": "i",
            "r": DESK_R,
            "n": DESK_N,
            "trials": 100,
            "trial_seed": 4101,
        },
    )
    out["ii"] = cli_run(
        "verify",
        {
            **_desk_graph_config(),
            "property": "ii",
            "r": DESK_R,
            "n": DESK_N,
            "trials": 100,
            "trial_seed": 4202,
        },
    )
    out["iii"] = cli_run(
        "verify",
        {
            **_desk_graph_config(),
            "property": "iii",
            "r": DESK_R,
            "n": DESK_N,
        },
    )
    return out


@pytest.fixture(scope="module")
def ac4_bundle():
    t0 = time.monotonic()
    first = _ac4_run()
    elapsed = time.monotonic() - t0
    return {"first": first, "rerun": _ac4_run(), "elapsed_first": elapsed}


def _independent_window_check(h, g, col, color, seq, n):
    """Tight-path re-validation written against the graph directly."""
    if len(seq) < n or len(set(seq)) != len(seq):
        return False
    for s in range(len(seq) - g.k + 1):
        window = seq[s : s + g.k]
        if len({g.part_of(v) for v in window}) != g.k:
            return False
        ordered = sorted(window, key=g.part_of)
        for i in range(g.k):
            if not g.adjacent(ordered[i], ordered[(i + 1) % g.k]):
                return False
        eid = h.edge_id(window)
        if eid < 0 or int(col[eid]) != color:
            return False
    return True


def _ac5_run(h, g, workers: int):
    def one(i: int):
        col = random_coloring(h, DESK_R, derive_seed(515, i))
        out = run_outer(h, col, n=DESK_N)
        if isinstance(out, FoundPath):
            ok = _independent_window_check(h, g, col, out.color, out.vertices, DESK_N)
            return {
                "seed_index": i,
                "kind": "path",
                "color": out.color,
                "length": len(out.vertices),
                "revalidated": bool(ok),
                "vertices": list(map(int, out.vertices)),
            }, None
        audit = out.audit
        return {
            "seed_index": i,
            "kind": "certificate",
            "color": out.color,
            "accounting_ok": audit.accounting_ok,
            "extension_budget_ok": audit.extension_budget_ok,
            "contradiction_consistent": contradiction_consistent(audit),
        }, out

    if workers <= 1:
        pairs = [one(i) for i in range(AC5_SEEDS)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(one, range(AC5_SEEDS)))
    rows = [p[0] for p in pairs]
    certs = [p[1] for p in pairs if p[1] is not None]
    return {"n": DESK_N, "runs": rows}, certs


@pytest.fixture(scope="module")
def ac5_bundle(desk_hypergraph, desk_graph):
    first, certs = _ac5_run(desk_hypergraph, desk_graph, workers=1)
    for cert in certs:
        _cert_pool.append(("ac5-desk", cert))
    rerun, _ = _ac5_run(desk_hypergraph, desk_graph, workers=1)
    threaded, _ = _ac5_run(desk_hypergraph, desk_graph, workers=4)
    return {"first": first, "rerun": rerun, "threaded": threaded}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_ac1_oracle_equivalence(ac1_sweep):
    """AC-1: optimized enumeration matches brute force exactly, under 60 s."""
    total_mismatches = sum(ac1_sweep["cells"].values())
    assert total_mismatches == 0, f"mismatching cells: {ac1_sweep['cells']}"
    assert len(ac1_sweep["cells"]) == 27
    # spot-check full object lists on one instance per uniformity
    for k in (3, 4, 5):
        g = generate_random(GraphParams(k=k, part_size=6, edge_prob=0.5, seed=derive_seed(802, k)))
        assert [tuple(c) for c in build_hypergraph(g).vertex_rows().tolist()] == brute_force_cycles(g)
    assert ac1_sweep["elapsed"] < 60.0, f"took {ac1_sweep['elapsed']:.1f}s"
    print(
        f"\nAC-1 PASS: 2700 graphs, 0 mismatches, {ac1_sweep['elapsed']:.1f}s"
    )


def test_ac2_closed_form_counts(ac1_sweep):
    """AC-2: complete-graph closed forms and the handshake identity."""
    for k in (3, 4, 5):
        for m in (1, 2, 3):
            g = complete_layered(k, m)
            assert count_proper_cycles(g) == m**k
            per_vertex = cycles_per_vertex(g)
            assert (per_vertex == m ** (k - 1)).all()
    assert ac1_sweep["handshake_failures"] == 0
    print("AC-2 PASS: t = m^k, per-vertex = m^(k-1), handshake on all 2700 instances")


def test_ac3_concentration():
    """AC-3: k=3, m=100, p=0.1 over 200 seeds; means and tail budget."""
    t0 = time.monotonic()
    base = GraphParams(k=3, part_size=100, edge_prob=0.1, seed=0)
    total = concentration_experiment(base, "total_cycles", 200, seed=303)
    assert total.expectation == pytest.approx(1000.0, rel=1e-9)
    assert abs(total.mean - 1000.0) < 0.10 * 1000.0, total.mean
    assert total.outside_fraction["0.5"] <= 0.05, total.outside_fraction
    vertex = concentration_experiment(base, "cycles_through_vertex", 200, seed=303)
    assert vertex.expectation == pytest.approx(10.0, rel=1e-9)
    assert abs(vertex.mean - 10.0) < 0.15 * 10.0, vertex.mean
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"AC-3 PASS: mean(total)={total.mean:.1f} (1000 +-10%), "
        f"mean(per-vertex)={vertex.mean:.2f} (10 +-15%), "
        f"tail fraction {total.outside_fraction['0.5']:.3f} <= 5%, {elapsed:.1f}s"
    )


def test_ac4_property_checks(ac4_bundle):
    """AC-4: desk-scale property checks show at most 5% violations each."""
    first = ac4_bundle["first"]
    rep_i = first["i"][1]["results"]
    rep_ii = first["ii"][1]["results"]
    rep_iii = first["iii"][1]["results"]
    assert rep_i["trials"] == 100
    assert rep_i["violations"] <= 5, rep_i
    assert rep_i["skips"] == 0, rep_i
    assert rep_ii["trials"] == 100
    assert rep_ii["violations"] <= 5, rep_ii
    assert rep_ii["params"]["adversarial_first"] is True
    assert math.isfinite(rep_iii["ratio_c"]) and rep_iii["ratio_c"] > 0
    assert ac4_bundle["elapsed_first"] < 600.0
    print(
        f"AC-4 PASS: property i {rep_i['violations']}/100 violations, "
        f"property ii {rep_ii['violations']}/100 violations, "
        f"ratio_c={rep_iii['ratio_c']:.4f}, {ac4_bundle['elapsed_first']:.1f}s"
    )


def test_ac5_greedy_end_to_end(ac5_bundle):
    """AC-5: majority-color greedy finds a valid 30-vertex path in >=18/20 runs."""
    runs = ac5_bundle["first"]["runs"]
    assert len(runs) == AC5_SEEDS
    paths = [r for r in runs if r["kind"] == "path"]
    valid_paths = [r for r in paths if r["revalidated"] and r["length"] >= DESK_N]
    assert len(valid_paths) == len(paths), "a found path failed re-validation"
    assert len(valid_paths) >= 18, f"only {len(valid_paths)}/20 paths"
    for r in runs:
        if r["kind"] == "certificate":
            assert r["accounting_ok"], r
            assert r["extension_budget_ok"], r
    print(
        f"AC-5 PASS: {len(valid_paths)}/20 majority-color paths "
        f"(independently re-validated), {len(runs) - len(paths)} certificates"
    )


def test_ac6_certificate_implication(desk_hypergraph, desk_graph, ac5_bundle):
    """AC-6: on every certificate the suite produces, (b) and (c) passing
    forces (e); a violation would expose a leak in the accounting chain."""
    pool = list(_cert_pool)
    # battery of tiny and small instances, majority and minority colors
    instances = []
    for m in (2, 3, 4):
        g = complete_layered(3, m)
        h = build_hypergraph(g)
        instances.append((f"complete-3-{m}", g, h))
    for seed in range(8):
        g = generate_random(GraphParams(k=3, part_size=5, edge_prob=0.6, seed=seed))
        h = build_hypergraph(g)
        if len(h):
            instances.append((f"random-3-5-{seed}", g, h))
    for seed in range(4):
        g = generate_random(GraphParams(k=4, part_size=4, edge_prob=0.7, seed=seed))
        h = build_hypergraph(g)
        if len(h):
            instances.append((f"random-4-4-{seed}", g, h))

    def colorings(h):
        yield "round_robin", adversarial_coloring(h, 2, "round_robin")
        for s in range(3):
            yield f"vertex_cut-{s}", adversarial_coloring(h, 2, "vertex_cut", seed=s)
        for s in range(6):
            yield f"random-{s}", random_coloring(h, 2, s)

    for name, g, h in instances:
        for cname, col in colorings(h):
            for n in (g.k, g.k + 1, 2 * g.k):
                for color in range(2):
                    out = run_outer(h, col, n=n, color=color)
                    if isinstance(out, Certificate):
                        pool.append((f"{name}/{cname}/n={n}/c={color}", out))

    assert pool, "battery produced no certificates to audit"
    for label, cert in pool:
        audit = cert.audit
        assert audit is not None, label
        assert audit.accounting_ok, f"(a) failed on {label}"
        assert audit.extension_budget_ok, f"(d) failed on {label}"
        assert contradiction_consistent(audit), (
            f"(b) and (c) passed but (e) failed on {label}: "
            f"working={audit.working_color_edges}, total={audit.total_cycles}"
        )
    print(f"AC-6 PASS: implication held on {len(pool)} certificates")


def test_ac7_arrow_fixtures():
    """AC-7: frozen arrow verdicts reproduce exactly; 2^8 sweep under 1 s."""
    fixtures = json.loads(
        (Path(__file__).parent / "data" / "arrow_fixtures.json").read_text()
    )
    assert {f["name"] for f in fixtures} == {
        "single-hyperedge",
        "two-disjoint-hyperedges",
        "complete-3-2-n4",
    }
    elapsed_big = None
    for fix in fixtures:
        g = LayeredGraph.from_json(fix["graph"])
        h = build_hypergraph(g)
        t0 = time.monotonic()
        res = arrow_check(h, fix["n"], fix["r"])
        dt = time.monotonic() - t0
        assert res.verdict == fix["verdict"], fix["name"]
        assert res.counterexample == fix["counterexample"], fix["name"]
        assert res.colorings_checked == fix["colorings_checked"], fix["name"]
        if fix["name"] == "complete-3-2-n4":
            elapsed_big = dt
    assert elapsed_big is not None and elapsed_big < 1.0
    print(f"AC-7 PASS: 3 fixtures exact, 2^8 sweep in {elapsed_big*1000:.0f}ms")


def test_ac8_bound_calculators():
    """AC-8: analytic calculators hit their closed forms exactly."""
    assert abs(chernoff_lower(8, 4) - math.exp(-1)) <= 1e-12
    assert abs(poly_concentration_scale(3) - 512 * math.sqrt(6)) <= 1e-9
    assert chernoff_lower(8, 0) == 1.0
    assert chernoff_upper(8, 0) == 1.0
    grid = np.linspace(0.0, 12.0, 100)
    lower = [chernoff_lower(6.0, lam) for lam in grid]
    upper = [chernoff_upper(6.0, lam) for lam in grid]
    assert all(a > b for a, b in zip(lower, lower[1:]))
    assert all(a > b for a, b in zip(upper, upper[1:]))
    print("AC-8 PASS: closed forms to 1e-12/1e-9, monotone on 100-point grid")


def _stripped(report: dict) -> str:
    doc = json.loads(canonical_json(report))
    doc.get("metadata", {}).pop("timestamp", None)
    return canonical_json(doc)


def test_ac9_determinism(ac4_bundle, ac5_bundle):
    """AC-9: AC-4/AC-5 reports are byte-identical across reruns, and AC-5's
    results are identical when its greedy runs share one process concurrently."""
    for prop in ("i", "ii", "iii"):
        code_a, rep_a = ac4_bundle["first"][prop]
        code_b, rep_b = ac4_bundle["rerun"][prop]
        assert code_a == code_b
        assert _stripped(rep_a) == _stripped(rep_b), f"rerun differs for {prop}"
    assert canonical_json(ac5_bundle["first"]) == canonical_json(ac5_bundle["rerun"])
    assert canonical_json(ac5_bundle["first"]) == canonical_json(ac5_bundle["threaded"])
    print("AC-9 PASS: byte-identical reports across reruns and concurrent greedy runs")

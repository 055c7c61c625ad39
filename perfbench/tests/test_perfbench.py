"""Tests of the benchmark itself, on the seconds-long ``smoke`` workload.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, rotated_total, unsound_certificate  # noqa: E402

# counts that the seeds fix; a second traced run must reproduce them exactly
EXACT_COUNTS = ("greedy.rounds", "cycles.decoded_keys", "cycles.count_calls", "cycles.hyperedges")


@pytest.fixture(scope="module")
def smoke_ops():
    """One untraced and two traced operations of the smoke workload."""
    old = os.getcwd()
    os.chdir(ROOT)
    scratch = ROOT / run.SCRATCH / "tests"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        argvs = WORKLOADS["smoke"].argvs(0)
        runner = run.Runner(ROOT, argvs, scratch)
        ops = [runner.op(traced=False), runner.op(traced=True), runner.op(traced=True)]
        yield argvs, ops
    finally:
        shutil.rmtree(ROOT / run.SCRATCH, ignore_errors=True)
        os.chdir(old)


def _last_json_lines(stdout: str, n: int) -> list[dict]:
    return [json.loads(line) for line in stdout.strip().splitlines()[-n:]]


def test_harness_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    detail, result = _last_json_lines(proc.stdout, 2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(WORKLOADS["smoke"].argvs(3))
    # the smoke certificate fails check (a), the known accounting defect
    assert result["failed"] == 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["perfbench"]["environment"]
    assert {"nproc", "python", "numpy", "blas", "thread_vars", "commit"} <= set(env)
    assert not (ROOT / run.SCRATCH).exists()


def test_harness_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_and_untraced_reports_are_identical(smoke_ops):
    argvs, ops = smoke_ops
    for i in range(len(argvs)):
        texts = {op.reports[i] for op in ops}
        assert None not in texts and len(texts) == 1
    assert run.check_set(ops, argvs) == []


def test_self_times_sum_to_traced_wall(smoke_ops):
    _, ops = smoke_ops
    for doc in ops[1].traces:
        own = spans.self_times(doc["spans"])
        assert min(own) >= 0
        # the only untraced stretch is the child's own glue around import and main
        assert abs(sum(own) - doc["wall_s"]) < 0.02 + 0.02 * doc["wall_s"]


def test_every_wrapper_is_removed(smoke_ops):
    _, ops = smoke_ops
    for doc in ops[1].traces:
        assert doc["wrapped"] > len(spans.TARGETS)  # by-name imports were wrapped too
        assert doc["leftover_wrappers"] == []
        assert Path(doc["module"]).is_relative_to(ROOT / "src")


def test_install_and_uninstall_in_process():
    from ramsey_lab import cli, cycles, greedy

    before = {mod.__name__: dict(vars(mod)) for mod in spans._program_modules()}
    methods = dict(vars(cycles.TightHypergraph))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert hasattr(cli.build_hypergraph, spans.MARK)
        assert hasattr(greedy.decode_keys, spans.MARK)
        assert hasattr(cycles.TightHypergraph.extension_ids, spans.MARK)
    finally:
        assert spans.uninstall(undo) == []
    assert {mod.__name__: dict(vars(mod)) for mod in spans._program_modules()} == before
    assert dict(vars(cycles.TightHypergraph)) == methods


def test_exact_counts_repeat(smoke_ops):
    _, ops = smoke_ops
    first, second = (run.layer_figures(op, 0.0) for op in ops[1:])
    for name in EXACT_COUNTS:
        assert first[name] > 0
        assert first[name] == second[name], name
    assert set(first) == {name for name, _ in run.PER_LAYER}


def test_self_times_of_nested_spans():
    # root 0..10 holds a 2..5 child, which holds a 3..4 grandchild
    rows = [["a", 0.0, 10.0, -1, None, None], ["b", 2.0, 5.0, 0, None, None],
            ["c", 3.0, 4.0, 1, None, None]]
    assert spans.self_times(rows) == [7.0, 2.0, 1.0]


@pytest.mark.parametrize("k,m,p", [(3, 40, 0.3), (4, 25, 0.4), (5, 12, 0.6)])
def test_rotated_total_matches_the_library(k, m, p):
    from ramsey_lab.cycles import count_proper_cycles
    from ramsey_lab.layered_graph import GraphParams, generate_random

    g = generate_random(GraphParams(k, m, p, 5))
    assert rotated_total(g.blocks) == count_proper_cycles(g)


def test_unsound_certificate_flags_only_soundness_checks():
    audit = {"accounting_ok": True, "extension_budget_ok": True, "minority_ok": False,
             "per_round_ok": False, "meeting_ok": True}
    doc = {"results": {"outcome": {"kind": "certificate", "audit": audit}}}
    assert not unsound_certificate(doc)  # (b) failed: the graph, not the certificate
    assert unsound_certificate({"results": {"outcome": {
        "kind": "certificate", "audit": {**audit, "accounting_ok": False}}}})
    assert unsound_certificate({"results": {"outcome": {
        "kind": "certificate", "audit": {**audit, "per_round_ok": True}}}})
    assert not unsound_certificate({"results": {"outcome": {"kind": "path"}}})
    assert not unsound_certificate({"results": {"trials": 3}})

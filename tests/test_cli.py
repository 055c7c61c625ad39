import hashlib
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ramsey_lab import (
    Coloring,
    build_hypergraph,
    complete_layered,
    random_coloring,
    run_outer,
    validate_tight_path,
)
from ramsey_lab import cli, verifier
from ramsey_lab.cli import _MODE_FLAGS, MODES, build_parser, main, run
from ramsey_lab.cycles import encode_keys
from ramsey_lab.errors import ParameterError
from ramsey_lab.reporting import canonical_json, strip_timestamp
from ramsey_lab.verifier import CONCENTRATION_STATISTICS
from conftest import random_graph, validate_document

ROOT = Path(__file__).resolve().parent.parent
# a small graph and a property-ii run for the verify cases; _SMALL_NO_P leaves p to a file
_SMALL_NO_P = ["--k", "3", "--m", "20", "--seed", "1", "--r", "2", "--n", "3", "--trials", "2"]
_SMALL = [*_SMALL_NO_P, "--p", "0.3"]
# a complete host with 27 hyperedges
_TINY = ["--k", "3", "--m", "3", "--p", "1", "--seed", "0"]
# S4: a k = 4 host with 4,019 hyperedges (8 * 502 + 3) in a flat store
_S4 = ["--k", "4", "--m", "40", "--p", "0.2", "--seed", "7"]
PINNED = json.loads((ROOT / "tests" / "data" / "pinned_greedy_reports.json").read_text())
DIGESTS = json.loads((ROOT / "tests" / "data" / "pinned_greedy_digests.json").read_text())
VERIFY_DIGESTS = json.loads(
    (ROOT / "tests" / "data" / "pinned_verify_digests.json").read_text()
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_p_zero_writes_empty_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, stdout, _ = run_cli(
            ["generate", "--k", "3", "--m", "5", "--p", "0", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        validate_document(doc, "graph-v1")
        assert doc == {"k": 3, "m": 5, "edges": []}
        report = json.loads(stdout)
        validate_document(report, "report-v1")
        assert report["results"]["edge_count"] == 0

    def test_canonical_expansion_recorded(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, stdout, _ = run_cli(
            ["generate", "--canonical", "3", "2", "10", "--m", "40", "--seed", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(stdout)
        exp = report["config"]["canonical_expansion"]
        assert exp["c"] == 288 and exp["part_size"] == 2880
        assert report["config"]["m"] == 40  # explicit override wins
        assert report["config"]["p"] == pytest.approx(math.sqrt(math.log(10) / 10))

    def test_missing_params_exit_1(self, capsys):
        code, _, err = run_cli(["generate", "--k", "3", "--m", "5"], capsys)
        assert code == 1
        assert "p:" in err


class TestEnumerate:
    def test_counts_and_export(self, tmp_path, capsys):
        hg = tmp_path / "h.json"
        code, stdout, _ = run_cli(
            ["enumerate", "--k", "3", "--m", "2", "--p", "1", "--seed", "0",
             "--export-hypergraph", str(hg)],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["results"]["total_cycles"] == 8
        doc = json.loads(hg.read_text())
        validate_document(doc, "hypergraph-v1")
        assert len(doc["edges"]) == 8

    def test_counts_beyond_physical_memory(self, capsys, beyond_memory):
        # without an export nothing is enumerated, so any count is reported
        k, m = beyond_memory
        argv = ["enumerate", "--k", str(k), "--m", str(m), "--p", "1", "--seed", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(stdout)["results"]["total_cycles"] == m**k == 10_240_000_000_000

    def test_export_beyond_physical_memory_exit_1(self, tmp_path, capsys, beyond_memory):
        k, m = beyond_memory
        hg = tmp_path / "h.json"
        code, stdout, err = run_cli(
            ["enumerate", "--k", str(k), "--m", str(m), "--p", "1", "--seed", "0",
             "--export-hypergraph", str(hg)],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: cycle keys need more bytes ") and err.count("\n") == 1
        assert not hg.exists()

    # K(4, 400) has 25.6e9 proper cycles; K(4, 257) closes at 257**3 >= 2**24
    # cycles a vertex, so its count goes on in float64
    @pytest.mark.parametrize("m, total", [(400, 25_600_000_000), (257, 4_362_470_401)])
    def test_complete_k4_totals(self, capsys, m, total):
        argv = ["enumerate", "--k", "4", "--m", str(m), "--p", "1", "--seed", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(stdout)["results"]["total_cycles"] == total == m**4

    def test_s4_export_holds_each_cycle_once_in_part_order(self, tmp_path, capsys):
        # S4's store is flat: the file holds total_cycles rows, each one vertex
        # per part in part order, and their keys are strictly ascending
        hg = tmp_path / "s4h.json"
        code, stdout, err = run_cli(["enumerate", *_S4, "--export-hypergraph", str(hg)], capsys)
        assert code == 0, err
        rows = np.array(json.loads(hg.read_text())["edges"], dtype=np.int64)
        total = json.loads(stdout)["results"]["total_cycles"]
        assert rows.shape == (total, 4) and total == 4019
        assert (rows // 40 == np.arange(4)).all()
        keys = encode_keys(list((rows % 40).T), 40)
        assert (keys[1:] > keys[:-1]).all()

    def test_counts_beyond_int64(self, capsys):
        # each vertex lies on 1449**5 < 2**53 cycles, the total exceeds 2**63
        argv = ["enumerate", "--k", "6", "--m", "1449", "--p", "1", "--seed", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(stdout)["results"]["total_cycles"] == 1449**6

    def test_count_beyond_exact_float64_exit_1(self, capsys):
        # each vertex lies on 64**9 = 2**54 cycles
        argv = ["enumerate", "--k", "10", "--m", "64", "--p", "1", "--seed", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: exact float64 ") and err.count("\n") == 1
        assert "cap 9007199254740992)" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 3, "m": -1, "edges": []}',
            '{"k": 3, "m": 2}',
            '{"k": 3, "m": 2, "edges": [[0, "a"]]}',
            "[1, 2]",
            "not json",
            '{"k": 3, "m": 2, "edges": [[0, 2, 5]]}',
            '{"k": 3, "m": 2, "edges": [[0, 2.5]]}',
            '{"k": 3, "m": 2.5, "edges": []}',
            '{"k": 3.0, "m": 2, "edges": []}',
            '{"k": 3, "m": 2, "edges": [[true, 2]]}',
            '{"k": 3, "m": 2, "edges": [[2, false]]}',
            '{"k": 3, "m": 2, "edges": [[1.0, 2]]}',
        ],
        ids=["negative-m", "no-edges", "string-vertex", "list", "not-json", "triple",
             "float-vertex", "fractional-m", "float-k", "true-vertex", "false-vertex",
             "integral-float-vertex"],
    )
    def test_malformed_graph_file_exit_1(self, tmp_path, capsys, text):
        gfile = tmp_path / "g.json"
        gfile.write_text(text)
        code, stdout, err = run_cli(["enumerate", "--graph", str(gfile)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: graph: ") and err.count("\n") == 1


class TestColor:
    def test_round_robin_file(self, tmp_path, capsys):
        out = tmp_path / "col.json"
        code, stdout, _ = run_cli(
            ["color", "--k", "3", "--m", "2", "--p", "1", "--seed", "0",
             "--r", "2", "--coloring", "round_robin", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        validate_document(doc, "coloring-v1")
        assert doc["colors"] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert json.loads(stdout)["results"]["color_counts"] == [4, 4]

    def test_coloring_file_round_trip(self, tmp_path, capsys):
        # color takes the greedy's --coloring, so a file is read, tallied and written back
        graph, first, second = (tmp_path / name for name in ("g.json", "c1.json", "c2.json"))
        run_cli(["generate", "--k", "3", "--m", "8", "--p", "0.5", "--seed", "3",
                 "--out", str(graph)], capsys)
        base = ["color", "--graph", str(graph), "--r", "3"]
        code, drawn, err = run_cli([*base, "--coloring-seed", "5", "--out", str(first)], capsys)
        assert code == 0, err
        code, read, err = run_cli([*base, "--coloring", f"@{first}", "--out", str(second)], capsys)
        assert code == 0, err
        assert second.read_bytes() == first.read_bytes()
        counts = json.loads(read)["results"]["color_counts"]
        assert counts == json.loads(drawn)["results"]["color_counts"] and sum(counts) > 0

    def test_round_robin_counts_on_s4(self, capsys):
        # built in uint8 and tallied a chunk at a time
        argv = ["color", *_S4, "--r", "3", "--coloring", "round_robin"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0, err
        res = json.loads(stdout)["results"]
        assert res["color_counts"] == [1340, 1340, 1339] and res["hyperedges"] == 4019

    def test_graph_coloring_and_hypergraph_files_are_read_back(self, tmp_path, capsys):
        # color reads its own coloring file back and writes the same bytes, the
        # greedy loads the graph and the coloring, and the exported hypergraph
        # holds one row per counted proper cycle
        names = ("g.json", "c1.json", "c2.json", "h.json")
        graph, first, second, hg = (tmp_path / name for name in names)
        code, _, err = run_cli(["generate", "--k", "3", "--m", "60", "--p", "0.5", "--seed", "1",
                                "--out", str(graph)], capsys)
        assert code == 0, err
        base = ["color", "--graph", str(graph), "--r", "2"]
        code, _, err = run_cli([*base, "--coloring", "vertex_cut", "--out", str(first)], capsys)
        assert code == 0, err
        code, _, err = run_cli([*base, "--coloring", f"@{first}", "--out", str(second)], capsys)
        assert code == 0, err
        assert second.read_bytes() == first.read_bytes()
        code, stdout, err = run_cli(["greedy", "--graph", str(graph), "--r", "2", "--n", "8",
                                     "--coloring", f"@{first}"], capsys)
        assert code == 0, err
        assert json.loads(stdout)["results"]["outcome"]["kind"] in ("path", "certificate")
        code, stdout, err = run_cli(["enumerate", "--graph", str(graph),
                                     "--export-hypergraph", str(hg)], capsys)
        assert code == 0, err
        edges = json.loads(hg.read_text())["edges"]
        assert len(edges) == json.loads(stdout)["results"]["total_cycles"] > 0

    def test_seeded_files_are_pinned(self, tmp_path, capsys):
        # the graph and random-coloring streams, pinned byte for byte: a change of
        # stream constructor or of numpy's Philox output fails here
        graph, colors = tmp_path / "g.json", tmp_path / "c.json"
        code, _, err = run_cli(["generate", "--k", "3", "--m", "60", "--p", "0.5", "--seed", "1",
                                "--out", str(graph)], capsys)
        assert code == 0, err
        code, _, err = run_cli(["color", "--graph", str(graph), "--r", "2", "--coloring", "random",
                                "--coloring-seed", "5", "--out", str(colors)], capsys)
        assert code == 0, err
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (graph, colors)] == [
            "3236f37503d7513b818ad2b3f4acf856cf90ead3db69b263f6776e7f78b4ad57",
            "1935ec54d1ce4de2e8260a5b8734998701e313e94060b4c82c98ce85fcabd3e0",
        ]


class TestGreedy:
    ARGS = ["greedy", "--k", "3", "--r", "2", "--n", "12", "--m", "60",
            "--p", "0.35", "--seed", "7", "--coloring", "random"]

    def test_greedy_colors_beyond_physical_memory_exit_1(self, capsys, monkeypatch):
        # the complete K(3, 200) host's graph arrays, float32 blocks (480,000
        # bytes) and rows store (640,008 bytes) fit in 999,999 bytes; the bit
        # plane of its 8,000,000 colors (1,000,000 bytes) does not
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 999_999}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = ["greedy", "--k", "3", "--m", "200", "--p", "1", "--seed", "1", "--r", "2",
                "--n", "10", "--coloring", "random", "--coloring-seed", "1"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: colors need more bytes ") and err.count("\n") == 1
        assert err.endswith("(required 1000000, cap 999999)\n")

    def test_runs_and_reports(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, _ = run_cli(self.ARGS + ["--report", str(rep)], capsys)
        assert code == 0
        doc = json.loads(rep.read_text())
        validate_document(doc, "report-v1")
        outcome = doc["results"]["outcome"]
        assert outcome["kind"] in ("path", "certificate")
        if outcome["kind"] == "certificate":
            assert outcome["audit"] is not None
        else:
            assert len(outcome["vertices"]) >= 12

    def test_byte_identical_rerun(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        run_cli(self.ARGS + ["--report", str(rep)], capsys)
        first = rep.read_text()
        run_cli(self.ARGS + ["--report", str(rep)], capsys)
        assert strip_timestamp(first) == strip_timestamp(rep.read_text())

    def test_coloring_file_input(self, tmp_path, capsys):
        col = tmp_path / "col.json"
        run_cli(
            ["color", "--k", "3", "--m", "2", "--p", "1", "--seed", "0", "--r", "2",
             "--coloring", "round_robin", "--out", str(col)],
            capsys,
        )
        code, stdout, _ = run_cli(
            ["greedy", "--k", "3", "--m", "2", "--p", "1", "--seed", "0", "--r", "2",
             "--n", "3", "--coloring", f"@{col}"],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["results"]["outcome"]["kind"] == "path"

    def test_bad_coloring_file_exit_1(self, tmp_path, capsys):
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"r": 2, "colors": [0, 1, 300, 0, 1, 0, 1, 0]}))
        code, _, err = run_cli(
            ["greedy", "--k", "3", "--m", "2", "--p", "1", "--seed", "0", "--r", "2",
             "--n", "3", "--coloring", f"@{col}"],
            capsys,
        )
        assert code == 1 and err.startswith("error: coloring: ")

    @pytest.mark.parametrize(
        "r_value, r_flag", [(2.5, "2"), (3.0, "3"), (True, "2")], ids=["fraction", "float", "bool"]
    )
    def test_coloring_file_r_must_be_integer(self, tmp_path, capsys, r_value, r_flag):
        # k=3, m=4, p=1 has 64 hyperedges; a float or bool r is refused, not cast
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"r": r_value, "colors": [0, 1] * 32}))
        code, stdout, err = run_cli(
            ["greedy", "--k", "3", "--m", "4", "--p", "1", "--seed", "0", "--r", r_flag,
             "--n", "6", "--coloring", f"@{col}"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: coloring: ") and err.count("\n") == 1
        assert f"r: must be an integer, got {r_value!r}" in err

    def test_explicit_color_flag(self, capsys):
        # a tie of two colors, and vertex_cut's strict minority of three
        for host in (["--k", "3", "--m", "4", "--p", "1", "--seed", "0", "--r", "2", "--n", "4",
                      "--coloring", "round_robin"],
                     ["--k", "3", "--m", "60", "--p", "0.1", "--seed", "1", "--r", "3", "--n", "8",
                      "--coloring", "vertex_cut"]):
            code, stdout, err = run_cli(["greedy", *host, "--color", "1"], capsys)
            assert code == 0, err
            res = json.loads(stdout)["results"]
            assert res["working_color"] == 1
        assert res["majority_color"] != 1

    def test_s4_certificate_audit_matches_recounts(self, capsys):
        # each of S4's 150 exhausted rounds keeps exactly n = 12 trash rows and
        # a path snapshot shorter than n, and check (d) holds
        code, stdout, err = run_cli(["greedy", *_S4, "--r", "2", "--n", "12", "--coloring",
                                     "random", "--coloring-seed", "7"], capsys)
        assert code == 0, err
        outcome = json.loads(stdout)["results"]["outcome"]
        assert outcome["kind"] == "certificate" and len(outcome["rounds"]) == 150
        assert all(len(r["trash"]) == 12 and len(r["path_snapshot"]) < 12
                   for r in outcome["rounds"])
        assert outcome["audit"]["extension_budget_ok"]
        # each round's grouped family ids (int64) equal the union of its rows'
        # extension ids, and the report's audit rounds equal recounts that
        # share no code with the audit's family counter: a round's family
        # count is its ids' number, and its restricted count decodes each
        # row's extension ids and keeps those whose closer lies on the path
        # snapshot or in the trash
        h = build_hypergraph(random_graph(4, 40, 0.2, 7))
        cert = run_outer(h, random_coloring(h, 2, 7), 12)
        audits = outcome["audit"]["rounds"]
        assert h.layout == "flat" and len(cert.rounds) == len(audits) == 150
        for rec, audit in zip(cert.rounds, audits):
            ids = h.family_ids(rec.trash)
            per_row = [h.extension_ids(row) for row in rec.trash.rows.tolist()]
            assert ids.dtype == np.int64
            assert np.array_equal(np.sort(ids), np.sort(np.concatenate(per_row)))
            assert audit["family_extensions"] == ids.size
            allowed = set(rec.path_snapshot) | set(rec.trash.rows.ravel().tolist())
            restricted = 0
            for row, row_ids in zip(rec.trash.rows.tolist(), per_row):
                for edge in h.vertex_rows(row_ids).tolist():
                    (closer,) = set(edge) - set(row)
                    restricted += closer in allowed
            assert audit["restricted_extensions"] == restricted

    def test_s4_working_color_2_of_4(self, capsys):
        # every read of color 2 ANDs bit plane 0 inverted and plane 1 as is
        code, stdout, err = run_cli(["greedy", *_S4, "--r", "4", "--n", "12", "--coloring",
                                     "random", "--coloring-seed", "7", "--color", "2"], capsys)
        assert code == 0, err
        outcome = json.loads(stdout)["results"]["outcome"]
        assert outcome["kind"] == "certificate" and outcome["color"] == 2
        assert len(outcome["rounds"]) == 83

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["greedy", "--n", "2"], "error: n: must be >= k = 3, got 2\n"),
            (["greedy", "--n", "8", "--r", "300"], "error: r: must lie in 2..256, got 300\n"),
            (["greedy", "--n", "8", "--color", "7"], "error: color: must be in 0..1, got 7\n"),
            (["color", "--r", "300"], "error: r: must lie in 2..256, got 300\n"),
            (["oracle", "--check", "tight-path", "--n", "2"],
             "error: n: must be >= k = 3, got 2\n"),
            (["oracle", "--check", "arrow", "--n", "4", "--r", "1"],
             "error: r: must lie in 2..256, got 1\n"),
            (["oracle", "--check", "tight-path", "--n", "4", "--coloring", "random",
              "--color", "7"], "error: color: must be in 0..1, got 7\n"),
            (["greedy", "--n", "8", "--coloring", "bogus"],
             "error: coloring: unknown strategy 'bogus'\n"),
            (["greedy", "--n", "8", "--coloring", "@missing.json"],
             "error: coloring: cannot read coloring file missing.json: "
             "[Errno 2] No such file or directory: 'missing.json'\n"),
        ],
        ids=["greedy-n2", "greedy-r300", "greedy-color7", "color-r300", "oracle-n2",
             "arrow-r1", "oracle-color7", "greedy-bogus", "greedy-missing-file"],
    )
    def test_bad_numbers_are_refused_before_enumerating(self, monkeypatch, tmp_path, capsys,
                                                        argv, line):
        # enumeration dominates a run's memory, so the run's own numbers go first
        def enumerate_too_soon(g):
            raise AssertionError("build_hypergraph ran before the run's numbers were checked")

        monkeypatch.setattr(cli, "build_hypergraph", enumerate_too_soon)
        monkeypatch.chdir(tmp_path)  # where missing.json is missing
        mode, *extra = argv
        code, stdout, err = run_cli([mode, *_TINY, "--r", "2", *extra], capsys)
        assert code == 1 and stdout == ""
        assert err == line

    @pytest.mark.parametrize(
        "colors, m", [([[0, 1, 0, 1], [1, 0, 1, 0]], "2"), (0, "1")], ids=["nested", "scalar"]
    )
    @pytest.mark.parametrize("mode", ["greedy", "oracle"])
    def test_coloring_file_must_be_flat(self, tmp_path, capsys, mode, colors, m):
        # m = 2 has 8 hyperedges and m = 1 has one: the sizes agree, the shapes do not
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"r": 2, "colors": colors}))
        argv = [mode, "--k", "3", "--m", m, "--p", "1", "--seed", "0", "--r", "2", "--n", "3",
                "--coloring", f"@{col}"]
        if mode == "oracle":
            argv += ["--check", "tight-path", "--color", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: coloring: cannot read coloring file {col}: colors: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("pin", PINNED, ids=[p["name"] for p in PINNED])
    def test_pinned_report(self, capsys, pin):
        # config and results are pinned byte for byte; a change that alters
        # them on purpose regenerates tests/data/pinned_greedy_reports.json
        code, stdout, err = run_cli(pin["argv"], capsys)
        assert code == 0, err
        doc = json.loads(stdout)
        assert (doc["config"], doc["results"]) == (pin["config"], pin["results"])

    @pytest.mark.parametrize("pin", DIGESTS, ids=[p["name"] for p in DIGESTS])
    def test_pinned_digest(self, capsys, pin):
        # a restart-heavy certificate, too large to pin in full: its round
        # count and the sha256 of its canonical results JSON.  At least 4096
        # hyperedges, so the start-edge scan runs past its first chunks.
        code, stdout, err = run_cli(pin["argv"], capsys)
        assert code == 0, err
        res = json.loads(stdout)["results"]
        assert res["total_cycles"] == pin["total_cycles"] >= 4096
        assert len(res["outcome"]["rounds"]) == pin["rounds"] >= 50
        canon = json.dumps(res, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == pin["results_sha256"]


class TestVerify:
    @pytest.mark.parametrize("pin", VERIFY_DIGESTS, ids=[p["name"] for p in VERIFY_DIGESTS])
    def test_pinned_digest(self, tmp_path, monkeypatch, capsys, pin):
        # fixed-seed property (i) and (ii) runs at k = 3 (m = 300) and k = 4:
        # the sha256 of the report, metadata (timestamp and library version)
        # set aside, and of the trials CSV, written under a relative path so
        # that the config echo does not depend on the directory
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(pin["argv"], capsys)
        assert code == pin["exit_code"], err
        doc = json.loads(stdout)
        doc.pop("metadata")
        assert hashlib.sha256(canonical_json(doc).encode()).hexdigest() == pin["report_sha256"]
        csv_bytes = (tmp_path / "trials.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == pin["trials_csv_sha256"]

    def test_property_i_report(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        csv_path = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            ["verify", "--property", "i", "--k", "3", "--m", "30", "--p", "0.4",
             "--seed", "3", "--r", "2", "--n", "4", "--trials", "10",
             "--trial-seed", "5", "--report", str(rep), "--emit-trials", str(csv_path)],
            capsys,
        )
        doc = json.loads(rep.read_text())
        validate_document(doc, "report-v1")
        res = doc["results"]
        assert res["trials"] == 10
        assert res["violations"] + res["passes"] + res["skips"] == 10
        assert code == (2 if res["violations"] else 0)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,statistic,value,expectation,ratio"
        assert len(lines) == 1 + res["trials"] - res["skips"]

    # property (i) samples families and sets, and 5 of these 10 trials
    # violate; the k = 4 property (ii) run takes the meeting chain through a
    # middle block, and 1 of its 4 trials violates
    @pytest.mark.parametrize(
        "argv, trials",
        [
            (["--property", "i", "--k", "3", "--m", "60", "--p", "0.3", "--seed", "1",
              "--n", "6", "--trials", "10"], 10),
            (["--property", "ii", "--k", "4", "--m", "40", "--p", "0.5", "--seed", "1",
              "--n", "3", "--trials", "4"], 4),
        ],
        ids=["i-k3", "ii-k4"],
    )
    def test_results_account_for_every_trial(self, capsys, argv, trials):
        code, stdout, err = run_cli(["verify", *argv, "--r", "2"], capsys)
        res = json.loads(stdout)["results"]
        assert res["trials"] == trials == res["passes"] + res["violations"] + res["skips"]
        assert code == (2 if res["violations"] else 0), err

    def test_property_ii_on_the_float64_path(self, capsys):
        # K(4, 257) closes at 257**3 >= 2**24 cycles a vertex: every chain of
        # the per-vertex count and of both trials' meeting counts goes on in
        # float64, and both trials pass
        code, stdout, err = run_cli(
            ["verify", "--property", "ii", "--k", "4", "--m", "257", "--p", "1", "--seed", "0",
             "--r", "2", "--n", "3", "--trials", "2"],
            capsys,
        )
        assert code == 0, err
        res = json.loads(stdout)["results"]
        assert res["passes"] == 2 == res["trials"]

    def test_violations_exit_2(self, capsys):
        # dense tiny instance: property ii always violated
        code, stdout, _ = run_cli(
            ["verify", "--property", "ii", "--k", "3", "--m", "4", "--p", "1",
             "--seed", "0", "--r", "2", "--n", "2", "--trials", "4",
             "--trial-seed", "1"],
            capsys,
        )
        assert code == 2
        assert json.loads(stdout)["results"]["violations"] == 4

    def test_property_iii(self, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--property", "iii", "--k", "3", "--m", "8", "--p", "1",
             "--seed", "0", "--r", "2", "--n", "4"],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["ratio_c"] == pytest.approx((4 / math.log(4)) ** 1.5, rel=1e-12)

    def test_property_iii_total_on_a_drawn_graph(self, capsys):
        # the count on a randomly drawn graph: a change in the graph stream fails here
        code, stdout, err = run_cli(
            ["verify", "--property", "iii", "--canonical", "3", "2", "30", "--m", "60",
             "--seed", "1"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(stdout)["results"]["total_cycles"] == 8324

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--property", "i", "--n", "3", "--trials", "-1"],
             "error: trials: must be >= 0, got -1\n"),
            (["--property", "ii", "--n", "3", "--trials", "2", "--r", "300"],
             "error: r: must lie in 2..256, got 300\n"),
            (["--property", "iii", "--n", "1"],
             "error: n: must be >= 2 for the ln n scaling, got 1\n"),
        ],
        ids=["trials-1", "r300", "iii-n1"],
    )
    def test_bad_verify_numbers_are_refused_before_generating(self, monkeypatch, capsys,
                                                              argv, line):
        # the graph dominates a verify run's memory, so the run's own numbers go first
        def generate_too_soon(params):
            raise AssertionError("generate_random ran before the run's numbers were checked")

        monkeypatch.setattr(cli, "generate_random", generate_too_soon)
        code, stdout, err = run_cli(["verify", *_TINY, "--r", "2", *argv], capsys)
        assert code == 1 and stdout == ""
        assert err == line

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--property", "iii", "--k", "300", "--m", "60", "--p", "0.001",
             "--seed", "0", "--r", "2", "--n", "2"],
            ["concentration", "--statistic", "total_cycles", "--k", "300", "--m", "60",
             "--p", "0.001", "--trials", "1", "--seed", "0"],
        ],
        ids=["verify-iii", "concentration"],
    )
    def test_large_k_float_overflow_refused_before_generating(self, monkeypatch, capsys, argv):
        # c**k = 30**300 and the expectation 60**300 * 0.001**300 leave float64;
        # both depend on the parameters alone
        def generate_too_soon(params):
            raise AssertionError("generate_random ran before the overflow was refused")

        monkeypatch.setattr(cli, "generate_random", generate_too_soon)
        monkeypatch.setattr(verifier, "generate_random", generate_too_soon)
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: k: ") and err.count("\n") == 1

    def test_missing_property_exit_1(self, capsys):
        code, _, err = run_cli(
            ["verify", "--k", "3", "--m", "5", "--p", "0.5", "--seed", "0",
             "--r", "2", "--n", "3", "--trials", "2"],
            capsys,
        )
        assert code == 1 and "property" in err


class TestConcentration:
    def test_report(self, tmp_path, capsys):
        rep = tmp_path / "c.json"
        code, _, _ = run_cli(
            ["concentration", "--statistic", "total_cycles", "--k", "3", "--m", "10",
             "--p", "0.5", "--trials", "8", "--seed", "2", "--report", str(rep)],
            capsys,
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        validate_document(doc, "report-v1")
        assert doc["results"]["trials"] == 8
        assert doc["results"]["expectation"] == pytest.approx(1000 * 0.125)

    def test_emit_trials_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        code, stdout, _ = run_cli(
            ["concentration", "--statistic", "cycles_through_vertex", "--k", "3", "--m", "30",
             "--p", "0.3", "--trials", "4", "--seed", "3", "--emit-trials", str(csv_path)],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["rows"] is None and res["trials_csv"] == str(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,statistic,value,expectation,ratio"
        assert len(lines) == 1 + res["trials"] - res["skips"]

    @pytest.mark.parametrize(
        "statistic, trials",
        [
            ("total_cycles", "2"),
            ("cycles_through_vertex", "2"),
            ("single_path_extensions", "2"),
            ("cycles_through_vertex", "0"),
        ],
        ids=["total", "through-vertex", "extensions", "no-trials"],
    )
    @pytest.mark.parametrize("vertex", ["12", "99", "-1"])
    def test_fixed_vertex_outside_graph_exit_1(self, capsys, statistic, trials, vertex):
        # k*m = 12 vertices; the check runs before any trial, whatever the statistic
        code, stdout, err = run_cli(
            ["concentration", "--statistic", statistic, "--k", "3", "--m", "4", "--p", "1",
             "--trials", trials, "--fixed-vertex", vertex],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: fixed_vertex: ")

    def test_last_vertex_is_a_valid_fixed_vertex(self, capsys):
        code, stdout, _ = run_cli(
            ["concentration", "--statistic", "cycles_through_vertex", "--k", "3", "--m", "4",
             "--p", "1", "--trials", "1", "--fixed-vertex", "11"],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["params"]["fixed_vertex"] == 11
        assert res["mean"] == 16.0  # complete graph: m^(k-1) cycles through each vertex


class TestOracleMode:
    def test_cycles_check(self, capsys):
        code, stdout, _ = run_cli(
            ["oracle", "--check", "cycles", "--k", "3", "--m", "4", "--p", "0.6",
             "--seed", "9"],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["agrees_with_enumeration"] is True

    # flat stores at k = 4 and k = 6 (two and four middle levels), and rows
    # stores at k = 3 (m = 200) and k = 4 (m = 12)
    @pytest.mark.parametrize(
        "k, m, p, layout",
        [(4, 8, 0.5, "flat"), (6, 5, 0.7, "flat"), (3, 200, 0.5, "rows"), (4, 12, 0.9, "rows")],
    )
    def test_cycles_check_in_both_layouts(self, monkeypatch, capsys, k, m, p, layout):
        layouts, build = [], cli.build_hypergraph

        def spy(g):
            h = build(g)
            layouts.append(h.layout)
            return h

        monkeypatch.setattr(cli, "build_hypergraph", spy)
        code, stdout, err = run_cli(
            ["oracle", "--check", "cycles", "--k", str(k), "--m", str(m), "--p", str(p),
             "--seed", "2"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(stdout)["results"]["agrees_with_enumeration"] is True
        assert layouts == [layout]

    GRAPH = ["--k", "3", "--m", "3", "--p", "1", "--seed", "0"]

    def _coloring_file(self, tmp_path, capsys):
        col = tmp_path / "col.json"
        code, _, _ = run_cli(
            ["color", *self.GRAPH, "--r", "2", "--coloring", "round_robin", "--out", str(col)],
            capsys,
        )
        assert code == 0
        return col

    def test_tight_path_witness_without_coloring(self, capsys):
        code, stdout, err = run_cli(
            ["oracle", "--check", "tight-path", *self.GRAPH, "--n", "6"], capsys
        )
        assert code == 0, err
        res = json.loads(stdout)["results"]
        assert res["verdict"] == "found" and len(res["witness"]) == 6
        h = build_hypergraph(complete_layered(3, 3))
        assert validate_tight_path(h, res["witness"])

    @pytest.mark.parametrize("color", [0, 1])
    def test_tight_path_witness_is_monochromatic(self, tmp_path, capsys, color):
        col = self._coloring_file(tmp_path, capsys)
        code, stdout, err = run_cli(
            ["oracle", "--check", "tight-path", *self.GRAPH, "--n", "4",
             "--coloring", f"@{col}", "--r", "2", "--color", str(color)],
            capsys,
        )
        assert code == 0, err
        res = json.loads(stdout)["results"]
        assert res["verdict"] == "found" and len(res["witness"]) == 4
        h = build_hypergraph(complete_layered(3, 3))
        coloring = Coloring.from_json(json.loads(col.read_text()))
        assert validate_tight_path(h, res["witness"], coloring, color)
        assert not validate_tight_path(h, res["witness"], coloring, 1 - color)

    def test_tight_path_coloring_needs_color(self, tmp_path, capsys):
        col = self._coloring_file(tmp_path, capsys)
        code, stdout, err = run_cli(
            ["oracle", "--check", "tight-path", *self.GRAPH, "--n", "4",
             "--coloring", f"@{col}", "--r", "2"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: color: ") and err.count("\n") == 1

    @pytest.mark.parametrize("color", ["7", "2", "-1"])
    @pytest.mark.parametrize("mode", ["greedy", "oracle"])
    def test_color_out_of_range_exit_1(self, capsys, mode, color):
        # one check of the working color for both modes, in the field form
        argv = [mode, *self.GRAPH, "--n", "4", "--r", "2", "--coloring", "random",
                "--color", color]
        if mode == "oracle":
            argv += ["--check", "tight-path"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: color: must be in 0..1, got {color}\n"

    def test_tight_path_color_needs_coloring(self, capsys):
        # without a coloring the search runs over every hyperedge; a color would mislead
        code, stdout, err = run_cli(
            ["oracle", "--check", "tight-path", *self.GRAPH, "--n", "4", "--color", "0"], capsys
        )
        assert code == 1 and stdout == ""
        assert err == "error: color: needs a coloring\n"

    def test_tight_path_needs_n(self, capsys):
        code, stdout, err = run_cli(["oracle", "--check", "tight-path", *self.GRAPH], capsys)
        assert code == 1 and stdout == ""
        assert err == "error: n: required\n"

    def test_arrow_check(self, capsys):
        code, stdout, _ = run_cli(
            ["oracle", "--check", "arrow", "--k", "3", "--m", "2", "--p", "1",
             "--seed", "0", "--n", "4", "--r", "2"],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["verdict"] is False
        assert res["counterexample"] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_arrow_refusal_counts_hyperedges(self, capsys):
        # K(3, 25) has 15,625 hyperedges; 2**15625 has 4,704 digits
        code, stdout, err = run_cli(
            ["oracle", "--check", "arrow", "--k", "3", "--m", "25", "--p", "1",
             "--seed", "0", "--n", "3", "--r", "2"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == "error: coloring space of 2**hyperedges exceeds cap (required 15625, cap 23)\n"


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 3, "m": 5, "p": 0.0, "seed": 1}))
        out = tmp_path / "g.json"
        code, stdout, _ = run_cli(
            ["generate", "--config", str(cfg), "--m", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["config"]["m"] == 4  # flag beats file
        assert json.loads(out.read_text())["m"] == 4

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(["generate", "--config", str(cfg)], capsys)
        assert code == 1 and "config" in err

    def test_one_graph_source_only(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        run_cli(
            ["generate", "--k", "3", "--m", "2", "--p", "1", "--seed", "0",
             "--out", str(gfile)],
            capsys,
        )
        code, _, err = run_cli(
            ["enumerate", "--graph", str(gfile), "--k", "3", "--m", "2", "--p", "1",
             "--seed", "0"],
            capsys,
        )
        assert code == 1 and "graph" in err

    @pytest.mark.parametrize(
        "mode, doc, field",
        [
            ("generate", {"k": "x"}, "k"),
            ("generate", {"trials": "2"}, "trials"),
            ("generate", {"k": 3, "m": 5, "p": "0.5", "seed": 1}, "p"),
            ("generate", {"k": 3.5, "m": 5, "p": 0.5, "seed": 1}, "k"),
            ("generate", {"canonical": [3, "2", 30], "seed": 1}, "canonical"),
            ("greedy", {"coloring": 5}, "coloring"),
            ("color", {"strategy": 7}, "strategy"),
            ("enumerate", {"export_hypergraph": 3.5}, "export_hypergraph"),
            ("generate", {"report": True}, "report"),
        ],
        ids=["k-string", "trials-string", "p-string", "k-fraction", "canonical-string",
             "coloring-int", "strategy-int", "export-float", "report-bool"],
    )
    def test_non_numeric_config_value_exit_1(self, tmp_path, capsys, mode, doc, field):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run_cli([mode, "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "argv, text, field",
        [
            (["verify", "--property", "i", *_SMALL_NO_P, "--p", "inf"], None, "p"),
            (["verify", "--property", "ii", *_SMALL_NO_P], '{"p": NaN}', "p"),
            (["verify", "--property", "ii", *_SMALL_NO_P], '{"p": Infinity}', "p"),
            (["verify", "--property", "ii", *_SMALL_NO_P], '{"p": -Infinity}', "p"),
            (["generate", "--k", "3", "--m", "4", "--p", "nan", "--seed", "0"], None, "p"),
            (["generate", "--k", "3", "--m", "4", "--p", "1e400", "--seed", "0"], None, "p"),
            (["generate", "--k", "3", "--m", "4", "--seed", "0"], '{"p": 1' + "0" * 400 + "}", "p"),
        ],
        ids=["p-inf-flag", "p-nan-file", "p-infinity-file", "p-minus-infinity-file",
             "p-nan-flag", "p-overflow-flag", "p-400-digits-file"],
    )
    def test_non_finite_number_exit_1(self, tmp_path, capsys, argv, text, field):
        # refused at the boundary, before a report could carry it (or a null for it)
        if text is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(text)
            argv = [*argv, "--config", str(cfg)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {field}: must be a finite number, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["coloring", "coloring_seed", "color"])
    def test_null_config_value_counts_as_unset(self, tmp_path, capsys, key):
        argv = ["greedy", "--k", "3", "--m", "4", "--p", "1", "--seed", "0", "--r", "2", "--n", "3"]
        code, plain, err = run_cli(argv, capsys)
        assert code == 0, err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: None}))
        code, with_null, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == 0, err
        assert strip_timestamp(with_null) == strip_timestamp(plain)

    def test_int_beyond_json_digit_limit_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"seed": ' + "9" * 5000 + "}")
        code, stdout, err = run_cli(["generate", "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: config: ") and err.count("\n") == 1

    def test_every_config_key_has_a_kind(self):
        # each mode's flags are its table row's keys, beside the three every mode has
        parser = build_parser()
        for mode in MODES:
            dests = set(vars(parser.parse_args([mode])))
            assert dests == {*_MODE_FLAGS[mode], "mode", "config", "report"}

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_help_exit_0(self, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            main([mode, "--help"])
        assert exc.value.code == 0
        assert "--report" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, key, value, choices",
        [
            ("verify", "property", "iv", "i, ii, iii"),
            ("oracle", "check", "x", "cycles, tight-path, arrow"),
            ("concentration", "statistic", "x", ", ".join(CONCENTRATION_STATISTICS)),
        ],
        ids=["property", "check", "statistic"],
    )
    def test_out_of_choices_config_value_exit_1(self, tmp_path, capsys, mode, key, value,
                                                choices):
        # refused at the boundary, against the same choices the flag has
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, stdout, err = run_cli([mode, "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {key}: must be one of {choices}, got {value!r}\n"

    @pytest.mark.parametrize(
        "source, value",
        [("flag", -1), ("flag", 2**64), ("file", -1), ("file", 2**64), ("file", True)],
        ids=["flag-negative", "flag-2^64", "file-negative", "file-2^64", "file-bool"],
    )
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["generate", "--k", "3", "--m", "4", "--p", "0.5"], "seed"),
            (["concentration", "--statistic", "total_cycles", "--k", "3", "--m", "4",
              "--p", "0.5", "--trials", "2"], "seed"),
            (["greedy", "--k", "3", "--m", "3", "--p", "1", "--seed", "0", "--n", "4",
              "--r", "2"], "coloring_seed"),
            (["color", "--k", "3", "--m", "3", "--p", "1", "--seed", "0", "--r", "2"],
             "coloring_seed"),
            (["verify", "--property", "i", *_SMALL], "trial_seed"),
        ],
        ids=["generate-seed", "concentration-seed", "greedy-coloring-seed", "color-coloring-seed",
             "verify-trial-seed"],
    )
    def test_bad_seed_exit_1(self, tmp_path, capsys, argv, key, source, value):
        # refused before numpy's SeedSequence could raise on it (or a graph param did)
        if source == "flag":
            argv = [*argv, "--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({key: value}))
            argv = [*argv, "--config", str(cfg)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err == f"error: {key}: must be a 64-bit unsigned integer, got {value!r}\n"

    @pytest.mark.parametrize("key", ["seed", "coloring_seed"])
    def test_largest_seed_accepted(self, capsys, key):
        seeds = {"seed": 0, "coloring_seed": 1, key: 2**64 - 1}
        code, stdout, err = run_cli(
            ["greedy", "--k", "3", "--m", "3", "--p", "1", "--n", "4", "--r", "2",
             "--seed", str(seeds["seed"]), "--coloring-seed", str(seeds["coloring_seed"])],
            capsys,
        )
        assert code == 0, err
        assert json.loads(stdout)["config"][key] == 2**64 - 1

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["verify", "--property", "iii", "--m", "60"], (2, 30)),
            (["greedy", "--m", "40", "--p", "0.2"], (2, 30)),
            (["greedy", "--m", "40", "--p", "0.2", "--r", "3", "--n", "5"], (3, 5)),
        ],
        ids=["verify", "greedy", "explicit-wins"],
    )
    def test_canonical_r_and_n_survive(self, capsys, argv, want):
        code, stdout, err = run_cli(argv + ["--canonical", "3", "2", "30", "--seed", "1"], capsys)
        assert code == 0, err
        config = json.loads(stdout)["config"]
        assert (config["r"], config["n"]) == want  # explicit --r/--n win

    def test_threads_env_does_not_change_report(self, monkeypatch, capsys):
        argv = ["generate", "--k", "3", "--m", "4", "--p", "0.5", "--seed", "0"]
        monkeypatch.delenv("RAMSEY_LAB_THREADS", raising=False)
        code_a, plain, _ = run_cli(argv, capsys)
        monkeypatch.setenv("RAMSEY_LAB_THREADS", "4")
        code_b, with_env, _ = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert strip_timestamp(plain) == strip_timestamp(with_env)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--k", "3", "--m", "100000", "--p", "0.5", "--seed", "0"],
            ["enumerate", "--graph", "{graph}"],
        ],
        ids=["generate", "graph-file"],
    )
    def test_oversized_graph_exit_1(self, tmp_path, capsys, argv):
        gfile = tmp_path / "huge.json"
        gfile.write_text(json.dumps({"k": 3, "m": 1_000_000, "edges": []}))
        code, stdout, err = run_cli([a.format(graph=gfile) for a in argv], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key",
        ["randomize_choices", "threads", "colour", "adversarial", "cycle_cap", "mode", "config"],
    )
    def test_unknown_config_key_exit_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 21}))
        code, stdout, err = run_cli(
            ["greedy", "--config", str(cfg), "--k", "3", "--m", "4", "--p", "1",
             "--seed", "0", "--r", "2", "--n", "3"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err == f"error: {key}: unknown config key\n"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["greedy", *_TINY, "--r", "1", "--n", "4"], "r"),
            (["greedy", *_TINY, "--r", "2", "--n", "0"], "n"),
            (["generate", "--k", "3", "--m", "3", "--p", "1.5", "--seed", "0"], "p"),
            (["generate", "--k", "2", "--m", "3", "--p", "1", "--seed", "0"], "k"),
            (["generate", "--k", "3", "--m", "0", "--p", "1", "--seed", "0"], "m"),
            (["greedy", "--canonical", "2", "2", "30", "--seed", "0"], "k"),
            (["greedy", "--canonical", "3", "1", "30", "--seed", "0"], "r"),
            (["greedy", "--canonical", "3", "2", "2", "--seed", "0"], "n"),
            (["verify", "--property", "i", *_TINY, "--r", "1", "--n", "3", "--trials", "2"], "r"),
            (["verify", "--property", "i", *_TINY, "--r", "2", "--n", "3", "--trials", "-1"],
             "trials"),
            (["verify", "--property", "iii", *_TINY, "--r", "2", "--n", "1"], "n"),
            (["verify", "--property", "iii", *_TINY, "--r", "0", "--n", "3"], "r"),
            (["verify", "--property", "ii", *_TINY, "--r", "300", "--n", "3"], "r"),
            (["color", *_TINY, "--r", "300"], "r"),
            (["oracle", "--check", "arrow", *_TINY, "--r", "1", "--n", "4"], "r"),
            (["oracle", "--check", "tight-path", *_TINY, "--n", "2"], "n"),
            (["concentration", "--statistic", "total_cycles", "--k", "2", "--m", "3",
              "--p", "0.5", "--trials", "2", "--seed", "0"], "k"),
            (["concentration", "--statistic", "total_cycles", "--k", "3", "--m", "3",
              "--p", "2", "--trials", "2", "--seed", "0"], "p"),
            (["concentration", "--statistic", "total_cycles", "--k", "3", "--m", "0",
              "--p", "0.5", "--trials", "2", "--seed", "0"], "m"),
        ],
        ids=["greedy-r1", "greedy-n0", "generate-p1.5", "generate-k2", "generate-m0",
             "canonical-k2", "canonical-r1", "canonical-n2", "verify-i-r1",
             "verify-i-trials-1", "verify-iii-n1", "verify-iii-r0", "verify-ii-r300",
             "color-r300", "arrow-r1", "tight-path-n2", "concentration-k2",
             "concentration-p2", "concentration-m0"],
    )
    def test_bad_parameter_names_its_key(self, capsys, argv, key):
        # a library refusal reaches stderr in the field form, under the flag's config key
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    def test_removed_flag_exit_2(self, capsys):
        # an abbreviation is no flag either: flag names mirror config keys 1:1
        for argv in (
            ["greedy", "--randomize-choices", "21"],
            ["verify", "--no-adversarial"],
            ["verify", "--property", "iii", *_SMALL, "--c-eff", "2"],
            ["enumerate", *_TINY, "--cycle-cap", "10"],
            ["color", "--k", "3", "--m", "3", "--p", "1", "--seed", "0", "--r", "2",
             "--coloring-s", "5"],
            ["color", "--k", "3", "--m", "3", "--p", "1", "--seed", "0", "--r", "2",
             "--strategy", "random"],
            ["concentration", "--statistic", "cycles_through_vertex", "--k", "3", "--m", "4",
             "--p", "0.5", "--trials", "2", "--seed", "0", "--fixed", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_run_api_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            run("fly", {})


class TestReadme:
    def test_cli_examples_parse(self):
        # every command in README's CLI block must still parse
        readme = (ROOT / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        commands = [
            shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ramsey-lab ")
        ]
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

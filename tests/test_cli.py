import json
import math
import re
import shlex
from pathlib import Path

import pytest

from ramsey_lab.cli import _CONFIG_KINDS, MODES, build_parser, main, run
from ramsey_lab.errors import ConfigError
from ramsey_lab.reporting import strip_timestamp, validate_document

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "pinned_greedy_reports.json").read_text())


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

    def test_cap_error(self, capsys):
        code, _, err = run_cli(
            ["enumerate", "--k", "3", "--m", "4", "--p", "1", "--seed", "0",
             "--cycle-cap", "10"],
            capsys,
        )
        assert code == 1
        assert "cap" in err

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
        ],
        ids=["negative-m", "no-edges", "string-vertex", "list", "not-json", "triple",
             "float-vertex", "fractional-m", "float-k"],
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
             "--r", "2", "--strategy", "round_robin", "--out", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        validate_document(doc, "coloring-v1")
        assert doc["colors"] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert json.loads(stdout)["results"]["color_counts"] == [4, 4]


class TestGreedy:
    ARGS = ["greedy", "--k", "3", "--r", "2", "--n", "12", "--m", "60",
            "--p", "0.35", "--seed", "7", "--coloring", "random"]

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
             "--strategy", "round_robin", "--out", str(col)],
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

    def test_explicit_color_flag(self, capsys):
        code, stdout, _ = run_cli(
            ["greedy", "--k", "3", "--m", "4", "--p", "1", "--seed", "0", "--r", "2",
             "--n", "4", "--coloring", "round_robin", "--color", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(stdout)["results"]["working_color"] == 1

    @pytest.mark.parametrize("pin", PINNED, ids=[p["name"] for p in PINNED])
    def test_pinned_report(self, capsys, pin):
        # config and results are pinned byte for byte; a change that alters
        # them on purpose regenerates tests/data/pinned_greedy_reports.json
        code, stdout, err = run_cli(pin["argv"], capsys)
        assert code == 0, err
        doc = json.loads(stdout)
        assert (doc["config"], doc["results"]) == (pin["config"], pin["results"])


class TestVerify:
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
             "--seed", "0", "--r", "2", "--n", "4", "--c-eff", "2"],
            capsys,
        )
        assert code == 0
        res = json.loads(stdout)["results"]
        assert res["ratio_c"] == pytest.approx((4 / math.log(4)) ** 1.5, rel=1e-12)

    @pytest.mark.parametrize("c_eff", ["nan", "inf", "0", "-1"])
    def test_bad_c_eff_exit_1(self, capsys, c_eff):
        code, stdout, err = run_cli(
            ["verify", "--property", "iii", "--k", "3", "--m", "8", "--p", "1",
             "--seed", "0", "--r", "2", "--n", "4", f"--c-eff={c_eff}"],
            capsys,
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error: c_eff: ") and err.count("\n") == 1

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
            ("verify", {"property": "ii", "adversarial": "no"}, "adversarial"),
            ("generate", {"report": True}, "report"),
        ],
        ids=["k-string", "trials-string", "p-string", "k-fraction", "canonical-string",
             "coloring-int", "strategy-int", "export-float", "adversarial-string", "report-bool"],
    )
    def test_non_numeric_config_value_exit_1(self, tmp_path, capsys, mode, doc, field):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run_cli([mode, "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {field}: ")

    def test_every_config_key_has_a_kind(self):
        parser = build_parser()
        keys = set().union(*(vars(parser.parse_args([mode])) for mode in MODES))
        assert set(_CONFIG_KINDS) == keys - {"mode", "config"}

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

    @pytest.mark.parametrize("key", ["randomize_choices", "threads", "colour"])
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

    def test_removed_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["greedy", "--randomize-choices", "21"])
        assert exc.value.code == 2

    def test_run_api_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
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

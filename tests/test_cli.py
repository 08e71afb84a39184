"""CLI surface: JSON output, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

from antiramsey import (
    BoundReport,
    build_pattern,
    oracle,
    parse_coloring,
    serialize_coloring,
)
from antiramsey.cli import main
from antiramsey.graphs import Path
from antiramsey.oracle import RangeReport

import repin
from brute import all_distinct, monochromatic, serialize_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestFormula:
    def test_matching(self, capsys):
        js = run_json(capsys, "formula", "--family", "3P2", "--n", "8")
        assert js["exact"] == 9

    def test_cycle_matching_pair(self, capsys):
        js = run_json(capsys, "formula", "--family", "C4+1P2", "--n", "11")
        assert js["lower"] == "12"
        assert js["upper"] == "70/3"

    def test_short_path(self, capsys):
        js = run_json(capsys, "formula", "--family", "P3", "--n", "3")
        assert js["exact"] == 2

    def test_grid(self, capsys):
        js = run_json(capsys, "formula", "--family", "C3", "--grid", "3..6")
        assert [r["exact"] for r in js] == [3, 4, 5, 6]

    def test_parse_failure_exits_one(self, capsys):
        code, _out, err = run(capsys, "formula", "--family", "XYZ", "--n", "8")
        assert code == 1
        assert err

    def test_unrecognized_family_exits_one(self, capsys):
        code, _out, err = run(capsys, "formula", "--family", "C3+C4", "--n", "12")
        assert code == 1
        assert "family" in err

    def test_uncovered_perfect_matching_exits_one(self, capsys):
        code, _out, err = run(capsys, "formula", "--family", "2P2", "--n", "4")
        assert code == 1
        assert "closed form" in err

    @pytest.mark.parametrize("hosts", [("--n", "5", "--grid", "3..6"), ()],
                             ids=["both", "neither"])
    def test_needs_exactly_one_of_n_and_grid(self, capsys, hosts):
        with pytest.raises(SystemExit) as exc:
            main(["formula", "--family", "C3", *hosts])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""


class TestQcover:
    def test_family(self, capsys):
        assert run_json(capsys, "qcover", "--family", "2P2", "--j", "1")["value"] == 1
        assert run_json(capsys, "qcover", "--family", "C6", "--j", "0")["value"] == 3
        assert run_json(capsys, "qcover", "--family", "P2", "--j", "1")["value"] == 0

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(build_pattern(Path(3))))
        js = run_json(capsys, "qcover", "--graph", str(path), "--j", "1")
        assert js["value"] == 1
        assert js["witness"] == [1]

    def test_malformed_graph_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        code, out, err = run(capsys, "qcover", "--graph", str(path), "--j", "1")
        assert (code, out, err) == (1, "", "error: expected 2 edge lines, found 1\n")


class TestConstruct:
    def test_lemma_mode(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        js = run_json(capsys, "construct", "--mode", "lemma", "--n", "11",
                      "--r1", "1", "--s", "1", "--out", str(out))
        assert js["colors"] == 11
        coloring = parse_coloring(out.read_text())
        assert coloring.num_colors == 11

    def test_clique_mode(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        js = run_json(capsys, "construct", "--mode", "clique", "--n", "10",
                      "--m", "4", "--out", str(out))
        assert js["colors"] == 7

    def test_monochromatic_degenerate(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        js = run_json(capsys, "construct", "--mode", "lemma", "--n", "5",
                      "--r1", "0", "--s", "1", "--out", str(out))
        assert js["colors"] == 1

    def test_missing_mode_args(self, capsys, tmp_path):
        code, _out, err = run(capsys, "construct", "--mode", "lemma", "--n", "5",
                              "--out", str(tmp_path / "c.txt"))
        assert code == 1

    @pytest.mark.parametrize("argv, stray", [
        (("--mode", "lemma", "--n", "5", "--r1", "1", "--s", "2", "--m", "3"), "--m"),
        (("--mode", "clique", "--n", "5", "--m", "3", "--r1", "2"), "--r1"),
        (("--mode", "clique", "--n", "5", "--m", "3", "--s", "2"), "--s"),
    ])
    def test_other_mode_flag(self, capsys, tmp_path, argv, stray):
        out = tmp_path / "c.txt"
        code, stdout, err = run(capsys, "construct", *argv, "--out", str(out))
        assert code == 1
        assert stray in err
        assert stdout == ""
        assert not out.exists()


class TestRainbow:
    def test_none_on_monochromatic(self, capsys, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text(serialize_coloring(monochromatic(5)))
        js = run_json(capsys, "rainbow", "--coloring", str(path), "--family", "2P2")
        assert js == {"found": False, "map": None}

    def test_found_on_all_distinct(self, capsys, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text(serialize_coloring(all_distinct(5)))
        js = run_json(capsys, "rainbow", "--coloring", str(path), "--family", "2P2")
        assert js["found"] is True
        assert sorted(js["map"]) == [0, 1, 2, 3]

    def test_cover_coloring_file_round_trip(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        run_json(capsys, "construct", "--mode", "lemma", "--n", "11",
                 "--r1", "1", "--s", "1", "--out", str(out))
        js = run_json(capsys, "rainbow", "--coloring", str(out), "--family", "2P3")
        assert js["found"] is False

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1 0\n1 0 1\n1 2 0\n", "edge (1,0) colored twice"),
        ("3 2\n0 1 0\n1 1 1\n1 2 0\n", "(1,1) is not an edge of K_3"),
        ("3 2\n0 1 0\n0 2\n1 2 1\n", "bad coloring line '0 2'"),
    ], ids=["duplicate-edge", "loop-edge", "two-fields"])
    def test_bad_coloring_file_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "rainbow", "--coloring", str(path), "--family", "2P2")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_coloring_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, "rainbow", "--coloring", str(path), "--family", "2P2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1 and err.endswith("\n")


class TestOracle:
    def test_known_value(self, capsys):
        js = run_json(capsys, "oracle", "--family", "2P2", "--n", "5", "--no-meta")
        assert js["ar_exact"] == 2
        assert js["conclusive"] is True

    def test_witness_parses(self, capsys):
        js = run_json(capsys, "oracle", "--family", "C3", "--n", "4", "--no-meta")
        coloring = parse_coloring(js["witness"])
        assert coloring.num_colors == js["max_rainbow_free_colors"] == 3

    def test_budget_exhaustion_exits_two(self, capsys):
        code, out, _err = run(capsys, "oracle", "--family", "C3", "--n", "6",
                              "--budget", "100", "--no-meta")
        assert code == 2
        js = json.loads(out)
        assert js["conclusive"] is False
        assert js["ar_exact"] is None

    @pytest.mark.parametrize("n,budget", [("5", "0"), ("5", "-1"), ("8", "-1")],
                             ids=["0", "-1", "-1-above-ceiling"])
    def test_bad_budget_exits_one(self, capsys, n, budget):
        # the budget is checked before the host ceiling, as verify does
        code, out, err = run(capsys, "oracle", "--family", "C3", "--n", n,
                             "--budget", budget)
        assert code == 1
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_budget_help_names_the_default(self, capsys, command):
        # one default budget at every host size
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--budget BUDGET search node budget per host "
                "(default: 30,000,000)") in text

    def test_infeasible_host_exits_two(self, capsys):
        code, _out, err = run(capsys, "oracle", "--family", "C3", "--n", "9")
        assert code == 2
        assert "ceiling" in err

    def test_ceiling_is_the_oracles(self, capsys, monkeypatch):
        # the CLI keeps no copy of the ceiling: lifting it lifts the command
        monkeypatch.setattr(oracle, "HARD_CEILING", 8)
        js = run_json(capsys, "oracle", "--family", "C3", "--n", "8", "--no-meta")
        row = repin.pinned("C3-8")
        assert (js["ar_exact"], js["nodes_explored"]) == (row["ar"], row["nodes"])
        code, out, err = run(capsys, "oracle", "--family", "C3", "--n", "9")
        assert (code, out, err) == (2, "", "n=9 beyond the exhaustive-search ceiling (8)\n")

    def test_no_meta_is_byte_stable(self, capsys):
        _code, first, _ = run(capsys, "oracle", "--family", "C3", "--n", "4", "--no-meta")
        _code, second, _ = run(capsys, "oracle", "--family", "C3", "--n", "4", "--no-meta")
        assert first == second

    def test_meta_field_present_without_flag(self, capsys):
        js = run_json(capsys, "oracle", "--family", "C3", "--n", "4")
        assert "elapsed" in js

    def test_progress_is_json_lines_on_stderr(self, capsys, monkeypatch):
        row = repin.pinned("C3-6")
        argv = ("oracle", "--family", "C3", "--n", "6", "--no-meta")
        _code, quiet, _err = run(capsys, *argv)
        monkeypatch.setattr(oracle, "PROGRESS_INTERVAL", 100)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out == quiet
        lines = [json.loads(line) for line in err.splitlines()]
        # a report each 100 nodes counted, then the final count
        reports = [*range(100, row["nodes"] + 1, 100), row["nodes"]]
        assert [line["nodes"] for line in lines] == reports
        assert lines[-1]["best"] == row["ar"] - 1
        for line in lines:
            assert sorted(line) == ["best", "nodes", "nodes_per_s"]
            assert isinstance(line["nodes_per_s"], int)
            assert line["nodes_per_s"] >= 0


class TestVerify:
    def test_triangle(self, capsys):
        js = run_json(capsys, "verify", "--family", "C3",
                      "--n-from", "3", "--n-to", "5")
        assert js["mismatches"] == []
        assert [r["ar_oracle"] for r in js["rows"]] == [3, 4, 5]

    def test_mismatch_exits_three(self, capsys, monkeypatch):
        def fake_verify_range(spec, n_from, n_to, budget):
            return RangeReport(spec, n_from, n_to, (), (n_from,))

        monkeypatch.setattr("antiramsey.cli.verify_range", fake_verify_range)
        code, out, _err = run(capsys, "verify", "--family", "C3",
                              "--n-from", "4", "--n-to", "4")
        assert code == 3
        assert json.loads(out)["mismatches"] == [4]

    # AR(K4, C3) = 4, so a valid lower bound of 5 or upper bound of 3 is
    # broken by the real oracle run
    @pytest.mark.parametrize("bound,value", [("lower", 5), ("upper", 3)])
    def test_broken_valid_bound_exits_three(self, capsys, monkeypatch,
                                            bound, value):
        monkeypatch.setattr("antiramsey.oracle.ar_family", lambda n, spec:
                            BoundReport(spec, n, **{bound: Fraction(value)},
                                        valid={bound: True}))
        code, out, _err = run(capsys, "verify", "--family", "C3",
                              "--n-from", "4", "--n-to", "4")
        assert code == 3
        js = json.loads(out)
        assert js["mismatches"] == [4]
        assert [r["ar_oracle"] for r in js["rows"]] == [4]

    def test_short_path_on_k4_is_data_not_a_mismatch(self, capsys):
        js = run_json(capsys, "verify", "--family", "P4",
                      "--n-from", "4", "--n-to", "6")
        assert js["mismatches"] == []
        assert [r["ar_oracle"] for r in js["rows"]] == [4, 3, 3]
        assert [r["formula_valid"] for r in js["rows"]] == [False, True, True]

    @pytest.mark.parametrize("argv, status", [
        (("--n-from", "7", "--n-to", "7", "--budget", "1000"), "inconclusive"),
        (("--n-from", "8", "--n-to", "8"), "skipped-infeasible"),
        (("--n-from", "3", "--n-to", "3"), "skipped-small"),
    ])
    def test_unchecked_row_exits_two(self, capsys, argv, status):
        code, out, _err = run(capsys, "verify", "--family", "C4", *argv)
        assert code == 2
        js = json.loads(out)
        assert js["mismatches"] == []
        assert [r["status"] for r in js["rows"]] == [status]

    def test_reversed_range_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "C3",
                             "--n-from", "6", "--n-to", "3")
        assert code == 1
        assert out == "" and "n_from=6" in err

    def test_negative_host_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "C3",
                             "--n-from", "-3", "--n-to", "2")
        assert code == 1
        assert out == "" and "n_from=-3" in err

    def test_skipped_small_exits_zero(self, capsys):
        js = run_json(capsys, "verify", "--family", "C4",
                      "--n-from", "3", "--n-to", "4")
        assert [r["status"] for r in js["rows"]] == ["skipped-small", "ok"]

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_bad_budget_exits_one(self, capsys, budget):
        code, out, err = run(capsys, "verify", "--family", "C3",
                             "--n-from", "3", "--n-to", "5", "--budget", budget)
        assert code == 1
        assert out == ""
        assert "budget" in err


class TestPlumbing:
    def test_stdout_is_single_json_document(self, capsys):
        _code, out, _err = run(capsys, "formula", "--family", "C3", "--n", "5")
        json.loads(out)  # raises if anything extra leaked to stdout

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_grid_exits_one(self, capsys):
        for grid in ("3-6", "9..5"):
            code, out, err = run(capsys, "formula", "--family", "C3", "--grid", grid)
            assert code == 1, grid
            assert out == "" and grid in err

    def test_closed_stdout_exits_141_quietly(self):
        # a reader that stops early, like `| head -c 100`, is no input error.
        # The grid's half megabyte overfills the pipe, so the command is
        # still writing when the pipe closes
        src = str(FilePath(__file__).resolve().parent.parent / "src")
        with subprocess.Popen(
                [sys.executable, "-m", "antiramsey.cli", "formula",
                 "--family", "C3+2P2", "--grid", "12..3000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.read(100).startswith(b'[{"exact": ')
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""


class TestOutputBytes:
    """The exact stdout of a fixed list of invocations, one per report shape."""

    GRID = ["P2", "3P2", "P3", "3P3", "P2+2P3", "P3+3P2", "2P3+2P2", "C5",
            "C3+2P2", "C4+1P2", "P5+2P3", "P6", "P4+2P2", "P6+2P2"]
    ARGVS = [
        *(("formula", "--family", family, "--grid", "11..14") for family in GRID),
        ("qcover", "--family", "P10+6P3+5P2", "--j", "2"),
        ("qcover", "--graph", "p4.txt", "--j", "1"),
        ("oracle", "--family", "C3", "--n", "4", "--no-meta"),
        ("oracle", "--family", "C3", "--n", "6", "--budget", "100", "--no-meta"),
        ("verify", "--family", "C4", "--n-from", "3", "--n-to", "4"),
        ("verify", "--family", "C4", "--n-from", "7", "--n-to", "8",
         "--budget", "1000"),
        ("construct", "--mode", "lemma", "--n", "11", "--r1", "1", "--s", "1",
         "--out", "cover.txt"),
        ("construct", "--mode", "clique", "--n", "10", "--m", "4",
         "--out", "clique.txt"),
        ("rainbow", "--coloring", "cover.txt", "--family", "2P3"),
        ("rainbow", "--coloring", "clique.txt", "--family", "P2+P3"),
    ]

    def test_digest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p4.txt").write_text(serialize_graph(build_pattern(Path(3))))
        outs = []
        for argv in self.ARGVS:
            _code, out, _err = run(capsys, *argv)
            assert out.endswith("}\n") or out.endswith("]\n"), argv
            outs.append(out)
        text = "".join(outs)
        assert '"upper": "70/3"' in text
        for status in ("ok", "skipped-small", "skipped-infeasible", "inconclusive"):
            assert f'"status": "{status}"' in text, status
        assert '"found": true' in text and '"found": false' in text
        assert hashlib.sha256(text.encode()).hexdigest() \
            == "5f0eef394d31a872574b6fbf037f5d2cda54df89943413fdc93765e046e2ce1f"

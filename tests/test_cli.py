"""Command-line surface: subcommands, exit codes, artifacts."""

import json
import os
import subprocess
import sys

import pytest

import alcm
from alcm.cli import main

from conftest import EXAMPLE_GRAPH_TEXT, HYDRO_INDIVIDUALS, HYDRO_TEXT


@pytest.fixture()
def hydro_file(tmp_path):
    p = tmp_path / "hydro.alcm"
    p.write_text(HYDRO_TEXT)
    return str(p)


@pytest.fixture()
def circular_file(tmp_path):
    p = tmp_path / "hydro_circular.alcm"
    p.write_text(HYDRO_TEXT + "tbox { HydrographicObject subclassof River; }")
    return str(p)


class TestCheck:
    def test_consistent(self, hydro_file, capsys):
        assert main(["check", hydro_file]) == 0
        assert capsys.readouterr().out.strip() == "consistent"

    def test_inconsistent_prints_witness_chain(self, circular_file, capsys):
        assert main(["check", circular_file]) == 1
        out = capsys.readouterr().out
        assert "inconsistent" in out
        assert "circularity: river -> river" in out

    def test_missing_file(self, capsys):
        assert main(["check", "nosuch.alcm"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.alcm"
        p.write_text("abox { A(a) }")
        assert main(["check", str(p)]) == 2

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "bad.alcm"
        p.write_text("abox { A(a) }")
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}:1:13: malformed abox entry")

    def test_budget_exhaustion(self, hydro_file):
        assert main(["check", hydro_file, "--budget", "5"]) == 3

    # Input errors are usage errors (2), never "inconsistent" (1).
    def test_non_utf8_file(self, tmp_path, capsys):
        p = tmp_path / "latin1.alcm"
        p.write_bytes(b"abox { A(a); }\xff\n")
        assert main(["check", str(p)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_directory_path(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_deep_nesting(self, tmp_path, capsys):
        p = tmp_path / "deep.alcm"
        p.write_text("abox { " + "(" * 1300 + "A" + ")" * 1300 + "(a); }")
        assert main(["check", str(p)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_moderate_nesting_is_decided(self, tmp_path):
        # 300 levels must stay within what the parser's recursion allows
        p = tmp_path / "nested.alcm"
        p.write_text("abox { " + "(" * 300 + "A" + ")" * 300 + "(a); }")
        assert main(["check", str(p)]) == 0

    def test_budget_below_one_is_a_usage_error(self, hydro_file):
        assert main(["check", hydro_file, "--budget", "-1"]) == 2
        assert main(["check", hydro_file, "--budget", "0"]) == 2
        assert main(["entails", hydro_file, "River(river)", "--budget", "0"]) == 2

    def test_stats_count_built_and_expanded_nodes(self, tmp_path, capsys):
        p = tmp_path / "or.alcm"
        p.write_text("abox { (A or B)(a); }")
        assert main(["check", str(p), "--stats"]) == 0
        out = capsys.readouterr().out
        # the left disjunct closes the marking; the right is built, not expanded
        assert "nodes: 3 built, 2 expanded" in out
        assert "open=1" in out

    def test_stats_count_rule_applications(self, tmp_path, capsys):
        p = tmp_path / "example.alcm"
        p.write_text(EXAMPLE_GRAPH_TEXT)
        assert main(["check", str(p), "--stats"]) == 0
        out = capsys.readouterr().out
        # one count per rule in the fixed order, summing to the 12 expanded
        # nodes of this graph (none of which is an end node); role
        # successors count under the same rules as named individuals
        assert "nodes: 15 built, 12 expanded\n" in out
        assert "kinds: and=4 or=8 end=0 bot=1 open=2\n" in out
        assert ("rules: bot1=1 bot2=0 bot3=0 and'=1 all=0 unfold=2 "
                "eq=1 neq=1 or'=1 close=1 trans'=4\n") in out

    def test_stats_count_backjumps(self, tmp_path, capsys):
        p = tmp_path / "backjump.alcm"
        p.write_text("tbox { A subclassof exists R . B; }"
                     " abox { (A or C)(a); (X0 or Y0)(a); (X1 or Y1)(a);"
                     " (forall R . not B)(a); }")
        assert main(["check", str(p), "--stats"]) == 0
        out = capsys.readouterr().out
        # under A(a), unfolding A subclassof exists R . B gives a dead
        # R-successor whose trans' core {exists R . B(a), forall R . not B(a)}
        # lies in the Abox of the two disjunctions of X and Y above it: both
        # are refuted with their right disjunct unexpanded; the unfold node
        # added exists R . B(a), so the C branch is tried and closes
        assert "nodes: 14 built, 9 expanded\n" in out
        assert "backjumps: 2\n" in out

    def test_oracle_flag(self, hydro_file, circular_file, capsys):
        assert main(["check", hydro_file, "--oracle"]) == 0
        assert main(["check", circular_file, "--oracle"]) == 1

    def test_oracle_budget_bounds_its_steps(self, tmp_path, capsys):
        # --budget counts the oracle's steps under --oracle; without it the
        # oracle keeps its own default
        p = tmp_path / "or.alcm"
        p.write_text("abox { (A or B)(a); }")
        assert main(["check", str(p), "--oracle", "--budget", "1"]) == 3
        assert "step budget (1) exhausted" in capsys.readouterr().err
        assert main(["check", str(p), "--oracle"]) == 0
        assert main(["check", str(p), "--oracle", "--budget", "100"]) == 0

    def test_oracle_refuses_graph_artifacts(self, hydro_file, tmp_path):
        out = str(tmp_path / "t.txt")
        assert main(["check", hydro_file, "--oracle", "--trace", out]) == 2

    def test_oracle_refuses_stats(self, hydro_file, tmp_path, capsys):
        out = str(tmp_path / "t.txt")
        assert main(["check", hydro_file, "--oracle", "--trace", out]) == 2
        trace_err = capsys.readouterr()
        assert main(["check", hydro_file, "--oracle", "--stats"]) == 2
        stats_err = capsys.readouterr()
        assert stats_err.out == "" and stats_err.err == trace_err.err

    def test_model_and_trace_outputs(self, hydro_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.txt"
        assert main(["check", hydro_file, "--model", str(model),
                     "--trace", str(trace), "--stats"]) == 0
        doc = json.loads(model.read_text())
        assert set(doc) == {"domain", "concepts", "roles", "individuals"}
        river = doc["domain"][doc["individuals"]["river"]]
        assert sorted(doc["domain"][i] for i in river) == ["queguay", "santaLucia"]
        lines = trace.read_text().splitlines()
        assert lines[-1] == "verdict consistent"
        assert "nodes:" in capsys.readouterr().out

    def test_usage_error(self):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2


class TestQueries:
    def test_entails(self, hydro_file, capsys):
        assert main(["entails", hydro_file, "River sub not Lake"]) == 0
        assert capsys.readouterr().out.strip() == "entailed"
        assert main(["entails", hydro_file, "Lake(queguay)"]) == 1
        assert main(["entails", hydro_file, "river != lake"]) == 0
        assert main(["entails", hydro_file, "river = lake"]) == 1
        assert main(["entails", hydro_file, "river =m River"]) == 0

    def test_role_query_rejected(self, hydro_file):
        assert main(["entails", hydro_file, "R(a, b)"]) == 2

    def test_unknown_individual(self, hydro_file):
        assert main(["entails", hydro_file, "River(atlantis)"]) == 2

    def test_meta(self, hydro_file):
        assert main(["meta", hydro_file, "river", "River"]) == 0
        assert main(["meta", hydro_file, "queguay", "River"]) == 1

    @pytest.mark.parametrize("name", ["A)", "and", ""])
    def test_meta_rejects_a_bad_concept_name(self, hydro_file, name, capsys):
        # `meta FILE a A` reads the query `a =m A`, so a name the query
        # grammar rejects is the same parse error as under `entails`
        assert main(["entails", hydro_file, f"river =m {name}"]) == 2
        want = capsys.readouterr().err
        assert want.startswith("error: query:1:") and want.count("\n") == 1
        assert main(["meta", hydro_file, "river", name]) == 2
        assert capsys.readouterr().err == want

    def test_meta_is_the_mbox_query(self, hydro_file):
        codes = set()
        for a in HYDRO_INDIVIDUALS:
            for name in ("HydrographicObject", "Lake", "River"):
                code = main(["meta", hydro_file, a, name])
                assert main(["entails", hydro_file, f"{a} =m {name}"]) == code
                codes.add(code)
        assert codes == {0, 1}

    def test_query_budget_exhaustion(self, tmp_path):
        # main runs in this process, and a session may hold the core an
        # earlier test left for this query on the hydrography KB; one more
        # assertion gives a KB no other test asks about
        p = tmp_path / "hydro_plus.alcm"
        p.write_text(HYDRO_TEXT + "abox { River(rioNegro); }")
        assert main(["entails", str(p), "River sub not Lake",
                     "--budget", "5"]) == 3

    def test_metaconcept(self, hydro_file):
        assert main(["metaconcept", hydro_file, "HydrographicObject"]) == 0
        assert main(["metaconcept", hydro_file, "River"]) == 1

    # A malformed query names the query, not the KB file that parsed fine.
    def test_query_parse_error_names_the_query(self, hydro_file, capsys):
        assert main(["entails", hydro_file, "River sub (Lake"]) == 2
        assert capsys.readouterr().err.startswith("error: query:1:16: malformed concept")

    def test_concept_parse_error_names_the_query(self, hydro_file, capsys):
        assert main(["metaconcept", hydro_file, "and"]) == 2
        assert capsys.readouterr().err.startswith("error: query:1:1: keyword 'and'")


def test_traces_are_identical_across_interpreter_runs(hydro_file, tmp_path):
    # the child imports the same alcm package as this process, whether it
    # comes from an installed copy or from a source checkout on PYTHONPATH
    import_path = os.path.dirname(os.path.dirname(alcm.__file__))
    outs = []
    for seed in ("0", "31337"):
        trace = tmp_path / f"trace{seed}.txt"
        subprocess.run(
            [sys.executable, "-m", "alcm.cli", "check", hydro_file,
             "--trace", str(trace)],
            check=True, capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": import_path},
        )
        outs.append(trace.read_bytes())
    assert outs[0] == outs[1]

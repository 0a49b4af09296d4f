from __future__ import annotations

import json
import time

import pytest

from conftest import DATA, GOLDEN, read_golden
from semilat import groups

B2 = str(DATA / "b2.json")
B3 = str(DATA / "b3.json")
N5 = str(DATA / "n5.json")
ANTICHAIN = str(DATA / "antichain2.json")
TWO_TOPS = str(DATA / "two_tops.json")
Z12 = str(DATA / "z12.json")
A4 = str(DATA / "a4.json")
TRIANGLE_EDGES = str(DATA / "triangle.txt")


class TestGoldenFiles:
    """Fixed input -> fixed stdout bytes for every machine-readable path."""

    CASES = [
        ("match_b2.json", ["match", B2, "--chain-a", "0,a,1", "--chain-b", "0,b,1", "--json"], 0),
        ("match_b3_trace.json", ["match", B3, "--chain-a", "000,100,110,111",
                                 "--chain-b", "000,010,110,111", "--trace", "--json"], 0),
        ("validate_b3.json", ["validate", B3, "--json"], 0),
        ("validate_n5.json", ["validate", N5, "--json"], 1),
        ("chains_b3.json", ["chains", B3, "--json"], 0),
        ("project_b2.json", ["project", B2, "--source", "0,a", "--target", "b,1", "--json"], 0),
        ("project_b2_none.json", ["project", B2, "--source", "0,a", "--target", "0,b", "--json"], 0),
        ("verify_b2.json", ["verify", B2, "--all-pairs", "--json"], 0),
        ("composition_z12.json", ["group", "composition", Z12, "--json"], 0),
        ("subgroups_a4.json", ["group", "subgroups", A4, "--json"], 0),
        ("dot_b2.dot", ["export-dot", B2, "--chain-a", "0,a,1",
                        "--chain-b", "0,b,1", "--witnesses"], 0),
    ]

    @pytest.mark.parametrize("golden,argv,expected_code",
                             CASES, ids=[c[0] for c in CASES])
    def test_golden(self, run_cli, golden, argv, expected_code):
        code, out, _ = run_cli(*argv)
        assert code == expected_code
        assert out == read_golden(golden)

    def test_match_b2_values(self):
        # The golden itself carries the hand-checked fixture values.
        payload = json.loads(read_golden("match_b2.json"))
        assert payload["pi"] == [2, 1]
        assert payload["witnesses"] == [["b", "1"], ["a", "1"]]

    def test_match_b3_values(self):
        payload = json.loads(read_golden("match_b3_trace.json"))
        assert payload["pi"] == [2, 1, 3]
        assert payload["witnesses"] == [["010", "110"], ["100", "110"], ["110", "111"]]
        assert payload["trace"][0]["l"] == 1


class TestDeterminism:
    REPEAT_CASES = [
        ["match", B3, "--chain-a", "000,100,110,111",
         "--chain-b", "000,001,011,111", "--trace", "--json"],
        ["validate", B3, "--json"],
        ["chains", B3, "--json"],
        ["verify", B3, "--all-pairs", "--json"],
        ["verify", B3, "--samples", "5", "--seed", "3", "--json"],
        ["project", B3, "--source", "000,100", "--target", "010,110", "--json"],
        ["group", "composition", Z12, "--json"],
        ["export-dot", B3, "--chain-a", "000,100,110,111", "--chain-b",
         "000,001,011,111", "--witnesses"],
    ]

    @pytest.mark.parametrize("argv", REPEAT_CASES, ids=lambda a: a[0] + "-" + a[1].rsplit("/", 1)[-1])
    def test_reruns_are_byte_identical(self, run_cli, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self, run_cli):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_usage_error_missing_file(self, run_cli):
        code, _, err = run_cli("validate", "no-such-file.json")
        assert code == 2
        assert "no-such-file" in err

    def test_usage_error_malformed_json(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        code, _, err = run_cli("validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_usage_error_unknown_element(self, run_cli):
        code, _, err = run_cli("match", B2, "--chain-a", "0,zz,1", "--chain-b", "0,b,1")
        assert code == 2
        assert "zz" in err

    def test_violation_not_semimodular(self, run_cli):
        code, _, err = run_cli("match", N5, "--chain-a", "0,b,1", "--chain-b", "0,b,1")
        assert code == 1
        assert "not semimodular" in err

    def test_violation_not_join_semilattice(self, run_cli):
        for path in (ANTICHAIN, TWO_TOPS):
            code, _, err = run_cli("match", path, "--chain-a", "a", "--chain-b", "b")
            assert code == 1
            assert "join" in err

    def test_project_on_a_poset_without_all_joins(self, run_cli):
        code, out, err = run_cli("project", TWO_TOPS, "--source", "0,a", "--target", "0,b")
        assert (code, out) == (1, "")
        assert err == "error: no common upper bound for (a, b) in 'two_tops'\n"

    def test_violation_non_maximal_chain(self, run_cli):
        code, _, err = run_cli("match", B3, "--chain-a", "000,110,111",
                               "--chain-b", "000,010,110,111")
        assert code == 1
        assert "not maximal" in err

    def test_verify_n5_reports_counterexample(self, run_cli):
        code, out, _ = run_cli("verify", N5, "--all-pairs")
        assert code == 1
        assert "('0', 'b', 'a')" in out

    def test_validate_ok_exit_zero(self, run_cli):
        code, _, _ = run_cli("validate", B3)
        assert code == 0

    def test_validate_violation_exit_one(self, run_cli):
        for path in (N5, ANTICHAIN):
            code, _, _ = run_cli("validate", path)
            assert code == 1

    def test_cover_endpoint_that_is_not_a_name(self, run_cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "p", "elements": ["a", "b"],
                                    "covers": [[["a"], "b"]]}), encoding="utf-8")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: unknown endpoint ['a'] in cover (['a'], b)\n"

    def test_count_chains_of_a_1200_element_chain(self, run_cli, tmp_path):
        names = [str(k) for k in range(1200)]
        path = tmp_path / "c1200.json"
        path.write_text(json.dumps({"name": "C1200", "elements": names,
                                    "covers": [list(e) for e in zip(names, names[1:])]}),
                        encoding="utf-8")
        code, out, err = run_cli("chains", str(path), "--count")
        assert (code, out, err) == (0, "1\n", "")

    @pytest.mark.parametrize("length", [23, 300])
    def test_verify_refuses_long_chains_early(self, run_cli, tmp_path, length):
        path = str(tmp_path / "chain.json")
        assert run_cli("gen", "chainprod", str(length), "-o", path)[0] == 0
        start = time.perf_counter()
        code, out, err = run_cli("verify", path)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: permutation counting is limited to n <= 20\n"

    def test_validate_a_600_element_chain(self, run_cli, tmp_path):
        path = str(tmp_path / "c600.json")
        assert run_cli("gen", "chainprod", "600", "-o", path)[0] == 0
        code, out, err = run_cli("validate", path, "--json")
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert (report["height"], report["join_semilattice"], report["semimodular"]) == \
            (599, True, True)


class TestGen:
    def test_gen_boolean_matches_fixture(self, run_cli, tmp_path):
        out = tmp_path / "b3.json"
        code, _, _ = run_cli("gen", "boolean", "3", "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (DATA / "b3.json").read_bytes()

    def test_gen_families(self, run_cli, tmp_path):
        for argv, elements in (
                (["gen", "chainprod", "3,3", "-o"], 9),
                (["gen", "partition", "3", "-o"], 5),
                (["gen", "counter", "n5", "-o"], 5),
                (["gen", "graphic", TRIANGLE_EDGES, "-o"], 5),
        ):
            out = tmp_path / "out.json"
            code, _, _ = run_cli(*argv, str(out))
            assert code == 0
            assert len(json.loads(out.read_text())["elements"]) == elements

    def test_gen_name_override(self, run_cli, tmp_path):
        out = tmp_path / "named.json"
        code, _, _ = run_cli("gen", "boolean", "2", "-o", str(out), "--name", "diamond")
        assert code == 0
        assert json.loads(out.read_text())["name"] == "diamond"

    def test_gen_bad_params(self, run_cli, tmp_path):
        code, _, _ = run_cli("gen", "boolean", "seven", "-o", str(tmp_path / "x.json"))
        assert code == 2
        code, _, _ = run_cli("gen", "counter", "m3", "-o", str(tmp_path / "x.json"))
        assert code == 2
        code, _, _ = run_cli("gen", "boolean", "9", "-o", str(tmp_path / "x.json"))
        assert code == 2

    def test_chain_product_guard_refuses_before_building(self, run_cli, tmp_path,
                                                          monkeypatch):
        from semilat import Poset

        def build(*args, **kwargs):
            raise AssertionError("poset built")

        monkeypatch.setattr(Poset, "from_cover_list", build)
        out = tmp_path / "c.json"
        code, stdout, err = run_cli("gen", "chainprod", "2001", "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err.endswith("product of size 2001 exceeds the 2000-element guard\n")
        assert err.count("\n") == 1


class TestGroupCommands:
    def test_builtin_roundtrip(self, run_cli, tmp_path):
        out = tmp_path / "q8.json"
        code, _, _ = run_cli("group", "builtin", "Q8", "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["order"] == 8
        code, stdout, _ = run_cli("group", "subgroups", str(out), "--json")
        assert code == 0
        assert json.loads(stdout)["count"] == 6

    def test_subnormal_lattice_output(self, run_cli, tmp_path):
        out = tmp_path / "lat.json"
        code, _, _ = run_cli("group", "subnormal-lattice", A4, "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["elements"]) == 6

    def test_d4_subnormal_lattice_only_dually_semimodular(self, run_cli, tmp_path):
        # D4 is nilpotent, so its subnormal lattice is its whole subgroup
        # lattice: dually semimodular by construction but not semimodular.
        g = tmp_path / "d4.json"
        lat = tmp_path / "lat.json"
        assert run_cli("group", "builtin", "D4", "-o", str(g))[0] == 0
        assert run_cli("group", "subnormal-lattice", str(g), "-o", str(lat))[0] == 0
        assert run_cli("validate", str(lat))[0] == 1

    def test_composition_explicit_series(self, run_cli):
        code, out, _ = run_cli(
            "group", "composition", Z12,
            "--series-a", "0,0.6,0.3.6.9,0.1.2.3.4.5.6.7.8.9.10.11",
            "--series-b", "0,0.4.8,0.2.4.6.8.10,0.1.2.3.4.5.6.7.8.9.10.11",
            "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["pairs"][0]["pi"][2] == 1

    def test_composition_series_builds_the_lattice_once(self, run_cli, monkeypatch):
        calls = []
        original = groups.all_subgroups

        def counting(g):
            calls.append(g.name)
            return original(g)

        monkeypatch.setattr(groups, "all_subgroups", counting)
        code, _, _ = run_cli(
            "group", "composition", Z12,
            "--series-a", "0,0.6,0.3.6.9,0.1.2.3.4.5.6.7.8.9.10.11",
            "--series-b", "0,0.4.8,0.2.4.6.8.10,0.1.2.3.4.5.6.7.8.9.10.11")
        assert code == 0
        assert len(calls) == 1

    def test_composition_series_requires_both(self, run_cli):
        code, _, _ = run_cli("group", "composition", Z12, "--series-a", "0")
        assert code == 2

    def test_oversize_group_is_an_input_error(self, run_cli, tmp_path):
        path = str(tmp_path / "s4z3.json")
        assert run_cli("group", "builtin", "S4xZ3", "-o", path)[0] == 0
        code, out, err = run_cli("group", "subgroups", path)
        assert (code, out) == (2, "")
        assert err == "error: subgroup enumeration is limited to order <= 60\n"

    def test_oversize_table_refused_before_validation(self, run_cli, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "order": 3600, "table": [[0]] * 3600}))
        code, out, err = run_cli("group", "subgroups", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: group tables are limited to order <= 120, got 3600\n"

    @pytest.mark.parametrize("name, order, table, message", [
        ("s", 2, [[0, "1"], ["1", 0]], "table entries must be integers"),
        ("s", 2, [[0, None], [None, 0]], "table entries must be integers"),
        ("s", 2, [0, 1], "table rows must be arrays"),
        (5, 2, [[0, 1], [1, 0]], "field 'name' must be a string"),
        ("s", True, [[0]], "field 'order' must be an integer"),
        ("s", 2.0, [[0, 1], [1, 0]], "field 'order' must be an integer"),
    ], ids=["string-entries", "null-entries", "flat-table", "numeric-name", "boolean-order",
            "float-order"])
    def test_malformed_group_file(self, run_cli, tmp_path, name, order, table, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": name, "order": order, "table": table}),
                        encoding="utf-8")
        code, out, err = run_cli("group", "subgroups", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    def test_oversize_builtin_refused_before_building(self, run_cli, tmp_path):
        out = tmp_path / "big.json"
        start = time.perf_counter()
        code, stdout, err = run_cli("group", "builtin", "Z60xZ60", "-o", str(out))
        assert time.perf_counter() - start < 1
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == "error: group tables are limited to order <= 120, got 3600\n"



class TestExportDot:
    def test_plain_node_and_edge_counts(self, run_cli):
        code, out, _ = run_cli("export-dot", B2)
        assert code == 0
        assert out.count("->") == 4
        assert out.count("rank=same") == 3

    def test_chain_colors(self, run_cli):
        code, out, _ = run_cli("export-dot", B2, "--chain-a", "0,a,1",
                               "--chain-b", "0,b,1")
        assert code == 0
        assert out.count("color=red") == 2
        assert out.count("color=blue") == 2

    def test_shared_edge_two_colors(self, run_cli):
        code, out, _ = run_cli("export-dot", B2, "--chain-a", "0,a,1",
                               "--chain-b", "0,a,1")
        assert code == 0
        assert out.count('color="red:blue"') == 2

    def test_unknown_highlight_element(self, run_cli):
        code, _, _ = run_cli("export-dot", B2, "--chain-a", "0,zz,1")
        assert code == 2

    def test_output_file(self, run_cli, tmp_path):
        target = tmp_path / "b2.dot"
        code, _, _ = run_cli("export-dot", B2, "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")

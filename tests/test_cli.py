from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import semilat
from conftest import DATA, GOLDEN, pair_rows, read_golden
from dot_reference import export_dot_by_name
from semilat import Poset, cli, generators, groups, oracle, poset, semilattice as sl
from semilat.poset import ELEMENT_LIMIT
from strategies import GENERATED, cli_invocations, dot_arguments

B2 = str(DATA / "b2.json")
B3 = str(DATA / "b3.json")
N5 = str(DATA / "n5.json")
GLUED_N5 = str(DATA / "glued_n5.json")
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


class TestLargeOutputPins:
    """SHA-256 of outputs too large for a golden file, frozen from the text
    `json.dumps(..., indent=2, sort_keys=True)` wrote for them; an indentation
    slip deep in the composition pairs changes the digest."""

    @pytest.mark.parametrize("name, digest", [
        ("D4xZ2", "66123229d8c213e1183ecc97a4714a8256ef270809473f85394a2065f76f2ccf"),
        ("Q8xZ2", "8e0e2c788c35a2e8128662e2c8be7dd6a833f1a706b8555ce55a33084d7c0365"),
    ], ids=["D4xZ2", "Q8xZ2"])
    def test_composition_stdout(self, run_cli, tmp_path, name, digest):
        path = str(tmp_path / "g.json")
        assert run_cli("group", "builtin", name, "-o", path)[0] == 0
        code, out, err = run_cli("group", "composition", path, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["group", "builtin", "D4xZ2"],
         "feec6000ae7d85f4b6d8c139d64a7715c2711e07efe99db6a0e14bb9d45ecefc"),
        (["gen", "partition", "5"],
         "541341f2d7bbf25c51478bdeb2c4c388dd363e85d33ad03ebd310db8c555f89c"),
        (["gen", "partition", "6"],
         "92b262f56dc414b3b2e80d26d6f1673b8fdf9b0cf2a525976928e969bfb0bcf2"),
        (["gen", "graphic", "{K5}"],
         "fc0074172c234925b3c2044b6dc3e7731c275cf0e1cbd9d6f22ce6a1dac8900f"),
        (["group", "subnormal-lattice", "{D4xZ2}"],
         "b91116d39c3981d5a02c8a7ab37fbe9bb09e974308be127a78f557db2984d6d2"),
        (["group", "subnormal-lattice", "{Z2xZ2xZ2xZ2}"],
         "b97ba2ff7159a889815497c19ce7cb1144c01fa3a683ef575dbc706fc9afca1d"),
        # Not nilpotent, so some subgroups are left out.
        (["group", "subnormal-lattice", "{S4}"],
         "ce805725700c406c77cba3a2f10b74da222e258f57dfbb49347a5b525f1c90c1"),
        (["group", "subnormal-lattice", "{D12}"],
         "df28a5232487d02b2f2583b1c5d6deeb3b84b42a6d838f3b9ed42d8fb8d7a4d7"),
    ], ids=["builtin-D4xZ2", "gen-partition-5", "gen-partition-6", "gen-graphic-K5",
            "subnormal-lattice-D4xZ2", "subnormal-lattice-Z2xZ2xZ2xZ2",
            "subnormal-lattice-S4", "subnormal-lattice-D12"])
    def test_written_file(self, run_cli, tmp_path, argv, digest):
        # "{K5}" stands for a file with K5's edge list, "{G}" for one with
        # builtin group G's table.
        argv = list(argv)
        for k, arg in enumerate(argv):
            if arg == "{K5}":
                path = tmp_path / "k5.txt"
                path.write_text("".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
                argv[k] = str(path)
            elif arg.startswith("{"):
                argv[k] = str(tmp_path / "g.json")
                assert run_cli("group", "builtin", arg[1:-1], "-o", argv[k])[0] == 0
        out = tmp_path / "out.json"
        assert run_cli(*argv, "-o", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("gen, mode, full, text", [
        (["boolean", "4"], ["--all-pairs"],
         "240913ffa91bdec9dd70b66eff4d365b2c28c61468a612725b26196b24381c82",
         "2f332317b89204cb19f88b01dbe715a1ebe57ff994901171f634ab9ef9eea522"),
        (["boolean", "4"], ["--samples", "300", "--seed", "7"],
         "8613a1fcec7f20424c75f053c0bb821bb55395b1538ce8086e503282b1aefb9a",
         "a120b7daf4e2b20e3f55395eeae8e8f026da78128efc562822e93f47e3fafa9b"),
        (["partition", "4"], ["--all-pairs"],
         "e859299ebc691447d324fb5ae81882a0b0aea3ea4c11941554b00ebc2e9d8fec",
         "af57f7f839a4fddb5ecd67a4477388a8d30106ef8967642f65fef3c3318e7cea"),
        (["partition", "4"], ["--samples", "300", "--seed", "7"],
         "152b74892825f6e5bd296a1e46526c6b1cca0e13b2f284044455e1e84b6fd75a",
         "cfcd6ce70e5935afcb901d602b18a2162068d8b78340fec80aa671f1c6e4f8ac"),
        (["boolean", "5"], ["--all-pairs"],
         "451c56e64fd69ce501b3989897741efe6a8ce365c864ca3b0f08a79063045943",
         "4ffc46ed8d75559000373ad31518ed94b3da2703532fcf22362043d73d76a35f"),
        (["boolean", "5"], ["--samples", "300", "--seed", "7"],
         "db24ae342f82c1301e426e43525330c08f4f594006a19e9b9d800c647937a5c7",
         "e08547df86b12378e52a45f2d7103fcfbcc85a874a00ae230578d74b95f924e6"),
        (["chainprod", "3,3,2"], ["--all-pairs"],
         "9a73dc0f9cb60d7f6b691c92504755b87c1a4b1503c86cffcee588a7e6bb3ae4",
         "53af901df400d3e6017511ecb01a6df008466625e227917896f9c23ec5b2bd19"),
        (["chainprod", "3,3,2"], ["--samples", "300", "--seed", "7"],
         "cb8a0e939c6f430c0658951be542027ef3a8f0e69fe901155bcfb9c706b8a83b",
         "275657b53af727c57ed4b59cfbab908e0de1761f419b5d35e9f24e6129edb427"),
    ], ids=["B4-all", "B4-300", "Pi4-all", "Pi4-300", "B5-all", "B5-300",
            "C3x3x2-all", "C3x3x2-300"])
    def test_verify_stdout(self, run_cli, tmp_path, gen, mode, full, text):
        # `verify --json --full` (B5 all pairs: 14,400 reports, 12.8 MB) and the text output.
        path = str(tmp_path / "p.json")
        assert run_cli("gen", *gen, "-o", path)[0] == 0
        for tail, digest in ((["--json", "--full"], full), ([], text)):
            code, out, err = run_cli("verify", path, *mode, *tail)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, tail

    DOT_CHAINS = {
        "partition-6": ("1|2|3|4|5|6,12|3|4|5|6,123|4|5|6,1234|5|6,12345|6,123456",
                        "1|2|3|4|5|6,1|2|3|4|56,1|2|3|456,1|2|3456,1|23456,123456"),
        "chainprod-4,4,4,4": (
            "0.0.0.0,0.0.0.1,0.0.0.2,0.0.0.3,0.0.1.3,0.0.2.3,0.0.3.3,0.1.3.3,0.2.3.3,0.3.3.3,"
            "1.3.3.3,2.3.3.3,3.3.3.3",
            "0.0.0.0,1.0.0.0,2.0.0.0,3.0.0.0,3.1.0.0,3.2.0.0,3.3.0.0,3.3.1.0,3.3.2.0,3.3.3.0,"
            "3.3.3.1,3.3.3.2,3.3.3.3"),
    }

    @pytest.mark.parametrize("gen, witnesses, plain, bare", [
        ("partition-6", "ee30aaaf86ea9176b5fb37f513b7600039bf103a0205fec5952eb47996dba43d",
         "f9a42450e8f61fa485c6853cca733001794ed48faacdc8fc863679420256ad7c",
         "5da89d36284c6a7b05f6e3d391c8da3a199e2a25ad9ab9721f44d28c512422bb"),
        ("chainprod-4,4,4,4", "a50fbfd37d2e71e4d806c003e3f9446831f7261efd93fe97177ef90b467275aa",
         "f535d8b7b5ac121d5e10500cfa062dd9e6325d2d708eb40605d24a34dce8b230",
         "be2cacdf01841467e14ff5babed421a9e43b99efe0b58d6f06222f5b540a86a5"),
    ], ids=["Pi6", "C4x4x4x4"])
    def test_export_dot_stdout(self, run_cli, tmp_path, gen, witnesses, plain, bare):
        # With both chains and --witnesses, with both chains only, and with no chains.
        path = str(tmp_path / "p.json")
        assert run_cli("gen", *gen.split("-"), "-o", path)[0] == 0
        a, b = self.DOT_CHAINS[gen]
        for tail, digest in ((["--chain-a", a, "--chain-b", b, "--witnesses"], witnesses),
                             (["--chain-a", a, "--chain-b", b], plain), ([], bare)):
            code, out, err = run_cli("export-dot", path, *tail)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, tail


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

    # Each call's defaults differ from the call before it, and a usage error
    # follows successful runs and precedes one.
    PARSER_SEQUENCE = [
        (["chains", B3, "--limit", "1"], 0),
        (["chains", B3], 0),
        (["verify", B3, "--samples", "2", "--seed", "3"], 0),
        (["verify", B3], 0),
        (["verify", B3, "--all-pairs", "--samples", "2"], 2),
        (["chains", B3, "--limit", "1"], 0),
    ]

    def test_reused_parser_answers_like_a_fresh_one(self, run_cli):
        fresh = []
        for argv, _ in self.PARSER_SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(*argv))
        cli._build_parser.cache_clear()
        reused = [run_cli(*argv) for argv, _ in self.PARSER_SEQUENCE]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [code for _, code in self.PARSER_SEQUENCE]
        assert len(reused[1][1].splitlines()) == 6


class TestExitCodes:
    def test_usage_error_unknown_subcommand(self, run_cli, tmp_path):
        for argv in (["frobnicate"], ["gen", "nosuch", "-o", str(tmp_path / "x.json")],
                     ["group", "nosuch"]):
            code, _, _ = run_cli(*argv)
            assert code == 2, argv

    @settings(GENERATED, max_examples=50)
    @given(cli_invocations())
    def test_generated_files_exit_0_1_or_2(self, tmp_path_factory, invocation):
        """Every subcommand that reads a file returns an exit code, and raises
        nothing, on files of the right shape and on broken ones."""
        value, argv = invocation
        folder = tmp_path_factory.getbasetemp()
        path = folder / "input.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        paths = {"FILE": str(path), "OUT": str(folder / "output.json")}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.run([paths.get(a, a) for a in argv]) in (0, 1, 2)

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

    @pytest.mark.parametrize("command", [("validate",), ("group", "subgroups")],
                             ids=["poset", "group"])
    @pytest.mark.parametrize("content, message", [
        (b'{"name": "\xff"}', "not UTF-8 text: invalid start byte at byte 10"),
        (b"[" * 200_000, "JSON nested too deeply to decode"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_undecodable_input(self, run_cli, tmp_path, command, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(*command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("gen", "boolean", "2"),
        ("group", "builtin", "Z4"),
        ("group", "subnormal-lattice", A4),
        ("export-dot", B2),
    ], ids=["gen", "group-builtin", "subnormal-lattice", "export-dot"])
    def test_unwritable_output(self, run_cli, tmp_path, argv):
        target = tmp_path / "no-such-dir" / "out"
        code, out, err = run_cli(*argv, "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_usage_error_unknown_element(self, run_cli):
        code, _, err = run_cli("match", B2, "--chain-a", "0,zz,1", "--chain-b", "0,b,1")
        assert code == 2
        assert "zz" in err

    @pytest.mark.parametrize("argv, code, err", [
        (("match", N5, "--chain-a", "0,zz,1", "--chain-b", "0,b,1"), 2,
         "element 'zz' is not in poset 'n5'"),
        (("match", B3, "--chain-a", "000,100,110,111", "--chain-b", "000,zz,110,111"), 2,
         "element 'zz' is not in poset 'B3'"),
        # The first chain is refused before the second's names are read.
        (("match", B3, "--chain-a", "111,110,100,000", "--chain-b", "000,zz,110,111"), 1,
         "not strictly increasing at (111, 110)"),
        (("export-dot", B2, "--chain-a", "0,a", "--chain-b", "zz"), 2,
         "element 'zz' is not in poset 'b2'"),
        (("project", B2, "--source", "0,a", "--target", "b,zz"), 2,
         "element 'zz' is not in poset 'b2'"),
        (("group", "composition", Z12, "--series-a", "0,0.6,0.3.6.9,0.1.2.3.4.5.6.7.8.9.10.11",
          "--series-b", "0,zz"), 2, "element 'zz' is not in poset 'subnormal(Z12)'"),
        (("group", "composition", Z12, "--series-a", "0,0.2.4.6.8.10",
          "--series-b", "0,zz"), 2, "element 'zz' is not in poset 'subnormal(Z12)'"),
        (("group", "composition", Z12, "--series-a", "0,0.2.4.6.8.10",
          "--series-b", "0,0.6,0.3.6.9,0.1.2.3.4.5.6.7.8.9.10.11"), 1,
         "series ['0', '0.2.4.6.8.10'] is not maximal in 'subnormal(Z12)'"),
    ], ids=["match-n5", "match-second", "match-order-first", "export-dot", "project",
            "series", "series-both-named-first", "series-not-maximal"])
    def test_names_resolved_by_the_library(self, run_cli, argv, code, err):
        assert run_cli(*argv) == (code, "", f"error: {err}\n")

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

    @pytest.mark.parametrize("target, out", [("010,110", "010,110\n"), ("000,001", "none\n")])
    def test_project_text_output(self, run_cli, target, out):
        assert run_cli("project", B3, "--source", "000,100", "--target", target) == (0, out, "")

    def test_project_refusals(self, run_cli):
        assert run_cli("project", B3, "--source", "000,110", "--target", "000,100") == (
            1, "", "error: [000, 110] is not a prime interval of 'B3'\n")
        assert run_cli("project", B3, "--source", "000", "--target", "000,001") == (
            2, "", "error: --source and --target each need exactly two elements\n")

    def test_match_trace_text_frames(self, run_cli):
        code, out, _ = run_cli("match", B3, "--chain-a", "000,100,110,111",
                               "--chain-b", "000,001,011,111", "--trace")
        assert code == 0
        assert out.splitlines()[-2:] == [
            "level 0: l = 2, lifted chain 100,101,111, sigma {2->2, 3->1}",
            "level 1: l = 1, lifted chain 110,111, sigma {2->1}"]

    def test_violation_non_maximal_chain(self, run_cli):
        code, _, err = run_cli("match", B3, "--chain-a", "000,110,111",
                               "--chain-b", "000,010,110,111")
        assert code == 1
        assert "not maximal" in err

    def test_verify_n5_reports_counterexample(self, run_cli):
        code, out, _ = run_cli("verify", N5, "--all-pairs")
        assert code == 1
        assert "('0', 'b', 'a')" in out

    def test_verify_bounded_bowtie_reports_the_missing_join(self, run_cli, tmp_path):
        # 0 < a, b < c, d < 1: a and b have two minimal common upper bounds.
        p = Poset.from_cover_list("bounded-bowtie", "0abcd1", [
            ("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "1"), ("d", "1")])
        message = "not a join semilattice: no join for ('a', 'b')"
        report = semilat.check_theorem(p, ("0", "a", "c", "1"), ("0", "b", "d", "1"))
        assert report.entry("preconditions") == semilat.CheckEntry("preconditions", False, message)
        path = str(tmp_path / "bowtie.json")
        semilat.save_poset(p, path)
        code, out, _ = run_cli("verify", path, "--json")
        payload = json.loads(out)
        assert (code, payload["pairs"], payload["failures"]) == (1, 16, 16)
        assert {r["entries"][0]["detail"] for r in payload["reports"]} == {message}

    def test_verify_glued_n5_fails(self, run_cli):
        # Not semimodular, with maximal chains of lengths 4 and 5.
        assert run_cli("verify", GLUED_N5)[0] == 1
        code, out, _ = run_cli("verify", GLUED_N5, "--json")
        assert code == 1
        assert json.loads(out)["failures"] > 0

    @pytest.mark.parametrize("argv, message", [
        (["verify", B3, "--samples", "0"], "--samples must be at least 1, got 0"),
        (["verify", B3, "--samples", "-3"], "--samples must be at least 1, got -3"),
        (["chains", B3, "--limit", "-2"], "--limit must be at least 0, got -2"),
    ], ids=["samples-zero", "samples-negative", "limit-negative"])
    def test_bad_count_is_an_input_error(self, run_cli, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, option, value", [
        (["verify", B3, "--samples", "\u0663", "--seed", "\u0661"], "--samples", "\u0663"),
        (["verify", B3, "--samples", "3", "--seed", "\u0661"], "--seed", "\u0661"),
        (["chains", B3, "--limit", "\uff12"], "--limit", "\uff12"),
        (["verify", B3, "--samples", "+3"], "--samples", "+3"),
        (["chains", B3, "--limit", " 2"], "--limit", " 2"),
    ], ids=["arabic-indic-samples", "arabic-indic-seed", "fullwidth-limit", "plus", "space"])
    def test_integer_options_are_ascii_digits(self, run_cli, argv, option, value):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f"error: argument {option}: expected an integer in ASCII digits, got {value!r}")

    def test_integer_options_keep_their_ascii_values(self, run_cli):
        # A negative seed is a number, not an option; values read as before.
        code, out, _ = run_cli("verify", B3, "--samples", "3", "--seed", "-3", "--json")
        assert code == 0
        assert (json.loads(out)["seed"], json.loads(out)["pairs"]) == (-3, 3)
        assert run_cli("chains", B3, "--limit", "2")[1].count("\n") == 2

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_seed_past_the_pair_seed_digits_refused(self, run_cli, monkeypatch, fmt, sign):
        # 4,294 nines times 1,000,003 has 4,301 digits, past what `--json`
        # can write, so the seed is refused, in either format, before any
        # chain is drawn; 4,293 nines give pair seeds of 4,300 digits.
        draw = generators._random_chain_rows
        monkeypatch.setattr(generators, "_random_chain_rows", lambda *a: pytest.fail("drawn"))
        code, out, err = run_cli("verify", B3, "--samples", "1", "--seed", sign + "9" * 4294, *fmt)
        assert (code, out) == (2, "")
        assert err == "error: --seed must keep every pair seed within 4300 digits\n"
        monkeypatch.setattr(generators, "_random_chain_rows", draw)
        code, out, _ = run_cli("verify", B3, "--samples", "1", "--seed", sign + "9" * 4293, *fmt)
        assert code == 0 and sign + "9" * 4293 in out

    def test_chains_limit_zero_prints_nothing(self, run_cli):
        assert run_cli("chains", B3, "--limit", "0") == (0, "", "")

    def test_validate_ok_exit_zero(self, run_cli):
        code, _, _ = run_cli("validate", B3)
        assert code == 0

    def test_validate_violation_exit_one(self, run_cli):
        for path in (N5, ANTICHAIN):
            code, _, _ = run_cli("validate", path)
            assert code == 1

    @pytest.mark.parametrize("argv", [["validate", "--json"], ["match", "--json"],
                                      ["export-dot", "--witnesses"],
                                      ["verify", "--samples", "50000"]])
    def test_no_join_table_where_no_oracle_reads_it(self, run_cli, tmp_path, monkeypatch, argv):
        """On C4x4x4x4 (256 elements, a table of 32,896 pairs) the local tests
        and the matcher read their joins off the packed up-sets, and `verify`
        refuses a run past the oracle's budget before it builds the table."""
        path, loaded = str(tmp_path / "c4.json"), []
        assert run_cli("gen", "chainprod", "4,4,4,4", "-o", path)[0] == 0

        def load(path):
            loaded.append(poset.load_poset(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_poset", load)
        pair = [] if argv[0] in ("validate", "verify") else [
            "--chain-a", "0.0.0.0,1.0.0.0,2.0.0.0,3.0.0.0,3.1.0.0,3.2.0.0,3.3.0.0,"
                         "3.3.1.0,3.3.2.0,3.3.3.0,3.3.3.1,3.3.3.2,3.3.3.3",
            "--chain-b", "0.0.0.0,0.0.0.1,0.0.0.2,0.0.0.3,0.0.1.3,0.0.2.3,0.0.3.3,"
                         "0.1.3.3,0.2.3.3,0.3.3.3,1.3.3.3,2.3.3.3,3.3.3.3"]
        code, out, err = run_cli(argv[0], path, *pair, *argv[1:])
        if argv[0] == "verify":
            assert (code, out) == (2, "") and err.rstrip().endswith("exceeded at pair 8138")
        else:
            assert code == 0
        (p,) = loaded
        assert len(p) == 256 and p._cache["semimodular"].holds and "join" not in p._cache

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

    def test_file_guard_refuses_before_building(self, run_cli, tmp_path, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("poset built")

        names = [str(k) for k in range(ELEMENT_LIMIT + 1)]
        path = tmp_path / "c2001.json"
        path.write_text(json.dumps({"name": "C2001", "elements": names,
                                    "covers": [list(e) for e in zip(names, names[1:])]}),
                        encoding="utf-8")
        monkeypatch.setattr(poset, "_reflexive_transitive_closure", build)
        start = time.perf_counter()
        code, out, err = run_cli("validate", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: {path}: posets are limited to 2000 elements, got 2001\n"

    @pytest.mark.parametrize("length", [23, 300])
    def test_verify_decides_long_chains(self, run_cli, tmp_path, length):
        path = str(tmp_path / "chain.json")
        assert run_cli("gen", "chainprod", str(length), "-o", path)[0] == 0
        start = time.perf_counter()
        code, out, err = run_cli("verify", path)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "result: all checks passed"

    def test_oracle_work_limit_refuses_before_any_cell(self, run_cli, tmp_path, monkeypatch):
        def cells(*args, **kwargs):
            raise AssertionError("cell computed")

        # One pair of 699 steps on 700 elements: 699^2 * 700 > 3 * 10^8.
        path = str(tmp_path / "chain.json")
        assert run_cli("gen", "chainprod", "700", "-o", path)[0] == 0
        monkeypatch.setattr(oracle, "_witnesses", cells)
        assert run_cli("verify", path) == (2, "", (
            "error: the oracle is limited to <= 300000000 cell scan steps "
            "(n^2 * |p| summed over the pairs), exceeded at pair 0\n"))

    def test_sampled_verify_refused_before_drawing(self, run_cli, tmp_path, monkeypatch):
        def draw(*args):
            raise AssertionError("chain drawn")

        # 15^2 * 500 scan steps a pair: 300,000,000 // 112,500 = 2,666 pairs fit.
        path = str(tmp_path / "c5554.json")
        assert run_cli("gen", "chainprod", "5,5,5,4", "-o", path)[0] == 0
        monkeypatch.setattr(generators, "random_maximal_chain", draw)
        monkeypatch.setattr(generators, "_random_chain_rows", draw)
        start = time.perf_counter()
        code, out, err = run_cli("verify", path, "--samples", "50000")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", (
            "error: the oracle is limited to <= 300000000 cell scan steps "
            "(n^2 * |p| summed over the pairs), exceeded at pair 2666\n"))

    @pytest.mark.parametrize("make, argv, pairs", [
        (["gen", "boolean", "6"], ["verify", "--all-pairs"], 518_400),
        (["gen", "boolean", "6"], ["verify", "--samples", "100000000"], 100_000_000),
        (["group", "builtin", "Z2xZ2xZ2xZ2xZ2"], ["group", "composition"], 47_682_495),
    ], ids=["all-pairs", "samples", "composition"])
    def test_pair_limit_refuses_before_enumerating(self, run_cli, tmp_path, make, argv, pairs):
        path = str(tmp_path / "input.json")
        assert run_cli(*make, "-o", path)[0] == 0
        start = time.perf_counter()
        code, out, err = run_cli(*argv, path)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: matching is limited to <= 50000 chain pairs, got {pairs}\n"

    @pytest.mark.parametrize("argv, pairs", [
        (["verify", B2, "--all-pairs"], 4),
        (["group", "composition", Z12], 6),
    ], ids=["verify", "composition"])
    def test_pair_limit_boundary(self, run_cli, monkeypatch, argv, pairs):
        monkeypatch.setattr(sl, "PAIR_LIMIT", pairs)
        assert run_cli(*argv)[0] == 0
        monkeypatch.setattr(sl, "PAIR_LIMIT", pairs - 1)
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: matching is limited to <= {pairs - 1} chain pairs, got {pairs}\n"

    def test_chain_limit_refuses_before_the_walk(self, run_cli, tmp_path):
        path = str(tmp_path / "input.json")
        assert run_cli("gen", "chainprod", "2,2,2,2,2,2,2,3", "-o", path)[0] == 0
        refused = (2, "", "error: listing is limited to <= 100000 maximal chains, got 181440\n")
        start = time.perf_counter()
        for argv in ([], ["--json"], ["--limit", "100001"]):
            assert run_cli("chains", path, *argv) == refused
        assert time.perf_counter() - start < 1
        assert run_cli("chains", path, "--count") == (0, "181440\n", "")
        code, out, _ = run_cli("chains", path, "--limit", "3")
        assert (code, len(out.splitlines())) == (0, 3)

    def test_chain_limit_boundary(self, run_cli, monkeypatch):
        monkeypatch.setattr(sl, "CHAIN_LIMIT", 6)   # B3 has 6 maximal chains
        assert run_cli("chains", B3)[0] == 0
        monkeypatch.setattr(sl, "CHAIN_LIMIT", 5)
        assert run_cli("chains", B3) == (
            2, "", "error: listing is limited to <= 5 maximal chains, got 6\n")
        assert run_cli("chains", B3, "--limit", "5")[0] == 0

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

    def test_gen_name_override(self, run_cli, tmp_path, monkeypatch):
        plain, named = tmp_path / "plain.json", tmp_path / "named.json"
        assert run_cli("gen", "boolean", "2", "-o", str(plain))[0] == 0
        builds = []
        build = Poset.from_cover_list

        def counted(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(Poset, "from_cover_list", counted)
        code, stdout, _ = run_cli("gen", "boolean", "2", "-o", str(named), "--name", "diamond")
        assert (code, stdout) == (0, f"wrote 'diamond' (4 elements) to {named}\n")
        assert builds == ["B2"]
        assert named.read_text() == plain.read_text().replace('"name": "B2"', '"name": "diamond"')
        assert json.loads(named.read_text())["name"] == "diamond"

    def test_gen_bad_params(self, run_cli, tmp_path):
        code, _, _ = run_cli("gen", "boolean", "seven", "-o", str(tmp_path / "x.json"))
        assert code == 2
        code, _, _ = run_cli("gen", "counter", "m3", "-o", str(tmp_path / "x.json"))
        assert code == 2
        code, _, _ = run_cli("gen", "boolean", "11", "-o", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("family, param, message", [
        ("boolean", "٣", "expected an integer in ASCII digits, got '٣'"),
        ("boolean", "+3", "expected an integer in ASCII digits, got '+3'"),
        ("partition", "3 ", "expected an integer in ASCII digits, got '3 '"),
        ("chainprod", "2,,3", "expected an integer in ASCII digits, got ''"),
        ("boolean", "9" * 5000, "integers are limited to 4300 digits, got 5000"),
        ("chainprod", "2," + "9" * 5000, "integers are limited to 4300 digits, got 5000"),
        ("boolean", "-3", "boolean lattice needs n >= 0, got -3"),
    ], ids=["arabic-indic", "plus", "space", "empty", "5000-digits", "5000-digit-factor", "minus"])
    def test_numerals_are_ascii_digits(self, run_cli, tmp_path, family, param, message):
        out = tmp_path / "g.json"
        code, stdout, err = run_cli("gen", family, param, "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == f"error: bad parameters for family {family!r}: {message}\n"

    def test_edge_list_vertices_are_ascii_digits(self, run_cli, tmp_path):
        source, out = tmp_path / "g.txt", tmp_path / "g.json"
        source.write_text("0 1\n1 +2\n", encoding="utf-8")   # int() reads "+2" as 2
        assert run_cli("gen", "graphic", str(source), "-o", str(out)) == (
            2, "", "error: bad parameters for family 'graphic': line 2: vertices must be integers\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, params", [("boolean", []), ("boolean", ["2", "3"]),
                                                ("counter", ["n5", "n5"])])
    def test_gen_takes_exactly_one_parameter(self, run_cli, tmp_path, family, params):
        out = tmp_path / "g.json"
        code, stdout, err = run_cli("gen", family, *params, "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == (f"error: bad parameters for family {family!r}: "
                       f"expected one parameter, got {len(params)}\n")

    def test_chain_product_guard_refuses_before_building(self, run_cli, tmp_path,
                                                          monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("poset built")

        monkeypatch.setattr(Poset, "from_cover_list", build)
        out = tmp_path / "c.json"
        code, stdout, err = run_cli("gen", "chainprod", "2001", "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err.endswith(": posets are limited to 2000 elements, got 2001\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family, param, size", [
        ("boolean", "11", 2048), ("partition", "8", 4140), ("chainprod", "2001", 2001)])
    def test_generator_guard_refuses_before_building(self, run_cli, tmp_path, monkeypatch,
                                                     family, param, size):
        def build(*args, **kwargs):
            raise AssertionError("poset built")

        monkeypatch.setattr(Poset, "from_cover_list", build)
        monkeypatch.setattr(generators, "_partitions", build)
        out = tmp_path / "g.json"
        code, stdout, err = run_cli("gen", family, param, "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == (f"error: bad parameters for family {family!r}: "
                       f"posets are limited to 2000 elements, got {size}\n")

    @pytest.mark.parametrize("family, past", [("boolean", 2048), ("partition", 4140)])
    def test_huge_generator_parameter_refused_at_once(self, run_cli, tmp_path, family, past):
        start = time.perf_counter()
        code, stdout, err = run_cli("gen", family, "1000000000", "-o", str(tmp_path / "g.json"))
        assert time.perf_counter() - start < 1
        assert (code, stdout) == (2, "")
        assert err == (f"error: bad parameters for family {family!r}: "
                       f"posets are limited to 2000 elements, got more than {past}\n")


class TestBottomIsRequired:
    """The paper's setting, a semimodular join semilattice of finite height,
    needs a bottom for the theorem.  L (a < c < t, b < t) is one with maximal
    chains of lengths 2 and 1; in V (a, b < t) no witness projects [a, t] to
    [b, t].  Both are accepted as semimodular and refused by the matcher."""

    POSETS = {
        "L": (Poset.from_cover_list("L", "abct", [("a", "c"), ("c", "t"), ("b", "t")]),
              ("a", "c", "t"), ("b", "t"), "lengths 2 and 1"),
        "V": (Poset.from_cover_list("V", "abt", [("a", "t"), ("b", "t")]),
              ("a", "t"), ("b", "t"), "lengths 1 and 1"),
    }

    @pytest.mark.parametrize("name", POSETS)
    def test_semimodular_without_a_bottom_and_refused(self, run_cli, tmp_path, name):
        p, a, b, lengths = self.POSETS[name]
        path = str(tmp_path / f"{name}.json")
        semilat.save_poset(p, path)
        code, stdout, _ = run_cli("validate", path, "--json")
        report = json.loads(stdout)
        assert code == 0
        assert [report[k] for k in ("join_semilattice", "semimodular", "bottom", "top")] == \
            [True, True, None, "t"]
        [theorem] = semilat.check_pairs(p, [(a, b)])
        assert theorem.entries[:2] == (
            semilat.CheckEntry("preconditions", False, "missing bottom or top"),
            semilat.CheckEntry("equal-length", lengths == "lengths 1 and 1", lengths))
        if name == "V":
            assert semilat.interval_updown_witness(p, ("a", "t"), ("b", "t")) is None
        refusal = f"error: poset {name!r} lacks a bottom or top element\n"
        for argv in (["match", path, "--chain-a", ",".join(a), "--chain-b", ",".join(b)],
                     ["verify", path]):
            assert run_cli(*argv) == (1, "", refusal), argv

    def test_sampled_verify_refuses_the_bounds_before_the_pair_count(self, run_cli, tmp_path,
                                                                     monkeypatch):
        # Drawn samples read no chain count, yet the missing bottom is still
        # the first error: 60,000 samples would pass the pair limit otherwise.
        def count(*args):
            raise AssertionError("chains counted")

        path = str(tmp_path / "L.json")
        semilat.save_poset(self.POSETS["L"][0], path)
        monkeypatch.setattr(sl, "count_maximal_chains", count)
        assert run_cli("verify", path, "--samples", "60000") == (
            1, "", "error: poset 'L' lacks a bottom or top element\n")
        assert run_cli("verify", str(DATA / "b3.json"), "--samples", "3")[0] == 0


class TestSemimodularityIsRequired:
    """Equal lengths do not stand in for the covering law.  The hexagon
    (0 < a < b < 1, 0 < c < d < 1) is a lattice whose two maximal chains
    both have length 3, yet its step [a, b] is up-and-down projective to no
    step of the other chain, so no bijection of the theorem's kind exists."""

    HEXAGON = Poset.from_cover_list("hexagon", "0abcd1", [
        ("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"), ("d", "1")])
    A, B = ("0", "a", "b", "1"), ("0", "c", "d", "1")
    FAILURE = "not semimodular: counterexample ('0', 'a', 'c')"

    def test_the_hexagon_has_no_matching(self, run_cli, tmp_path):
        p = semilat.from_dict(self.HEXAGON.to_dict())
        assert sl.is_join_semilattice(p) == (True, None)
        assert sl.is_semimodular(p) == semilat.SemimodularityReport(False, ("0", "a", "c"))
        F, T = False, True
        assert semilat.projectivity_relation(p, self.A, self.B).related == (
            (F, F, T), (F, F, F), (T, F, F))
        assert semilat.check_theorem(p, self.A, self.B).entries[:2] == (
            semilat.CheckEntry("preconditions", False, self.FAILURE),
            semilat.CheckEntry("equal-length", True, "lengths 3 and 3"))
        path = str(tmp_path / "hexagon.json")
        semilat.save_poset(p, path)
        assert run_cli("match", path, "--chain-a", ",".join(self.A), "--chain-b",
                       ",".join(self.B)) == (1, "", "error: not semimodular: 0 \u22d6 a but "
                                             "join(0,c) is neither equal to nor covered by "
                                             "join(a,c)\n")

    def test_the_oracle_reads_the_covering_law_itself(self, monkeypatch):
        # A wrong local verdict reaches neither the oracle's preconditions nor its message.
        p = semilat.from_dict(self.HEXAGON.to_dict())
        monkeypatch.setattr(sl, "is_semimodular", lambda p: semilat.SemimodularityReport(True))
        [report] = semilat.check_pairs(p, [(self.A, self.B)])
        assert report.entry("preconditions") == semilat.CheckEntry(
            "preconditions", False, self.FAILURE)


class TestGroupCommands:
    def test_builtin_z0_is_unknown(self, run_cli, tmp_path):
        out = tmp_path / "z0.json"
        assert run_cli("group", "builtin", "Z0", "-o", str(out)) == (
            2, "", "error: unknown builtin group 'Z0'\n")
        assert not out.exists()

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
        # Z2^6 (order 64) has 2,825 subgroups, more than a poset file may hold.
        path = str(tmp_path / "z2_6.json")
        assert run_cli("group", "builtin", "Z2xZ2xZ2xZ2xZ2xZ2", "-o", path)[0] == 0
        lattice = tmp_path / "lattice.json"
        for command in (["subgroups"], ["subnormal-lattice", "-o", str(lattice)], ["composition"]):
            start = time.perf_counter()
            code, out, err = run_cli("group", *command, path)
            assert time.perf_counter() - start < 1
            assert (code, out, lattice.exists()) == (2, "", False)
            assert err == ("error: subgroup enumeration is limited to 2000 subgroups, "
                           "got more than 2000\n")

    @pytest.mark.parametrize("name, pairs", [("S4xZ5", 120), ("D12xZ5", 1540)])
    def test_order_120_group(self, run_cli, tmp_path, name, pairs):
        path = str(tmp_path / "g.json")
        assert run_cli("group", "builtin", name, "-o", path)[0] == 0
        code, out, _ = run_cli("group", "composition", path)
        assert (code, out.count("\npair ")) == (0, pairs)

    @pytest.mark.parametrize("name, message", [
        ("Z" + "9" * 5000, "group tables are limited to order <= 120, got more than 121"),
        ("x".join(["Z60"] * 30000),
         "group tables are limited to order <= 120, got more than 3600"),
        ("Z\u0663", "unknown builtin group 'Z\u0663'"),
    ], ids=["long-numeral", "long-product", "non-ascii-digit"])
    def test_builtin_name_refused_in_one_line(self, run_cli, tmp_path, name, message):
        # The first two once ended in a ValueError traceback; the third built "Z3".
        out = tmp_path / "g.json"
        code, stdout, err = run_cli("group", "builtin", name, "-o", str(out))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert err == f"error: {message}\n"

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



def reference_dict(report) -> dict:
    """The report as `json.dumps` reads it, built here from the `pair_*` arrays."""
    return {"group": report.group, "order": report.order, "length": report.length,
            "series": [list(s) for s in report.series],
            "factor_multisets": [list(m) for m in report.factor_multisets],
            "pairs": [{"series_a": a, "series_b": b, "pi": list(pi),
                       "factor_pairs": [list(f) for f in fp], "factors_equal": equal}
                      for (a, b), pi, fp, equal in pair_rows(report)],
            "factor_multiset_independent": report.multiset_independent, "ok": report.ok}


def reference_text(report) -> str:
    """The human report, one pair line per pair of the `pair_*` arrays."""
    lines = [f"group: {report.group} (order {report.order})",
             f"composition length: {report.length}"]
    lines += [f"series {k}: {' < '.join('{' + s + '}' for s in series)}   factors {sorted(factors)}"
              for k, (series, factors) in enumerate(zip(report.series, report.factor_multisets))]
    lines += [f"pair ({a}, {b}): pi = {list(pi)}  factor pairs {[list(f) for f in fp]}  "
              f"{'ok' if equal else 'MISMATCH'}" for (a, b), pi, fp, equal in pair_rows(report)]
    lines.append("factor multiset chain-independent: "
                 f"{'yes' if report.multiset_independent else 'no'}")
    return "\n".join(lines) + "\n"


class TestCompositionOutput:
    """`group composition` writes both formats from the report's arrays; the
    references here read the same arrays and write with `json.dumps`."""

    BUILTINS = ["Z1", "S3", "Q8", "Z12", "A4", "S4", "D12", "Z60", "S3xZ3", "Z2xZ2xZ2", "Q8xZ2",
                "D4xZ2"]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_json_equals_json_dumps_of_the_pairs(self, run_cli, tmp_path, name):
        """`--json` prints the reference, and `to_dict()` reads that text back."""
        path = str(tmp_path / "g.json")
        assert run_cli("group", "builtin", name, "-o", path)[0] == 0
        code, out, err = run_cli("group", "composition", path, "--json")
        assert (code, err) == (0, "")
        report = groups.composition_analysis(groups.load_group(path))
        assert out == json.dumps(reference_dict(report), indent=2, sort_keys=True) + "\n"
        payload = report.to_dict()
        assert payload == json.loads(out)
        json.dumps(payload)   # plain JSON values only

    @pytest.mark.parametrize("name", BUILTINS)
    def test_text_equals_the_reference_text(self, run_cli, tmp_path, name):
        path = str(tmp_path / "g.json")
        assert run_cli("group", "builtin", name, "-o", path)[0] == 0
        report = groups.composition_analysis(groups.load_group(path))
        assert run_cli("group", "composition", path) == (0, reference_text(report), "")

    def test_verdicts_are_part_of_the_key(self, run_cli, tmp_path, monkeypatch):
        # Each distinct (pi, factor pairs, verdict) is written once: verdicts
        # that alternate with pi and factors kept must be written pair by pair.
        path = str(tmp_path / "d4z2.json")
        assert run_cli("group", "builtin", "D4xZ2", "-o", path)[0] == 0
        report = groups.composition_analysis(groups.load_group(path))
        forged = replace(report, pair_equal=np.arange(len(report.pair_equal)) % 2 == 0)
        monkeypatch.setattr(groups, "composition_analysis", lambda *args: forged)
        assert run_cli("group", "composition", path, "--json") == (
            1, json.dumps(reference_dict(forged), indent=2, sort_keys=True) + "\n", "")
        code, out, _ = run_cli("group", "composition", path)
        assert (code, out) == (1, reference_text(forged))
        assert out.count("  MISMATCH\n") == 1425

    def test_explicit_series(self, run_cli):
        series = ("0,0.6,0.3.6.9,0.1.2.3.4.5.6.7.8.9.10.11",
                  "0,0.4.8,0.2.4.6.8.10,0.1.2.3.4.5.6.7.8.9.10.11")
        report = groups.composition_analysis(groups.load_group(Z12),
                                             *(text.split(",") for text in series))
        argv = ["group", "composition", Z12, "--series-a", series[0], "--series-b", series[1]]
        assert run_cli(*argv, "--json") == (
            0, json.dumps(reference_dict(report), indent=2, sort_keys=True) + "\n", "")
        assert run_cli(*argv) == (0, reference_text(report), "")

    def test_mismatch_written_from_the_verdicts(self, run_cli, monkeypatch):
        report = groups.composition_analysis(groups.load_group(Z12))
        equal = np.arange(len(report.pair_equal)) % 2 == 0
        factors = report.pair_factors.copy()
        factors[~equal, :, 1] *= 5   # each mismatched pair's second series gets other factors
        forged = replace(report, pair_equal=equal, pair_factors=factors)
        monkeypatch.setattr(groups, "composition_analysis", lambda *args: forged)
        assert forged.pair_equal.tolist() == [True, False] * 3 and not forged.ok
        assert run_cli("group", "composition", Z12, "--json") == (
            1, json.dumps(reference_dict(forged), indent=2, sort_keys=True) + "\n", "")
        code, out, _ = run_cli("group", "composition", Z12)
        assert (code, out) == (1, reference_text(forged))
        assert out.count("  MISMATCH\n") == 3

    def test_text_equals_a_loop_over_the_pairs(self, run_cli, tmp_path):
        out = {}
        for name, count in (("Z1", 1), ("S4", 6), ("D4xZ2", 2850)):
            path = str(tmp_path / f"{name}.json")
            assert run_cli("group", "builtin", name, "-o", path)[0] == 0
            report = groups.composition_analysis(groups.load_group(path))
            assert len(report.pair_series) == count, name
            code, out[name], err = run_cli("group", "composition", path)
            assert (code, out[name], err) == (0, reference_text(report), ""), name
        # The template's edge case: Z1's one pair has length 0.
        assert "\npair (0, 0): pi = []  factor pairs []  ok\n" in out["Z1"]


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

    @pytest.mark.parametrize("argv, message", [
        # `Poset.chain` runs first, so a chain that does not increase gets its message.
        (["--chain-a", "1,0"], "not strictly increasing at (1, 0)"),
        (["--chain-a", "0,1"], "not a chain of covers at (0, 1)"),
        (["--chain-b", "0,a,b"], "not strictly increasing at (a, b)"),
        # The matcher runs first, so --witnesses keeps its messages.
        (["--chain-a", "0,1", "--chain-b", "0,b,1", "--witnesses"],
         "first chain ['0', '1'] is not maximal in 'b2'"),
    ], ids=["decreasing", "not-a-cover", "incomparable", "witnesses"])
    def test_chain_that_does_not_step_by_covers(self, run_cli, argv, message):
        code, out, err = run_cli("export-dot", B2, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("chain", ["--chain-a", "--chain-b"])
    def test_witnesses_need_both_chains(self, run_cli, chain):
        assert run_cli("export-dot", B2, chain, "0,a,1", "--witnesses") == (
            2, "", "error: --witnesses needs both --chain-a and --chain-b\n")

    def test_partial_cover_chain(self, run_cli):
        code, out, _ = run_cli("export-dot", B2, "--chain-a", "0,a")
        assert code == 0
        assert out.count("color=red") == 1

    def test_unknown_highlight_element(self, run_cli):
        code, _, _ = run_cli("export-dot", B2, "--chain-a", "0,zz,1")
        assert code == 2

    def test_output_file(self, run_cli, tmp_path):
        target = tmp_path / "b2.dot"
        code, _, _ = run_cli("export-dot", B2, "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_chain_of_any_iterable_rendered(self):
        b3 = semilat.boolean_lattice(3)
        chain = ["000", "100", "110", "111"]
        assert (semilat.export_dot(b3, (e for e in chain))
                == semilat.export_dot(b3, chain)
                != semilat.export_dot(b3, []) == semilat.export_dot(b3, None))

    def test_chain_as_a_numpy_array_rendered(self):
        b2 = semilat.boolean_lattice(2)
        assert semilat.export_dot(b2, np.array(["00", "01"])) == semilat.export_dot(b2, ["00", "01"])
        assert (semilat.export_dot(b2, np.array([], dtype=str), np.array([]))
                == semilat.export_dot(b2) != semilat.export_dot(b2, ["00", "01"]))

    def test_each_name_quoted_once(self, monkeypatch):
        quoted = []
        quote = semilat.dot._quote
        monkeypatch.setattr(semilat.dot, "_quote", lambda s: quoted.append(s) or quote(s))
        p = semilat.partition_lattice(4)
        chains = semilat.maximal_chains(p)
        semilat.export_dot(p, chains[0], chains[-1], semilat.jh_match(p, chains[0], chains[-1]))
        assert sorted(quoted) == sorted([p.name, *p.elements])

    @GENERATED
    @given(dot_arguments())
    def test_equals_the_name_level_writer(self, args):
        """Byte for byte, or the same error, as the reference writer by name."""
        def attempt(writer):
            try:
                return writer(*args)
            except semilat.SemilatError as exc:
                return type(exc), str(exc)
        assert attempt(semilat.export_dot) == attempt(export_dot_by_name)

    def test_chain_that_is_not_iterable_refused(self):
        with pytest.raises(semilat.NotAChainError, match=r"^a chain must be iterable, got int$"):
            semilat.export_dot(semilat.boolean_lattice(3), 5)

    def test_witness_not_two_names_refused(self):
        tampered = semilat.MatchingResult(3, (1, 2, 3), (("000",), ("100", "110"), ("110", "111")))
        with pytest.raises(semilat.PreconditionError, match=r"^witness 1 \('000',\) is not two names$"):
            semilat.export_dot(semilat.boolean_lattice(3), matching=tampered)


def _semilat_argv_env(*argv):
    """The `python -m semilat` command line for argv, and an environment that imports this tree."""
    src = str(Path(semilat.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, "-m", "semilat", *argv], env


def test_python_dash_m_runs_the_cli():
    argv, env = _semilat_argv_env("validate", B3, "--json")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, read_golden("validate_b3.json"), "")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_quietly(tmp_path):
    # D4xZ2's --json is about 1 MB, far more than a pipe holds, so the CLI is
    # still writing when the reader closes the pipe after one line.
    group = str(tmp_path / "d4.json")
    groups.save_group(groups.builtin_group("D4xZ2"), group)
    argv, env = _semilat_argv_env("group", "composition", group, "--json")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""


# The public names of `semilat`, the submodules its __init__ imports included.
# A name is added here or removed from here only on purpose.
PUBLIC_NAMES = [
    "ChainLengthMismatchError", "CheckEntry", "CompositionReport", "Graph", "Group",
    "GroupValidationError", "InternalInvariantError", "MatchingCheck", "MatchingResult",
    "MissingBoundsError", "NoJoinError", "NotAChainError",
    "NotJoinSemilatticeError", "NotMaximalChainError", "NotPrimeIntervalError",
    "NotSemimodularError", "Poset", "PosetConstructionError", "PreconditionError",
    "ProjectivityRelation", "RecursionFrame", "SemilatError", "SemimodularityReport",
    "SizeLimitError", "TheoremReport", "UnknownElementError",
    "UnknownNameError", "all_subgroups", "boolean_lattice", "builtin_group", "chain_product",
    "check_index_pairs", "check_pairs", "check_theorem",
    "composition_analysis",
    "count_maximal_chains", "dot", "errors", "export_dot", "from_dict", "generators",
    "graphic_flat_lattice", "group_from_table", "groups", "interval_updown_witness",
    "is_join_semilattice", "is_maximal_chain", "is_semimodular", "jh_match",
    "join", "load_group", "load_poset", "match_index_chains",
    "matching", "maximal_chains", "meet", "named_counterexample", "oracle",
    "partition_lattice", "poset", "prime_up_projective", "projectivity",
    "projectivity_relation", "random_maximal_chain", "save_group", "save_poset", "semilattice",
    "subgroup_name", "subnormal_lattice", "verify_matching",
]


def test_public_names_are_pinned():
    assert sorted(semilat.__all__) == PUBLIC_NAMES

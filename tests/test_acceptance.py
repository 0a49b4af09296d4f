"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact (no tolerances anywhere in this domain).
"""

from __future__ import annotations

import json
import random

import pytest

from semilat import (
    NotJoinSemilatticeError,
    NotSemimodularError,
    all_subgroups,
    builtin_group,
    check_pairs,
    composition_analysis,
    is_join_semilattice,
    is_semimodular,
    jh_match,
    join,
    lattice_up_projective,
    maximal_chains,
    named_counterexample,
    prime_up_projective,
    random_maximal_chain,
    subnormal_lattice,
    updown_projective,
)
from semilat.generators import graphic_flat_lattice
from semilat.poset import Poset

from conftest import DATA, K4, TWO_TRIANGLES, read_golden

PAIR_BUDGET = 5000
SAMPLES = 200


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, failures[:10]


def _sampled_pairs(p, count, seed):
    return [(random_maximal_chain(p, seed * 1000003 + 2 * k),
             random_maximal_chain(p, seed * 1000003 + 2 * k + 1))
            for k in range(count)]


def test_criterion_1_theorem_suite(corpus):
    """All three claims hold on every corpus lattice over every chain pair
    (or 200 seeded samples when the pair count exceeds 5000)."""
    failures = []
    for p in corpus:
        chains = maximal_chains(p)
        if len(chains) ** 2 <= PAIR_BUDGET:
            pairs = [(a, b) for a in chains for b in chains]
        else:
            pairs = _sampled_pairs(p, SAMPLES, seed=0)
        for (a, b), report in zip(pairs, check_pairs(p, pairs)):
            if not report.ok:
                failures.append((p.name, list(a), list(b),
                                 [e.to_dict() for e in report.entries if not e.passed]))
    _report(1, "theorem suite, claims 1-3", failures)


def test_criterion_2_lemma_equivalence(small_corpus):
    """Join-only and lattice forms of up-projectivity agree on every prime
    interval and every element pair of every corpus lattice with <= 30
    elements (all of which have a bottom, hence all meets)."""
    failures = []
    for p in small_corpus:
        for a, b in p.cover_pairs():
            for x in p.elements:
                for y in p.elements:
                    if prime_up_projective(p, (a, b), (x, y)) != \
                            lattice_up_projective(p, (a, b), (x, y)):
                        failures.append((p.name, a, b, x, y))
    _report(2, "lemma equivalence", failures)


def _up_steps(p, interval):
    a, b = interval
    out = []
    for x in p.elements:
        if join(p, a, x) != x:
            continue
        y = join(p, b, x)
        if y != x:
            out.append((x, y))
    return out


def test_criterion_3_transitivity(corpus):
    """Two up-steps compose to one, exhaustively on lattices <= 20 elements
    and on 1000 seeded samples for the larger ones; each up-step from a prime
    interval lands on a cover pair."""
    failures = []
    for p in corpus:
        if len(p) <= 20:
            for ab in p.cover_pairs():
                for cd in _up_steps(p, ab):
                    if not p.is_cover(*cd):
                        failures.append((p.name, "cover propagation", ab, cd))
                        continue
                    for ef in _up_steps(p, cd):
                        if not prime_up_projective(p, ab, ef):
                            failures.append((p.name, ab, cd, ef))
        else:
            rng = random.Random(1)
            covers = p.cover_pairs()
            for _ in range(1000):
                ab = covers[rng.randrange(len(covers))]
                cd = (steps := _up_steps(p, ab))[rng.randrange(len(steps))]
                if not p.is_cover(*cd):
                    failures.append((p.name, "cover propagation", ab, cd))
                    continue
                ef = (steps2 := _up_steps(p, cd))[rng.randrange(len(steps2))]
                if not prime_up_projective(p, ab, ef):
                    failures.append((p.name, ab, cd, ef))
    _report(3, "transitivity of up-projectivity", failures)


def test_criterion_4_worked_fixtures(corpus, run_cli):
    """Frozen fixtures: the named diamond, the cube pair, identity chains,
    and byte-stable --json golden files."""
    failures = []

    b2 = Poset.from_cover_list(
        "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    r = jh_match(b2, ["0", "a", "1"], ["0", "b", "1"])
    if r.pi != (2, 1) or r.witnesses != (("b", "1"), ("a", "1")):
        failures.append(("b2 fixture", r.pi, r.witnesses))

    from semilat import boolean_lattice
    b3 = boolean_lattice(3)
    r = jh_match(b3, ["000", "100", "110", "111"], ["000", "010", "110", "111"])
    if r.pi != (2, 1, 3) or r.witnesses != (("010", "110"), ("100", "110"),
                                            ("110", "111")):
        failures.append(("b3 fixture", r.pi, r.witnesses))

    done = 0
    for p in corpus:
        if done >= 20:
            break
        chain = random_maximal_chain(p, seed=done)
        r = jh_match(p, chain, chain)
        if r.pi != tuple(range(1, r.n + 1)):
            failures.append((p.name, "identity pair", r.pi))
        done += 1

    for golden, argv in (
            ("match_b2.json", ["match", str(DATA / "b2.json"),
                               "--chain-a", "0,a,1", "--chain-b", "0,b,1", "--json"]),
            ("match_b3_trace.json", ["match", str(DATA / "b3.json"),
                                     "--chain-a", "000,100,110,111",
                                     "--chain-b", "000,010,110,111",
                                     "--trace", "--json"]),
    ):
        code, out, _ = run_cli(*argv)
        if code != 0 or out != read_golden(golden):
            failures.append((golden, "byte mismatch or nonzero exit"))

    _report(4, "worked fixtures and golden files", failures)


def test_criterion_5_negative_controls():
    """The standard counterexamples are rejected with the right error class
    and the right evidence."""
    failures = []

    n5 = named_counterexample("n5")
    report = is_semimodular(n5)
    if report.holds or report.counterexample != ("0", "b", "a"):
        failures.append(("n5 semimodularity", report))
    a, b, c = report.counterexample
    u, v = join(n5, a, c), join(n5, b, c)
    if u == v or n5.is_cover(u, v):
        failures.append(("n5 counterexample does not violate the law", (a, b, c)))
    if sorted(ch.length for ch in maximal_chains(n5)) != [2, 3]:
        failures.append(("n5 chain lengths", maximal_chains(n5)))

    for name in ("antichain2", "two_tops"):
        ok, _ = is_join_semilattice(named_counterexample(name))
        if ok:
            failures.append((name, "should fail is_join_semilattice"))

    try:
        jh_match(n5, ["0", "b", "1"], ["0", "b", "1"])
        failures.append(("jh_match(n5)", "should have raised"))
    except NotSemimodularError:
        pass
    for name, chain in (("antichain2", ["a"]), ("two_tops", ["0", "a"])):
        try:
            jh_match(named_counterexample(name), chain, chain)
            failures.append((f"jh_match({name})", "should have raised"))
        except NotJoinSemilatticeError:
            pass

    _report(5, "negative controls", failures)


GROUP_SUBGROUP_COUNTS = {
    "Z12": 6, "S3": 6, "A4": 10, "D4": 10, "Q8": 6, "S3xZ2": 16}
GROUP_FACTOR_MULTISETS = {"Z12": (2, 2, 3), "A4": (2, 2, 3), "S3": (2, 3)}


def test_criterion_6_group_suite():
    """Subgroup counts, dual semimodularity of subnormal lattices, equal
    composition lengths, matched factor orders, chain-independent multisets."""
    failures = []
    for name, expected in GROUP_SUBGROUP_COUNTS.items():
        g = builtin_group(name)
        count = len(all_subgroups(g))
        if count != expected:
            failures.append((name, "subgroup count", count, expected))

        lattice = subnormal_lattice(g)
        if not is_semimodular(lattice.dual()).holds:
            failures.append((name, "dual not semimodular"))
        if len({c.length for c in maximal_chains(lattice)}) != 1:
            failures.append((name, "unequal composition lengths"))

        report = composition_analysis(g)
        for pair in report.pairs:
            if not pair.factors_equal:
                failures.append((name, "factor mismatch", pair.to_dict()))
        if not report.multiset_independent:
            failures.append((name, "multiset depends on the chain"))
        expected_multiset = GROUP_FACTOR_MULTISETS.get(name)
        if expected_multiset and set(report.factor_multisets) != {expected_multiset}:
            failures.append((name, "multiset", report.factor_multisets))
    _report(6, "group suite", failures)


def test_criterion_7_matroid_components():
    """Atom intervals are up-and-down projective exactly when their edges
    share a graph component."""
    failures = []

    flats = graphic_flat_lattice(TWO_TRIANGLES)
    bottom = flats.bottom()
    atoms = [e for e in flats.elements if flats.is_cover(bottom, e)]

    def component(atom: str) -> int:
        edge_block = next(b for b in atom.split("|") if len(b) == 2)
        return 0 if int(edge_block[0]) <= 2 else 1

    for a in atoms:
        for b in atoms:
            witness = updown_projective(flats, (bottom, a), (bottom, b))
            if (witness is not None) != (component(a) == component(b)):
                failures.append(("two triangles", a, b, witness))

    k4 = graphic_flat_lattice(K4)
    k4_bottom = k4.bottom()
    k4_atoms = [e for e in k4.elements if k4.is_cover(k4_bottom, e)]
    for a in k4_atoms:
        for b in k4_atoms:
            if updown_projective(k4, (k4_bottom, a), (k4_bottom, b)) is None:
                failures.append(("K4", a, b))

    _report(7, "matroid component criterion", failures)


DETERMINISM_COMMANDS = [
    ["validate", str(DATA / "b3.json"), "--json"],
    ["chains", str(DATA / "b3.json"), "--json"],
    ["match", str(DATA / "b3.json"), "--chain-a", "000,100,110,111",
     "--chain-b", "000,001,011,111", "--trace", "--json"],
    ["project", str(DATA / "b3.json"), "--source", "000,100",
     "--target", "010,110", "--json"],
    ["verify", str(DATA / "b3.json"), "--all-pairs", "--json"],
    ["verify", str(DATA / "b3.json"), "--samples", "10", "--seed", "7", "--json"],
    ["group", "subgroups", str(DATA / "z12.json"), "--json"],
    ["group", "composition", str(DATA / "z12.json"), "--json"],
    ["export-dot", str(DATA / "b3.json"), "--chain-a", "000,100,110,111",
     "--chain-b", "000,001,011,111", "--witnesses"],
]


def test_criterion_8_determinism(run_cli, tmp_path):
    """Identical invocations produce byte-identical output, including the
    file-writing commands."""
    failures = []
    for argv in DETERMINISM_COMMANDS:
        first = run_cli(*argv)
        second = run_cli(*argv)
        if first != second:
            failures.append((argv, "stdout differs between runs"))
        if first[0] != 0:
            failures.append((argv, f"unexpected exit code {first[0]}"))

    for argv, out_name in (
            (["gen", "partition", "4"], "pi4.json"),
            (["gen", "graphic", str(DATA / "two_triangles.txt")], "flats.json"),
            (["group", "builtin", "S3xZ2", "-o"], None),
            (["group", "subnormal-lattice", str(DATA / "a4.json"), "-o"], None),
    ):
        name = out_name or "out.json"
        first_path, second_path = tmp_path / f"1_{name}", tmp_path / f"2_{name}"
        flag = [] if argv[-1] == "-o" else ["-o"]
        run_cli(*argv, *flag, str(first_path))
        run_cli(*argv, *flag, str(second_path))
        if first_path.read_bytes() != second_path.read_bytes():
            failures.append((argv, "output file differs between runs"))

    _report(8, "determinism", failures)

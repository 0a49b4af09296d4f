from __future__ import annotations

import ast
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semilat import (
    ChainLengthMismatchError,
    CheckEntry,
    NoJoinError,
    NotAChainError,
    NotPrimeIntervalError,
    Poset,
    PreconditionError,
    ProjectivityRelation,
    SizeLimitError,
    UnknownElementError,
    boolean_lattice,
    chain_product,
    check_index_pairs,
    check_pairs,
    check_theorem,
    composition_analysis,
    from_dict,
    interval_updown_witness,
    jh_match,
    load_poset,
    maximal_chains,
    named_counterexample,
    partition_lattice,
    projectivity_relation,
    random_maximal_chain,
    subnormal_lattice,
)
from semilat import matching, oracle, projectivity
from semilat import semilattice as sl

from conftest import DATA, ascending, pair_rows
from enumeration import COUNTING_LIMIT, all_consistent_permutations, count_consistent_permutations
from pairwise_oracle import pairwise_reports
from strategies import GENERATED, chain_products, direct_products, graphic_flats
from witness_mask import cover_cells, mask_witnesses

SEMIMODULAR = st.one_of(chain_products(), graphic_flats())

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
B3 = boolean_lattice(3)

B2_A = ["0", "a", "1"]
B2_B = ["0", "b", "1"]
B3_A = ["000", "100", "110", "111"]
B3_B = ["000", "010", "110", "111"]


TRUE_WITNESSES = oracle._witnesses


def scrambled_witnesses(seed: int):
    """`oracle._witnesses` with seeded cells flipped, each by a hash of its
    indices, so that every pass over the same cells sees one pattern."""
    weights = np.random.default_rng(seed).integers(1, 1 << 20, 4)

    def scrambled(p, cells):
        flipped = (np.reshape(cells, (-1, 4)) @ weights) % 9 < 1 + seed % 3
        return np.where((TRUE_WITNESSES(p, cells) >= 0) ^ flipped, 0, -1)

    return scrambled


def named_witnesses(p, cells) -> list:
    """`oracle._witnesses` on index cells, each x named with b∨x as a pair,
    or None where it found no x."""
    J, names = sl._joins(p), p.elements
    return [(names[x], names[J[b, x]]) if x >= 0 else None
            for (_, b, _, _), x in zip(cells, oracle._witnesses(p, cells).tolist())]


class TestRelation:
    def test_b2_matrix(self):
        rel = projectivity_relation(B2, B2_A, B2_B)
        assert rel.related == ((False, True), (True, False))
        assert rel.witnesses[0][1] == ("b", "1")
        assert rel.witnesses[1][0] == ("a", "1")

    def test_b3_cells(self):
        rel = projectivity_relation(B3, B3_A, B3_B)
        assert rel.related[0][0] is False
        assert rel.related[0][1] is True
        assert rel.related[2][2] is True

    def test_identity_chain_diagonal(self, small_corpus):
        for p in small_corpus[:10]:
            chain = random_maximal_chain(p, seed=1)
            rel = projectivity_relation(p, chain, chain)
            assert all(rel.related[i][i] for i in range(rel.n)), p.name

    def test_length_mismatch(self):
        with pytest.raises(ChainLengthMismatchError):
            projectivity_relation(B3, B3_A, ["000", "100", "111"])

    @pytest.mark.parametrize("chain_a, chain_b, message", [
        (None, ["000"], "a chain must be iterable, got NoneType"),
        # Equal lengths: the prime-interval check would have refused it first.
        (B3_A[::-1], B3_B, r"not strictly increasing at \(111, 110\)"),
    ], ids=["none", "decreasing"])
    def test_chains_checked_by_the_poset(self, chain_a, chain_b, message):
        with pytest.raises(NotAChainError, match=f"^{message}$"):
            projectivity_relation(B3, chain_a, chain_b)

    def test_agrees_with_witness_search(self, small_corpus):
        # The scan over x and the mask over every pair (x, y) must coincide,
        # both in existence and in the identity of the first witness.
        for p in small_corpus[:8]:
            cells = cover_cells(p)
            assert named_witnesses(p, cells) == mask_witnesses(p, cells), p.name

    @pytest.mark.parametrize("p", [boolean_lattice(4), partition_lattice(4), boolean_lattice(5)],
                             ids=["B4", "Pi4", "B5"])
    def test_every_cover_cell_agrees_with_the_reference_mask(self, p):
        cells = cover_cells(p)
        got = named_witnesses(p, cells)
        assert got == mask_witnesses(p, cells), p.name
        assert None in got and any(got)

    def test_refused_without_all_joins(self):
        with pytest.raises(NoJoinError, match=r"no common upper bound for \(a, b\)"):
            interval_updown_witness(named_counterexample("two_tops"), ("0", "a"), ("0", "b"))

    @pytest.mark.parametrize("source, target", [
        (("000", "100", "110"), ("000", "010")),
        (("000", "100"), ("000", "010", "110")),
        (("000",), ("000", "010")),
        (("000", "100"), ("110",)),
    ])
    def test_refused_unless_two_names_each(self, source, target):
        with pytest.raises(NotPrimeIntervalError, match=r"^source and target must be two names each"):
            interval_updown_witness(B3, source, target)

    @pytest.mark.parametrize("source, target", [(5, ("000", "100")), (("000", "100"), None)])
    def test_refused_unless_both_are_iterable(self, source, target):
        with pytest.raises(NotPrimeIntervalError, match=r"^source and target must be two names each"):
            interval_updown_witness(B3, source, target)

    def test_interval_from_any_iterable(self):
        assert (interval_updown_witness(B3, iter(["000", "100"]), "000 001".split())
                == interval_updown_witness(B3, ("000", "100"), ("000", "001")))

    @settings(GENERATED, max_examples=30)
    @given(SEMIMODULAR.filter(lambda p: len(p) <= 30))
    def test_generated_witness_searches_agree(self, p):
        # The scan over x and the reference mask, on every pair of prime
        # intervals: same existence and same first witness.
        cells = cover_cells(p)
        assert named_witnesses(p, cells) == mask_witnesses(p, cells), p.name

    def test_cache_reuse_is_transparent(self):
        p = boolean_lattice(3)
        first = projectivity_relation(p, B3_A, B3_B)
        again = projectivity_relation(p, B3_A, B3_B)
        fresh = projectivity_relation(boolean_lattice(3), B3_A, B3_B)
        assert first == again == fresh

    def test_cells_stay_with_their_poset(self):
        # B3 and C2x4 both have 8 elements, so an index cell of one is a
        # valid cell of the other; each must still answer from its own.
        posets = [boolean_lattice(3), chain_product([2, 4])]
        pairs = [[(a, b) for a in maximal_chains(p) for b in maximal_chains(p)] for p in posets]
        got: list[list] = [[], []]
        for k in range(max(map(len, pairs))):
            for side, p in enumerate(posets):
                if k < len(pairs[side]):
                    a, b = pairs[side][k]
                    got[side].append((projectivity_relation(p, a, b), check_theorem(p, a, b)))
        for side, p in enumerate(posets):
            fresh, fresh_reports = from_dict(p.to_dict()), from_dict(p.to_dict())
            assert got[side] == [(projectivity_relation(fresh, a, b),
                                  check_theorem(fresh_reports, a, b)) for a, b in pairs[side]]
            assert all(report.ok for _, report in got[side]), p.name


class TestPermutationEnumeration:
    def test_b2_unique(self):
        rel = projectivity_relation(B2, B2_A, B2_B)
        assert all_consistent_permutations(rel) == [(2, 1)]

    def test_empty_relation(self):
        rel = ProjectivityRelation(
            2, ((False, False), (False, False)),
            ((None, None), (None, None)))
        assert all_consistent_permutations(rel) == []
        assert count_consistent_permutations(rel) == 0

    def test_counting_matches_enumeration(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randrange(1, 7)
            rows = tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(n))
            rel = ProjectivityRelation(n, rows, tuple((None,) * n for _ in range(n)))
            assert len(all_consistent_permutations(rel)) == \
                count_consistent_permutations(rel)

    def test_size_guards(self):
        huge = ProjectivityRelation(21, tuple((True,) * 21 for _ in range(21)),
                                    tuple((None,) * 21 for _ in range(21)))
        with pytest.raises(SizeLimitError):
            count_consistent_permutations(huge)


class TestCheckTheorem:
    def test_b3_instance_passes(self):
        report = check_theorem(B3, B3_A, B3_B)
        assert report.ok
        assert [e.name for e in report.entries] == [
            "preconditions", "equal-length", "unique-permutation", "maximality"]

    def test_pi4_sampled_pairs(self):
        pi4 = partition_lattice(4)
        rng = random.Random(0)
        chains = maximal_chains(pi4)
        for _ in range(50):
            a = chains[rng.randrange(len(chains))]
            b = chains[rng.randrange(len(chains))]
            assert check_theorem(pi4, a, b).ok

    def test_long_chains_refused_before_the_relation(self, monkeypatch):
        def relation(*args, **kwargs):
            raise AssertionError("relation computed")

        monkeypatch.setattr(oracle, "projectivity_relation", relation)
        monkeypatch.setattr(oracle, "_witnesses", relation)
        p = chain_product([23])
        (chain,) = maximal_chains(p)
        work = 22 * 22 * 23   # n^2 cells of |p| scan steps each
        monkeypatch.setattr(oracle, "WORK_LIMIT", work - 1)
        with pytest.raises(SizeLimitError, match=rf"^the oracle is limited to <= {work - 1} "
                                                 r"cell scan steps \(n\^2 \* \|p\| summed over "
                                                 r"the pairs\), exceeded at pair 0$"):
            check_theorem(p, chain, chain)
        # The budget is for the whole set: two pairs that fit one by one are refused.
        monkeypatch.setattr(oracle, "WORK_LIMIT", work)
        with pytest.raises(SizeLimitError, match="exceeded at pair 2$"):
            check_pairs(p, [(chain, chain), (chain, chain[:3]), (chain, chain)])

    @GENERATED
    @given(SEMIMODULAR, st.integers(0, 10 ** 6))
    def test_generated_lattices(self, p, seed):
        a = random_maximal_chain(p, 2 * seed)
        b = random_maximal_chain(p, 2 * seed + 1)
        report = check_theorem(p, a, b)
        # pi is always inside the relation, so uniqueness is always decided.
        assert report.entry("unique-permutation").detail.endswith("consistent: True")
        assert report.ok, (p.name, list(a), list(b))

    def test_two_consistent_permutations_fail_uniqueness(self, monkeypatch):
        # Every cell of B2 witnessed: a relation that admits both
        # permutations of B2's two intervals.
        monkeypatch.setattr(oracle, "_witnesses", lambda p, cells: np.full(len(cells), p.index("b")))
        entry = check_theorem(B2, B2_A, B2_B).entry("unique-permutation")
        assert not entry.passed
        assert entry.detail == "matching count at least 2; computed permutation consistent: True"

    def test_n5_reported_not_raised(self):
        n5 = named_counterexample("n5")
        report = check_theorem(n5, ["0", "b", "1"], ["0", "a", "c", "1"])
        assert not report.ok
        assert not report.entry("preconditions").passed
        assert "not semimodular" in report.entry("preconditions").detail
        assert not report.entry("equal-length").passed
        assert "2 and 3" in report.entry("equal-length").detail

    def test_jh_witness_lies_in_relation_support(self, small_corpus):
        for p in small_corpus[:8]:
            chains = maximal_chains(p, limit=4)
            for C in chains:
                for D in chains:
                    rel = projectivity_relation(p, C, D)
                    result = jh_match(p, C, D)
                    for i in range(1, result.n + 1):
                        assert rel.related[i - 1][result.pi[i - 1] - 1], \
                            (p.name, list(C), list(D), i)


def row_pairs(p, C, D) -> list:
    """`check_index_pairs` on the pairs (row k of C, row k of D) of two
    arrays of index chains of one shape, as README gives it."""
    P = len(C)
    return check_index_pairs(p, np.vstack([C, D]), np.arange(P), P + np.arange(P))


def _glued_n5() -> Poset:
    """B2 with an N5 glued on at its top: a lattice, not semimodular, whose
    maximal chains have lengths 4 and 5.  The CLI tests read the same file."""
    return load_poset(str(DATA / "glued_n5.json"))


def _mixed_pairs(p, seed: int) -> list:
    """Seeded maximal chains, a repeated chain, and, where the height allows,
    a non-maximal chain one step shorter, paired every way."""
    chains = [random_maximal_chain(p, seed + k) for k in range(3)]
    chains.append(chains[0])
    if len(chains[0]) >= 3:
        chains.append(chains[1][:1] + chains[1][2:])
    return [(a, b) for a in chains for b in chains]


class TestCheckPairs:
    @settings(GENERATED, max_examples=20)
    @given(SEMIMODULAR.filter(lambda p: p.height() <= COUNTING_LIMIT),
           st.integers(0, 10 ** 6))
    def test_generated_reports_match_check_theorem(self, p, seed):
        pairs = _mixed_pairs(p, seed)
        fresh = from_dict(p.to_dict())  # an equal poset that shares no cells with p
        reports = [r.to_dict() for r in check_pairs(p, pairs)]
        assert reports == [check_theorem(fresh, a, b).to_dict() for a, b in pairs], p.name
        assert reports == [r.to_dict() for r in pairwise_reports(from_dict(p.to_dict()), pairs)]
        # The pairs of equal lengths, non-maximal chains included, through the
        # index entry: one call per length, on another equal poset.
        fresh = from_dict(p.to_dict())
        for n in {len(a) for a, b in pairs if len(a) == len(b)}:
            ks = [k for k, (a, b) in enumerate(pairs) if len(a) == len(b) == n]
            C, D = (np.array([[fresh.index(e) for e in pairs[k][side]] for k in ks])
                    for side in (0, 1))
            assert [r.to_dict() for r in row_pairs(fresh, C, D)] == \
                [reports[k] for k in ks], (p.name, n)

    @pytest.mark.parametrize("p", [boolean_lattice(4), partition_lattice(4),
                                   named_counterexample("n5"), _glued_n5()],
                             ids=["B4", "Pi4", "n5", "glued-n5"])
    def test_all_pairs_match_the_pairwise_reference(self, p):
        pairs = [(a, b) for a in maximal_chains(p) for b in maximal_chains(p)]
        reports = check_pairs(p, pairs)
        assert [r.to_dict() for r in reports] == \
            [r.to_dict() for r in pairwise_reports(from_dict(p.to_dict()), pairs)], p.name
        # Pairs with equal outcomes share one report.
        assert len({id(r) for r in reports}) == len({repr(r) for r in reports})
        # The pairs of each length, by index: the same reports.
        for n in {len(a) for a, _ in pairs}:
            ks = [k for k, (a, b) in enumerate(pairs) if len(a) == len(b) == n]
            C, D = (np.array([[p.index(e) for e in pairs[k][side]] for k in ks]) for side in (0, 1))
            assert row_pairs(p, C, D) == [reports[k] for k in ks], (p.name, n)

    @pytest.mark.parametrize("pair", [("000",), (B3_A, B3_A, B3_A), 7, (B3_A, 7)])
    def test_pair_that_is_not_two_chains(self, pair):
        with pytest.raises(PreconditionError, match="^pair 1 is not two chains$"):
            check_pairs(B3, [(B3_A, B3_A), pair])

    def test_pairs_that_are_not_iterable(self):
        with pytest.raises(PreconditionError, match="^pairs must be iterable, got int$"):
            check_pairs(B3, 5)

    def test_second_chain_read_only_after_a_maximal_first(self):
        # A non-maximal first chain decides the pair: the unknown name in
        # the second is never looked up, so nothing raises.
        (report,) = check_pairs(B3, [(["000", "111"], ["000", "zzz", "111"])])
        assert report.entry("preconditions").detail == "first chain is not maximal"
        assert not report.entry("equal-length").passed
        with pytest.raises(UnknownElementError, match="'zzz'"):
            check_pairs(B3, [(B3_A, ["000", "zzz", "111"])])
        # A failed poset precondition decides every pair: no chain is read.
        (report,) = check_pairs(named_counterexample("n5"), [(["0", "zzz", "1"], ["zzz"])])
        assert "not semimodular" in report.entry("preconditions").detail

    def test_scrambled_relations_match_the_pairwise_reference(self, monkeypatch):
        # A made-up cell pattern: relations with 0, 2 or 6 consistent
        # permutations, and computed permutations that miss or undercut them.
        monkeypatch.setattr(oracle, "_witnesses", lambda p, cells: np.where(
            np.sum(cells, axis=1) % 3, p.index("000"), -1))
        chains = maximal_chains(B3)
        pairs = [(a, b) for a in chains for b in chains]
        reports = check_pairs(B3, pairs)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in pairwise_reports(B3, pairs)]
        details = {r.entry(name).detail for r in reports for name in ("unique-permutation", "maximality")}
        assert {d.split(";")[0] for d in details if d.startswith("matching count")} == \
            {"matching count at least 2", "matching count not decided"}
        assert any(d.startswith("violated at") for d in details)
        assert any(d.endswith("consistent: False") for d in details)

    @pytest.mark.parametrize("p, step", [(B3, 1), (boolean_lattice(4), 5)], ids=["B3", "B4"])
    def test_seeded_cell_patterns_match_the_reference(self, monkeypatch, p, step):
        # The true relations with seeded cells flipped, each by a hash of its
        # indices, so that both passes see one pattern: relations with 0, 1
        # and at least 2 matchings, and computed permutations inside them and
        # outside.  The certificate must agree with the reference count.
        chains = maximal_chains(p)
        pairs = [(a, b) for a in chains[::step] for b in chains]
        seen = set()
        for seed in range(6):
            monkeypatch.setattr(oracle, "_witnesses", scrambled_witnesses(seed))
            reports = check_pairs(p, pairs)
            assert [r.to_dict() for r in reports] == [r.to_dict() for r in pairwise_reports(p, pairs)]
            for (a, b), r in zip(pairs, reports):
                count = count_consistent_permutations(projectivity_relation(p, a, b))
                seen.add((min(count, 2), r.entry("unique-permutation").detail.endswith("True")))
        assert seen == {(0, False), (1, False), (1, True), (2, False), (2, True)}

    @settings(GENERATED, max_examples=20)
    @given(SEMIMODULAR.filter(lambda p: p.height() <= COUNTING_LIMIT),
           st.integers(0, 10 ** 6), st.data())
    def test_index_pairs_match_index_chains(self, p, seed, data):
        # Rows of X: seeded maximal chains, the first again, and the first
        # reversed (a row of the same width, maximal only at height 0),
        # paired by drawn row ids, under the true cells and scrambled ones.
        chains = [random_maximal_chain(p, seed + k) for k in range(3)]
        chains += [chains[0], chains[0][::-1]]
        X = np.array([[p.index(e) for e in chain] for chain in chains])
        row = st.integers(0, len(X) - 1)
        pairs = data.draw(st.lists(st.tuples(row, row), max_size=12), label="pairs")
        first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        for scramble in (TRUE_WITNESSES, *map(scrambled_witnesses, range(3))):
            with mock.patch.object(oracle, "_witnesses", scramble):
                reports = [r.to_dict() for r in check_index_pairs(p, X, first, second)]
                assert reports == [r.to_dict() for r in row_pairs(p, X[first], X[second])]
                named = [(chains[a], chains[b]) for a, b in pairs]
                assert reports == [r.to_dict() for r in pairwise_reports(p, named)], p.name

    @pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "no-cycle"])
    def test_uniqueness_read_off_maximality_both_ways(self, monkeypatch, cycle):
        # pi is the identity on (B3_A, B3_A), related to step j >= i of
        # each step i, so consistent and not maximal; with a cycle, also to
        # every j < i.  Hand-ons only climb without the cycle, so the count
        # is 1 though maximality fails; with it, the count is at least 2.
        h = B3._view()[2]   # step [a, b] of a maximal chain is step h(b)
        monkeypatch.setattr(oracle, "_witnesses", lambda p, cells: np.where(
            cycle | (h[cells[:, 3]] >= h[cells[:, 1]]), 0, -1))
        monkeypatch.setattr(oracle, "match_index_chains", lambda p, C, D: (
            np.tile(np.arange(1, C.shape[1]), (len(C), 1)), None))
        report = check_theorem(B3, B3_A, B3_A)
        count = "at least 2" if cycle else "1"
        assert report.entries[2:] == (
            CheckEntry("unique-permutation", not cycle,
                       f"matching count {count}; computed permutation consistent: True"),
            CheckEntry("maximality", False, "violated at (i, j) pairs [(1, 2), (1, 3), (2, 3)]"))
        assert [report.to_dict()] == [r.to_dict() for r in pairwise_reports(B3, [(B3_A, B3_A)])]

    def test_computed_permutation_checked_not_trusted(self, monkeypatch):
        # Every cell related, and a pi that sends every step to column 1:
        # each pi(i) is related, but pi is no permutation, so not a matching.
        monkeypatch.setattr(oracle, "_witnesses", lambda p, cells: np.zeros(len(cells), dtype=np.intp))
        monkeypatch.setattr(oracle, "match_index_chains", lambda p, C, D: (
            np.ones((len(C), C.shape[1] - 1), dtype=np.intp), None))
        chains = maximal_chains(B3)
        pairs = [(a, b) for a in chains for b in chains]
        reports = check_pairs(B3, pairs)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in pairwise_reports(B3, pairs)]
        assert {r.entry("unique-permutation").detail for r in reports} == \
            {"matching count not decided; computed permutation consistent: False"}

    @pytest.mark.parametrize("position", ["first", "second"])
    def test_empty_chain_reported_not_maximal(self, position):
        pair = ((), B3_A) if position == "first" else (B3_A, ())
        lengths = "lengths 0 and 3" if position == "first" else "lengths 3 and 0"
        for report in (check_theorem(B3, *pair), *check_pairs(B3, [pair, pair]),
                       *pairwise_reports(B3, [pair])):
            assert report.entry("preconditions").detail == f"{position} chain is not maximal"
            assert report.entry("equal-length").detail == lengths
            assert not report.ok

    def test_long_pair_after_unevaluable_pairs_refused_before_any_cell(self, monkeypatch):
        def cells(*args, **kwargs):
            raise AssertionError("cell computed")

        monkeypatch.setattr(oracle, "_witnesses", cells)
        monkeypatch.setattr(oracle, "WORK_LIMIT", 22 * 22 * 23 - 1)
        p = chain_product([23])
        (chain,) = maximal_chains(p)
        short = chain[:3]
        # The pairs that are not evaluable cost nothing; the long pair exceeds the budget.
        with pytest.raises(SizeLimitError, match="exceeded at pair 2$"):
            check_pairs(p, [(short, ["0", "zzz"]), (chain, short), (chain, chain)])

    def test_index_entry_reports_and_refuses_as_check_pairs(self, monkeypatch):
        # B3: 72 scan steps a pair.  Pairs 0 and 3 are evaluable; pairs 1 and
        # 2 each hold a row that is no chain of covers, first or second, and
        # cost nothing.  Past a budget of two pairs, pair 3 is refused.
        bent = ["000", "100", "100", "111"]
        pairs = [(B3_A, B3_B), (bent, B3_A), (B3_A, bent), (B3_B, B3_A)]
        C, D = (np.array([[B3.index(e) for e in pair[side]] for pair in pairs]) for side in (0, 1))
        reports = row_pairs(B3, C, D)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in check_pairs(B3, pairs)]
        assert [r.entry("preconditions").detail for r in reports[1:3]] == \
            ["first chain is not maximal", "second chain is not maximal"]
        monkeypatch.setattr(oracle, "WORK_LIMIT", 2 * 72 - 1)
        with pytest.raises(SizeLimitError, match="exceeded at pair 3$") as by_index:
            row_pairs(B3, C, D)
        with pytest.raises(SizeLimitError) as by_name:
            check_pairs(B3, pairs)
        assert str(by_index.value) == str(by_name.value)

    @pytest.mark.parametrize("side, row", [("first", [0, 1, 3, 8]), ("second", [-1, 1, 3, 7])])
    def test_index_outside_the_poset_refused(self, side, row):
        # The first row of X outside is named: here a row of the first
        # chains, or of the second after good first ones.
        good = [B3.index(e) for e in B3_A]
        C, D = (np.array([good, row]), np.array([good, good]))
        if side == "second":
            C, D = D, C
        with pytest.raises(UnknownElementError, match=rf"^chain {re.escape(str(row))} holds "
                                                      r"an index outside 0\.\.7 of 'B3'$"):
            row_pairs(B3, C, D)

    @pytest.mark.parametrize("X, first, second", [
        (np.array([[0, 1]]), np.array([0]), np.array([0, 0])),
        (np.array([0, 1]), np.array([0]), np.array([0])),
        (np.array([[0.0, 1.0]]), np.array([0]), np.array([0])),
        (np.zeros((1, 0), dtype=int), np.array([0]), np.array([0])),
        ([[0, 1]], np.array([0]), np.array([0])),
    ], ids=["two-shapes", "one-dimensional", "floats", "empty-rows", "lists"])
    def test_index_arrays_of_the_wrong_shape_refused(self, X, first, second):
        with pytest.raises(PreconditionError, match=r"^(X must be an integer array|first and second "
                                                  r"must be integer arrays) of "):
            check_index_pairs(B3, X, first, second)

    @pytest.mark.parametrize("pairs", [1, 5, 6, 40])
    def test_pairs_of_maximal_chains_refused_as_check_pairs_refuses(self, monkeypatch, pairs):
        # B3: 3^2 * 8 = 72 scan steps a pair, so five pairs fit and pair 5 is refused.
        b3 = boolean_lattice(3)
        monkeypatch.setattr(oracle, "WORK_LIMIT", 5 * 72 + 71)
        drawn = [(random_maximal_chain(b3, 2 * k), random_maximal_chain(b3, 2 * k + 1))
                 for k in range(pairs)]
        if pairs <= 5:
            oracle._charge_maximal_pairs(b3, pairs)
            check_pairs(b3, drawn)
            return
        with pytest.raises(SizeLimitError, match="exceeded at pair 5$") as early:
            oracle._charge_maximal_pairs(b3, pairs)
        with pytest.raises(SizeLimitError) as late:
            check_pairs(b3, drawn)
        assert str(early.value) == str(late.value)

    def test_no_charge_where_no_pair_is_evaluable(self, monkeypatch):
        monkeypatch.setattr(oracle, "WORK_LIMIT", 0)
        oracle._charge_maximal_pairs(named_counterexample("n5"), 10**9)   # not semimodular

    def test_evaluable_pairs_of_two_lengths(self, monkeypatch):
        # The glued N5 has maximal chains of 4 and 5 steps.  With its
        # preconditions waived and an identity matcher, the equal-length
        # pairs of both lengths are evaluated in one pass.
        p = _glued_n5()
        monkeypatch.setattr(oracle, "_poset_preconditions", lambda p: None)
        monkeypatch.setattr(oracle, "match_index_chains", lambda p, C, D: (
            np.tile(np.arange(1, C.shape[1]), (len(C), 1)), None))
        chains = maximal_chains(p)
        assert {len(c) - 1 for c in chains} == {4, 5}
        pairs = [(a, b) for a in chains for b in chains] + [(chains[0], chains[0][:-1])]
        reports = check_pairs(p, pairs)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in pairwise_reports(p, pairs)]
        lengths = {r.entry("equal-length").detail for r in reports
                   if r.entry("unique-permutation").detail != oracle._SKIPPED}
        assert lengths == {"lengths 4 and 4", "lengths 5 and 5"}
        assert reports[-1].entry("preconditions").detail == "second chain is not maximal"

    @pytest.mark.parametrize("p", [named_counterexample("n5"), _glued_n5()], ids=["n5", "glued-n5"])
    def test_negative_controls_match_check_theorem(self, p):
        pairs = [(a, b) for a in maximal_chains(p) for b in maximal_chains(p)]
        reports = check_pairs(p, pairs)
        assert [r.to_dict() for r in reports] == \
            [check_theorem(p, a, b).to_dict() for a, b in pairs]
        assert all("not semimodular" in r.entry("preconditions").detail for r in reports)
        assert any(not r.entry("equal-length").passed for r in reports)

    def test_each_cell_evaluated_once(self, monkeypatch):
        passed, witnesses = [], oracle._witnesses

        def recording(p, cells):
            passed.append([tuple(cell) for cell in cells.tolist()])
            return witnesses(p, cells)

        monkeypatch.setattr(oracle, "_witnesses", recording)
        b4 = boolean_lattice(4)
        chains = maximal_chains(b4)
        pairs = [(a, b) for a in chains for b in chains]
        steps = {(*map(b4.index, s), *map(b4.index, t)) for a, b in pairs
                 for s in zip(a, a[1:]) for t in zip(b, b[1:])}
        assert len(steps) == len(b4.cover_pairs()) ** 2 == 1024
        for _ in range(2):
            passed.clear()
            assert all(r.ok for r in check_pairs(b4, pairs))
            (cells,) = passed
            assert len(cells) == len(set(cells)) and set(cells) == steps

    def test_oracle_calls_add_no_cache_entry(self):
        # A first pair decided by its preconditions, and one match, build the
        # poset's own tables; evaluating cells afterwards adds nothing to the poset.
        b4 = boolean_lattice(4)
        chains = maximal_chains(b4)
        check_pairs(b4, [(chains[0], chains[1][:-1])])
        jh_match(b4, chains[0], chains[1])
        keys = set(b4._cache)
        assert all(r.ok for r in check_pairs(b4, [(a, b) for a in chains[:3] for b in chains[:3]]))
        assert interval_updown_witness(b4, ("0000", "0001"), ("0010", "0011")) == ("0010", "0011")
        assert set(b4._cache) == keys

    def test_one_batch_match_and_no_per_pair_work(self, monkeypatch):
        calls: dict[str, int] = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        names = ("match_index_chains", "jh_match", "verify_matching",
                 "prime_up_projective", "is_maximal_chain", "_maximal_rows",
                 "_poset_preconditions", "_counterexample")
        for owner in (oracle, matching, projectivity, sl):
            for name in names:
                if hasattr(owner, name):
                    count(owner, name)
        b4 = boolean_lattice(4)
        chains = maximal_chains(b4)
        reports = check_pairs(b4, [(a, b) for a in chains for b in chains])
        assert len(reports) == 576 and all(r.ok for r in reports)
        # One matcher call for the one chain length; each distinct chain is
        # checked for maximality once, on its index row, and each side of the
        # batch by the matcher; the poset preconditions, and so the covering
        # law's scan, are decided once.
        assert [calls.get(name, 0) for name in names] == [1, 0, 0, 0, 0, 24 + 2, 1, 1]
        calls.clear()
        assert check_theorem(b4, chains[0], chains[-1]).ok
        assert [calls.get(name, 0) for name in names] == [1, 0, 0, 0, 0, 2 + 2, 1, 1]

    @settings(GENERATED, max_examples=6)
    @given(direct_products())
    def test_dual_subnormal_lattices_agree_with_composition(self, g):
        report = composition_analysis(g)
        dual = subnormal_lattice(g).dual()
        series = [tuple(s)[::-1] for s in report.series]
        rows = pair_rows(report)
        matched = rows[::max(1, len(rows) // 30)]
        pairs = [(series[i], series[j]) for (i, j), *_ in matched]
        assert all(r.ok for r in check_pairs(dual, pairs)), g.name
        for ((i, j), expected, _, _), (a, b) in zip(matched, pairs):
            (pi,) = all_consistent_permutations(projectivity_relation(dual, a, b))
            assert ascending(pi) == expected, (g.name, i, j)


def _package_imports(path: Path):
    """Each import of a `semilat` module in the source file at path, as the
    imported module relative to the package ("" for the package itself),
    the imported names and the node."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("semilat"):
                    yield a.name.removeprefix("semilat").lstrip("."), [], node
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:   # absolute: semilat, semilat.matching, ...
                if not module.startswith("semilat"):
                    continue
                module = module.removeprefix("semilat").lstrip(".")
            yield module, [a.name for a in node.names], node


def _assert_matcher_public(path: Path) -> None:
    """The module at path imports only public names from `matching`, and
    not the module itself."""
    for module, names, node in _package_imports(path):
        if module == "matching":
            assert names and not any(n.startswith("_") or n == "*" for n in names), \
                (path.name, ast.unparse(node))
        if not module:
            assert "matching" not in names, (path.name, ast.unparse(node))


def test_oracle_reads_no_projectivity_and_no_matcher_internals():
    # The oracle stays independent evidence: nothing from `projectivity`,
    # only public names from `matching`.
    path = Path(oracle.__file__)
    for module, names, node in _package_imports(path):
        assert module != "projectivity", ast.unparse(node)
        assert module or "projectivity" not in names, ast.unparse(node)
    _assert_matcher_public(path)


def test_no_module_imports_matcher_internals():
    # The matcher's private names stay in `matching`.
    paths = sorted(Path(oracle.__file__).parent.glob("*.py"))
    assert {"groups.py", "oracle.py", "cli.py", "__init__.py"} <= {p.name for p in paths}
    for path in paths:
        if path.name != "matching.py":
            _assert_matcher_public(path)

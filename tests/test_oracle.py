from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from semilat import (
    ChainLengthMismatchError,
    NoJoinError,
    Poset,
    ProjectivityRelation,
    SizeLimitError,
    boolean_lattice,
    chain_product,
    check_pairs,
    check_theorem,
    count_consistent_permutations,
    interval_updown_witness,
    jh_match,
    maximal_chains,
    named_counterexample,
    partition_lattice,
    projectivity_relation,
    random_maximal_chain,
    updown_projective,
)
from semilat import oracle

from enumeration import all_consistent_permutations
from strategies import GENERATED, chain_products, graphic_flats

SEMIMODULAR = st.one_of(chain_products(), graphic_flats())

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
B3 = boolean_lattice(3)

B2_A = ["0", "a", "1"]
B2_B = ["0", "b", "1"]
B3_A = ["000", "100", "110", "111"]
B3_B = ["000", "010", "110", "111"]


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

    def test_agrees_with_witness_search(self, small_corpus):
        # The dumb pairwise scan and the directed search must coincide, both
        # in existence and in the identity of the first witness.
        for p in small_corpus[:8]:
            covers = p.cover_pairs()
            for src in covers:
                for tgt in covers:
                    brute = interval_updown_witness(p, src, tgt)
                    direct = updown_projective(p, src, tgt)
                    if brute is None:
                        assert direct is None, (p.name, src, tgt)
                    else:
                        assert direct is not None and tuple(direct) == brute

    def test_refused_without_all_joins(self):
        with pytest.raises(NoJoinError, match=r"no common upper bound for \(a, b\)"):
            interval_updown_witness(named_counterexample("two_tops"), ("0", "a"), ("0", "b"))

    @settings(GENERATED, max_examples=30)
    @given(SEMIMODULAR.filter(lambda p: len(p) <= 30))
    def test_generated_witness_searches_agree(self, p):
        # The exhaustive mask and the directed search, on every pair of
        # prime intervals: same existence and same first witness.
        covers = p.cover_pairs()
        for src in covers:
            for tgt in covers:
                direct = updown_projective(p, src, tgt)
                assert interval_updown_witness(p, src, tgt) == \
                    (None if direct is None else tuple(direct)), (p.name, src, tgt)

    def test_cache_reuse_is_transparent(self):
        cache: dict = {}
        with_cache = projectivity_relation(B3, B3_A, B3_B, cache=cache)
        again = projectivity_relation(B3, B3_A, B3_B, cache=cache)
        plain = projectivity_relation(B3, B3_A, B3_B)
        assert with_cache == again == plain
        assert cache


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
        cache: dict = {}
        rng = random.Random(0)
        chains = maximal_chains(pi4)
        for _ in range(50):
            a = chains[rng.randrange(len(chains))]
            b = chains[rng.randrange(len(chains))]
            assert check_theorem(pi4, a, b, cache=cache).ok

    def test_long_chains_refused_before_the_relation(self, monkeypatch):
        def relation(*args, **kwargs):
            raise AssertionError("relation computed")

        monkeypatch.setattr(oracle, "projectivity_relation", relation)
        monkeypatch.setattr(oracle, "_evaluate_cells", relation)
        p = chain_product([23])
        (chain,) = maximal_chains(p)
        with pytest.raises(SizeLimitError, match="n <= 20"):
            check_theorem(p, chain, chain)
        # One long pair anywhere in the set refuses the whole set.
        with pytest.raises(SizeLimitError, match="n <= 20"):
            check_pairs(p, [(chain, chain.elements[:3]), (chain, chain)])

    @GENERATED
    @given(SEMIMODULAR, st.integers(0, 10 ** 6))
    def test_generated_lattices(self, p, seed):
        a = random_maximal_chain(p, 2 * seed)
        b = random_maximal_chain(p, 2 * seed + 1)
        if p.height() > oracle.COUNTING_LIMIT:
            with pytest.raises(SizeLimitError):
                check_theorem(p, a, b)
        else:
            assert check_theorem(p, a, b).ok, (p.name, list(a), list(b))

    def test_two_consistent_permutations_fail_uniqueness(self, monkeypatch):
        # A relation that admits both permutations of B2's two intervals.
        full = ProjectivityRelation(2, ((True, True), (True, True)),
                                    ((("b", "1"), ("b", "1")), (("a", "1"), ("a", "1"))))
        monkeypatch.setattr(oracle, "projectivity_relation", lambda *args, **kwargs: full)
        entry = check_theorem(B2, B2_A, B2_B).entry("unique-permutation")
        assert not entry.passed
        assert entry.detail == "matching count 2; computed permutation consistent: True"

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


def _glued_n5() -> Poset:
    """B2 with an N5 glued on at its top: a lattice, not semimodular, whose
    maximal chains have lengths 4 and 5."""
    return Poset.from_cover_list(
        "b2+n5", ["0", "a", "b", "m", "p", "q", "r", "1"],
        [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"),
         ("m", "p"), ("p", "r"), ("r", "1"), ("m", "q"), ("q", "1")])


def _mixed_pairs(p, seed: int) -> list:
    """Seeded maximal chains, a repeated chain, and, where the height allows,
    a non-maximal chain one step shorter, paired every way."""
    chains = [random_maximal_chain(p, seed + k).elements for k in range(3)]
    chains.append(chains[0])
    if len(chains[0]) >= 3:
        chains.append(chains[1][:1] + chains[1][2:])
    return [(a, b) for a in chains for b in chains]


class TestCheckPairs:
    @settings(GENERATED, max_examples=20)
    @given(SEMIMODULAR.filter(lambda p: p.height() <= oracle.COUNTING_LIMIT),
           st.integers(0, 10 ** 6))
    def test_generated_reports_match_check_theorem(self, p, seed):
        pairs = _mixed_pairs(p, seed)
        cache: dict = {}
        assert [r.to_dict() for r in check_pairs(p, pairs)] == \
            [check_theorem(p, a, b, cache=cache).to_dict() for a, b in pairs], p.name

    @pytest.mark.parametrize("p", [named_counterexample("n5"), _glued_n5()], ids=["n5", "glued-n5"])
    def test_negative_controls_match_check_theorem(self, p):
        pairs = [(a, b) for a in maximal_chains(p) for b in maximal_chains(p)]
        reports = check_pairs(p, pairs)
        assert [r.to_dict() for r in reports] == \
            [check_theorem(p, a, b).to_dict() for a, b in pairs]
        assert all("not semimodular" in r.entry("preconditions").detail for r in reports)
        assert any(not r.entry("equal-length").passed for r in reports)

    def test_each_cell_evaluated_once(self, monkeypatch):
        rows = []
        evaluate = oracle._evaluate_cells

        def counting(p, cells, cache):
            rows.extend(cells)
            evaluate(p, cells, cache)

        monkeypatch.setattr(oracle, "_evaluate_cells", counting)
        b4 = boolean_lattice(4)
        chains = maximal_chains(b4)
        pairs = [(a, b) for a in chains for b in chains]
        cache: dict = {}
        assert all(r.ok for r in check_pairs(b4, pairs, cache=cache))
        steps = {(s, t) for a, b in pairs
                 for s in zip(a, a.elements[1:]) for t in zip(b, b.elements[1:])}
        assert len(rows) == len(set(rows)) == len(steps) == len(b4.cover_pairs()) ** 2
        rows.clear()
        check_pairs(b4, pairs[:5], cache=cache)
        assert rows == []

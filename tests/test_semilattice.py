from __future__ import annotations

import pytest

from semilat import (
    MissingBoundsError,
    NoJoinError,
    NotJoinSemilatticeError,
    Poset,
    boolean_lattice,
    chain_product,
    count_maximal_chains,
    extend_to_maximal_chain,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    join,
    maximal_chains,
    meet,
    named_counterexample,
    partition_lattice,
)

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
N5 = named_counterexample("n5")
ANTICHAIN = named_counterexample("antichain2")


def semimodular_full_scan(p) -> bool:
    """Quantifier form of the law over all cover-or-equal pairs, as a cross
    check of the cover-only scan."""
    for a in p.elements:
        for b in p.elements:
            if not (a == b or p.is_cover(a, b)):
                continue
            for c in p.elements:
                u, v = join(p, a, c), join(p, b, c)
                if not (u == v or p.is_cover(u, v)):
                    return False
    return True


class TestJoinMeet:
    def test_b2_joins(self):
        assert join(B2, "a", "b") == "1"
        assert join(B2, "0", "a") == "a"
        assert join(B2, "a", "a") == "a"

    def test_b2_meets(self):
        assert meet(B2, "a", "b") == "0"
        assert meet(B2, "1", "a") == "a"

    def test_b3_meet_is_intersection(self):
        b3 = boolean_lattice(3)
        assert meet(b3, "110", "011") == "010"

    def test_antichain_has_no_join(self):
        with pytest.raises(NoJoinError, match="no common upper bound"):
            join(ANTICHAIN, "a", "b")
        assert meet(ANTICHAIN, "a", "b") is None

    def test_join_laws(self, small_corpus):
        for p in small_corpus:
            elems = p.elements
            for a in elems:
                for b in elems:
                    j = join(p, a, b)
                    assert j == join(p, b, a)
                    assert join(p, a, a) == a
                    assert p.leq(a, j) and p.leq(b, j)
                    # least among all common upper bounds
                    for u in elems:
                        if p.leq(a, u) and p.leq(b, u):
                            assert p.leq(j, u)

    def test_join_associative(self, small_corpus):
        for p in small_corpus[:6]:
            elems = p.elements
            for a in elems:
                for b in elems:
                    for c in elems:
                        assert join(p, join(p, a, b), c) == join(p, a, join(p, b, c))

    def test_absorption_where_meets_exist(self, small_corpus):
        # A finite join semilattice with a bottom has all meets.
        for p in small_corpus:
            if p.bottom() is None:
                continue
            for a in p.elements:
                for b in p.elements:
                    m = meet(p, a, b)
                    assert m is not None
                    assert meet(p, join(p, a, b), a) == a
                    assert join(p, m, a) == a


class TestJoinSemilattice:
    def test_corpus_members_qualify(self, corpus):
        for p in corpus:
            ok, offending = is_join_semilattice(p)
            assert ok and offending is None, p.name

    def test_antichain_fails(self):
        ok, offending = is_join_semilattice(ANTICHAIN)
        assert not ok
        assert offending == ("a", "b")

    def test_two_tops_fails(self):
        ok, offending = is_join_semilattice(named_counterexample("two_tops"))
        assert not ok
        assert offending == ("a", "b")


class TestSemimodularity:
    def test_corpus_is_semimodular(self, corpus):
        for p in corpus:
            assert is_semimodular(p).holds, p.name

    def test_n5_counterexample(self):
        report = is_semimodular(N5)
        assert not report.holds
        assert report.counterexample == ("0", "b", "a")
        # re-check the reported triple against the definition
        a, b, c = report.counterexample
        assert N5.is_cover(a, b)
        u, v = join(N5, a, c), join(N5, b, c)
        assert u != v and not N5.is_cover(u, v)

    def test_partition_lattice_semimodular(self):
        assert is_semimodular(partition_lattice(4)).holds

    def test_requires_join_semilattice(self):
        with pytest.raises(NotJoinSemilatticeError):
            is_semimodular(ANTICHAIN)

    def test_cover_scan_equals_full_scan(self, small_corpus):
        for p in small_corpus:
            assert is_semimodular(p).holds == semimodular_full_scan(p), p.name
        assert is_semimodular(N5).holds == semimodular_full_scan(N5) == False


class TestMaximalChains:
    def test_is_maximal_chain(self):
        assert is_maximal_chain(B2, ["0", "a", "1"])
        assert not is_maximal_chain(B2, ["0", "1"])
        assert not is_maximal_chain(B2, ["0", "a"])
        b3 = boolean_lattice(3)
        assert is_maximal_chain(b3, ["000", "100", "110", "111"])

    def test_missing_bounds(self):
        with pytest.raises(MissingBoundsError):
            is_maximal_chain(ANTICHAIN, ["a"])

    def test_counts(self):
        assert len(maximal_chains(boolean_lattice(3))) == 6
        assert count_maximal_chains(boolean_lattice(3)) == 6
        assert len(maximal_chains(partition_lattice(3))) == 3
        three_chain = Poset.from_cover_list("c3", ["0", "m", "1"],
                                            [("0", "m"), ("m", "1")])
        assert maximal_chains(three_chain) == [three_chain.chain(["0", "m", "1"])]

    def test_lexicographic_order_and_limit(self):
        b3 = boolean_lattice(3)
        chains = maximal_chains(b3)
        assert [list(c) for c in chains] == sorted([list(c) for c in chains])
        assert maximal_chains(b3, limit=2) == chains[:2]
        assert count_maximal_chains(b3) == len(chains)

    def test_count_matches_enumeration(self, corpus):
        for p in corpus:
            if len(p) <= 20:
                assert count_maximal_chains(p) == len(maximal_chains(p)), p.name

    def test_equal_length_on_semimodular_corpus(self, corpus):
        # Chain enumeration check, independent of the matching algorithm.
        for p in corpus:
            lengths = {c.length for c in maximal_chains(p, limit=500)}
            assert len(lengths) == 1, p.name

    def test_equal_length_in_intervals(self, small_corpus):
        for p in small_corpus[:10]:
            top = p.top()
            for x in p.elements:
                sub = p.interval(x, top)
                lengths = {c.length for c in maximal_chains(sub, limit=100)}
                assert len(lengths) == 1, (p.name, x)

    def test_n5_unequal_lengths(self):
        assert {c.length for c in maximal_chains(N5)} == {2, 3}

    def test_height_beyond_the_recursion_limit(self):
        p = chain_product([1200])
        assert count_maximal_chains(p) == 1
        chains = maximal_chains(p)
        assert len(chains) == 1
        assert chains[0].length == 1199


class TestExtendToMaximalChain:
    def test_contains_partial_and_is_maximal(self):
        b3 = boolean_lattice(3)
        for seed in range(5):
            ch = extend_to_maximal_chain(b3, ["100"], seed=seed)
            assert "100" in set(ch)
            assert is_maximal_chain(b3, ch)

    def test_gap_filling(self):
        b3 = boolean_lattice(3)
        ch = extend_to_maximal_chain(b3, ["000", "111"], seed=1)
        assert is_maximal_chain(b3, ch)

    def test_deterministic(self):
        b3 = boolean_lattice(3)
        assert extend_to_maximal_chain(b3, ["100"], seed=7) == \
            extend_to_maximal_chain(b3, ["100"], seed=7)

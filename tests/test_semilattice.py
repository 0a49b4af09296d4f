from __future__ import annotations

import ast
import json
import math
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semilat import semilattice as sl
from semilat import (
    InternalInvariantError,
    MissingBoundsError,
    NoJoinError,
    NotAChainError,
    NotJoinSemilatticeError,
    Poset,
    SemilatError,
    SemimodularityReport,
    SizeLimitError,
    boolean_lattice,
    builtin_group,
    chain_product,
    composition_analysis,
    count_maximal_chains,
    from_dict,
    graphic_flat_lattice,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    join,
    maximal_chains,
    meet,
    named_counterexample,
    partition_lattice,
    random_maximal_chain,
    save_poset,
    subnormal_lattice,
)
from semilat.cli import run as cli_run
from semilat.matching import _match
from semilat.oracle import _witnesses

from conftest import DATA, K4
from row_table import row_by_row_table
from strategies import (
    GENERATED,
    chain_products,
    closure_lattices,
    graphic_flats,
    join_semilattices,
    posets,
    wide_posets,
)
from walks import cover_heights, cover_walk, iterator_stack_chains

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


def reference_bounds(leq) -> tuple[list[list[int]], tuple[int, int] | None]:
    """Per-pair minimal common upper bounds under the 0/1 matrix `leq`, with
    the sentinels of the join table, and the first failing pair (i <= j) in
    row-major order."""
    n = len(leq)
    table = [[0] * n for _ in range(n)]
    first_bad = None
    for i in range(n):
        for j in range(i, n):
            ub = [k for k in range(n) if leq[i][k] and leq[j][k]]
            minimal = [k for k in ub if not any(m != k and leq[m][k] for m in ub)]
            v = -1 if not ub else minimal[0] if len(minimal) == 1 else -2
            table[i][j] = table[j][i] = v
            if v < 0 and first_bad is None:
                first_bad = (i, j)
    return table, first_bad


def assert_tables_exact(p) -> None:
    leq = p._leq.tolist()
    for (table, first_bad), order in ((sl._table(p), leq),
                                      (sl._table(p.dual()), [list(r) for r in zip(*leq)])):
        assert table.dtype == np.int32 and table.shape == (len(p), len(p))
        assert (table.tolist(), first_bad) == reference_bounds(order), p.name


def assert_tables_match_rows(p) -> None:
    """The packed-word table of p and of its dual equal the row-by-row
    reference in dtype, values and first failing pair."""
    for q in (p, p.dual()):
        (table, first_bad), (ref, ref_bad) = sl._table(q), row_by_row_table(q)
        assert table.dtype == ref.dtype == np.int32
        assert np.array_equal(table, ref) and first_bad == ref_bad, q.name


def scalar_counterexample(p):
    """First (a, b, c) violating the covering law, by nested scalar loops."""
    for a, b in p.cover_pairs():
        for c in p.elements:
            u, v = join(p, a, c), join(p, b, c)
            if u != v and not p.is_cover(u, v):
                return (a, b, c)
    return None


def full_table_answers(p):
    """`is_join_semilattice` and `is_semimodular` on a copy of p as the full join
    table gives them: its first failing pair, and the first triple of the scan
    of every (cover pair, element) entry, or None when p is no join semilattice."""
    q = from_dict(p.to_dict())
    first_bad = sl._table(q)[1]
    if first_bad is not None:
        return (False, tuple(q.elements[k] for k in first_bad)), None
    triple = sl._counterexample(q)
    return (True, None), SemimodularityReport(triple is None, triple)


BOWTIE = Poset.from_cover_list(
    "bowtie", ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
# a, b < c, d < t: the upper covers of each element have joins; only the two
# minimal elements have none.
BOWTIE_TOP = Poset.from_cover_list(
    "bowtie+top", ["a", "b", "c", "d", "t"],
    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "t"), ("d", "t")])
_CHAIN = [f"c{k:02d}" for k in range(70)]
CHAIN_BOWTIE = Poset.from_cover_list(
    "chain+bowtie", _CHAIN + ["x0", "x1", "y0", "y1"],
    list(zip(_CHAIN, _CHAIN[1:])) + [("c69", "x0"), ("c69", "x1")]
    + [(x, y) for x in ("x0", "x1") for y in ("y0", "y1")])


class TestBoundTables:
    def test_corpus_and_counterexamples(self, corpus):
        for p in [*corpus, N5, ANTICHAIN, BOWTIE, named_counterexample("two_tops")]:
            assert_tables_exact(p)

    def test_both_sentinels(self):
        table, first_bad = sl._table(BOWTIE)
        assert table.tolist() == [[0, -2, 2, 3], [-2, 1, 2, 3], [2, 2, 2, -1], [3, 3, -1, 3]]
        assert first_bad == (0, 1)
        with pytest.raises(NoJoinError, match="several minimal"):
            join(BOWTIE, "a", "b")
        with pytest.raises(NoJoinError, match="no common upper bound"):
            join(BOWTIE, "c", "d")
        assert meet(BOWTIE, "c", "d") is None
        assert is_join_semilattice(BOWTIE) == (False, ("a", "b"))

    @GENERATED
    @given(posets())
    def test_generated_posets(self, p):
        assert_tables_exact(p)
        ok, pair = is_join_semilattice(p)
        first_bad = reference_bounds(p._leq.tolist())[1]
        assert ok == (first_bad is None)
        assert pair == (None if ok else tuple(p.elements[k] for k in first_bad))

    @GENERATED
    @given(st.one_of(posets(), join_semilattices()), st.sampled_from([0, sl._SMALL_TABLE]),
           st.sampled_from([1, 7, sl._BLOCK]))
    def test_local_decision_equals_the_full_table(self, p, small, block):
        """On a fresh poset, the verdict and pair of `is_join_semilattice` and
        the report of `is_semimodular`, decided on the local pairs with joins
        from the packed up-sets or the table, are the full table's."""
        with mock.patch.multiple(sl, _SMALL_TABLE=small, _BLOCK=block):
            verdict = is_join_semilattice(p)
            report = is_semimodular(p) if verdict[0] else None
        assert (verdict, report) == full_table_answers(p)
        TestCoverPairs.assert_rows_are_the_combinations(p)   # the pairs the verdict read

    def test_only_the_minimal_pair_clause_refuses(self):
        p = from_dict(BOWTIE_TOP.to_dict())
        with mock.patch.object(sl, "_SMALL_TABLE", 0):   # decided locally: no table at hand
            assert (sl._cover_joins(p)[1] >= 0).all() and "join" not in p._cache
            assert is_join_semilattice(p) == (False, ("a", "b"))
        with pytest.raises(NotJoinSemilatticeError, match=r"\('a', 'b'\)"):
            is_semimodular(p)

    def test_a_failed_local_test_the_table_does_not_see_is_a_bug(self, monkeypatch):
        # At every size: B2's table is small, and the local test still runs first.
        monkeypatch.setattr(sl, "_join_of", lambda p, a, b, reads=None:
                            np.full(np.broadcast(a, b).shape, sl._NONE))
        with pytest.raises(InternalInvariantError, match="^'B2' lacks a join of two upper "
                                                         "covers or of two minimal elements"):
            is_join_semilattice(boolean_lattice(2))

    def test_the_table_decides_where_it_is_cheaper(self, monkeypatch):
        """The 11,325 pairs of the 151 minimal elements of this 200-element
        poset are more than half the table's 20,100: `_join_of` reads them
        off the table it builds."""
        names, chain = [f"a{k:03d}" for k in range(150)], [f"c{k:02d}" for k in range(49)]
        p = Poset.from_cover_list("V", names + chain + ["t"], [(a, "t") for a in names]
                                  + list(zip(chain, chain[1:])) + [("c48", "t")])
        packed, read = sl._packed_joins, []
        monkeypatch.setattr(sl, "_packed_joins", lambda p, a, b: read.append(len(a)) or
                            packed(p, a, b))
        assert is_join_semilattice(p) == (True, None) and "join" in p._cache
        assert sum(read) == 0   # the upper covers of one element: no pair

    def test_join_of_equals_the_table(self):
        """`_join_of` on a fresh poset, row by row and on a block of columns,
        reads fewer than half the table's pairs, so it reads the packed
        up-sets and builds no table; on every pair it builds and reads the table.
        Scalar `join` reads the same values, raising where they are sentinels."""
        for p in [*(chain_product([k]) for k in (64, 65, 128, 129)), CHAIN_BOWTIE]:
            table, fresh, every = sl._table(from_dict(p.to_dict()))[0], from_dict(p.to_dict()), \
                np.arange(len(p))
            with mock.patch.multiple(sl, _SMALL_TABLE=0, _BLOCK=64):
                for i in every:
                    assert np.array_equal(sl._join_of(fresh, i, every), table[i]), (p.name, i)
                assert np.array_equal(sl._join_of(fresh, every[:, None], every[:8]), table[:, :8])
                assert "join" not in fresh._cache
                assert np.array_equal(sl._join_of(fresh, every[:, None], every), table)
            assert "join" in fresh._cache
            for (i, a), (j, b) in combinations_with_replacement(enumerate(fresh.elements), 2):
                if table[i, j] >= 0:
                    assert join(fresh, a, b) == join(fresh, b, a) == fresh.elements[table[i, j]]
                else:
                    with pytest.raises(NoJoinError, match="several" if table[i, j] == sl._AMBIGUOUS
                                       else "no common"):
                        join(fresh, a, b)

    @settings(GENERATED, max_examples=8)
    @given(wide_posets())
    def test_packed_words_equal_the_row_reference(self, p):
        assert_tables_match_rows(p)
        for q in (p, p.dual()):
            assert np.isin([sl._NONE, sl._AMBIGUOUS], sl._table(q)[0]).all()

    def test_word_boundaries(self):
        for p in [*(chain_product([k]) for k in (64, 65, 128, 129)), CHAIN_BOWTIE]:
            assert_tables_match_rows(p)
        # The first sentinel lies past the first word, by index and by rank.
        table, first_bad = sl._table(CHAIN_BOWTIE)
        assert first_bad == (70, 71) and table[70, 71] == sl._AMBIGUOUS
        assert table[72, 73] == sl._NONE
        assert CHAIN_BOWTIE._view()[1].tolist()[70:] == [70, 71, 72, 73]

    def test_counterexample_beyond_the_first_block(self):
        # An N5 on top of a 196-element chain: its covers come last, past the
        # first blocks of cover pairs the scan takes at once.
        chain = [f"c{k:03d}" for k in range(196)]
        n5 = [("c195", "na"), ("na", "nc"), ("nc", "nt"), ("c195", "nb"), ("nb", "nt")]
        p = Poset.from_cover_list("chain+n5", chain + ["na", "nb", "nc", "nt"],
                                  list(zip(chain, chain[1:])) + n5)
        assert is_semimodular(p).counterexample == scalar_counterexample(p) == \
            ("c195", "nb", "na")

    @GENERATED
    @given(closure_lattices())
    def test_semimodularity_matches_scalar_scan(self, p):
        report = is_semimodular(p)
        expected = scalar_counterexample(p)
        assert report.holds == (expected is None)
        assert report.counterexample == expected

    @GENERATED
    @given(join_semilattices())
    def test_semimodularity_matches_scalar_scan_with_or_without_a_bottom(self, p):
        """Birkhoff's condition on pairs of upper covers decides the law on
        every finite join semilattice, and the scan names the scalar triple."""
        report = is_semimodular(p)
        assert report.counterexample == scalar_counterexample(p)
        assert report.holds == (report.counterexample is None)

    def test_a_failed_condition_without_a_counterexample_is_a_bug(self, monkeypatch):
        # Each upper cover paired with itself, its join the cover: x is not covered
        # by x v x = x, so the condition fails on B2, where the scan finds no triple.
        def self_pairs(p):
            ups = p._cover_index()[1]
            return np.column_stack([ups, ups]), ups

        monkeypatch.setattr(sl, "_cover_joins", self_pairs)
        with pytest.raises(InternalInvariantError, match="^'B2' breaks Birkhoff's covering "
                                                         "condition, yet no triple breaks"):
            is_semimodular(boolean_lattice(2))


def combination_rows(p: Poset) -> list[tuple[int, int]]:
    """Every two upper covers of one element, each pair once: `combinations`
    over each element's upper covers in turn, the reference for `_cover_joins`."""
    return [pair for ups in p._view()[0] for pair in combinations(ups, 2)]


class TestCoverPairs:
    """`_cover_joins` lists its pairs from the cover index by array work; the
    rows are those of `combinations` over the upper covers, in order.  The
    generated posets of `test_local_decision_equals_the_full_table` check it too."""

    @staticmethod
    def assert_rows_are_the_combinations(p):
        pairs, joins = sl._cover_joins(p)
        expected = combination_rows(p)
        assert pairs.dtype == np.intp and pairs.shape == (len(expected), 2)
        assert list(map(tuple, pairs.tolist())) == expected
        assert np.array_equal(joins, sl._join_of(p, pairs[:, 0], pairs[:, 1]))

    def test_corpus(self, corpus):
        # Tops have no upper cover, chains one at each element; C300 and the antichain no pair.
        cases = [*corpus, chain_product([300]),
                 from_dict(json.loads((DATA / "antichain2.json").read_text()))]
        assert {len(ups) for p in cases for ups in p._view()[0]} >= {0, 1, 2, 3}
        assert [len(combination_rows(p)) for p in cases[-2:]] == [0, 0]
        for p in cases:
            self.assert_rows_are_the_combinations(from_dict(p.to_dict()))


class TestOneBlockBound:
    """`sl._BLOCK` bounds the blocks of all five blocked loops: the join table,
    joins from the packed up-sets, the semimodularity scan, the oracle's cell
    scan and the matcher.  No value of it changes an answer."""

    LATTICES = {"B4": boolean_lattice(4), "Pi4": partition_lattice(4),
                "dual-Pi4": partition_lattice(4).dual(), "C5x5x5": chain_product([5, 5, 5]),
                "bowtie": BOWTIE}

    @staticmethod
    def outcomes(p) -> list:
        """What each blocked loop gives on a fresh copy of p, errors as text."""
        p = from_dict(p.to_dict())

        def attempt(f):
            try:
                return f()
            except SemilatError as e:
                return f"{type(e).__name__}: {e}"

        ends = np.unique(np.r_[:12, -12:0] % len(p))   # the first and last 12 elements
        a, b = np.repeat(ends, len(ends)), np.tile(ends, len(ends))
        packed = sl._packed_joins(from_dict(p.to_dict()), a, b).tolist()
        table, first_bad = sl._table(p)
        report = attempt(lambda: is_semimodular(p))
        covers = np.argwhere(p._covers)[:40]
        cells = np.hstack([np.repeat(covers, len(covers), axis=0), np.tile(covers, (len(covers), 1))])
        found = [table.tolist(), first_bad, report, attempt(lambda: _witnesses(p, cells).tolist()),
                 packed]
        if report == SemimodularityReport(True):
            rows = np.array([[p.index(e) for e in random_maximal_chain(p, seed)]
                             for seed in range(24)])
            found.append([a.tolist() for a in _match(p, rows[:12], rows[12:])])
        return found

    @pytest.mark.parametrize("name", LATTICES)
    def test_every_blocked_loop_ignores_the_bound(self, name):
        p = self.LATTICES[name]
        expected = self.outcomes(p)
        assert len(expected) == (5 if name in ("dual-Pi4", "bowtie") else 6)
        for block in (1, 7, 64):
            with mock.patch.object(sl, "_BLOCK", block):
                assert self.outcomes(p) == expected, (name, block)

    def test_the_bound_is_the_only_one(self):
        src = Path(sl.__file__).parent
        assert [(path.name, line.split("=")[0].strip())
                for path in sorted(src.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if "BLOCK" in line and "=" in line and not line.startswith(" ")] == \
            [("semilattice.py", "_BLOCK")]

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

    def test_meet_builds_no_table_past_the_small_size(self):
        """On 100 elements a meet is one join of the dual, read off its packed
        up-sets: the coordinatewise minimum, with no table of either order."""
        p = chain_product([10, 10])
        for a, b in [("3.7", "5.2"), ("0.9", "9.0"), ("4.4", "4.4"), ("2.3", "6.8")]:
            low = ".".join(min(x, y) for x, y in zip(a.split("."), b.split(".")))
            assert meet(p, a, b) == meet(p, b, a) == low
        assert "join" not in p.dual()._cache and "join" not in p._cache

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
        assert not is_maximal_chain(B2, ())

    def test_missing_bounds(self):
        with pytest.raises(MissingBoundsError):
            is_maximal_chain(ANTICHAIN, ["a"])

    def test_chain_that_is_not_iterable(self):
        with pytest.raises(NotAChainError, match="^a chain must be iterable, got int$"):
            is_maximal_chain(boolean_lattice(3), 5)

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
        assert maximal_chains(b3, limit=0) == []
        assert count_maximal_chains(b3) == len(chains)

    def test_listing_refused_by_the_count(self):
        p = chain_product([2] * 7 + [3])   # 384 elements
        assert count_maximal_chains(p) == 181_440 > sl.CHAIN_LIMIT
        message = f"^listing is limited to <= {sl.CHAIN_LIMIT} maximal chains, got 181440$"
        for limit in (None, sl.CHAIN_LIMIT + 1):
            with pytest.raises(SizeLimitError, match=message):
                maximal_chains(p, limit)
        assert maximal_chains(p, 7) == iterator_stack_chains(p, 7)

    def test_count_matches_enumeration(self, corpus):
        for p in corpus:
            if len(p) <= 20:
                assert count_maximal_chains(p) == len(maximal_chains(p)), p.name

    def test_equal_length_on_semimodular_corpus(self, corpus):
        # Chain enumeration check, independent of the matching algorithm.
        for p in corpus:
            lengths = {len(c) - 1 for c in maximal_chains(p, limit=500)}
            assert len(lengths) == 1, p.name

    def test_equal_length_in_intervals(self, small_corpus):
        for p in small_corpus[:10]:
            top = p.top()
            for x in p.elements:
                sub = p.interval(x, top)
                lengths = {len(c) - 1 for c in maximal_chains(sub, limit=100)}
                assert len(lengths) == 1, (p.name, x)

    def test_same_chains_as_the_iterator_stack_on_the_corpus(self, corpus):
        for p in corpus:
            # limit=0 is left out: the reference still returns one chain there.
            for limit in (None, 1, 7):
                assert maximal_chains(p, limit) == iterator_stack_chains(p, limit), \
                    (p.name, limit)

    @GENERATED
    @given(st.one_of(chain_products(), graphic_flats()), st.none() | st.integers(1, 50))
    def test_same_chains_as_the_iterator_stack(self, p, limit):
        assert maximal_chains(p, limit) == iterator_stack_chains(p, limit)

    def test_n5_unequal_lengths(self):
        assert {len(c) - 1 for c in maximal_chains(N5)} == {2, 3}

    def test_height_beyond_the_recursion_limit(self):
        p = chain_product([1200])
        assert count_maximal_chains(p) == 1
        chains = maximal_chains(p)
        assert len(chains) == 1
        assert len(chains[0]) - 1 == 1199

    def test_exact_count_beyond_64_bits(self):
        # C(68, 34) > 2**63, so the count must be exact in Python ints.
        assert count_maximal_chains(chain_product([35, 35])) == math.comb(68, 34)


class TestIndexWalks:
    """The chain walks read the poset's cover index lists: with
    `Poset.upper_covers` raising, they still give the name-level answers."""

    @staticmethod
    def lattices():
        return [boolean_lattice(4), partition_lattice(4), chain_product([2, 3, 3]),
                graphic_flat_lattice(K4)]

    def test_no_walk_reads_upper_covers(self, monkeypatch, tmp_path, capsys):
        expected = [(iterator_stack_chains(p), iterator_stack_chains(p, 7), cover_heights(p),
                     [cover_walk(p, seed) for seed in range(20)]) for p in self.lattices()]
        series = iterator_stack_chains(subnormal_lattice(builtin_group("Z2xZ2xZ2")))
        b4 = boolean_lattice(4)
        save_poset(b4, str(tmp_path / "b4.json"))

        def refuse(poset, element):
            raise AssertionError("a chain walk read upper_covers")

        monkeypatch.setattr(Poset, "upper_covers", refuse)
        for p, (chains, first7, heights, walks) in zip(self.lattices(), expected):
            assert maximal_chains(p) == chains and maximal_chains(p, 7) == first7, p.name
            assert count_maximal_chains(p) == len(chains), p.name
            assert dict(zip(p.elements, p._view()[2].tolist())) == heights, p.name
            assert [random_maximal_chain(p, seed) for seed in range(20)] == walks, p.name
        report = composition_analysis(builtin_group("Z2xZ2xZ2"))
        assert report.ok and report.series == tuple(series)
        capsys.readouterr()
        assert cli_run(["verify", str(tmp_path / "b4.json"), "--samples", "30", "--seed", "2",
                        "--json", "--full"]) == 0
        out = json.loads(capsys.readouterr().out)
        monkeypatch.undo()   # the reference walks read upper_covers
        assert out["failures"] == 0
        assert [(tuple(r["chain_a"]), tuple(r["chain_b"])) for r in out["reports"]] == \
            [(cover_walk(b4, sa), cover_walk(b4, sb)) for sa, sb in out["pair_seeds"]]


def test_only_poset_reads_upper_covers():
    # Chain walks stay on index lists: no other module of the package names
    # `Poset.upper_covers`.
    paths = sorted(Path(sl.__file__).parent.glob("*.py"))
    assert {"poset.py", "semilattice.py", "generators.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        if path.name == "poset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name) else None)
            assert named != "upper_covers", (path.name, node.lineno)

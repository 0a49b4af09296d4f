from __future__ import annotations

import inspect
import io
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semilat import (
    InternalInvariantError,
    MatchingCheck,
    MatchingResult,
    NotAChainError,
    NotJoinSemilatticeError,
    NotMaximalChainError,
    NotSemimodularError,
    Poset,
    PreconditionError,
    SemilatError,
    UnknownElementError,
    boolean_lattice,
    builtin_group,
    chain_product,
    check_pairs,
    check_theorem,
    composition_analysis,
    from_dict,
    is_maximal_chain,
    is_semimodular,
    jh_match,
    match_index_chains,
    maximal_chains,
    named_counterexample,
    partition_lattice,
    prime_up_projective,
    projectivity_relation,
    random_maximal_chain,
    save_poset,
    subnormal_lattice,
    verify_matching,
)
from semilat import semilattice as sl
from semilat.cli import run as cli_run
from semilat.matching import _match

from conftest import break_witness_entry
from enumeration import COUNTING_LIMIT, count_consistent_permutations
from scalar_match import scalar_match
from strategies import (GENERATED, antimatroid_lattice, antimatroids, chain_products,
                        closure_lattices, direct_products, graphic_flats, letter_set_name)

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
B3 = boolean_lattice(3)

B3_CHAIN_A = ["000", "100", "110", "111"]
B3_CHAIN_B = ["000", "010", "110", "111"]

Z4 = builtin_group("Z4")
Z4_SERIES = ["0", "0.2", "0.1.2.3"]

# Each entry that takes chains of names: the poset that checks them, a
# valid first chain, and the call with a given first chain.
CHAIN_ENTRIES = {
    "jh_match": (B3, B3_CHAIN_A, lambda ch: jh_match(B3, ch, B3_CHAIN_B)),
    "verify_matching": (B3, B3_CHAIN_A, lambda ch: verify_matching(
        B3, ch, B3_CHAIN_B, jh_match(B3, B3_CHAIN_A, B3_CHAIN_B))),
    "composition_analysis": (subnormal_lattice(Z4), Z4_SERIES, lambda ch: composition_analysis(
        Z4, series_a=ch, series_b=Z4_SERIES)),
}

SEMIMODULAR = st.one_of(chain_products(), graphic_flats(),
                        closure_lattices().filter(lambda p: is_semimodular(p).holds))


def index_chain(p, chain):
    return [p.index(e) for e in chain]


def assert_theorem_holds(p, a, b):
    """The join-matrix pi of (a, b) is the oracle's one consistent
    permutation, and it is maximal."""
    pi = _match(p, np.array([index_chain(p, a)]), np.array([index_chain(p, b)]))[0][0]
    rel = projectivity_relation(p, a, b)
    assert count_consistent_permutations(rel) == 1
    assert all(rel.related[i][pi[i] - 1] for i in range(rel.n))
    assert not any(rel.related[i][j] for i in range(rel.n) for j in range(pi[i], rel.n))
    assert check_theorem(p, a, b).ok


class TestWorkedFixtures:
    def test_b2(self):
        result = jh_match(B2, ["0", "a", "1"], ["0", "b", "1"])
        assert result.pi == (2, 1)
        assert result.witnesses == (("b", "1"), ("a", "1"))

    def test_b3(self):
        result = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B)
        assert result.pi == (2, 1, 3)
        assert result.witnesses == (
            ("010", "110"), ("100", "110"), ("110", "111"))

    def test_identity_chains(self, corpus):
        for p in corpus:
            chain = random_maximal_chain(p, seed=3)
            result = jh_match(p, chain, chain)
            assert result.pi == tuple(range(1, result.n + 1)), p.name
            assert result.witnesses == tuple(
                (chain[i], chain[i + 1]) for i in range(result.n))

    def test_singleton_lattice(self):
        b0 = boolean_lattice(0)
        result = jh_match(b0, ["0"], ["0"])
        assert result.n == 0
        assert result.pi == ()
        assert result.witnesses == ()


def step_letters(chain) -> list[int]:
    """The letter each step of a maximal chain of an antimatroid lattice adds."""
    return [next(x for x, (u, v) in enumerate(zip(s, t)) if u != v) for s, t in zip(chain, chain[1:])]


def closed_form(a, b) -> tuple[tuple[int, ...], tuple[tuple[str, str], ...]]:
    """pi and the witnesses of two maximal chains of an antimatroid lattice:
    if a adds the letter x at step i, then b adds it at step pi(i), and the
    witness is (X, X ∪ {x}) with X = a_{i-1} ∪ b_{pi(i)-1}."""
    n, bits = len(a[0]), (lambda name: int(name[::-1], 2))
    step_b = {x: j for j, x in enumerate(step_letters(b), start=1)}
    pi = [step_b[x] for x in step_letters(a)]
    cores = [bits(a[i - 1]) | bits(b[j - 1]) for i, j in enumerate(pi, start=1)]
    return tuple(pi), tuple((letter_set_name(X, n), letter_set_name(X | 1 << x, n))
                            for X, x in zip(cores, step_letters(a)))


class TestAntimatroids:
    """Antimatroid lattices, whose matching is known in closed form, so no
    oracle is needed; their duals are the negative controls."""

    @settings(GENERATED, max_examples=60)
    @given(antimatroids(), st.integers(0, 10 ** 6))
    def test_closed_form(self, p, seed):
        self.assert_closed_form(p, seed)

    @settings(GENERATED, max_examples=15)
    @given(antimatroids(min_letters=COUNTING_LIMIT + 1, max_letters=24, max_words=3),
           st.integers(0, 10 ** 6))
    def test_closed_form_beyond_the_reference_count(self, p, seed):
        """Past the reference count's 20 steps the oracle still decides."""
        self.assert_closed_form(p, seed)

    @staticmethod
    def assert_closed_form(p, seed):
        chains = [random_maximal_chain(p, seed + t) for t in range(4)]
        pairs = [(a, b) for a in chains[:2] for b in chains[2:]]
        expected = [closed_form(a, b) for a, b in pairs]
        assert [(r.pi, r.witnesses) for r in (jh_match(p, a, b) for a, b in pairs)] == expected
        pi, W = match_index_chains(p, *(np.array([index_chain(p, pair[k]) for pair in pairs])
                                        for k in (0, 1)))
        names = p.elements
        assert [(tuple(row), tuple((names[x], names[y]) for x, y in w))
                for row, w in zip(pi.tolist(), W.tolist())] == expected
        assert all(report.ok for report in check_pairs(p, pairs))

    def test_two_words_beyond_the_oracle(self):
        n = 40
        sigma = random.Random(n).sample(range(n), n)
        p = antimatroid_lattice([list(range(n)), sigma])
        a, b = ([letter_set_name(sum(1 << x for x in w[:t]), n) for t in range(n + 1)]
                for w in (range(n), sigma))
        assert n > COUNTING_LIMIT and len(p) > 400
        result = jh_match(p, a, b)
        # The prefixes of 0..n-1 against those of sigma: pi is sigma's inverse.
        assert result.pi == tuple(sigma.index(x) + 1 for x in range(n))
        assert (result.pi, result.witnesses) == closed_form(a, b)
        # The oracle decides uniqueness without counting, so at every length.
        (report,) = check_pairs(p, [(a, b)])
        assert report.ok, report.to_dict()

    @settings(GENERATED, max_examples=30)
    @given(antimatroids(), st.integers(0, 10 ** 6))
    def test_duals(self, p, seed):
        """A dual is semimodular exactly when the family is closed under
        intersection: a poset antimatroid, whose lattice is distributive.
        On every other dual, `match` refuses and `verify` reports failures."""
        family = {int(name[::-1], 2) for name in p.elements}
        distributive = all(s & t in family for s in family for t in family)
        dual = p.dual()
        assert is_semimodular(dual).holds == distributive
        a, b = (",".join(random_maximal_chain(dual, seed + t)) for t in range(2))
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            path = str(Path(tmp) / "dual.json")
            save_poset(dual, path)
            assert cli_run(["match", path, "--chain-a", a, "--chain-b", b]) == (not distributive)
            assert cli_run(["verify", path]) == (not distributive)
        assert ("not semimodular" in err.getvalue()) == (not distributive)


class TestWitnessValidity:
    def test_all_witnesses_check_on_both_chains(self, corpus):
        for p in corpus:
            if len(p) > 20:
                continue
            chains = maximal_chains(p, limit=6)
            for C in chains:
                for D in chains:
                    result = jh_match(p, C, D)
                    for i in range(1, result.n + 1):
                        w = result.witnesses[i - 1]
                        j = result.pi[i - 1]
                        src = (C[i - 1], C[i])
                        tgt = (D[j - 1], D[j])
                        assert prime_up_projective(p, src, w)
                        assert prime_up_projective(p, tgt, w)


class TestTrace:
    def test_b3_trace_structure(self):
        result = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B, keep_trace=True)
        assert result.trace is not None
        assert [f.level for f in result.trace] == [0, 1]
        top = result.trace[0]
        assert top.l == 1
        assert top.lifted_chain == ("100", "110", "111")
        assert dict(top.sigma) == {2: 1, 3: 3}

    def test_trace_levels_and_collapse(self, corpus):
        for p in corpus[:12]:
            chains = maximal_chains(p, limit=3)
            C, D = chains[0], chains[-1]
            result = jh_match(p, C, D, keep_trace=True)
            # one frame per non-base recursion level
            assert [f.level for f in result.trace] == list(range(max(result.n - 1, 0)))
            for f in result.trace:
                assert 0 <= f.l < len(f.lifted_chain)
                # the deduplicated lifted chain is maximal above its start
                sub = p.interval(f.lifted_chain[0], f.lifted_chain[-1])
                assert is_maximal_chain(sub, f.lifted_chain)

    def test_no_trace_by_default(self):
        assert jh_match(B2, ["0", "a", "1"], ["0", "b", "1"]).trace is None


class TestAmbientPoset:
    """The matcher reads the given poset only: no interval sub-posets, no recursion."""

    def test_no_interval_needed(self, corpus, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError(f"interval({x}, {y}) built by the matcher")

        monkeypatch.setattr(Poset, "interval", refuse)
        for p in corpus:
            chains = maximal_chains(p, limit=3)
            result = jh_match(p, chains[0], chains[-1], keep_trace=True)
            assert sorted(result.pi) == list(range(1, result.n + 1)), p.name

    def test_no_interval_cached(self):
        p = boolean_lattice(4)
        chains = maximal_chains(p)
        jh_match(p, chains[0], chains[-1])
        assert not [key for key in p._cache if isinstance(key, tuple) and key[0] == "interval"]

    def test_constant_stack_depth(self):
        p = chain_product([2, 60])
        chains = maximal_chains(p, limit=2)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            result = jh_match(p, chains[0], chains[-1])
        finally:
            sys.setrecursionlimit(old_limit)
        assert result.n == 60


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B, keep_trace=True)
        second = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B, keep_trace=True)
        assert first == second


class TestRefusals:
    def test_not_semimodular(self):
        n5 = named_counterexample("n5")
        with pytest.raises(NotSemimodularError) as err:
            jh_match(n5, ["0", "b", "1"], ["0", "b", "1"])
        assert err.value.counterexample == ("0", "b", "a")

    def test_not_join_semilattice(self):
        antichain = named_counterexample("antichain2")
        with pytest.raises(NotJoinSemilatticeError):
            jh_match(antichain, ["a"], ["b"])
        two_tops = named_counterexample("two_tops")
        with pytest.raises(NotJoinSemilatticeError):
            jh_match(two_tops, ["0", "a"], ["0", "b"])

    def test_non_maximal_chain(self):
        with pytest.raises(NotMaximalChainError):
            jh_match(B3, ["000", "110", "111"], B3_CHAIN_B)

    def test_unequal_length_input_refused(self):
        # In a validated poset two maximal chains cannot differ in length, so
        # unequal input always fails the maximality check first.
        with pytest.raises(NotMaximalChainError):
            jh_match(B3, ["000", "100", "110", "111"], ["000", "110", "111"])


    @pytest.mark.parametrize("entry", list(CHAIN_ENTRIES))
    @pytest.mark.parametrize("bad, error", [
        (lambda c: c[:2] + c[1:], NotAChainError),
        (lambda c: [c[0], c[2], c[1], *c[3:]], NotAChainError),
        (lambda c: [c[0], "zzz", *c[1:]], UnknownElementError),
        (lambda c: 5, NotAChainError),
    ], ids=["repeated", "out-of-order", "unknown-name", "not-iterable"])
    def test_same_chain_same_error(self, entry, bad, error):
        # A bad chain of names, as a list, a tuple or a generator, is refused
        # by every entry exactly as `Poset.chain` refuses it.
        poset, valid, call = CHAIN_ENTRIES[entry]
        names = bad(valid)
        forms = [names, tuple(names), (e for e in names)] if isinstance(names, list) else [names]

        def refusal(run):
            with pytest.raises(SemilatError) as refused:
                run()
            return type(refused.value), str(refused.value)

        expected = refusal(lambda: poset.chain(names))
        assert expected[0] is error
        assert [refusal(lambda: call(form)) for form in forms] == [expected] * len(forms)


class TestVerifyMatching:
    def test_valid_result_passes(self):
        result = jh_match(B2, ["0", "a", "1"], ["0", "b", "1"])
        check = verify_matching(B2, ["0", "a", "1"], ["0", "b", "1"], result)
        assert check.ok and check.failures == ()

    def test_tampered_permutation_caught(self):
        tampered = MatchingResult(n=2, pi=(1, 2),
                                  witnesses=(("b", "1"), ("a", "1")))
        check = verify_matching(B2, ["0", "a", "1"], ["0", "b", "1"], tampered)
        assert not check.ok
        assert any("index 1" in f for f in check.failures)

    def test_witness_not_two_names_reported(self):
        tampered = MatchingResult(3, (1, 2, 3), (("000",), ("100", "110"), ("110", "111")))
        check = verify_matching(B3, B3_CHAIN_A, B3_CHAIN_A, tampered)
        assert check == MatchingCheck(False, ("index 1: witness ('000',) is not two names",))

    @pytest.mark.parametrize("pi", [(1, 2), (1.0, 2, 3), (True, 2, 3), ("1", 2, 3)])
    def test_pi_of_the_wrong_length_or_type_reported(self, pi):
        # Each of these once raised a bare IndexError or TypeError.
        valid = jh_match(B3, B3_CHAIN_A, B3_CHAIN_A)
        check = verify_matching(B3, B3_CHAIN_A, B3_CHAIN_A, MatchingResult(3, pi, valid.witnesses))
        assert check == MatchingCheck(False, (f"pi is not a bijection on 1..3: {list(pi)}",))

    def test_result_of_the_wrong_size_reported(self):
        valid = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B)
        check = verify_matching(B3, B3_CHAIN_A, B3_CHAIN_B,
                                MatchingResult(2, (1, 2), valid.witnesses[:2]))
        assert check == MatchingCheck(False, ("result size 2 does not match chain lengths 3 and 3",))

    def test_missing_witness_reported(self):
        valid = jh_match(B3, B3_CHAIN_A, B3_CHAIN_B)
        check = verify_matching(B3, B3_CHAIN_A, B3_CHAIN_B,
                                MatchingResult(3, valid.pi, valid.witnesses[:2]))
        assert check == MatchingCheck(False, ("expected 3 witnesses, got 2",))

    def test_witness_off_the_source_interval_reported(self):
        tampered = MatchingResult(3, (1, 2, 3), (("001", "011"), ("100", "110"), ("110", "111")))
        check = verify_matching(B3, B3_CHAIN_A, B3_CHAIN_A, tampered)
        assert check == MatchingCheck(False, ("index 1: witness ('001', '011') fails on the "
                                              "source interval ('000', '100')",))

    def test_non_bijection_caught(self):
        tampered = MatchingResult(n=2, pi=(2, 2),
                                  witnesses=(("b", "1"), ("a", "1")))
        check = verify_matching(B2, ["0", "a", "1"], ["0", "b", "1"], tampered)
        assert not check.ok
        assert any("bijection" in f for f in check.failures)

    def test_maximality_against_relation(self):
        # Maximality needs the independent relation, so the oracle checks it.
        from semilat import check_theorem
        assert check_theorem(B3, B3_CHAIN_A, B3_CHAIN_B).entry("maximality").passed

    def test_identity_instance_passes(self):
        result = jh_match(B2, ["0", "a", "1"], ["0", "a", "1"])
        check = verify_matching(B2, ["0", "a", "1"], ["0", "a", "1"], result)
        assert check.ok


class TestEqualLengthGuarantee:
    def test_pi4_random_pairs(self):
        pi4 = partition_lattice(4)
        chains = maximal_chains(pi4)
        for i in range(0, len(chains), 3):
            for j in range(0, len(chains), 5):
                result = jh_match(pi4, chains[i], chains[j])
                assert sorted(result.pi) == list(range(1, result.n + 1))
                assert is_maximal_chain(pi4, chains[i])


class TestJoinMatrix:
    """pi read off the join matrix M[i][j] = c_i ∨ d_j, against the oracle."""

    @settings(GENERATED, max_examples=60)
    @given(SEMIMODULAR.filter(lambda p: p.height() <= COUNTING_LIMIT), st.integers(0, 10 ** 6))
    def test_generated_lattices(self, p, seed):
        a = random_maximal_chain(p, 2 * seed)
        b = random_maximal_chain(p, 2 * seed + 1)
        assert_theorem_holds(p, a, b)

    @settings(GENERATED, max_examples=10)
    @given(direct_products(), st.integers(0, 10 ** 6))
    def test_dual_subnormal_lattices(self, g, seed):
        lattice = subnormal_lattice(g)
        chains = maximal_chains(lattice)
        rng = random.Random(seed)
        for _ in range(3):
            a, b = rng.choice(chains), rng.choice(chains)
            assert_theorem_holds(lattice.dual(), a[::-1], b[::-1])

    def test_broken_join_entry_caught_by_the_witness_recheck(self):
        p = boolean_lattice(3)  # a fresh lattice: its cached join rows get corrupted
        break_witness_entry(p, index_chain(p, B3_CHAIN_A), index_chain(p, B3_CHAIN_B))
        with pytest.raises(InternalInvariantError, match=r"witness \(.*\) fails on \["):
            jh_match(p, B3_CHAIN_A, B3_CHAIN_B)


def match_batch(p, pairs, match=_match):
    """pi and the witnesses of each index pair, matched in one batch."""
    pi, W = match(p, np.array([c for c, _ in pairs]), np.array([d for _, d in pairs]))
    assert pi.shape == (len(pairs), len(pairs[0][0]) - 1)
    return list(zip(pi.tolist(), W.tolist()))


def assert_batch_is_pairwise(p, pairs):
    """_match on the batch gives, pair for pair, what it gives on each alone."""
    assert match_batch(p, pairs) == [match_batch(p, [pair])[0] for pair in pairs]


class TestBatch:
    """One matcher over a batch of index chain pairs, in blocks."""

    @settings(GENERATED, max_examples=30)
    @given(SEMIMODULAR, st.integers(0, 10 ** 6), st.integers(1, 8), st.sampled_from([2 ** 16, 1, 40]))
    def test_generated_batches_match_pair_by_pair(self, p, seed, k, block):
        chains = [index_chain(p, random_maximal_chain(p, seed + t)) for t in range(k + 1)]
        pairs = [(chains[t], chains[(t + 1 + seed) % len(chains)]) for t in range(k)]
        with mock.patch.object(sl, "_BLOCK", block):
            assert_batch_is_pairwise(p, pairs)

    @settings(GENERATED, max_examples=8)
    @given(direct_products(), st.integers(0, 10 ** 6))
    def test_dual_subnormal_batches_match_pair_by_pair(self, g, seed):
        lattice = subnormal_lattice(g)
        dual = lattice.dual()
        chains = [index_chain(dual, ch[::-1]) for ch in maximal_chains(lattice)]
        rng = random.Random(seed)
        pairs = [(rng.choice(chains), rng.choice(chains)) for _ in range(6)]
        with mock.patch.object(sl, "_BLOCK", rng.choice([2 ** 16, 30])):
            assert_batch_is_pairwise(dual, pairs)

    def test_batch_over_several_blocks(self):
        p = boolean_lattice(4)  # n = 4: 655 pairs to a block of 2 ** 14 entries
        chains = [index_chain(p, ch) for ch in maximal_chains(p)]
        distinct = [(c, d) for c in chains for d in chains]
        pairs = distinct * 5
        assert len(pairs) > sl._BLOCK // 25
        assert match_batch(p, pairs) == [match_batch(p, [pair])[0] for pair in distinct] * 5

    @settings(GENERATED, max_examples=40)
    @given(SEMIMODULAR, st.integers(0, 10 ** 6), st.integers(0, 3))
    def test_corrupted_tables_fail_as_the_row_loop_does(self, p, seed, corrupted):
        """With a few join-table entries overwritten, the batch, bare or
        through the public index entry, raises wherever the reference row
        loop raises on some pair, though perhaps at another (pair, row).
        Where the reference returns, the batch returns its pi and witnesses,
        or refuses a join matrix that reads an overwritten entry by the order
        or the rank law, which the reference does not check."""
        p = from_dict(p.to_dict())  # a fresh poset: its join table gets corrupted
        assert is_semimodular(p).holds   # cached, so the entry validates the intact table
        rng = random.Random(seed)
        chains = [index_chain(p, random_maximal_chain(p, seed + t)) for t in range(4)]
        pairs = [(rng.choice(chains), rng.choice(chains)) for _ in range(rng.randint(1, 8))]
        J = sl._joins(p)
        intact = J.copy()
        for _ in range(corrupted):
            J[rng.randrange(len(p)), rng.randrange(len(p))] = rng.randrange(len(p))
        reads_a_change = any((J[np.ix_(c, d)] != intact[np.ix_(c, d)]).any() for c, d in pairs)

        def outcome(match):
            try:
                return match()
            except InternalInvariantError as e:
                return str(e)

        expected = outcome(lambda: [scalar_match(p, c, d) for c, d in pairs])
        with mock.patch.object(sl, "_BLOCK", rng.choice([2 ** 16, 1, 40])):
            for match in (_match, match_index_chains):
                found = outcome(lambda: match_batch(p, pairs, match))
                if isinstance(expected, str):
                    assert isinstance(found, str)
                elif isinstance(found, str):
                    assert reads_a_change and not found.startswith("index "), found
                else:
                    assert found == expected

    def test_a_join_off_the_order_is_refused(self):
        """B4's join of 0100 and 0010 set to 0011: its height is right, so the
        reference row loop matches the pair, but 0011 is not above 0100."""
        p = boolean_lattice(4)  # a fresh lattice: its cached join table gets corrupted
        assert is_semimodular(p).holds
        a = ["0000", "0010", "1010", "1011", "1111"]
        b = ["0000", "0100", "0101", "0111", "1111"]
        J, (x, y, z) = sl._joins(p), index_chain(p, ["0100", "0010", "0011"])
        J[x, y] = J[y, x] = z
        c, d = index_chain(p, a), index_chain(p, b)
        assert scalar_match(p, c, d)[0] == [3, 4, 2, 1]
        refused = "^row 1 does not rise from c_1 in the order$"
        for match in (_match, match_index_chains):
            with pytest.raises(InternalInvariantError, match=refused):
                match(p, np.array([c]), np.array([d]))
        with pytest.raises(InternalInvariantError, match=refused):
            jh_match(p, a, b)

    def test_singleton_lattice(self):
        b0 = boolean_lattice(0)
        for match in (_match, match_index_chains):
            pi, W = match(b0, np.zeros((3, 1), dtype=int), np.zeros((3, 1), dtype=int))
            assert pi.shape == (3, 0) and W.shape == (3, 0, 2)

    @pytest.mark.parametrize("pair, error, message", [
        ((B3_CHAIN_A, ["000", "110", "111"]), NotMaximalChainError, "second chain"),
        ((["000", "110", "111"], B3_CHAIN_B), NotMaximalChainError, "first chain"),
        ((["000", "100", "110", "111"], ["000", "110", "100"]), NotAChainError, "110, 100"),
        ((["000", "100", "110", "111"], ["000", "x", "111"]), UnknownElementError, "'x'"),
    ])
    def test_refusals_are_those_of_jh_match(self, pair, error, message):
        # The exact type and text of each refusal, keyed by the part matched.
        texts = {"second chain": "second chain ['000', '110', '111'] is not maximal in 'B3'",
                 "first chain": "first chain ['000', '110', '111'] is not maximal in 'B3'",
                 "110, 100": "not strictly increasing at (110, 100)",
                 "'x'": "element 'x' is not in poset 'B3'"}
        with pytest.raises(error, match=message) as refused:
            jh_match(B3, *pair)
        assert (type(refused.value), str(refused.value)) == (error, texts[message])


A3, B3_ROW_B = index_chain(B3, B3_CHAIN_A), index_chain(B3, B3_CHAIN_B)


class TestIndexEntry:
    """`match_index_chains` refuses every bad input with a SemilatError."""

    @pytest.mark.parametrize("C, D, error", [
        ([0, 4, 6, 7], [0, 2, 6, 7], PreconditionError),             # 1-D
        ([A3], [A3, B3_ROW_B], PreconditionError),                    # shapes differ
        ([A3], [[0, 2, 7]], NotMaximalChainError),                    # widths differ: rows first
        (np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int), PreconditionError),
        ([[0.0, 4.0, 6.0, 7.0]], [B3_ROW_B], PreconditionError),      # not integers
        ([A3], [[True, False, True, True]], PreconditionError),      # booleans
        ([[-8, 4, 6, 7]], [B3_ROW_B], UnknownElementError),           # negative
        ([A3], [[0, 2, 6, 8]], UnknownElementError),                  # >= |p|
        ([A3, [0, 6, 6, 7]], [B3_ROW_B, A3], NotMaximalChainError),   # C, row 1
        ([[4, 6, 7]], [[0, 4, 6]], NotMaximalChainError),            # covers, not from the bottom
        ([[0, 4, 6]], [[0, 4, 6]], NotMaximalChainError),            # covers, not to the top
        ([A3, B3_ROW_B], [B3_ROW_B, [0, 4, 6, 6]], NotMaximalChainError),   # D, row 1
    ])
    def test_bad_input_refused(self, C, D, error):
        with pytest.raises(error) as refused:
            match_index_chains(B3, np.array(C), np.array(D))
        assert isinstance(refused.value, SemilatError)

    @pytest.mark.parametrize("a, b", [(B3_CHAIN_A, ["000", "110", "111"]),
                                      (["000", "111"], B3_CHAIN_B)],
                             ids=["second-not-maximal", "first-not-maximal"])
    def test_lengths_differ_refused_alike_by_both_entries(self, a, b):
        # One check of the rows for both entries: the non-maximal chain is
        # named before the lengths are compared.
        with pytest.raises(SemilatError) as named:
            jh_match(B3, a, b)
        with pytest.raises(SemilatError) as indexed:
            match_index_chains(B3, *(np.array([index_chain(B3, x)]) for x in (a, b)))
        assert type(indexed.value) is type(named.value) is NotMaximalChainError
        assert str(indexed.value) == str(named.value)

    @pytest.mark.parametrize("C", [[A3], [A3, [0, 4]]], ids=["list", "ragged"])
    def test_lists_refused(self, C):
        # Arrays only: numpy itself refuses to make an array of ragged rows.
        with pytest.raises(PreconditionError):
            match_index_chains(B3, C, np.array([A3] * len(C)))

    def test_first_bad_row_of_the_first_chains_named(self):
        # Rows of C are checked before rows of D, and a non-maximal chain is
        # named as jh_match names it.
        bad = ["000", "110", "111"]
        with pytest.raises(NotMaximalChainError) as named:
            jh_match(B3, bad, bad)
        with pytest.raises(NotMaximalChainError) as indexed:
            match_index_chains(B3, np.array([index_chain(B3, bad)]), np.array([[0, 9, 7]]))
        assert str(indexed.value) == str(named.value) == \
            "first chain ['000', '110', '111'] is not maximal in 'B3'"
        with pytest.raises(NotMaximalChainError, match=r"^first chain \['000', '110', '110', '111'\]"):
            match_index_chains(B3, np.array([A3, [0, 6, 6, 7], [0, 0, 6, 7]]), np.array([A3] * 3))
        with pytest.raises(NotMaximalChainError, match=r"^second chain \['000', '100', '100', '111'\]"):
            match_index_chains(B3, np.array([A3]), np.array([[0, 4, 4, 7]]))

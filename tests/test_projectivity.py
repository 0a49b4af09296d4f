from __future__ import annotations

import random

import pytest

from semilat import (
    NoJoinError,
    NotPrimeIntervalError,
    Poset,
    boolean_lattice,
    interval_updown_witness,
    join,
    named_counterexample,
    partition_lattice,
    prime_up_projective,
)
from lattice_form import lattice_up_projective

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
B3 = boolean_lattice(3)


class TestLatticeForm:
    def test_b2_diamond(self):
        assert lattice_up_projective(B2, ("0", "a"), ("b", "1"))
        assert not lattice_up_projective(B2, ("0", "a"), ("a", "1"))

    def test_b3_set_computation(self):
        # meet(100, 010) = 000 and join(100, 010) = 110
        assert lattice_up_projective(B3, ("000", "100"), ("010", "110"))


class TestPrimeForm:
    def test_b2(self):
        assert prime_up_projective(B2, ("0", "a"), ("b", "1"))

    def test_identity_witness(self):
        for p, (a, b) in ((B2, ("0", "a")), (B3, ("000", "001"))):
            assert prime_up_projective(p, (a, b), (a, b))

    def test_degenerate_pair_rejected_by_x_equals_y(self):
        assert not prime_up_projective(B3, ("000", "100"), ("110", "110"))

    def test_requires_prime_source(self):
        with pytest.raises(NotPrimeIntervalError):
            prime_up_projective(B3, ("000", "110"), ("000", "100"))

    def test_agrees_with_lattice_form(self, small_corpus, lemma_disagreements):
        # On lattices with bottom every pair has a meet, so both definitions
        # apply; they must agree on all prime sources and all pairs.
        assert all(p.bottom() is not None for p in small_corpus)
        assert lemma_disagreements == []


@pytest.mark.parametrize("form", [prime_up_projective, lattice_up_projective])
@pytest.mark.parametrize("ab, xy", [(("000",), ("010", "110")),
                                    (("000", "100"), ("010",)),
                                    (("000", "100", "110"), ("010", "110")),
                                    (("000", "100"), ("010", "110", "111"))])
def test_source_and_witness_must_be_two_names(form, ab, xy):
    with pytest.raises(NotPrimeIntervalError, match="two names each"):
        form(B3, ab, xy)


class TestWithoutAllJoins:
    TWO_TOPS = named_counterexample("two_tops")

    def test_prime_form_refused(self):
        # The witness (b, a) makes the predicate read a ∨ b, which is missing.
        with pytest.raises(NoJoinError, match=r"no common upper bound for \(a, b\)"):
            prime_up_projective(self.TWO_TOPS, ("0", "a"), ("b", "a"))

    def test_updown_refused(self):
        # The witness search reads whole rows of the join table, so it refuses
        # every poset where some pair lacks a join.
        with pytest.raises(NoJoinError, match=r"no common upper bound for \(a, b\)"):
            interval_updown_witness(self.TWO_TOPS, ("0", "a"), ("0", "b"))


class TestUpdownWitness:
    def test_b2_no_witness_between_atom_intervals(self):
        assert interval_updown_witness(B2, ("0", "a"), ("0", "b")) is None

    def test_b2_witness(self):
        assert interval_updown_witness(B2, ("0", "a"), ("b", "1")) == ("b", "1")

    def test_self_projectivity_always_witnessed(self, small_corpus):
        for p in small_corpus[:10]:
            for ab in p.cover_pairs():
                assert interval_updown_witness(p, ab, ab) is not None

    def test_witness_deterministic(self):
        pi4 = partition_lattice(4)
        covers = pi4.cover_pairs()
        for src in covers[:3]:
            for tgt in covers[:3]:
                first = interval_updown_witness(pi4, src, tgt)
                second = interval_updown_witness(pi4, src, tgt)
                assert first == second


class TestCoverPropagation:
    def test_up_projectivity_lands_on_covers(self, small_corpus):
        # In a semimodular lattice, a witness pair reached from a prime
        # interval by an up-step is itself a cover pair.
        for p in small_corpus:
            for a, b in p.cover_pairs():
                for x in p.elements:
                    if join(p, a, x) != x:
                        continue
                    y = join(p, b, x)
                    if y == x:
                        continue
                    assert p.is_cover(x, y), (p.name, a, b, x, y)


def _up_steps(p, interval):
    """All pairs (x, y) with interval up-projective to (x, y)."""
    a, b = interval
    out = []
    for x in p.elements:
        if join(p, a, x) != x:
            continue
        y = join(p, b, x)
        if y != x:
            out.append((x, y))
    return out


def _assert_transitive(p, ab, cd, ef):
    """Given up-steps ab -> cd -> ef: semimodularity makes cd a cover pair, and
    ab is then up-projective to ef directly."""
    assert p.is_cover(*cd), (p.name, ab, cd)
    assert prime_up_projective(p, ab, ef), (p.name, ab, cd, ef)


class TestTransitivity:
    def test_b3_example(self):
        ab, cd, ef = ("000", "100"), ("010", "110"), ("011", "111")
        assert prime_up_projective(B3, ab, cd) and prime_up_projective(B3, cd, ef)
        _assert_transitive(B3, ab, cd, ef)

    def test_identity_chain(self):
        ab = ("000", "100")
        assert prime_up_projective(B3, ab, ab)
        _assert_transitive(B3, ab, ab, ab)

    def test_exhaustive_small(self, corpus):
        for p in (q for q in corpus if len(q) <= 20):
            for ab in p.cover_pairs():
                for cd in _up_steps(p, ab):
                    for ef in _up_steps(p, cd):
                        _assert_transitive(p, ab, cd, ef)

    def test_sampled_large(self, corpus):
        rng = random.Random(20260810)
        for p in (q for q in corpus if len(q) > 20):
            covers = p.cover_pairs()
            checked = 0
            while checked < 1000:
                ab = covers[rng.randrange(len(covers))]
                steps = _up_steps(p, ab)
                cd = steps[rng.randrange(len(steps))]
                steps2 = _up_steps(p, cd)
                ef = steps2[rng.randrange(len(steps2))]
                _assert_transitive(p, ab, cd, ef)
                checked += 1

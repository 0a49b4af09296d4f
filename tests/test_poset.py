from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from semilat import (
    NotAChainError,
    Poset,
    PosetConstructionError,
    SizeLimitError,
    UnknownElementError,
    boolean_lattice,
    chain_product,
    from_dict,
    load_poset,
    named_counterexample,
    save_poset,
)
from semilat import poset
from semilat.poset import ELEMENT_LIMIT
from closure_reference import reference_build
from strategies import GENERATED, chain_products, closure_lattices, posets, wide_posets

B2 = Poset.from_cover_list(
    "b2", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def brute_force_reduction(p: Poset) -> set[tuple[str, str]]:
    """Independent O(n^3) cover computation straight from the definition."""
    covers = set()
    for a in p.elements:
        for b in p.elements:
            if a == b or not p.leq(a, b):
                continue
            if not any(z not in (a, b) and p.leq(a, z) and p.leq(z, b)
                       for z in p.elements):
                covers.add((a, b))
    return covers


class TestConstruction:
    def test_b2_shape(self):
        assert len(B2) == 4
        assert B2.height() == 2
        assert B2.bottom() == "0"
        assert B2.top() == "1"

    def test_strict_rejects_redundant_edge(self):
        with pytest.raises(PosetConstructionError, match=r"non-cover edge \(0, 1\)"):
            Poset.from_cover_list("x", ["0", "a", "1"],
                                  [("0", "a"), ("a", "1"), ("0", "1")])

    def test_strict_names_the_first_non_cover_edge(self):
        # Two redundant edges, the later one first in row-major order.
        with pytest.raises(PosetConstructionError, match=r"non-cover edge \(a, c\)"):
            Poset.from_cover_list("x", ["a", "b", "c", "d"],
                                  [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("a", "c")])

    def test_element_limit_checked_before_the_closure(self, monkeypatch):
        def closure(rel):
            raise AssertionError(f"closure of {len(rel)} elements")

        monkeypatch.setattr(poset, "_reflexive_transitive_closure", closure)
        names = [str(k) for k in range(ELEMENT_LIMIT + 1)]
        with pytest.raises(SizeLimitError, match=f"^posets are limited to {ELEMENT_LIMIT} "
                                                 f"elements, got {ELEMENT_LIMIT + 1}$"):
            Poset.from_cover_list("C2001", names, zip(names, names[1:]))
        with pytest.raises(AssertionError, match=f"^closure of {ELEMENT_LIMIT} elements$"):
            Poset.from_cover_list("C2000", names[:-1], zip(names, names[1:-1]))

    def test_cycle_rejected(self):
        with pytest.raises(PosetConstructionError, match="cycle"):
            Poset.from_cover_list("x", ["0", "a"], [("0", "a"), ("a", "0")])

    def test_self_cover_rejected(self):
        with pytest.raises(PosetConstructionError, match="cycle"):
            Poset.from_cover_list("x", ["a"], [("a", "a")])

    def test_duplicate_element(self):
        with pytest.raises(PosetConstructionError, match="duplicate"):
            Poset.from_cover_list("x", ["a", "a"], [])

    def test_unknown_endpoint(self):
        with pytest.raises(PosetConstructionError, match="unknown endpoint"):
            Poset.from_cover_list("x", ["a"], [("a", "b")])

    def test_empty_poset_rejected(self):
        with pytest.raises(PosetConstructionError, match="empty"):
            Poset.from_cover_list("x", [], [])

    def test_empty_name_rejected(self):
        with pytest.raises(PosetConstructionError):
            Poset.from_cover_list("x", [""], [])

    # A two-item iterable that is not a list or tuple is no cover: "ab" would
    # read as (a, b), and a set in its hash order.
    @pytest.mark.parametrize("cover", [("a",), ("a", "b", "c"), 7, "ab", {"a", "b"}])
    def test_cover_that_is_not_two_names(self, cover):
        with pytest.raises(PosetConstructionError, match=r"^cover .* is not two names$"):
            Poset.from_cover_list("x", ["a", "b"], [("a", "b"), cover])

    @pytest.mark.parametrize("bad, message", [
        (("c000", "zz"), "unknown endpoint 'zz' in cover (c000, zz)"),
        ((7, "c001"), "unknown endpoint 7 in cover (7, c001)"),
        (("c001", ["x"]), "unknown endpoint ['x'] in cover (c001, ['x'])"),
        (("c005", "c005"), "cycle: self-cover (c005, c005)"),
        (("c000", "c001", "c002"), "cover ('c000', 'c001', 'c002') is not two names"),
    ], ids=["unknown", "not-a-string", "unhashable", "self-cover", "three-names"])
    def test_a_bad_cover_after_hundreds_of_good_ones(self, bad, message):
        names = [f"c{k:03d}" for k in range(400)]
        with pytest.raises(PosetConstructionError) as info:
            Poset.from_cover_list("x", names, [*zip(names, names[1:]), bad, ("c000", "zz")])
        assert str(info.value) == message


class TestOrderQueries:
    def test_leq(self):
        assert B2.leq("0", "1")
        assert not B2.leq("a", "b")
        assert B2.leq("a", "a")

    def test_leq_unknown_element(self):
        with pytest.raises(UnknownElementError):
            B2.leq("z", "0")

    def test_is_cover(self):
        assert B2.is_cover("0", "a")
        assert not B2.is_cover("0", "1")
        assert not B2.is_cover("a", "a")

    def test_covers_match_brute_force(self, corpus):
        for p in corpus:
            assert set(p.cover_pairs()) == brute_force_reduction(p), p.name

    @settings(GENERATED, max_examples=30)
    @given(st.one_of(posets(), closure_lattices()))
    def test_generated_upper_cover_lists_are_the_rows(self, p):
        """`_view` and `cover_pairs` read the cover matrix flat; the references
        scan each row, and take the 2-D nonzero pairs."""
        for q in (p, p.dual()):
            assert q._view()[0] == [np.flatnonzero(row).tolist() for row in q._covers], q.name
            assert q.cover_pairs() == [(q.elements[i], q.elements[j])
                                       for i, j in np.argwhere(q._covers)], q.name


def _wide_height_two(extra_edges=()) -> Poset:
    """0 below 256 atoms below 1: 256 paths from 0 to 1."""
    atoms = [f"a{k:03d}" for k in range(256)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms] + list(extra_edges)
    return Poset.from_cover_list("wide", ["0", "1"] + atoms, covers)


class TestClosureIsExact:
    """Path counts of 256 or more must not drop order pairs or invent covers."""

    def test_long_chain_keeps_its_bounds(self):
        p = chain_product([258])
        assert p.bottom() == "0"
        assert p.top() == "257"

    def test_256_atoms_keep_bottom_below_top(self):
        assert _wide_height_two().leq("0", "1")

    def test_redundant_edge_over_256_atoms_is_not_a_cover(self):
        with pytest.raises(PosetConstructionError, match=r"^non-cover edge \(0, 1\)$"):
            _wide_height_two(extra_edges=[("0", "1")])


ONE_PASS_INPUTS = st.one_of(posets(), wide_posets(), closure_lattices(), chain_products())


def _one_pass(elements, covers) -> tuple[np.ndarray, np.ndarray]:
    p = Poset.from_cover_list("built", elements, covers)
    return p._leq, p._covers


def _outcome(build, elements, covers):
    """Both matrices `build` gives for the cover list, or its error message."""
    try:
        leq, cov = build(elements, covers)
    except PosetConstructionError as e:
        return str(e)
    return leq.shape, leq.tobytes(), cov.tobytes()


class TestOnePassBuild:
    """`from_cover_list` peels sinks; `closure_reference` squares the matrix."""

    @settings(GENERATED, max_examples=60)
    @given(ONE_PASS_INPUTS)
    def test_generated_orders_and_covers_equal_the_reference(self, p):
        for q in (p, p.dual()):
            leq, covers = reference_build(q.elements, q.cover_pairs())
            built = Poset.from_cover_list(q.name, q.elements, q.cover_pairs())
            assert np.array_equal(built._leq, leq), q.name
            assert np.array_equal(built._covers, covers), q.name

    @settings(GENERATED, max_examples=60)
    @given(ONE_PASS_INPUTS, st.sampled_from(["back", "implied", "duplicate"]),
           st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
    def test_one_added_edge_fails_as_the_reference_does(self, p, kind, pick, at):
        """A back edge makes a cycle and a non-cover pair an implied edge; both
        raise the reference's message.  A repeated cover is accepted."""
        strict = [tuple(e) for e in np.argwhere(p._leq & ~np.eye(len(p), dtype=bool)).tolist()]
        edges = {"back": [(j, i) for i, j in strict],
                 "implied": [e for e in strict if not p._covers[e]],
                 "duplicate": [e for e in strict if p._covers[e]]}[kind]
        assume(edges)
        i, j = edges[pick % len(edges)]
        covers = p.cover_pairs()
        covers.insert(at % (len(covers) + 1), (p.elements[i], p.elements[j]))
        outcome = _outcome(_one_pass, p.elements, covers)
        assert outcome == _outcome(reference_build, p.elements, covers)
        assert isinstance(outcome, str) == (kind != "duplicate")

    def test_c2000_is_the_upper_triangle(self):
        start = time.perf_counter()
        p = chain_product([2000])
        assert time.perf_counter() - start < 1
        rank = np.array([int(e) for e in p.elements])
        assert np.array_equal(p._leq, rank[:, None] <= rank)
        assert p._covers.sum() == 1999

    def test_m1998_has_bottom_below_and_top_above_everything(self):
        atoms = [f"a{k:04d}" for k in range(1998)]
        start = time.perf_counter()
        p = Poset.from_cover_list("M1998", ["0", "1"] + atoms,
                                  [("0", a) for a in atoms] + [(a, "1") for a in atoms])
        assert time.perf_counter() - start < 1
        expected = np.eye(2000, dtype=bool)
        expected[p.index("0")] = expected[:, p.index("1")] = True
        assert np.array_equal(p._leq, expected)
        assert p._covers.sum() == 2 * 1998

    def test_c2000_back_edge_names_the_reference_pair(self):
        names = [str(k) for k in range(2000)]
        start = time.perf_counter()
        with pytest.raises(PosetConstructionError, match=r"^cycle detected through '0' and '1'$"):
            Poset.from_cover_list("x", names, list(zip(names, names[1:])) + [("1999", "0")])
        assert time.perf_counter() - start < 1


class TestInterval:
    def test_full_interval_is_self(self):
        assert B2.interval("0", "1") == B2

    def test_two_element_interval(self):
        sub = B2.interval("a", "1")
        assert sub.elements == ("1", "a")
        assert sub.cover_pairs() == [("a", "1")]

    def test_b3_atom_interval_is_diamond(self):
        # Supersets of {1} in the cube: 100, 110, 101, 111.
        b3 = boolean_lattice(3)
        sub = b3.interval("100", "111")
        assert sub.elements == ("100", "101", "110", "111")
        assert sub.bottom() == "100"
        assert sub.top() == "111"
        assert sub.height() == 2
        assert len(sub.cover_pairs()) == 4

    def test_empty_interval_rejected(self):
        with pytest.raises(PosetConstructionError):
            B2.interval("a", "b")

    def test_carrier_and_restriction(self, small_corpus):
        for p in small_corpus[:8]:
            bottom, top = p.bottom(), p.top()
            sub = p.interval(bottom, top)
            assert sub == p
            for x in p.elements[:3]:
                upper = p.top()
                piece = p.interval(x, upper)
                expected = {z for z in p.elements if p.leq(x, z) and p.leq(z, upper)}
                assert set(piece.elements) == expected
                assert piece.height() <= p.height()


class TestDual:
    def test_involution(self, corpus):
        for p in corpus[:10]:
            back = p.dual().dual()
            assert back == p
            assert back.name == p.name
            assert back.cover_pairs() == p.cover_pairs()

    @GENERATED
    @given(st.one_of(posets(), closure_lattices()))
    def test_generated_dual_of_dual_is_the_poset(self, p):
        assert p.dual().dual() is p

    def test_covers_reversed(self):
        n5 = named_counterexample("n5")
        assert set(n5.dual().cover_pairs()) == {(b, a) for a, b in n5.cover_pairs()}

    def test_three_chain(self):
        chain = Poset.from_cover_list("c3", ["0", "a", "1"], [("0", "a"), ("a", "1")])
        d = chain.dual()
        assert d.leq("1", "0")
        assert d.bottom() == "1"
        assert d.top() == "0"



class TestHeightAndBounds:
    def test_boolean_heights(self):
        b3 = boolean_lattice(3)
        assert b3.height() == 3
        assert b3.bottom() == "000"
        assert b3.top() == "111"

    def test_antichain(self):
        p = named_counterexample("antichain2")
        assert p.height() == 0
        assert p.bottom() is None
        assert p.top() is None

    def test_n5_height(self):
        assert named_counterexample("n5").height() == 3

    def test_bounds_match_the_order_matrix(self, corpus):
        def reference(p):
            lows = np.flatnonzero(p._leq.all(axis=1))
            highs = np.flatnonzero(p._leq.all(axis=0))
            return (p.elements[lows[0]] if len(lows) else None,
                    p.elements[highs[0]] if len(highs) else None)

        for lattice in corpus:
            atom = (lattice.upper_covers(lattice.bottom()) or [lattice.bottom()])[0]
            for p in (lattice, lattice.dual(), lattice.interval(atom, lattice.top())):
                for _ in range(2):  # the second read comes from the cache
                    assert (p.bottom(), p.top()) == reference(p)
        assert (named_counterexample("two_tops").top(),
                named_counterexample("antichain2").bottom(),
                named_counterexample("antichain2").top()) == (None, None, None)


class TestChains:
    def test_chain_validation(self):
        ch = B2.chain(["0", "a", "1"])
        assert len(ch) - 1 == 2
        with pytest.raises(NotAChainError):
            B2.chain(["0", "b", "a"])
        with pytest.raises(NotAChainError):
            B2.chain(["0", "0"])
        with pytest.raises(NotAChainError):
            B2.chain([])
        with pytest.raises(UnknownElementError):
            B2.chain(["0", "z"])

    def test_chain_is_the_tuple_of_names(self):
        names = ("0", "a", "1")
        for given_as in (list(names), names, (e for e in names)):
            chain = B2.chain(given_as)
            assert type(chain) is tuple and chain == names

    @pytest.mark.parametrize("value, kind", [(None, "NoneType"), (5, "int")])
    def test_not_iterable_refused(self, value, kind):
        with pytest.raises(NotAChainError, match=rf"^a chain must be iterable, got {kind}$"):
            B2.chain(value)

    def test_unhashable_name_refused(self):
        with pytest.raises(UnknownElementError, match=r"^element \['0'\] is not in poset 'b2'$"):
            B2.chain([["0"], "1"])


class TestSerialization:
    def test_round_trip(self, corpus):
        for p in corpus:
            back = from_dict(p.to_dict())
            assert back == p
            assert back.name == p.name
            assert back.cover_pairs() == p.cover_pairs()

    @GENERATED
    @given(st.one_of(posets(), closure_lattices()))
    def test_generated_round_trips_are_lossless(self, tmp_path_factory, p):
        path = str(tmp_path_factory.mktemp("round_trip") / "p.json")
        save_poset(p, path)
        for back in (from_dict(p.to_dict()), load_poset(path)):
            assert back == p
            assert (back.name, back.cover_pairs()) == (p.name, p.cover_pairs())

    def test_rejects_bad_shapes(self):
        with pytest.raises(PosetConstructionError):
            from_dict({"name": "x", "elements": ["a"]})
        with pytest.raises(PosetConstructionError):
            from_dict({"name": "x", "elements": "a", "covers": []})
        with pytest.raises(PosetConstructionError):
            from_dict({"name": "x", "elements": ["a"], "covers": [["a"]]})

    @pytest.mark.parametrize("elements, covers", [
        (["a", ""], [["a", "b"], ["a", "b", "c"]]),   # a bad element name, then a 3-name cover
        (["a", "b"], [["a", "z"], ["a"]]),   # an unknown endpoint, then a 1-name cover
        (["a", "b"], [["b", "a"], ["a", "b"], 7]),   # a cycle, then a number
        (["a", "b"] * 1001, [["a", "b"], ["a", "b", "c"]]),   # past the size guard
        (["a", "b"], ["ab"]),   # two names, but not in a list
        (["a", "b"], [{"a": 0, "b": 1}]),
    ], ids=["element", "endpoint", "cycle", "size", "string", "object"])
    def test_a_cover_that_is_no_pair_is_the_first_error(self, elements, covers):
        with pytest.raises(PosetConstructionError, match=r"^field 'covers' must be an array "
                                                         r"of \[lower, upper\] pairs$"):
            from_dict({"name": "x", "elements": elements, "covers": covers})

    def test_leq_matrix_is_frozen(self):
        with pytest.raises(ValueError):
            B2._leq[0, 0] = False
        assert B2._leq.flags.writeable is False
        assert np.array_equal(B2._leq, B2._leq)

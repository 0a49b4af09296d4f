from __future__ import annotations

import time

import numpy as np
import pytest

from semilat import (
    Graph,
    MissingBoundsError,
    PreconditionError,
    SizeLimitError,
    UnknownNameError,
    boolean_lattice,
    chain_product,
    graphic_flat_lattice,
    interval_updown_witness,
    is_join_semilattice,
    is_maximal_chain,
    is_semimodular,
    maximal_chains,
    named_counterexample,
    partition_lattice,
    random_maximal_chain,
)
from conftest import K4, P4, TRIANGLE, TWO_TRIANGLES
from walks import cover_walk

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestBoolean:
    def test_sizes_and_heights(self):
        for n in range(5):
            p = boolean_lattice(n)
            assert len(p) == 2 ** n
            assert p.height() == n

    def test_b3_chain_count(self):
        assert len(maximal_chains(boolean_lattice(3))) == 6

    def test_bounds(self):
        with pytest.raises(SizeLimitError):
            boolean_lattice(11)
        with pytest.raises(SizeLimitError):
            boolean_lattice(-1)


class TestChainProduct:
    def test_two_by_two_is_diamond(self):
        p = chain_product([2, 2])
        b2 = boolean_lattice(2)
        rename = {"0.0": "00", "0.1": "01", "1.0": "10", "1.1": "11"}
        assert sorted(rename[e] for e in p.elements) == list(b2.elements)
        assert sorted((rename[a], rename[b]) for a, b in p.cover_pairs()) == \
            b2.cover_pairs()

    def test_three_by_three(self):
        p = chain_product([3, 3])
        assert len(p) == 9
        assert p.height() == 4

    def test_cube_relabels_to_b3(self):
        p = chain_product([2, 2, 2])
        b3 = boolean_lattice(3)
        rename = lambda e: e.replace(".", "")
        assert sorted(rename(e) for e in p.elements) == list(b3.elements)
        assert sorted((rename(a), rename(b)) for a, b in p.cover_pairs()) == \
            b3.cover_pairs()

    def test_many_factors_of_length_one_build_in_linear_time(self):
        start = time.perf_counter()
        p = chain_product([1] * 50_000)
        assert time.perf_counter() - start < 1
        assert len(p) == 1 and p.height() == 0

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            chain_product([101, 101])
        with pytest.raises(SizeLimitError):
            chain_product([0])

    @pytest.mark.parametrize("build, got", [
        (lambda: chain_product([2001, 1, 1]), "2001"),
        (lambda: chain_product([1, 2, 1001]), "2002"),
        (lambda: chain_product([10 ** 9] * 3), "more than 1000000000"),
        (lambda: boolean_lattice(12), "more than 2048"),
        (lambda: partition_lattice(9), "more than 4140"),
    ])
    def test_one_guard_message_on_the_closed_form_size(self, build, got):
        with pytest.raises(SizeLimitError, match=f"^posets are limited to 2000 elements, got {got}$"):
            build()


class TestPartition:
    def test_sizes(self):
        for n in range(1, 5):
            assert len(partition_lattice(n)) == BELL[n]

    def test_pi3(self):
        p = partition_lattice(3)
        assert p.height() == 2
        assert len(maximal_chains(p)) == 3
        assert p.bottom() == "1|2|3"
        assert p.top() == "123"

    def test_pi4_semimodular_not_modular(self):
        p = partition_lattice(4)
        assert len(p) == 15
        assert p.height() == 3
        assert is_semimodular(p).holds
        # Chain products are modular, hence lower semimodular too; the
        # partition lattice is not, so it cannot be one.
        assert not is_semimodular(p.dual()).holds

    def test_pi1(self):
        assert len(partition_lattice(1)) == 1
        with pytest.raises(SizeLimitError):
            partition_lattice(0)


def test_largest_boolean_and_partition_lattices_under_the_element_guard():
    b10, pi7 = boolean_lattice(10), partition_lattice(7)
    assert (len(b10), b10.height()) == (1024, 10)
    assert (len(pi7), pi7.height()) == (877, 6)


class TestGraphicFlats:
    def test_triangle_is_pi3(self):
        flats = graphic_flat_lattice(TRIANGLE)
        pi3 = partition_lattice(3)
        rename = lambda e: "".join(str(int(c) + 1) if c.isdigit() else c for c in e)
        assert sorted(rename(e) for e in flats.elements) == list(pi3.elements)
        assert sorted((rename(a), rename(b)) for a, b in flats.cover_pairs()) == \
            pi3.cover_pairs()

    def test_k4_is_pi4(self):
        flats = graphic_flat_lattice(K4)
        pi4 = partition_lattice(4)
        rename = lambda e: "".join(str(int(c) + 1) if c.isdigit() else c for c in e)
        assert sorted(rename(e) for e in flats.elements) == list(pi4.elements)
        assert sorted((rename(a), rename(b)) for a, b in flats.cover_pairs()) == \
            pi4.cover_pairs()

    def test_k5_is_pi5(self):
        k5 = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        flats = graphic_flat_lattice(k5)
        pi5 = partition_lattice(5)
        rename = lambda e: "".join(str(int(c) + 1) if c.isdigit() else c for c in e)
        assert sorted(rename(e) for e in flats.elements) == list(pi5.elements)
        assert sorted((rename(a), rename(b)) for a, b in flats.cover_pairs()) == \
            pi5.cover_pairs()

    def test_two_disjoint_edges_is_diamond(self):
        flats = graphic_flat_lattice(Graph(4, ((0, 1), (2, 3))))
        assert len(flats) == 4
        assert flats.height() == 2
        assert len(flats.cover_pairs()) == 4

    def test_forest_flats_are_boolean(self):
        flats = graphic_flat_lattice(P4)
        assert len(flats) == 8
        assert flats.height() == 3

    def test_two_triangles_shape(self):
        flats = graphic_flat_lattice(TWO_TRIANGLES)
        assert len(flats) == 25
        assert flats.height() == 4
        assert flats.top() == "012|345"

    def test_vertex_guard(self):
        with pytest.raises(SizeLimitError):
            graphic_flat_lattice(Graph(8, ((0, 1),)))

    def test_graph_validation(self):
        with pytest.raises(PreconditionError, match="loop"):
            Graph(2, ((0, 0),))
        with pytest.raises(PreconditionError, match="duplicate"):
            Graph(2, ((0, 1), (1, 0)))
        with pytest.raises(PreconditionError, match="range"):
            Graph(2, ((0, 2),))

    def test_edge_list_parsing(self):
        g = Graph.from_edge_list_text("0 1\n\n2 3\n")
        assert g.vertices == 4
        assert g.edges == ((0, 1), (2, 3))
        # A minus sign and ASCII digits are a number, as `gen`'s numerals are: -0 is 0.
        assert Graph.from_edge_list_text("-0 1\n").edges == ((0, 1),)
        with pytest.raises(PreconditionError, match="line 1"):
            Graph.from_edge_list_text("0 1 2\n")
        with pytest.raises(PreconditionError, match="empty"):
            Graph.from_edge_list_text("\n")

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1 x\n", "line 2: vertices must be integers"),
        ("0 1\n1 +2\n", "line 2: vertices must be integers"),
        ("0 1\n2 1_0\n", "line 2: vertices must be integers"),
        ("0 1\n1 \u0662\n", "line 2: vertices must be integers"),
        ("0 1\n1 --2\n", "line 2: vertices must be integers"),
        ("0 -\n", "line 1: vertices must be integers"),
        ("0 " + "9" * 5000 + "\n", "line 1: vertices must be integers"),
        ("0 1\n-1 2\n", "line 2: vertices must be non-negative"),
    ], ids=["letter", "plus", "underscore", "arabic-indic", "two-minus", "bare-minus",
            "5000-digits", "negative"])
    def test_vertices_are_ascii_numerals(self, text, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            Graph.from_edge_list_text(text)


class TestMatroidComponents:
    def atoms(self, p):
        return [e for e in p.elements if p.is_cover(p.bottom(), e)]

    def component_of(self, atom_name):
        # Atom names look like 01|2|3|...: the merged pair identifies the edge.
        block = next(b for b in atom_name.split("|") if len(b) == 2)
        return 0 if int(block[0]) <= 2 else 1

    def test_two_triangles_component_criterion(self):
        flats = graphic_flat_lattice(TWO_TRIANGLES)
        bottom = flats.bottom()
        atoms = self.atoms(flats)
        assert len(atoms) == 6
        for a in atoms:
            for b in atoms:
                witness = interval_updown_witness(flats, (bottom, a), (bottom, b))
                same_component = self.component_of(a) == self.component_of(b)
                assert (witness is not None) == same_component, (a, b)

    def test_k4_all_atom_pairs_projective(self):
        flats = graphic_flat_lattice(K4)
        bottom = flats.bottom()
        atoms = self.atoms(flats)
        assert len(atoms) == 6
        for a in atoms:
            for b in atoms:
                assert interval_updown_witness(flats, (bottom, a), (bottom, b)) is not None


class TestFamiliesAreSemimodular:
    def test_whole_corpus(self, corpus):
        for p in corpus:
            ok, _ = is_join_semilattice(p)
            assert ok, p.name
            assert is_semimodular(p).holds, p.name


class TestCounterexamples:
    def test_n5(self):
        n5 = named_counterexample("n5")
        assert not is_semimodular(n5).holds
        assert sorted(len(c) - 1 for c in maximal_chains(n5)) == [2, 3]

    def test_antichain2(self):
        ok, _ = is_join_semilattice(named_counterexample("antichain2"))
        assert not ok

    def test_two_tops(self):
        ok, _ = is_join_semilattice(named_counterexample("two_tops"))
        assert not ok

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            named_counterexample("m3")


class TestRandomMaximalChain:
    def test_three_chain_unique(self):
        p = chain_product([3])
        for seed in range(3):
            assert list(random_maximal_chain(p, seed)) == ["0", "1", "2"]

    def test_deterministic(self):
        b3 = boolean_lattice(3)
        assert random_maximal_chain(b3, 0) == random_maximal_chain(b3, 0)

    def test_coverage(self):
        b3 = boolean_lattice(3)
        seen = {tuple(random_maximal_chain(b3, seed)) for seed in range(100)}
        assert len(seen) >= 2
        for ch in seen:
            assert is_maximal_chain(b3, ch)

    def test_missing_bounds(self):
        with pytest.raises(MissingBoundsError):
            random_maximal_chain(named_counterexample("antichain2"), 0)

    def test_same_walk_as_the_plain_cover_walk(self):
        for p in (boolean_lattice(4), partition_lattice(4)):
            for seed in range(100):
                chain = random_maximal_chain(p, seed)
                assert chain == cover_walk(p, seed), (p.name, seed)


class TestMalformedArguments:
    """Every generator refuses a malformed argument with a package error."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: Graph(3, ((0,),)), PreconditionError, r"^edge \(0,\) is not two vertices$"),
        (lambda: Graph(3, ((0, 1, 2),)), PreconditionError, "is not two vertices"),
        (lambda: Graph(3, (5,)), PreconditionError, "^edge 5 is not two vertices$"),
        (lambda: Graph(3, 5), PreconditionError, "^edges must be an iterable of pairs, got 5$"),
        (lambda: Graph("3", ((0, 1),)), PreconditionError, "^the vertex count must be an integer"),
        (lambda: Graph(3, ((0, "1"),)), PreconditionError, "^a vertex must be an integer, got '1'$"),
        (lambda: Graph(3, ((0.0, 1),)), PreconditionError, "^a vertex must be an integer, got 0.0$"),
        (lambda: Graph(0, ()), PreconditionError, "^a graph needs at least one vertex, got 0$"),
        (lambda: Graph(-1, ()), PreconditionError, "^a graph needs at least one vertex, got -1$"),
        (lambda: boolean_lattice("3"), PreconditionError, "^n must be an integer, got '3'$"),
        (lambda: boolean_lattice(2.0), PreconditionError, "^n must be an integer"),
        (lambda: partition_lattice(None), PreconditionError, "^n must be an integer, got None$"),
        (lambda: chain_product(5), PreconditionError, "^chain lengths must be an iterable, got 5$"),
        (lambda: chain_product([2.5]), PreconditionError, "^a chain length must be an integer"),
        (lambda: chain_product(["2", 3]), PreconditionError, "^a chain length must be an integer"),
        (lambda: chain_product([]), SizeLimitError, "at least one element"),
    ], ids=["short-edge", "long-edge", "int-edge", "int-edges", "str-count", "str-vertex",
            "float-vertex", "no-vertices", "negative-vertices", "str-rank", "float-rank",
            "none-rank", "int-lengths", "float-length", "str-length", "no-lengths"])
    def test_malformed_arguments_raise_package_errors(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_integer_like_arguments_are_read_as_ints(self):
        g = Graph(3, ((np.int64(2), 0), [1, np.int8(2)]))
        assert g.edges == ((0, 2), (1, 2)) and all(type(v) is int for e in g.edges for v in e)
        assert type(Graph(np.int64(3), ()).vertices) is int
        assert boolean_lattice(np.int64(2)) == boolean_lattice(2)
        assert chain_product(np.array([2, 3])) == chain_product((2, 3))

"""Hypothesis strategies for generated posets and lattices.

`posets` draws arbitrary finite posets, so most of them lack some joins and
some have pairs with several minimal upper bounds.  `wide_posets` draws
larger ones, whose up-sets span several 64-bit words, each with a bowtie so
that both kinds of missing join occur.  `closure_lattices` draws
lattices: a family of subsets of a small ground set, closed under
intersection and holding the whole set, ordered by inclusion.  Many of those
are not semimodular.  `join_semilattices` draws the upper parts of those
lattices, many of them without a bottom.  `chain_products` and `graphic_flats` draw semimodular
lattices, the ones the matching theorem speaks about.  `antimatroids` draws
semimodular lattices whose matchings are known in closed form, and whose
duals are the negative controls.  `dot_arguments` draws join semilattices
with names DOT must escape, highlighted chains and witnesses for the DOT
writer.  `direct_products` draws finite groups, whose subnormal lattices are
dually semimodular.  `cli_invocations` draws
JSON values shaped like poset and group files, most of them malformed, each
with one subcommand to run on it.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Sequence

from hypothesis import settings, strategies as st

from semilat import (Graph, Group, MatchingResult, Poset, builtin_group, chain_product,
                     graphic_flat_lattice)

# Derandomized so the suite draws the same examples on every run.
GENERATED = settings(max_examples=100, deadline=None, derandomize=True, database=None)

GROUP_ATOMS = {name: builtin_group(name).order
               for name in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z8", "S3", "D4", "D5", "Q8",
                            "A4", "S4")}


def cover_edges(names: Iterable[str], edges: Sequence[tuple[str, str]]) -> list[tuple[str, str]]:
    """The edges of a DAG that are covers of the order it generates.

    Independent of `poset`'s matrix closure: each element's strict up-set is
    collected by a memoized depth-first walk, and an edge (a, b) is a cover
    unless b lies above another successor of a.
    """
    succ: dict[str, set[str]] = {e: set() for e in names}
    for a, b in edges:
        succ[a].add(b)
    above: dict[str, set[str]] = {}

    def up(e: str) -> set[str]:
        if e not in above:
            above[e] = set().union(*({b} | up(b) for b in succ[e]))
        return above[e]

    return [(a, b) for a, b in edges if not any(b in up(c) for c in succ[a] - {b})]


def dag_poset(name: str, names: Sequence[str], edges: Sequence[tuple[str, str]]) -> Poset:
    """The poset a DAG generates, read through its covers."""
    return Poset.from_cover_list(name, names, cover_edges(names, edges))


@st.composite
def posets(draw, max_size: int = 10) -> Poset:
    """A random poset: a random DAG on shuffled names, read through its covers.

    Edges only run from a lower to a higher position of one drawn order, and
    the element names are a random permutation of it, so index order is not
    a linear extension.
    """
    n = draw(st.integers(1, max_size))
    names = draw(st.permutations([f"e{k:02d}" for k in range(n)]))
    density = draw(st.integers(1, 3))
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(0, 7)) < density]
    return dag_poset("generated", names, edges)


@st.composite
def wide_posets(draw, min_size: int = 60, max_size: int = 200) -> Poset:
    """A random sparse DAG plus a separate bowtie (two minimal elements below
    two maximal ones), min_size..max_size elements on shuffled names.

    The DAG is drawn from one seed, not edge by edge, to keep large examples
    cheap.
    """
    n = draw(st.integers(min_size, max_size))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    names = draw(st.permutations([f"e{k:03d}" for k in range(n)]))
    density = draw(st.integers(1, 4)) / n
    edges = [(names[i], names[j]) for i in range(n - 4) for j in range(i + 1, n - 4)
             if rng.random() < density]
    a, b, c, d = names[-4:]
    edges += [(a, c), (a, d), (b, c), (b, d)]
    return dag_poset("wide", names, edges)


@st.composite
def closure_lattices(draw, max_ground: int = 5) -> Poset:
    """A random lattice of subsets closed under intersection."""
    k = draw(st.integers(2, max_ground))
    full = (1 << k) - 1
    sets = set(draw(st.lists(st.integers(0, full), min_size=k, max_size=3 * k))) | {full}
    while True:
        closed = sets | {a & b for a in sets for b in sets}
        if closed == sets:
            break
        sets = closed
    names = {s: format(s, f"0{k}b") for s in sets}
    edges = [(names[a], names[b]) for a in sets for b in sets
             if a != b and a & b == a]
    return dag_poset("closure", list(names.values()), edges)


@st.composite
def join_semilattices(draw, max_ground: int = 5) -> Poset:
    """A closure lattice less the down-set of up to three drawn elements
    below its top.  What is left is an up-set of a lattice: closed under
    joins, with the lattice's covers, and often without a bottom."""
    p = draw(closure_lattices(max_ground))
    below_top = [e for e in p.elements if e != p.top()]
    drop = draw(st.lists(st.sampled_from(below_top), max_size=3)) if below_top else []
    keep = [e for e in p.elements if not any(p.leq(e, d) for d in drop)]
    return Poset.from_cover_list("join semilattice", keep,
                                 [(a, b) for a, b in p.cover_pairs() if a in keep])


@st.composite
def dot_arguments(draw) -> tuple:
    """A join semilattice, its names given a suffix DOT must escape, two
    highlighted chains and a matching, for `export_dot`.  Each chain is None,
    empty, or a walk up the order that mostly steps by covers; each witness
    is two drawn names."""
    p = draw(join_semilattices())
    suffix = draw(st.sampled_from(["", '"', "\\", ' q"\\']))
    p = Poset.from_cover_list(p.name + suffix, [e + suffix for e in p.elements],
                              [(a + suffix, b + suffix) for a, b in p.cover_pairs()])
    ups = p._view()[0]

    def walk():
        row = [draw(st.integers(0, len(p) - 1))]
        while draw(st.integers(0, 3)):
            i = row[-1]   # one step in five to any element above, a cover or not
            above = ups[i] if draw(st.integers(0, 4)) else \
                [j for j in range(len(p)) if p._leq[i, j] and j != i]
            if not above:
                break
            row.append(draw(st.sampled_from(above)))
        return [p.elements[i] for i in row]

    chains = [draw(st.sampled_from([None, [], "walk"])) for _ in range(2)]
    chains = [walk() if c == "walk" else c for c in chains]
    witnesses = draw(st.lists(st.tuples(*[st.sampled_from(p.elements)] * 2), max_size=4))
    matching = None if draw(st.booleans()) else \
        MatchingResult(len(witnesses), tuple(range(1, len(witnesses) + 1)), tuple(witnesses))
    return p, *chains, matching


@st.composite
def chain_products(draw, max_size: int = 64) -> Poset:
    """A product of 1..6 chains in a random shape with at most max_size
    elements: each factor leaves room for the ones still to come."""
    lengths: list[int] = []
    size = 1
    for left in range(draw(st.integers(1, 6)), 0, -1):
        top = 1
        while (top + 1) ** left * size <= max_size:
            top += 1
        if top < 2:
            break
        lengths.append(draw(st.integers(2, top)))
        size *= lengths[-1]
    return chain_product(lengths)


@st.composite
def graphic_flats(draw, max_vertices: int = 5) -> Poset:
    """The lattice of flats of a random simple graph on 2..max_vertices
    vertices; geometric, hence semimodular."""
    k = draw(st.integers(2, max_vertices))
    pairs = list(combinations(range(k), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return graphic_flat_lattice(Graph(k, tuple(edges)))


def letter_set_name(s: int, n: int) -> str:
    """The name of a set of the letters 0..n-1: character x is 1 when x is in it."""
    return "".join("1" if s >> x & 1 else "0" for x in range(n))


def antimatroid_lattice(words: Sequence[Sequence[int]]) -> Poset:
    """The union closure of the prefixes of `words`, each a permutation of the
    letters 0..n-1, n >= 1, ordered by inclusion.  That family is an
    antimatroid, so its lattice is join-distributive, hence semimodular
    (Edelman and Jamison, 1985).  Each cover adds one letter, so the covers
    are read off the family, independently of `poset`'s matrix closure.
    """
    n = len(words[0])
    family = {0}
    for prefix in {sum(1 << x for x in w[:t]) for w in words for t in range(1, n + 1)}:
        family |= {s | prefix for s in family}
    names = {s: letter_set_name(s, n) for s in family}
    covers = [(names[s], names[s | 1 << x]) for s in family for x in range(n)
              if not s >> x & 1 and s | 1 << x in family]
    return Poset.from_cover_list("antimatroid", names.values(), covers)


@st.composite
def antimatroids(draw, max_letters: int = 8, max_words: int = 4,
                 min_letters: int = 3) -> Poset:
    """The antimatroid lattice of 2..max_words words over
    min_letters..max_letters letters.  The words are drawn from one seed, so
    that few of them repeat."""
    n = draw(st.integers(min_letters, max_letters))
    k = draw(st.integers(2, max_words))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return antimatroid_lattice([rng.sample(range(n), n) for _ in range(k)])


@st.composite
def direct_products(draw, max_order: int = 24) -> Group:
    """A direct product of 1..3 builtin groups, of order at most max_order."""
    names: list[str] = []
    order = 1
    for _ in range(draw(st.integers(1, 3))):
        fits = [a for a, k in GROUP_ATOMS.items() if order * k <= max_order]
        if not fits:
            break
        names.append(draw(st.sampled_from(fits)))
        order *= GROUP_ATOMS[names[-1]]
    return builtin_group("x".join(names))



# Values of the wrong type for any field of an input file.
JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.just(2.5), st.just("a"),
                      st.just([0, 1]), st.just({}))
# Poset names in the order their drawn DAG follows, and the group tables drawn.
FILE_NAMES = ("0", "a", "b", "1")
FILE_TABLES = tuple(builtin_group(name).to_dict()["table"]
                    for name in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "S3"))
# The argv of each subcommand that reads a file; "FILE" and "OUT" stand for
# the input file and an output path.
POSET_COMMANDS = (
    ["validate", "FILE"], ["validate", "FILE", "--json"], ["chains", "FILE", "--count"],
    ["chains", "FILE", "--limit", "2", "--json"],
    ["match", "FILE", "--chain-a", "0,a,1", "--chain-b", "0,b,1", "--json"],
    ["match", "FILE", "--chain-a", "0,1", "--chain-b", "0,a"],
    ["project", "FILE", "--source", "0,a", "--target", "b,1"],
    ["verify", "FILE"], ["verify", "FILE", "--samples", "2", "--json"],
    ["export-dot", "FILE", "--chain-a", "0,a,1", "--chain-b", "0,b,1", "--witnesses"],
)
GROUP_COMMANDS = (
    ["group", "subgroups", "FILE"], ["group", "composition", "FILE"],
    ["group", "composition", "FILE", "--json"], ["group", "subnormal-lattice", "FILE", "-o", "OUT"],
    ["group", "composition", "FILE", "--series-a", "0", "--series-b", "0"],
)


@st.composite
def spoiled(draw, fields: dict):
    """`fields` as a JSON object, or with one field dropped or of a wrong
    type, or in its place a value that is not an object."""
    how = draw(st.sampled_from(("keep", "keep", "keep", "drop", "wrong type", "no object")))
    if how == "no object":
        return draw(JSON_JUNK)
    data = dict(fields)
    if how != "keep":
        key = draw(st.sampled_from(sorted(data)))
        if how == "drop":
            del data[key]
        else:
            data[key] = draw(JSON_JUNK)
    return data


@st.composite
def poset_files(draw):
    """A poset file: a DAG on up to four names, read through its covers, or
    with one flaw: a repeated name, an unknown endpoint, a cycle, all of its
    edges (some not covers) or a cover entry that is no pair."""
    names = sorted(draw(st.sets(st.sampled_from(FILE_NAMES), min_size=1)), key=FILE_NAMES.index)
    edges = [[a, b] for a, b in combinations(names, 2) if draw(st.booleans())]
    covers = [list(e) for e in cover_edges(names, edges)]
    flaw = draw(st.sampled_from(("none", "none", "none", "repeated name", "unknown endpoint",
                                 "cycle", "all edges", "no pair")))
    if flaw == "repeated name":
        names.append(names[0])
    elif flaw == "unknown endpoint":
        covers.append([names[0], "z"])
    elif flaw == "cycle":   # a self-cover on one name
        covers.append([names[-1], names[0]])
    elif flaw == "all edges":
        covers = edges
    elif flaw == "no pair":
        covers.append(draw(JSON_JUNK))
    return draw(spoiled({"name": "p", "elements": names, "covers": covers}))


@st.composite
def group_files(draw):
    """A group file: a table of order 1 to 6, or with one flaw: an entry
    changed, a row cut short, the identity's row moved, or an order that
    does not fit."""
    table = [list(row) for row in draw(st.sampled_from(FILE_TABLES))]
    n, order = len(table), len(table)
    flaw = draw(st.sampled_from(("none", "none", "entry", "short row", "rows swapped",
                                 "order")))
    if flaw == "entry":
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(-1, n) | JSON_JUNK)
    elif flaw == "short row":
        table[draw(st.integers(0, n - 1))].pop()
    elif flaw == "rows swapped":
        table[0], table[-1] = table[-1], table[0]
    elif flaw == "order":
        order += 1
    return draw(spoiled({"name": "g", "order": order, "table": table}))


@st.composite
def cli_invocations(draw):
    """A JSON value shaped like an input file and the argv of one subcommand
    to run on it."""
    if draw(st.booleans()):
        return draw(poset_files()), draw(st.sampled_from(POSET_COMMANDS))
    return draw(group_files()), draw(st.sampled_from(GROUP_COMMANDS))

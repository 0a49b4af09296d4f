"""Test-lattice corpus: Boolean, chain-product, partition and graphic-matroid
flat families, plus the standard negative controls.

Element naming is canonical per family (subset bitstrings, dot-joined
coordinates, partition block strings) so fixtures and DOT output are stable
across runs.  Each family's closed-form size (2^n, Bell(n), the product of the
chain lengths) passes the one poset-size guard before any element is built.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import accumulate, combinations, product

from .errors import PreconditionError, SizeLimitError, UnknownNameError
from .poset import Poset, _check_size, _int, _numeral, _sequence
from .semilattice import _require_bounds


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertices-1."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", _int(self.vertices, "the vertex count"))
        if self.vertices < 1:
            raise PreconditionError(f"a graph needs at least one vertex, got {self.vertices}")
        norm = []
        for e in _sequence(self.edges, PreconditionError,
                           "edges must be an iterable of pairs, got {!r}", self.edges):
            try:
                u, v = (_int(x, "a vertex") for x in e)
            except (TypeError, ValueError):
                raise PreconditionError(f"edge {e!r} is not two vertices") from None
            if u == v:
                raise PreconditionError(f"loop at vertex {u}")
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise PreconditionError(f"edge ({u}, {v}) outside vertex range")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise PreconditionError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        """Parse one 'u v' pair of `_numeral`s per line; vertex count is max index + 1."""
        edges = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PreconditionError(f"line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = map(_numeral, parts)
            except ValueError:
                raise PreconditionError(f"line {lineno}: vertices must be integers") from None
            if u < 0 or v < 0:
                raise PreconditionError(f"line {lineno}: vertices must be non-negative")
            edges.append((u, v))
        if not edges:
            raise PreconditionError("edge list is empty")
        n = max(max(u, v) for u, v in edges) + 1
        return cls(n, tuple(edges))


def boolean_lattice(n: int) -> Poset:
    """Subsets of an n-element set by inclusion; names are bitstrings.

    The n = 0 lattice has the single element "0".
    """
    n = _int(n, "n")
    if n < 0:
        raise SizeLimitError(f"boolean lattice needs n >= 0, got {n}")
    _check_size(1 << k for k in range(n + 1))
    def name(mask: int) -> str:
        return "".join("1" if mask >> i & 1 else "0" for i in range(n)) or "0"
    elements = [name(m) for m in range(1 << n)]
    covers = [(name(m), name(m | 1 << i))
              for m in range(1 << n) for i in range(n) if not m >> i & 1]
    return Poset.from_cover_list(f"B{n}", elements, covers)


def chain_product(lengths: list[int]) -> Poset:
    """Direct product of chains with the componentwise order."""
    lengths = [_int(l, "a chain length") for l in _sequence(
        lengths, PreconditionError, "chain lengths must be an iterable, got {!r}", lengths)]
    if not lengths or any(l < 1 for l in lengths):
        raise SizeLimitError("each chain factor needs at least one element")
    _check_size(accumulate((l for l in lengths if l > 1), operator.mul, initial=1))

    def name(coords: tuple[int, ...]) -> str:
        return ".".join(map(str, coords))
    points = list(product(*map(range, lengths)))   # in lexicographic order
    covers = [(name(pt), name(pt[:k] + (pt[k] + 1,) + pt[k + 1:]))
              for pt in points for k, l in enumerate(lengths) if pt[k] + 1 < l]
    return Poset.from_cover_list("C" + "x".join(map(str, lengths)), list(map(name, points)), covers)


def _partitions(items: list[int]) -> list[list[list[int]]]:
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for part in _partitions(rest):
        out.append([[head]] + part)
        for k in range(len(part)):
            out.append(part[:k] + [[head] + part[k]] + part[k + 1:])
    return out


def _partition_name(blocks) -> str:
    ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
    return "|".join("".join(str(x) for x in b) for b in ordered)


def _merge_covers(parts: list[list[list[int]]],
                  mergeable) -> tuple[list[str], list[tuple[str, str]]]:
    """The names of `parts`, and the cover edges of their refinement order:
    merge two blocks allowed by `mergeable`.  Each such merge must again be
    one of `parts`."""
    names = [_partition_name(blocks) for blocks in parts]
    covers = []
    for nm, blocks in zip(names, parts):
        for i, j in combinations(range(len(blocks)), 2):
            if mergeable(blocks[i], blocks[j]):
                rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
                covers.append((nm, _partition_name(rest + [blocks[i] + blocks[j]])))
    return names, covers


def partition_lattice(n: int) -> Poset:
    """Set partitions of {1..n} ordered by refinement (finer below coarser)."""
    n = _int(n, "n")
    if n < 1:
        raise SizeLimitError(f"partition lattice needs n >= 1, got {n}")
    # Bell(1), ..., Bell(n): the last entries of the first n rows of the Bell triangle.
    _check_size(row[-1] for row in accumulate(
        range(n - 1), lambda row, _: list(accumulate(row, initial=row[-1])), initial=[1]))
    # Merging two blocks of a partition gives a partition.
    names, covers = _merge_covers(_partitions(list(range(1, n + 1))), lambda a, b: True)
    return Poset.from_cover_list(f"Pi{n}", names, covers)


def graphic_flat_lattice(g: Graph) -> Poset:
    """Flats of the cycle matroid of g: vertex partitions whose blocks induce
    connected subgraphs, ordered by refinement.  Geometric, hence semimodular."""
    if not isinstance(g, Graph):
        raise PreconditionError(f"graphic flats need a Graph, got {g!r}")
    if g.vertices > 7:
        raise SizeLimitError(f"graphic flats support at most 7 vertices, got {g.vertices}")
    adjacent = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}

    def connected(block: list[int]) -> bool:
        todo, seen = [block[0]], {block[0]}
        members = set(block)
        while todo:
            x = todo.pop()
            for y in members - seen:
                if (x, y) in adjacent:
                    seen.add(y)
                    todo.append(y)
        return len(seen) == len(block)

    def touches(a: list[int], b: list[int]) -> bool:
        return any((u, v) in adjacent for u in a for v in b)

    # Merging two touching connected blocks gives a connected block.
    names, covers = _merge_covers([part for part in _partitions(list(range(g.vertices)))
                                   if all(connected(b) for b in part)], touches)
    label = "flats(" + "+".join(f"{u}{v}" for u, v in g.edges) + ")"
    return Poset.from_cover_list(label, names, covers)


def named_counterexample(name: str) -> Poset:
    """Negative controls: n5 (lattice, not semimodular), antichain2 and
    two_tops (not join semilattices)."""
    if name == "n5":
        return Poset.from_cover_list(
            "n5", ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
    if name == "antichain2":
        return Poset.from_cover_list("antichain2", ["a", "b"], [])
    if name == "two_tops":
        return Poset.from_cover_list(
            "two_tops", ["0", "a", "b"], [("0", "a"), ("0", "b")])
    raise UnknownNameError(f"unknown counterexample {name!r}; "
                           "choose from n5, antichain2, two_tops")


def random_maximal_chain(p: Poset, seed: int) -> tuple[str, ...]:
    """Seeded uniform cover-walk from bottom to top; deterministic per seed."""
    (row,) = _random_chain_rows(p, [seed])
    return tuple(map(p.elements.__getitem__, row))


def _random_chain_rows(p: Poset, seeds) -> list[tuple[int, ...]]:
    """The index row of `random_maximal_chain` for each seed, the same draws
    from one `random.Random` re-seeded per chain; the bounds are read once."""
    bottom, top = _require_bounds(p)
    ups, rng, rows = p._view()[0], random.Random(0), []
    for seed in seeds:
        rng.seed(_int(seed, "the seed"))
        row = [bottom]
        while row[-1] != top:
            options = ups[row[-1]]
            row.append(options[rng.randrange(len(options))])
        rows.append(tuple(row))
    return rows

"""Finite groups as Cayley tables: subgroup enumeration, subnormality, the
subnormal-subgroup lattice, and composition-series matching.

Tables are checked for associativity on a generating set only (Light's
test).  Subgroups are enumerated by canonical extension: one-element
extensions by cyclic subgroups, each subgroup closed once, from its greedy
generator sequence.  The subnormal lattice decides subnormality for every
subgroup at once from one normalizer matrix, and is read off one member
matrix.  It is dually semimodular, so the chain matcher runs on its dual:
`composition_analysis` reads every series as one index row of the lattice,
top-down a chain of the dual, and matches all its pairs in one
`match_index_chains` call; factor orders come from the members' counts by
index, and pi and the factors are mapped back to ascending series.  The
report keeps the pairs as four arrays, and both output formats write each
distinct (pi, factor pairs, verdict) key once, then every pair in one join.
Factor "isomorphism" is checked as order equality, exact up to
GROUP_ORDER_LIMIT since every factor is simple and no order <= 120 has two
simple groups: Z_p for each prime p, and A5 for 60.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, permutations

import numpy as np

from . import semilattice as sl
from .errors import (
    GroupValidationError,
    InternalInvariantError,
    PreconditionError,
    SizeLimitError,
    UnknownNameError,
)
from .matching import match_index_chains
from .poset import (ELEMENT_LIMIT, Poset, _check_size, _fields, _json_text, _Rows,
                    _save_json, _sequence, _transitive_reduction)

# Validating a group table takes about 1.5 ms at order 120 and 5-10 ms at order 240; a
# table that fails associativity pays the full scan, about 9 ms and 28 ms.
GROUP_ORDER_LIMIT = 120


class Group:
    """Finite group given by an n x n Cayley table with the identity at 0."""

    def __init__(self, name: str, table: list[list[int]]):
        self.name = name
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order {self.order})"

    def to_dict(self) -> dict:
        return {"name": self.name, "order": self.order,
                "table": [list(row) for row in self.table]}


def group_from_table(name: str, table) -> Group:
    """Validate a Cayley table: Latin square, identity at index 0, inverses,
    and associativity.  Orders above GROUP_ORDER_LIMIT are refused before any
    of that.

    Associativity is checked on generators only (Light's test): (as)c = a(sc)
    for every a and c, for each s of a greedy generating set.  The elements s
    that pass are closed under products ((a(st))c = ((as)t)c = (as)(tc) =
    a(s(tc)) = a((st)c)), and they hold the identity, so once the generators
    pass, every element does.  On a failure, the full scan, n^2 triples per
    numpy step, names the first failing triple (a, b, c) in lexicographic order.
    """
    table = _sequence(table, GroupValidationError, "table must be an array of rows, got {}",
                      type(table).__name__)
    _check_order([len(table)])
    if not all(isinstance(r, (list, tuple)) for r in table):
        raise GroupValidationError("table rows must be arrays")
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
    # A row of the wrong length or entry type (1.0 == True == 1 would pass the Latin test,
    # and numpy reads booleans as a mask) reads as -1s, so it fails in its place.
    typed = [len(r) == n and all(type(x) is int for x in r) for r in table]
    T, everyone = np.array([r if ok else [-1] * n for r, ok in zip(table, typed)]), np.arange(n)
    latin = (np.sort(np.stack((T, T.T)), axis=2) == everyone).all(axis=2)   # rows, columns
    if not latin.all():
        side, i = divmod(int(latin.argmin()), n)   # a bad column only after every row is good
        if side or typed[i]:
            raise GroupValidationError(
                f"not a Latin square: {('row', 'column')[side]} {i} is not a permutation")
        if len(table[i]) != n:
            raise GroupValidationError(f"row {i} has length {len(table[i])}, expected {n}")
        raise GroupValidationError("table entries must be integers")
    if (T[0] != everyone).any() or (T[:, 0] != everyone).any():
        raise GroupValidationError("identity not at index 0")
    # Each row is a permutation, so its least entry, 0, is at the right inverse.
    one_sided = np.flatnonzero(T[T.argmin(axis=1), everyone] != 0)
    if len(one_sided):
        raise GroupValidationError(f"element {one_sided[0]} has no two-sided inverse")
    group, gens, reached = Group(name, table), [], {0}
    while len(reached) < n:   # greedy generators: the least element not reached yet
        gens.append(min(set(range(n)) - reached))
        reached = _close(group, gens)
    # Entry (a, s, c) of T[T[:, S]] is (as)c and of T[:, T[S]] is a(sc).
    if (T[T[:, gens]] != T[:, T[gens]]).any():
        for a in range(n):   # the first failing triple, in lexicographic order
            # Entry (b, c) of T[T[a]] is (ab)c and of T[a][T] is a(bc).
            bad = T[T[a]] != T[a][T]
            if bad.any():
                b, c = divmod(int(bad.argmax()), n)
                raise GroupValidationError(f"associativity fails at ({a}, {b}, {c})")
    return group


def _group(g) -> Group:
    """The one check of a group argument, where each public function first reads it."""
    if not isinstance(g, Group):
        raise PreconditionError(f"the group must be a Group, got {type(g).__name__}")
    return g


def _check_order(counts: Iterable[int]) -> None:
    _check_size(counts, GROUP_ORDER_LIMIT, "group tables are limited to order <= {}")


# -- builtin corpus ----------------------------------------------------------


def _cayley(elements: Sequence, product: Callable) -> list[list[int]]:
    """Entry (i, j) is the position of product(elements[i], elements[j])."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[product(x, y)] for y in elements] for x in elements]


def _hamilton(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Product of quaternions a + bi + cj + dk given as (a, b, c, d)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _builtin_atom(name: str) -> tuple[Sequence, Callable] | None:
    """The elements of a builtin atom, in table order, and their product.  Zn and
    Dn list theirs as a range, so their order is read with no element built.  A
    numeral is ASCII digits; one with more digits than GROUP_ORDER_LIMIT is past
    it whatever it reads, so it is never read, and the atom is None."""
    kind, digits = name[:1], name[1:].lstrip("0")   # so Z0 and D0 are unknown
    if kind in ("Z", "D") and digits.isascii() and digits.isdigit():
        if len(digits) > len(str(GROUP_ORDER_LIMIT)):
            return None
        n = int(digits)
        if kind == "Z":
            return range(n), lambda a, b: (a + b) % n

        def dihedral(x: int, y: int) -> int:
            # x = s * n + r is t^s rho^r, with t rho t = rho^{-1}.
            (s, r), (t, q) = divmod(x, n), divmod(y, n)
            return (s + t) % 2 * n + (q - r if t else r + q) % n
        return range(2 * n), dihedral
    if name in ("S3", "S4", "A4"):
        perms = list(permutations(range(int(name[1]))))   # in lexicographic order
        if name == "A4":   # the even permutations: an even number of inversions
            perms = [p for p in perms if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
        return perms, lambda p, q: tuple(p[k] for k in q)   # (p∘q)(k) = p(q(k))
    if name == "Q8":
        # 1, -1, i, -i, j, -j, k, -k in that order.
        return ([tuple(s * (k == axis) for k in range(4)) for axis in range(4) for s in (1, -1)],
                _hamilton)
    raise UnknownNameError(f"unknown builtin group {name!r}")


def builtin_group(name: str) -> Group:
    """Builtin corpus: Zn (order n), Dn (order 2n), S3, S4, A4, Q8, and
    x-joined direct products such as Z2xZ2 or S3xZ2.  Every atom name is read,
    then the orders of the product's prefixes, lazily, before any table is built."""
    if not isinstance(name, str):
        raise UnknownNameError(f"unknown builtin group {name!r}")
    atoms = [_builtin_atom(part) for part in name.split("x")]
    # A numeral never read counts as the factor GROUP_ORDER_LIMIT + 1, a lower
    # bound, then 1: one count more, so it is refused as more than the first.
    _check_order(accumulate(chain.from_iterable(
        (len(atom[0]),) if atom else (GROUP_ORDER_LIMIT + 1, 1) for atom in atoms), operator.mul))
    table = np.zeros((1, 1), dtype=np.int64)
    for elements, mul in atoms:
        atom, m = np.array(_cayley(elements, mul)), len(elements)
        # Element (a, b) of the product is a * m + b.
        table = (table[:, None, :, None] * m + atom[None, :, None, :]).reshape(len(table) * m, -1)
    # Builtins go through the same validation as user tables.
    return group_from_table(name, table.tolist())


# -- serialization -----------------------------------------------------------


def group_from_dict(data: dict) -> Group:
    name, order, table = _fields(data, "group", GroupValidationError, "order", "table")
    if not isinstance(order, int) or isinstance(order, bool):
        raise GroupValidationError("field 'order' must be an integer")
    if not isinstance(table, list) or len(table) != order:
        raise GroupValidationError("field 'table' must be an order x order array")
    return group_from_table(name, table)


def load_group(path: str) -> Group:
    with open(path, encoding="utf-8") as fh:
        return group_from_dict(json.load(fh))


def save_group(g: Group, path: str) -> None:
    _save_json(g.to_dict(), path)


# -- subgroups ---------------------------------------------------------------


def _close(g: Group, seed: Collection[int], closed: Iterable[int] = (),
           frontier: Iterable[int] = (0,)) -> frozenset[int]:
    """The subgroup generated by `seed`: the identity closed under right
    multiplication by the seed elements.  In a finite group the monoid they
    generate is already the subgroup.  It can go on from members `closed` and
    `frontier`, where `closed` times the seed already lies among them."""
    members, frontier = set(closed), list(frontier)
    members.update(frontier)
    for x in frontier:
        row = g.table[x]
        for s in seed:
            z = row[s]
            if z not in members:
                members.add(z)
                frontier.append(z)
    return frozenset(members)


def subgroup_name(members) -> str:
    """The name of a subgroup: its member indices joined by dots."""
    return ".".join(map(str, members))


def all_subgroups(g: Group) -> list[tuple[int, ...]]:
    """Every subgroup, as sorted member indices, each closed once (canonical extension).

    <x> is named by its cyclic id, the least element generating it, read once
    per call as the powers of x; <H, x> depends on x only through <x>.  Every
    subgroup K != 1 has one greedy generator sequence z_1 < ... < z_m, where
    z_i is the least cyclic id over K minus <z_1, ..., z_(i-1)>.  H is
    extended by a cyclic id z above its own last generator, and K = <H, z> is
    kept only if z is the least cyclic id over K minus H: exactly when H's
    sequence followed by z is K's.  So each subgroup is found once, from its
    own sequence, in any finite group.  Before the closure, a z that is not
    the least cyclic id over its coset Hz is passed over, as it would fail;
    K is closed from H and Hz, since H times its generators is H.  Finding
    more than ELEMENT_LIMIT subgroups raises SizeLimitError there, before any
    is listed.
    """
    table, first = _group(g).table, {}
    cyclic = []   # each x's cyclic id
    for x in range(g.order):
        powers, y = {0}, x
        while y not in powers:
            powers.add(y)
            y = table[y][x]
        cyclic.append(first.setdefault(frozenset(powers), x))
    ids = sorted(first.values())[1:]   # every cyclic id but the identity's, ascending
    found = [(frozenset({0}), ())]   # each subgroup with its greedy generator sequence
    for H, gens in found:
        done = set(H)   # H and the cosets Hz seen so far
        for z in ids[ids.index(gens[-1]) + 1 if gens else 0:]:
            if z in done:   # in H, or in the coset of a smaller id
                continue
            coset = [table[h][z] for h in H]
            done.update(coset)
            if min(map(cyclic.__getitem__, coset)) < z:
                continue
            K = _close(g, gens + (z,), H, coset)
            if min(map(cyclic.__getitem__, K - H)) < z:
                continue
            if len(found) == ELEMENT_LIMIT:
                raise SizeLimitError(
                    f"subgroup enumeration is limited to {ELEMENT_LIMIT} subgroups, "
                    f"got more than {ELEMENT_LIMIT}")
            found.append((K, gens + (z,)))
    return sorted((tuple(sorted(H)) for H, _ in found), key=lambda s: (len(s), s))


def subnormal_lattice(g: Group) -> Poset:
    """Poset of subnormal subgroups under inclusion, named by member lists.

    Subnormality is decided for every subgroup at once (Wielandt): H is
    subnormal iff a chain of subgroups, each normal in the next, leads from
    H up to G.  With M the 0/1 member matrix of all subgroups and N that of
    their normalizers, a is normal in b iff M_a <= M_b <= N_a, and the
    subnormal subgroups are those reached from G along that relation, with
    no normal closure taken.  The order is the inclusion test on the reached
    rows, in name order: H <= K iff |H & K| = |H|, so leq is
    `M @ M.T == |row|`, already closed, and its reduction gives the covers.
    The dual must be semimodular; a failure is reported as a broken-theorem
    sentinel, not as bad input.  It is built once per group and cached on it
    with its elements' orders.
    """
    cached = _group(g)._cache.get("subnormal")
    if cached is not None:
        return cached[0]
    subs = all_subgroups(g)   # by size, so G is the last
    table = np.array(g.table)
    # conj[k, h] = k h k^-1; the 0 in row k sits at k^-1.
    conj = table[table, table.argmin(axis=1)[:, None]]
    member = np.zeros((len(subs), g.order), dtype=bool)
    for row, s in zip(member, subs):
        row[list(s)] = True
    # k normalises a iff every h in a has k h k^-1 in a: one gather of
    # subgroups x n x n booleans, at most ELEMENT_LIMIT x 120 x 120 (28.8 M); a fresh
    # process peaks at 47.5 MiB resident on D4xZ2xZ2xZ2 (937 x 64 x 64), 31 MiB on Z2.
    normalizer = (member[:, conj] | ~member[:, None, :]).all(axis=2).astype(np.float32)
    member = member.astype(np.float32)
    orders = member.sum(axis=1)   # float32 counts are exact
    inside = member @ member.T == orders[:, None]   # [a, b]: M_a <= M_b
    normal = inside & (normalizer @ member.T == orders[None, :])   # and M_b <= N_a
    reached, count = np.zeros(len(subs), dtype=bool), 0
    reached[-1] = True   # G
    while reached.sum() > count:   # add each subgroup normal in one already reached
        count = reached.sum()
        reached |= normal[:, reached].any(axis=1)
    keep = sorted(np.flatnonzero(reached).tolist(), key=lambda a: subgroup_name(subs[a]))
    orders, leq = orders[keep], inside[np.ix_(keep, keep)]
    lattice = Poset(f"subnormal({g.name})", tuple(subgroup_name(subs[a]) for a in keep), leq,
                    _transitive_reduction(leq))
    report = sl.is_semimodular(lattice.dual())
    if not report.holds:
        raise InternalInvariantError(
            f"dual of the subnormal lattice of {g.name} is not semimodular: "
            f"counterexample {report.counterexample}")
    g._cache["subnormal"] = lattice, orders.astype(np.intp)   # and each element's order
    return lattice


# -- composition series ------------------------------------------------------


_PAIR_DEPTH = 2   # a pair's object in `group composition --json`: in the payload, in "pairs"


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Composition-series analysis of a finite group.  Pair k matches series
    pair_series[k] = (a, b) by the ascending pi pair_pi[k], with the factor
    orders pair_factors[k, i] = (a's, b's) at step i and the verdict pair_equal[k].
    These four arrays are the pairs; `to_dict()["pairs"]` has them as JSON objects."""

    group: str
    order: int
    length: int
    series: tuple[tuple[str, ...], ...]
    factor_multisets: tuple[tuple[int, ...], ...]
    pair_series: np.ndarray
    pair_pi: np.ndarray
    pair_factors: np.ndarray
    pair_equal: np.ndarray

    @property
    def multiset_independent(self) -> bool:
        return len(set(self.factor_multisets)) <= 1

    @property
    def ok(self) -> bool:
        return self.multiset_independent and bool(self.pair_equal.all())

    def to_dict(self) -> dict:
        """The object `group composition --json` prints, read back from its text."""
        return json.loads(_json_text(self._payload()))

    def _pair_text(self, write: Callable[[list, list, bool], tuple[str, str, str]],
                   sep: str) -> str:
        """Every pair's text, joined by `sep`.  write(pi, factor_pairs, equal)
        gives the texts before, between and after the pair's series numbers a
        and b, from its pi, its factor pairs (flat) and its verdict, as lists;
        it runs once per distinct key (pi, factor pairs, verdict)."""
        count, n = self.pair_pi.shape
        flat = self.pair_factors.reshape(count, 2 * n)
        # A mixed radix over pi, the factor orders and the verdict.  Below
        # GROUP_ORDER_LIMIT its largest range, at order 112 (five steps, factors
        # up to 7), is under 10^13, far inside an int64; ravel_multi_index
        # refuses a range past it.
        keys = np.ravel_multi_index(
            (*(self.pair_pi - 1).T, *flat.T, self.pair_equal.astype(np.intp)),
            (n,) * n + (int(flat.max(initial=0)) + 1,) * (2 * n) + (2,))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        texts = np.array([write(*key) for key in zip(self.pair_pi[first].tolist(),
                                                     flat[first].tolist(),
                                                     self.pair_equal[first].tolist())],
                         dtype=object)
        numerals = np.array(list(map(str, range(len(self.series)))), dtype=object)
        parts = np.empty((count, 6), dtype=object)
        parts[:, 0:5:2] = texts[inverse]
        parts[:, 1:4:2] = numerals[self.pair_series]
        parts[:, 5] = sep
        return "".join(parts.ravel()[:-1].tolist())

    def _payload(self) -> dict:
        """The `--json` object; its pairs are written by `_pair_text`, each
        distinct key's text once, from one pair's object with a "%s" slot for
        each value of its key and the slots "%a" for its series."""
        n = self.length
        # The key's slots fill in the order of the object's sorted fields.
        marker = {"factor_pairs": [["%s", "%s"]] * n, "factors_equal": "%s", "pi": ["%s"] * n,
                  "series_a": "%a", "series_b": "%a"}
        template, between, after = (_Rows.text(marker, _PAIR_DEPTH).replace('"%s"', "%s")
                                    .split('"%a"'))

        def write(pi, factor_pairs, equal):
            return template % (*factor_pairs, ("false", "true")[equal], *pi), between, after

        return {"group": self.group, "order": self.order, "length": self.length,
                "series": [list(s) for s in self.series],
                "factor_multisets": [list(m) for m in self.factor_multisets],
                "pairs": _Rows(self._pair_text(write, ",\n" + "  " * _PAIR_DEPTH)),
                "factor_multiset_independent": self.multiset_independent,
                "ok": self.ok}

    def _text(self) -> str:
        """The human format's pair lines, from the same keys as `_payload`."""
        n = self.length
        template = (f"): pi = [{', '.join(['%d'] * n)}]  "
                    f"factor pairs [{', '.join(['[%d, %d]'] * n)}]  %s")

        def write(pi, factor_pairs, equal):
            return "pair (", ", ", template % (*pi, *factor_pairs, ("MISMATCH", "ok")[equal])

        return self._pair_text(write, "\n")


def composition_analysis(g: Group, series_a=None, series_b=None) -> CompositionReport:
    """Check the classical composition-series facts on the subnormal lattice:
    equal lengths, order-matched factors under the computed permutation, and a
    chain-independent multiset of factor orders.

    With explicit series, only that ordered pair is matched, both read by
    `Poset._row` before `semilattice._check_rows` checks either; otherwise
    every ordered pair (i <= j) of maximal chains is, up to sl.PAIR_LIMIT
    pairs.  All go through one `match_index_chains` call on the dual.  The
    report keeps each pair's series indices, ascending pi, factor pairs and
    verdict as arrays, and `group composition` writes both its formats from
    one row list of them, through one template per report.
    """
    if (series_a is None) != (series_b is None):
        raise PreconditionError("provide both series or neither")
    lattice = subnormal_lattice(g)
    if series_a is not None:
        rows = [lattice._row(series_a), lattice._row(series_b)]   # both, before either is maximal
        for row in rows:
            sl._check_rows(lattice, np.array([row]), "series")
        pair_series = np.array([[0, 1]])
    else:
        count = sl.count_maximal_chains(lattice)
        sl._check_pair_count(count * (count + 1) // 2)
        rows = list(sl._chain_rows(lattice, limit=count))   # all of them, not counted again
        pair_series = np.transpose(np.triu_indices(len(rows)))   # (i, j), i <= j, row by row

    lengths = {len(row) - 1 for row in rows}
    if len(lengths) != 1:
        raise InternalInvariantError(
            f"composition series of {g.name} have unequal lengths {sorted(lengths)}")

    rows = np.array(rows)
    sizes = g._cache["subnormal"][1]   # each element's order, from the member matrix
    factors = sizes[rows[:, 1:]] // sizes[rows[:, :-1]]
    first, second = pair_series.T
    # The dual keeps the element order, so each row read top-down is a maximal chain of it.
    pi, _ = match_index_chains(lattice.dual(), rows[first, ::-1], rows[second, ::-1])
    up = pi.shape[1] + 1 - pi[:, ::-1]   # ascending-series indexing
    fp = np.stack((factors[first], np.take_along_axis(factors[second], up - 1, 1)), axis=2)
    return CompositionReport(
        group=g.name, order=g.order, length=lengths.pop(),
        series=tuple(tuple(map(lattice.elements.__getitem__, row)) for row in rows.tolist()),
        factor_multisets=tuple(tuple(sorted(f)) for f in factors.tolist()),
        pair_series=pair_series, pair_pi=up, pair_factors=fp,
        pair_equal=(fp[..., 0] == fp[..., 1]).all(axis=1))

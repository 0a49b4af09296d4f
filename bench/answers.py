"""Expected answers for benchmark jobs, derived without the code under test.

Boolean lattices and chain products are modelled here directly (elements are
coordinate tuples, joins are componentwise maxima), so their sizes, heights,
chain counts, cover counts, matching permutations and witnesses all have
closed forms.  Partition lattices (Pi_n, and the flats of K_n, which form
the same lattice) have closed forms for their counts; their matching answers
are frozen in ``expected.json`` by ``freeze.py``.  Groups are checked against
the prime factorisation of their order plus frozen subgroup and
composition-series counts.

``check(job, code, stdout)`` returns an ``Outcome``.  ``ok`` is False for any
wrong exit code or wrong answer; ``silent`` marks the worse case of a wrong
answer printed under exit code 0.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    ok: bool
    silent: bool = False
    reason: str = ""


GOOD = Outcome(True)


class Mismatch(Exception):
    """Raised inside a checker when the output differs from the expectation."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# -- lattice families ----------------------------------------------------------


@dataclass(frozen=True)
class Product:
    """Direct product of chains 0 < 1 < ... < l-1, one factor per length.

    ``bits`` selects the Boolean naming (one 0/1 character per coordinate)
    instead of the dotted naming of ``semilat gen chainprod``.
    """

    label: str
    lengths: tuple[int, ...]
    bits: bool = False

    def name(self, coords) -> str:
        if self.bits:
            return "".join(str(c) for c in coords)
        return ".".join(str(c) for c in coords)

    def parse(self, name: str) -> tuple[int, ...]:
        return tuple(int(c) for c in (name if self.bits else name.split(".")))

    @property
    def elements(self) -> int:
        return math.prod(self.lengths)

    @property
    def height(self) -> int:
        return sum(l - 1 for l in self.lengths)

    @property
    def covers(self) -> int:
        return sum((l - 1) * self.elements // l for l in self.lengths)

    @property
    def chains(self) -> int:
        count = math.factorial(self.height)
        for l in self.lengths:
            count //= math.factorial(l - 1)
        return count

    @property
    def bottom(self) -> str:
        return self.name(0 for _ in self.lengths)

    @property
    def top(self) -> str:
        return self.name(l - 1 for l in self.lengths)

    def rank(self, name: str) -> int:
        return sum(self.parse(name))

    def random_chain(self, rng) -> list[str]:
        """Seeded cover walk: a shuffled sequence of coordinate raises."""
        steps = [k for k, l in enumerate(self.lengths) for _ in range(l - 1)]
        rng.shuffle(steps)
        coords = [0] * len(self.lengths)
        chain = [self.name(coords)]
        for k in steps:
            coords[k] += 1
            chain.append(self.name(coords))
        return chain

    def _steps(self, chain) -> list[tuple[int, int]]:
        """(coordinate, new value) raised by each step; checks every step is a cover."""
        out = []
        for lo, hi in zip(chain, chain[1:]):
            a, b = self.parse(lo), self.parse(hi)
            diff = [k for k in range(len(a)) if a[k] != b[k]]
            _expect(len(diff) == 1 and b[diff[0]] == a[diff[0]] + 1,
                    f"({lo}, {hi}) is not a cover of {self.label}")
            out.append((diff[0], b[diff[0]]))
        return out

    def expected_pi(self, chain_a, chain_b) -> list[int]:
        """Step i of chain_a raising coordinate k to v maps to the step of
        chain_b raising coordinate k to v."""
        where = {step: j for j, step in enumerate(self._steps(chain_b), start=1)}
        return [where[step] for step in self._steps(chain_a)]

    def _join(self, x, y):
        return tuple(max(a, b) for a, b in zip(x, y))

    def _up_projective(self, lo, hi, x, y) -> bool:
        return x != y and self._join(lo, x) == x and self._join(hi, x) == y

    def check_witness(self, source, target, witness) -> None:
        a, b = (self.parse(e) for e in source)
        c, d = (self.parse(e) for e in target)
        x, y = (self.parse(e) for e in witness)
        _expect(self._up_projective(a, b, x, y) and self._up_projective(c, d, x, y),
                f"witness {witness} does not link {source} and {target}")


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


@dataclass(frozen=True)
class Partitions:
    """Set partitions of ``first .. first+n-1`` by refinement: Pi_n for
    ``first == 1``, the graphic flats of K_n for ``first == 0``."""

    label: str
    n: int
    first: int

    @property
    def elements(self) -> int:
        return sum(_stirling2(self.n, k) for k in range(1, self.n + 1))

    @property
    def height(self) -> int:
        return self.n - 1

    @property
    def covers(self) -> int:
        return sum(_stirling2(self.n, k) * math.comb(k, 2) for k in range(1, self.n + 1))

    @property
    def chains(self) -> int:
        return math.factorial(self.n) * math.factorial(self.n - 1) // 2 ** (self.n - 1)

    def rank(self, name: str) -> int:
        return self.n - 1 - name.count("|")

    @property
    def bottom(self) -> str:
        return "|".join(str(self.first + i) for i in range(self.n))

    @property
    def top(self) -> str:
        return "".join(str(self.first + i) for i in range(self.n))


class N5:
    """The pentagon 0 < a < c < 1, 0 < b < 1: a lattice that is not semimodular."""

    label = "n5"
    elements = 5
    height = 3
    covers = 5
    chains = 2
    bottom, top = "0", "1"
    chain_pair = (["0", "a", "c", "1"], ["0", "b", "1"])
    _up = {"0": "0abc1", "a": "ac1", "b": "b1", "c": "c1", "1": "1"}
    _covers = {("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")}

    def join(self, x: str, y: str) -> str:
        common = [z for z in self._up[x] if z in self._up[y]]
        return max(common, key=lambda z: len(self._up[z]))

    def check_counterexample(self, triple) -> None:
        a, b, c = triple
        _expect((a, b) in self._covers, f"{triple}: ({a}, {b}) is not a cover of n5")
        u, v = self.join(a, c), self.join(b, c)
        _expect(u != v and (u, v) not in self._covers,
                f"{triple} does not violate the covering law in n5")


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


_GROUP_ATOM = re.compile(r"^(Z|D)(\d+)$|^(S3|S4|A4|Q8)$")
_NAMED_ORDERS = {"S3": 6, "S4": 24, "A4": 12, "Q8": 8}


def group_order(name: str) -> int:
    """Order of a builtin group name such as D4xZ2 (Dn has order 2n)."""
    order = 1
    for part in name.split("x"):
        m = _GROUP_ATOM.match(part)
        if m is None:
            raise ValueError(f"unknown group atom {part!r}")
        if m.group(3):
            order *= _NAMED_ORDERS[part]
        else:
            order *= int(m.group(2)) * (2 if m.group(1) == "D" else 1)
    return order


# -- per-command checkers ------------------------------------------------------


def _check_validate(job, out: dict) -> None:
    fam = job["family"]
    _expect(out["name"] == fam.label, f"name {out['name']!r}")
    _expect(out["elements"] == fam.elements, f"elements {out['elements']} != {fam.elements}")
    _expect(out["height"] == fam.height, f"height {out['height']} != {fam.height}")
    _expect(out["bottom"] == fam.bottom and out["top"] == fam.top,
            f"bounds {out['bottom']}, {out['top']}")
    _expect(out["join_semilattice"] is True and out["offending_pair"] is None,
            f"join_semilattice {out['join_semilattice']}")
    if isinstance(fam, N5):
        _expect(out["semimodular"] is False, "n5 reported semimodular")
        fam.check_counterexample(out["counterexample"])
    else:
        _expect(out["semimodular"] is True and out["counterexample"] is None,
                f"semimodular {out['semimodular']}")


def _check_chains(job, out: dict) -> None:
    fam = job["family"]
    _expect(out == {"name": fam.label, "count": fam.chains}, f"got {out}, {fam.chains} chains expected")


def _expected_pi(job) -> list[int]:
    if job.get("frozen"):
        return job["frozen"]["pi"]
    return job["family"].expected_pi(job["chain_a"], job["chain_b"])


def _check_witnesses(job, pi, witnesses) -> None:
    """witnesses[i-1] is the (x, y) pair claimed for interval i of chain_a."""
    if job.get("frozen"):
        frozen = job["frozen"]["witnesses"]
        _expect([list(w) for w in witnesses] == frozen, f"witnesses {witnesses} != {frozen}")
        return
    ca, cb = job["chain_a"], job["chain_b"]
    for i, w in enumerate(witnesses, start=1):
        j = pi[i - 1]
        job["family"].check_witness((ca[i - 1], ca[i]), (cb[j - 1], cb[j]), w)


def _check_match(job, out: dict) -> None:
    pi = _expected_pi(job)
    _expect(out["chain_a"] == job["chain_a"] and out["chain_b"] == job["chain_b"], "chains echoed wrongly")
    _expect(out["n"] == len(pi) and out["pi"] == pi, f"pi {out['pi']} != {pi}")
    _expect(len(out["witnesses"]) == len(pi), "witness count")
    _check_witnesses(job, pi, out["witnesses"])


_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)"(?: \[label="(?:[^"\\]|\\.)*\\nw:([0-9,]+)"\])?;$')
_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)"(?: \[color="?([a-z:]+)"?\])?;$')


def _check_dot(job, text: str) -> None:
    fam = job["family"]
    lines = text.splitlines()
    _expect(lines[0] == f'digraph "{fam.label}" {{' and lines[-1] == "}", "DOT frame")
    nodes, edges, roles = 0, 0, {}
    red, blue = set(), set()
    for line in lines[1:-1]:
        if m := _NODE.match(line):
            nodes += 1
            for i in m.group(2).split(",") if m.group(2) else ():
                roles.setdefault(int(i), set()).add(m.group(1))
        elif m := _EDGE.match(line):
            edges += 1
            color = m.group(3) or ""
            if "red" in color:
                red.add((m.group(1), m.group(2)))
            if "blue" in color:
                blue.add((m.group(1), m.group(2)))
    _expect(nodes == fam.elements and edges == fam.covers,
            f"{nodes} nodes, {edges} edges; expected {fam.elements}, {fam.covers}")
    ca, cb = job["chain_a"], job["chain_b"]
    _expect(red == set(zip(ca, ca[1:])) and blue == set(zip(cb, cb[1:])), "highlighted chain edges")
    pi = _expected_pi(job)
    _expect(sorted(roles) == list(range(1, len(pi) + 1)), f"witness labels {sorted(roles)}")
    _expect(all(len(pair) == 2 for pair in roles.values()), f"witness labels {roles}")
    # A witness is a cover pair, so its lower element has the smaller rank.
    _check_witnesses(job, pi, [sorted(roles[i], key=fam.rank) for i in sorted(roles)])


def _check_verify(job, out: dict) -> None:
    fam = job["family"]
    samples = job.get("samples")
    pairs = samples if samples is not None else fam.chains ** 2
    mode = f"samples={samples}" if samples is not None else "all-pairs"
    _expect(out["name"] == fam.label and out["mode"] == mode and out["pairs"] == pairs,
            f"name {out['name']!r}, mode {out['mode']!r}, pairs {out['pairs']}")
    if isinstance(fam, N5):
        _expect(out["failures"] == pairs and all(not r["ok"] for r in out["reports"]),
                f"n5: {out['failures']} of {pairs} pairs failed")
    else:
        _expect(out["failures"] == 0 and out["reports"] is None, f"{out['failures']} failures")
    if samples is not None:
        _expect(out["seed"] == job["seed"] and len(out["pair_seeds"]) == samples, "seed echo")


def _series_members(name: str) -> set[int]:
    return {int(x) for x in name.split(".")}


def _check_composition(job, out: dict) -> None:
    order = group_order(job["group"])
    factors = prime_factors(order)
    _expect(out["group"] == job["group"] and out["order"] == order, "group and order")
    _expect(out["ok"] is True and out["factor_multiset_independent"] is True, "ok")
    _expect(out["length"] == len(factors), f"length {out['length']} != {len(factors)}")
    series = out["series"]
    _expect(len(series) == job["frozen"]["series"], f"{len(series)} series")
    for s, multiset in zip(series, out["factor_multisets"]):
        members = [_series_members(x) for x in s]
        _expect(members[0] == {0} and members[-1] == set(range(order)), "series ends")
        _expect(all(a < b for a, b in zip(members, members[1:])), "series is not increasing")
        steps = sorted(len(b) // len(a) for a, b in zip(members, members[1:]))
        _expect(steps == factors and multiset == factors, f"factors {multiset} != {factors}")
    _expect(len(out["pairs"]) == len(series) * (len(series) + 1) // 2, "pair count")
    for pair in out["pairs"]:
        _expect(sorted(pair["pi"]) == list(range(1, len(factors) + 1)), f"pi {pair['pi']}")
        _expect(pair["factors_equal"] and all(x == y for x, y in pair["factor_pairs"]),
                f"factor pairs {pair['factor_pairs']}")


def _check_subgroups(job, out: dict) -> None:
    order = group_order(job["group"])
    subs = out["subgroups"]
    _expect(out["group"] == job["group"] and out["order"] == order, "group and order")
    _expect(out["count"] == job["frozen"]["subgroups"] == len(subs),
            f"{out['count']} subgroups, {job['frozen']['subgroups']} expected")
    _expect(subs[0] == [0] and subs[-1] == list(range(order)), "trivial and whole group")
    _expect(len({tuple(s) for s in subs}) == len(subs), "duplicate subgroups")
    _expect(all(order % len(s) == 0 for s in subs), "a subgroup order does not divide |G|")


_CHECKERS = {
    "validate": _check_validate,
    "chains": _check_chains,
    "match": _check_match,
    "verify": _check_verify,
    "composition": _check_composition,
    "subgroups": _check_subgroups,
}


def check(job: dict, code: int | None, stdout: str) -> Outcome:
    """Compare one job's exit code and stdout with the expected answer."""
    if code != job["exit"]:
        return Outcome(False, silent=code == 0, reason=f"exit {code}, expected {job['exit']}")
    if code != 0 and job["kind"] in ("match", "export-dot"):
        return GOOD  # n5: the refusal is the answer
    try:
        if job["kind"] == "export-dot":
            _check_dot(job, stdout)
        else:
            _CHECKERS[job["kind"]](job, json.loads(stdout))
    except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, silent=code == 0, reason=f"{type(exc).__name__}: {exc}")
    return GOOD

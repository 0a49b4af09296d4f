"""Write expected.json: the answers the benchmark cannot derive in closed form.

Run from the repository root:  python3 bench/freeze.py

* Partition lattices (Pi6, and the flats of K5): a pool of seeded chain
  pairs with the matching permutation and witnesses ``jh_match`` gives.  Each
  answer is accepted only if ``check_theorem`` (the brute-force oracle)
  passes on that pair and ``verify_matching`` confirms the witnesses.
* Builtin groups: the number of subgroups and of composition series.  The
  subgroup count is cross-checked against an enumeration by closing every
  set of at most three generators, written here independently of
  ``semilat.groups``.

Frozen once; re-run only when a change to the program is meant to alter
these answers, and say so.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from semilat import (  # noqa: E402
    Graph,
    all_subgroups,
    builtin_group,
    check_theorem,
    composition_analysis,
    graphic_flat_lattice,
    jh_match,
    partition_lattice,
    random_maximal_chain,
    verify_matching,
)

from jobs import EXPECTED, GROUPS, K5_EDGES  # noqa: E402

POOL = 16


def _match_pool(p) -> list[dict]:
    pool = []
    for k in range(POOL):
        a = random_maximal_chain(p, 2 * k)
        b = random_maximal_chain(p, 2 * k + 1)
        result = jh_match(p, a, b)
        if not check_theorem(p, a, b).ok or not verify_matching(p, a, b, result).ok:
            raise SystemExit(f"{p.name}: pair {k} fails the oracle; nothing frozen")
        pool.append({"chain_a": list(a), "chain_b": list(b), "pi": list(result.pi),
                     "witnesses": [list(w) for w in result.witnesses]})
    return pool


def _closure(table, gens) -> frozenset[int]:
    members = {0, *gens}
    while True:
        grown = members | {table[x][y] for x in members for y in members}
        if grown == members:
            return frozenset(members)
        members = grown


def _subgroups_by_generators(g) -> int:
    rank = 3 if g.order <= 24 else 2  # order 60 is cyclic here
    return len({_closure(g.table, gens)
                for gens in combinations_with_replacement(range(g.order), rank)})


def main() -> None:
    k5 = graphic_flat_lattice(Graph(5, tuple(K5_EDGES)))
    match = {"Pi6": _match_pool(partition_lattice(6)), "K5": _match_pool(k5)}
    groups = {}
    for name in GROUPS:
        g = builtin_group(name)
        count = len(all_subgroups(g))
        if count != _subgroups_by_generators(g):
            raise SystemExit(f"{name}: subgroup counts disagree; nothing frozen")
        report = composition_analysis(g)
        if not report.ok:
            raise SystemExit(f"{name}: composition analysis not ok; nothing frozen")
        groups[name] = {"subgroups": count, "series": len(report.series)}
    EXPECTED.write_text(json.dumps({"match": match, "groups": groups}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    main()

"""Reference DOT writer by element name.

`dot.export_dot` works on index rows and the cached cover index; this writer
builds the same text from names, one set lookup of name pairs per edge, so
the tests can check the two byte for byte.
"""

from __future__ import annotations

from semilat import Poset
from semilat.dot import CHAIN_A_COLOR, CHAIN_B_COLOR, _quote
from semilat.errors import NotAChainError, PreconditionError
from semilat.matching import MatchingResult
from semilat.poset import _chain_names

# The attributes of a cover edge, by whether it steps along chain a and chain b.
EDGE_ATTRS = {(False, False): "", (True, False): f" [color={CHAIN_A_COLOR}]",
              (False, True): f" [color={CHAIN_B_COLOR}]",
              (True, True): f' [color="{CHAIN_A_COLOR}:{CHAIN_B_COLOR}"]'}


def export_dot_by_name(p: Poset, chain_a=None, chain_b=None,
                       matching: MatchingResult | None = None) -> str:
    quoted = {e: _quote(e) for e in p.elements}
    steps = []
    for ch in chain_a, chain_b:
        ch = () if ch is None else _chain_names(ch)
        row = p._row(ch) if ch else []
        for i, j in zip(row, row[1:]):
            if not p._covers[i, j]:
                raise NotAChainError(f"not a chain of covers at ({p.elements[i]}, {p.elements[j]})")
        steps.append({(p.elements[i], p.elements[j]) for i, j in zip(row, row[1:])})
    a_edges, b_edges = steps

    roles: dict[str, list[str]] = {}
    if matching is not None:
        if not isinstance(matching, MatchingResult):
            raise PreconditionError(
                f"matching must be a MatchingResult, got {type(matching).__name__}")
        for i, w in enumerate(matching.witnesses, start=1):
            if not isinstance(w, (tuple, list)) or len(w) != 2:
                raise PreconditionError(f"witness {i} {w!r} is not two names")
            for e in w:
                p.index(e)
                roles.setdefault(e, []).append(str(i))

    lines = [f"digraph {_quote(p.name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    ranks = [[] for _ in range(p.height() + 1)]
    for e, h in zip(p.elements, p._view()[2].tolist()):   # in name order
        q = quoted[e]
        ranks[h].append(q + ";")
        if e in roles:
            lines.append(f'  {q} [label="{q[1:-1]}\\nw:{",".join(roles[e])}"];')
        else:
            lines.append(f"  {q};")
    lines += ["  { rank=same; " + " ".join(rank) + " }" for rank in ranks]
    lines += [f"  {quoted[a]} -> {quoted[b]}{EDGE_ATTRS[(a, b) in a_edges, (a, b) in b_edges]};"
              for a, b in p.cover_pairs()]
    lines.append("}")
    return "\n".join(lines) + "\n"

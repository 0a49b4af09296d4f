"""Deterministic DOT rendering of Hasse diagrams with chain highlights."""

from __future__ import annotations

from collections.abc import Iterable

from .errors import NotAChainError, PreconditionError
from .matching import MatchingResult
from .poset import Poset, _chain_names, _poset

CHAIN_A_COLOR = "red"
CHAIN_B_COLOR = "blue"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The attributes of a cover edge, by whether it steps along chain a and chain b.
_EDGE_ATTRS = {(False, False): "", (True, False): f" [color={CHAIN_A_COLOR}]",
               (False, True): f" [color={CHAIN_B_COLOR}]",
               (True, True): f' [color="{CHAIN_A_COLOR}:{CHAIN_B_COLOR}"]'}


def export_dot(p: Poset, chain_a: Iterable[str] | None = None,
               chain_b: Iterable[str] | None = None,
               matching: MatchingResult | None = None) -> str:
    """Render the cover digraph, drawn upward and ranked by element height.

    Each chain, checked by `Poset._row`, must step by covers but need not be
    maximal; the first one's edges are red, the second's blue (both at once
    gives a two-color edge).  None or an empty iterable highlights nothing.
    With a matching, every element of a witness pair is annotated with the
    1-indexed witness numbers it serves.  Identical inputs give identical bytes.
    """
    quoted = {e: _quote(e) for e in _poset(p).elements}
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
    for e, h in p.element_heights().items():   # in name order
        q = quoted[e]
        ranks[h].append(q + ";")
        if e in roles:
            # \n inside the label is a DOT line break, kept out of _quote's escaping.
            lines.append(f'  {q} [label="{q[1:-1]}\\nw:{",".join(roles[e])}"];')
        else:
            lines.append(f"  {q};")
    lines += ["  { rank=same; " + " ".join(rank) + " }" for rank in ranks]
    lines += [f"  {quoted[a]} -> {quoted[b]}{_EDGE_ATTRS[(a, b) in a_edges, (a, b) in b_edges]};"
              for a, b in p.cover_pairs()]
    lines.append("}")
    return "\n".join(lines) + "\n"

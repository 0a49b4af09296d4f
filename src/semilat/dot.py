"""Deterministic DOT rendering of Hasse diagrams with chain highlights."""

from __future__ import annotations

from typing import Iterable

from .errors import NotAChainError, PreconditionError
from .matching import MatchingResult
from .poset import Poset

CHAIN_A_COLOR = "red"
CHAIN_B_COLOR = "blue"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(p: Poset, chain_a: Iterable[str] | None = None,
               chain_b: Iterable[str] | None = None,
               matching: MatchingResult | None = None) -> str:
    """Render the cover digraph, drawn upward and ranked by element height.

    Each chain, checked by `Poset.chain`, must step by covers but need not be
    maximal; the first one's edges are red, the second's blue (both at once
    gives a two-color edge).
    With a matching, every element of a witness pair is annotated with the
    1-indexed witness numbers it serves.  Identical inputs give identical bytes.
    """
    steps = []
    for ch in chain_a, chain_b:   # None or an empty sequence highlights nothing
        ch = p.chain(ch) if ch else ()
        for a, b in zip(ch, ch[1:]):
            if not p.is_cover(a, b):
                raise NotAChainError(f"not a chain of covers at ({a}, {b})")
        steps.append(set(zip(ch, ch[1:])))
    a_edges, b_edges = steps

    roles: dict[str, list[str]] = {}
    if matching is not None:
        for i, w in enumerate(matching.witnesses, start=1):
            if not isinstance(w, (tuple, list)) or len(w) != 2:
                raise PreconditionError(f"witness {i} {w!r} is not two names")
            for e in w:
                p.index(e)
                roles.setdefault(e, []).append(str(i))

    lines = [f"digraph {_quote(p.name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    for e in p.elements:
        if e in roles:
            # \n inside the label is a DOT line break, kept out of _quote's escaping.
            label = _quote(e)[1:-1] + "\\nw:" + ",".join(roles[e])
            lines.append(f'  {_quote(e)} [label="{label}"];')
        else:
            lines.append(f"  {_quote(e)};")

    heights = p.element_heights()
    for level in range(max(heights.values()) + 1):
        members = sorted(e for e, h in heights.items() if h == level)
        if members:
            lines.append("  { rank=same; " + " ".join(_quote(e) + ";" for e in members) + " }")

    for a, b in p.cover_pairs():
        attrs = []
        in_a = (a, b) in a_edges
        in_b = (a, b) in b_edges
        if in_a and in_b:
            attrs.append(f'color="{CHAIN_A_COLOR}:{CHAIN_B_COLOR}"')
        elif in_a:
            attrs.append(f"color={CHAIN_A_COLOR}")
        elif in_b:
            attrs.append(f"color={CHAIN_B_COLOR}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(a)} -> {_quote(b)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Deterministic DOT rendering of Hasse diagrams with chain highlights.

The writer works by index: each name is quoted once, the chains and witnesses
are read as index rows, heights come from the poset's index view, and the
edges from its cached cover index: each chain's steps are found among them
by one binary search of their sorted flat ids, and each edge's attributes
are one lookup in a four-entry list.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import NotAChainError, PreconditionError
from .matching import MatchingResult
from .poset import Poset, _chain_names, _poset

CHAIN_A_COLOR = "red"
CHAIN_B_COLOR = "blue"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The attributes of a cover edge, at 1 if it steps along chain a plus 2 if along chain b.
_EDGE_ATTRS = ["", f" [color={CHAIN_A_COLOR}]", f" [color={CHAIN_B_COLOR}]",
               f' [color="{CHAIN_A_COLOR}:{CHAIN_B_COLOR}"]']


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
    quoted = list(map(_quote, _poset(p).elements))
    n = len(p)
    steps = []   # each chain's cover steps, as flat ids lo * n + hi
    for ch in chain_a, chain_b:
        ch = () if ch is None else _chain_names(ch)
        row = p._row(ch) if ch else []
        for i, j in zip(row, row[1:]):
            if not p._covers[i, j]:
                raise NotAChainError(f"not a chain of covers at ({p.elements[i]}, {p.elements[j]})")
        steps.append([i * n + j for i, j in zip(row, row[1:])])

    roles: dict[int, list[str]] = {}
    if matching is not None:
        if not isinstance(matching, MatchingResult):
            raise PreconditionError(
                f"matching must be a MatchingResult, got {type(matching).__name__}")
        for i, w in enumerate(matching.witnesses, start=1):
            if not isinstance(w, (tuple, list)) or len(w) != 2:
                raise PreconditionError(f"witness {i} {w!r} is not two names")
            for e in w:
                roles.setdefault(p.index(e), []).append(str(i))

    lines = [f"digraph {_quote(p.name)} {{", "  rankdir=BT;", "  node [shape=box];"]
    heights = p._view()[2].tolist()
    ranks = [[] for _ in range(max(heights) + 1)]
    for i, (q, h) in enumerate(zip(quoted, heights)):   # in name order
        ranks[h].append(q + ";")
        if i in roles:
            # \n inside the label is a DOT line break, kept out of _quote's escaping.
            lines.append(f'  {q} [label="{q[1:-1]}\\nw:{",".join(roles[i])}"];')
        else:
            lines.append(f"  {q};")
    lines += ["  { rank=same; " + " ".join(rank) + " }" for rank in ranks]
    lo, hi = p._cover_index()
    flat, colour = lo * n + hi, np.zeros(len(lo), dtype=np.intp)   # flat: sorted, < 2000^2
    for bit, ids in zip((1, 2), steps):
        colour[np.searchsorted(flat, ids)] += bit
    lines += [f"  {quoted[a]} -> {quoted[b]}{_EDGE_ATTRS[c]};"
              for a, b, c in zip(lo.tolist(), hi.tolist(), colour.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"

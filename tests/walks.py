"""Name-level references for the index walks of `semilattice` and
`generators`: each steps from an element to its upper covers by
`Poset.upper_covers`, one list of names per step.
"""

from __future__ import annotations

import random


def iterator_stack_chains(p, limit=None) -> list:
    """Reference enumeration of maximal chains: a path from the bottom with
    one iterator over the unexplored upper covers per element on it."""
    bottom, top = p.bottom(), p.top()
    out = []
    path = [bottom]
    branches = []
    while True:
        if path[-1] == top:
            out.append(tuple(path))
            if limit is not None and len(out) >= limit:
                return out
            path.pop()
        else:
            branches.append(iter(p.upper_covers(path[-1])))
        while branches:
            nxt = next(branches[-1], None)
            if nxt is not None:
                path.append(nxt)
                break
            branches.pop()
            path.pop()
        else:
            return out


def cover_walk(p, seed) -> tuple[str, ...]:
    """The plain seeded cover walk from the bottom to the top; it fixes the
    draws behind the goldens."""
    rng = random.Random(seed)
    out = [p.bottom()]
    while out[-1] != p.top():
        ups = p.upper_covers(out[-1])
        out.append(ups[rng.randrange(len(ups))])
    return tuple(out)


def cover_heights(p) -> dict[str, int]:
    """Longest cover path from a minimal element to each element, by
    raising heights along every cover until none changes."""
    heights = dict.fromkeys(p.elements, 0)
    changed = True
    while changed:
        changed = False
        for a in p.elements:
            for b in p.upper_covers(a):
                if heights[b] <= heights[a]:
                    heights[b] = heights[a] + 1
                    changed = True
    return heights

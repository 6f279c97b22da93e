"""Reference generator selection that the resolution tests compare the
package with.

Nothing here runs in the program.  It is the full scan that
`resolution._select_generators` replaced: insert all |G| translates of
every candidate not yet in the span, then test every candidate against
the final span.  The file is not named test_*.py, so pytest imports it
only through the tests that use it.
"""

from __future__ import annotations

from permhomology.errors import InvariantViolation
from permhomology.intlinalg import ZSpan
from permhomology.resolution import translate_vec


def scanning_select_generators(G, rank: int, kb: list) -> list:
    """Greedy ZG-generators of the integer span of kb, smallest support
    first, with every candidate checked at the end."""
    size = G.n * rank
    cands = []
    for v in kb:
        if v[min(v)] < 0:
            v = {i: -a for i, a in v.items()}
        cands.append(v)
    cands.sort(key=lambda v: (len(v), [v.get(i, 0) for i in range(size)]))
    span = ZSpan(size)
    chosen = []
    for v in cands:
        if span.contains(v):
            continue
        chosen.append(v)
        for g in range(G.n):
            span.insert(translate_vec(G, g, v))
    for v in cands:
        if not span.contains(v):
            raise InvariantViolation("selected generators do not span the kernel")
    return chosen

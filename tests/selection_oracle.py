"""Reference generator selection that the resolution tests compare the
package with.

Nothing here runs in the program.  It is the rule that
`resolution.resolution_small` follows, written out as a full scan.  In
degree k, each basis element e.j of R_k gives the cycle
pi(e.j) = e.j - h_{k-1}(d_k(e.j)), with h_{-1} d_0 = section.augmentation,
summed here term by term in a Counter from the resolution's own
boundaries and homotopy.  The cycles are taken in the rule's order:
at k = 0 by element order, largest first, then element index; above
that by (support size, generator, element).  A cycle outside the
integer span of the translates chosen so far, tested with a column
Hermite form rebuilt from every translate after each choice, is the
next generator.  At the end every cycle is checked against the final
span.  The file is not named test_*.py, so pytest imports it only
through the tests that use it.
"""

from __future__ import annotations

from collections import Counter

from permhomology.errors import InvariantViolation
from permhomology.intlinalg import ColumnSolver
from permhomology.resolution import translate_vec


def _element_order(G, g: int) -> int:
    k, x = 1, g
    while x != G.id:
        x, k = G.mul(x, g), k + 1
    return k


def _cycles(R, k: int) -> list:
    """(e, j, pi(e.j)) for every basis element e.j of R_k."""
    G = R.G
    n = G.n
    out = []
    for j in range(R.ranks[k]):
        for e in range(n):
            pi = Counter({j * n + e: 1})
            if k == 0:
                pi[G.id] -= 1
            else:
                for x, c in R.boundary(k, j).items():
                    i, f = divmod(x, n)
                    for y, a in R.h(k - 1, G.mul(e, f), i).items():
                        pi[y] -= c * a
            out.append((e, j, {i: c for i, c in pi.items() if c}))
    return out


def scanning_select_generators(R, k: int) -> list:
    """The generators of d_{k+1} that the rule picks from R's own d_k
    and h_{k-1}, with every cycle checked against their span."""
    G = R.G
    cands = _cycles(R, k)
    if k == 0:
        cands.sort(key=lambda c: (-_element_order(G, c[0]), c[0]))
    else:
        cands.sort(key=lambda c: (len(c[2]), c[1], c[0]))
    m = G.n * R.ranks[k]

    def spanned(v):
        return not v or (solver is not None and solver.solve(v) is not None)

    chosen, cols, solver = [], [], None
    for _, _, v in cands:
        if spanned(v):
            continue
        chosen.append(v)
        cols += [translate_vec(G, g, v) for g in range(G.n)]
        solver = ColumnSolver(cols, m)
    if not all(spanned(v) for _, _, v in cands):
        raise InvariantViolation("selected generators do not span the kernel")
    return chosen

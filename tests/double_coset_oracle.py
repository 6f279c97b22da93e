"""Reference double cosets that the sylow tests compare the package with.

Nothing here runs in the program.  It is the listing algorithm that
`sylow.double_cosets` replaced: sort every element of G, and take each
element not yet covered as the least element of a new double coset.
It holds all of G in memory, so it is only for groups the tests can
list.  The file is not named test_*.py, so pytest imports it only
through the tests that use it.
"""

from __future__ import annotations

from permhomology.perm import mul, precompose


def listing_double_cosets(G, H) -> list:
    """The least element of each double coset HgH, in increasing order."""
    els = sorted(G.elements())
    hels = H.elements()
    # x -> x b for each b in H
    gets = [precompose(b) for b in hels]
    left = set(els)
    reps = []
    for g in els:
        if g not in left:
            continue
        reps.append(g)
        # HgH is the union of the cosets agH; once ag is gone, so is agH
        for a in hels:
            ag = mul(a, g)
            if ag in left:
                left.difference_update([f(ag) for f in gets])
    return reps

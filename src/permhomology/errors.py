"""Exceptions shared across the package, and the resource caps that
raise CapExceeded.

Every cap lives here, so one file says how far each route may go.  A
cap is a constant, read as ``errors.NAME`` at the check that enforces
it, never copied at import; a test lowers one with monkeypatch.
"""

# group order up to which PermGroup.elements lists a group
ENUM_CAP = 10**6
# states in one BFS orbit, unless the caller passes its own cap
ORBIT_CAP = 2 * 10**7
# base images one cyclic normalizer search may try
NORMALIZER_SEARCH_CAP = 10**6
# conjugates of a subgroup walked by subgroup_normalizer: |G:N_G(H)|
SUBGROUP_ORBIT_CAP = 200_000
# left cosets walked by double_cosets: the index |G:H|
DOUBLE_COSET_CAP = 200_000

# group order of a SmallGroup, and so of resolution_small and the bar
# resolution; `homology --method auto` resolves only up to it
SMALL_GROUP_CAP = 128
# bar resolution rank (|G| - 1)^n in its top degree
BAR_RANK_CAP = 20_000
# assembled rank of a wall resolution in any one degree
WALL_RANK_CAP = 50_000
# bits of any entry of a row, or of its transform, that an echelon span
# (intlinalg.ZSpan, behind resolution_small) stores
SPAN_BITS_CAP = 1024

# maximal internal flags of one cell when orienting it
FLAG_CAP = 500_000
# candidate flag extensions of one chain at one subset size
EXTENSION_CAP = 500_000
# cells that expand_chain lists to cross-check the orbit records
EXPAND_CAP = 100_000
# ground set size whose 2^n subsets simplex_complex materializes
BRUTE_GROUND_CAP = 16
# essential classes of one Wythoff diagram, counted before any is listed
CLOSED_SET_CAP = 1_000_000

# points in the orbit of one vector
POINT_CAP = 100_000


class CapExceeded(RuntimeError):
    """An enumeration or search grew past its configured resource cap.

    Carries enough context to report partial progress: ``attained`` is
    whatever lower bound or partial object the caller managed to certify
    before giving up (None when nothing useful was certified).
    """

    def __init__(self, message, attained=None):
        super().__init__(message)
        self.attained = attained


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.

    This always indicates a bug (or an input outside the supported class),
    never a resource limit, so callers must not downgrade it.
    """

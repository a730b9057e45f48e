"""The finite-topology view of a preordered set.

A preorder and an Alexandroff topology (arbitrary intersections of opens
stay open) carry the same information.  The convention used throughout:

    a set S is OPEN when it is closed under predecessors, i.e.
    x related-to a and a in S imply x in S.

The opposite (successor-closed) convention is just as common elsewhere;
with this one, y lies in the closure of {x} exactly when x is related to
y, so `specialization_preorder` inverts `open_sets` on the nose.
Subsets are boolean numpy masks.  A family of them is a stack of masks,
one row per set: `open_sets` keeps the down-closed rows of all 2^n
subsets, and `specialization_preorder` checks a family by looking up
S | down{x} for each member S and point x, not by a loop over pairs of
members.
"""

from __future__ import annotations

import numpy as np

from .category import Morph, PreObj, coproduct, is_trivial_object
from .errors import BudgetError, ValidationError
from .relations import Partition, Rel, as_ints, carrier_size

__all__ = [
    "subset_mask", "is_open", "is_clopen", "open_sets",
    "components", "is_indecomposable", "clopen_enumerate",
    "minimal_part", "is_minimal",
    "specialization_preorder", "restrict", "coproduct_decomposition",
]

_OPEN_SET_CAP = 16
_CLOPEN_CAP = 20


def subset_mask(n: int, members) -> np.ndarray:
    """Boolean mask of length n from an iterable of indices."""
    n = carrier_size(n)
    m = np.zeros(n, dtype=bool)
    for x in as_ints("members", members):
        if not (0 <= x < n):
            raise ValidationError(f"index {x} out of range for n={n}")
        m[x] = True
    return m


def _check_mask(a: PreObj, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=bool)
    if s.shape != (a.n,):
        raise ValidationError(f"mask length {s.shape} does not match carrier {a.n}")
    return s


def is_open(a: PreObj, s: np.ndarray) -> bool:
    """Closed under predecessors: x rel a with a in S forces x in S."""
    s = _check_mask(a, s)
    has_succ_in_s = a.rel.bits[:, s].any(axis=1)
    return bool((~has_succ_in_s | s).all())


def is_clopen(a: PreObj, s: np.ndarray) -> bool:
    """No related pair crosses the boundary of S in either direction."""
    s = _check_mask(a, s)
    crossing = a.rel.bits[s][:, ~s].any() or a.rel.bits[~s][:, s].any()
    return not crossing


def _down_closed(bits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row of a stack of masks (sets x points): is the set open, i.e.
    does it hold every point related to one of its members?"""
    # float32 counts each point's members above it exactly, and uses BLAS
    # where a bool product does not
    above = masks.astype(np.float32) @ bits.T.astype(np.float32) > 0
    return (above <= masks).all(axis=1)


def open_sets(a: PreObj) -> list[np.ndarray]:
    """Every open subset, as masks, in binary counting order."""
    if a.n > _OPEN_SET_CAP:
        raise BudgetError(f"open-set scan capped at n <= {_OPEN_SET_CAP}")
    # bit i of a code puts point i in the set
    masks = np.arange(2 ** a.n)[:, None] >> np.arange(a.n) & 1 == 1
    return list(masks[_down_closed(a.rel.bits, masks)])


def components(a: PreObj) -> Partition:
    """Connected components: the classes of the equivalence generated by the relation."""
    # an equivalence by construction, so no second check
    return Partition._of_equivalence(a.rel.equivalence_closure().bits)


def is_indecomposable(a: PreObj) -> bool:
    """True iff the object does not split as a coproduct (one component)."""
    return components(a).size == 1


def clopen_enumerate(a: PreObj) -> list[np.ndarray]:
    """All clopen subsets: the 2^k unions of the k components."""
    part = components(a)
    if part.size > _CLOPEN_CAP:
        raise BudgetError(f"clopen enumeration capped at {_CLOPEN_CAP} components")
    # bit i of a code puts component i in the union
    return list(np.arange(2 ** part.size)[:, None] >> np.array(part.class_of) & 1 == 1)


def minimal_part(a: PreObj) -> np.ndarray:
    """Union of the components with at least two elements (possibly empty):
    the points related to some other point, one way or the other."""
    return (a.rel.bits | a.rel.bits.T).sum(axis=1) > 1


def is_minimal(a: PreObj) -> bool:
    """Every element sits in a multi-element component; singletons count when n=1."""
    if is_trivial_object(a):
        return a.n == 1
    return bool(minimal_part(a).all())


def specialization_preorder(n: int, opens: list[np.ndarray]) -> Rel:
    """Recover x <= y as: every open holding y holds x (so closure{x} is
    the row of x).

    The open family must be an Alexandroff topology on {0..n-1}: it
    contains the empty set and the full set and is closed under union
    and intersection.  Each member is a down-set of the preorder
    recovered from the family, so a family holding the empty set is
    closed exactly when it holds every down-set: when S | down{x} is a
    member for every member S and point x (each down-set D is
    D' | down{x} for a maximal x of D and a smaller down-set D').
    """
    n = carrier_size(n)
    masks = [np.asarray(s, dtype=bool) for s in opens]
    if any(s.shape != (n,) for s in masks):
        raise ValidationError("open set mask has wrong length")
    masks = np.array(masks, dtype=bool).reshape(len(masks), n)
    if not (~masks).all(axis=1).any():
        raise ValidationError("topology must contain the empty set")
    if not masks.all(axis=1).any():
        raise ValidationError("topology must contain the full carrier")
    # x <= y unless some member holds y but not x
    bits = (~masks).T.astype(np.float32) @ masks.astype(np.float32) == 0
    # each set as one key, its packed bits; one point at a time, so that
    # memory stays members x points
    packed, down = np.packbits(masks, axis=1), np.packbits(bits.T, axis=1)
    keys = np.sort(packed.view(f"V{packed.shape[1]}").ravel())
    for x in range(n):
        grown = (packed | down[x]).view(keys.dtype).ravel()
        if (keys[np.searchsorted(keys, grown).clip(max=len(keys) - 1)] != grown).any():
            raise ValidationError("family is not closed under union/intersection")
    return Rel(n, bits)


def restrict(a: PreObj, s: np.ndarray) -> tuple[PreObj, Morph]:
    """Induced sub-preorder on a non-empty subset, with its inclusion."""
    s = _check_mask(a, s)
    members = [int(i) for i in np.nonzero(s)[0]]
    if not members:
        raise ValidationError("cannot restrict to the empty subset")
    sub = PreObj(Rel(len(members), a.rel.bits[np.ix_(members, members)]))
    return sub, Morph(sub, a, tuple(members))


def coproduct_decomposition(a: PreObj) -> tuple[list[PreObj], Morph]:
    """Split into indecomposable clopen factors, one per component.

    Returns the factors (in block order) and the canonical isomorphism
    from their coproduct back onto the object.
    """
    part = components(a)
    factors = []
    order = []
    for blk in part.blocks:
        sub, _ = restrict(a, subset_mask(a.n, blk))
        factors.append(sub)
        order.extend(blk)
    summed, _ = coproduct(factors)
    return factors, Morph(summed, a, tuple(order))

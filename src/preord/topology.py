"""The finite-topology view of a preordered set.

A preorder and an Alexandroff topology (arbitrary intersections of opens
stay open) carry the same information.  The convention used throughout:

    a set S is OPEN when it is closed under predecessors, i.e.
    x related-to a and a in S imply x in S.

The opposite (successor-closed) convention is just as common elsewhere;
with this one, y lies in the closure of {x} exactly when x is related to
y, so `specialization_preorder` inverts `open_sets` on the nose.
Subsets are boolean numpy masks.
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


def open_sets(a: PreObj) -> list[np.ndarray]:
    """Every open subset, as masks, in binary counting order."""
    if a.n > _OPEN_SET_CAP:
        raise BudgetError(f"open-set scan capped at n <= {_OPEN_SET_CAP}")
    out = []
    for code in range(2 ** a.n):
        s = np.array([(code >> i) & 1 == 1 for i in range(a.n)])
        if is_open(a, s):
            out.append(s)
    return out


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
    """Recover x <= y as: closure{y} contained in closure{x}.

    The open family must be an Alexandroff topology on {0..n-1}: it
    contains the empty set and the full set and is closed under union
    and intersection (finite carriers make pairwise closure enough).
    """
    n = carrier_size(n)
    masks = [np.asarray(s, dtype=bool) for s in opens]
    for s in masks:
        if s.shape != (n,):
            raise ValidationError("open set mask has wrong length")
    keys = {s.tobytes() for s in masks}
    if np.zeros(n, dtype=bool).tobytes() not in keys:
        raise ValidationError("topology must contain the empty set")
    if np.ones(n, dtype=bool).tobytes() not in keys:
        raise ValidationError("topology must contain the full carrier")
    for s in masks:
        for t in masks:
            if (s | t).tobytes() not in keys or (s & t).tobytes() not in keys:
                raise ValidationError("family is not closed under union/intersection")
    # closure{z} = complement of the largest open avoiding z
    closures = []
    for z in range(n):
        avoid = np.zeros(n, dtype=bool)
        for s in masks:
            if not s[z]:
                avoid |= s
        closures.append(~avoid)
    bits = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            bits[x, y] = bool((closures[y] <= closures[x]).all())
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

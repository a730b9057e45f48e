"""Splitting a preorder into an equivalence relation and a partial order.

Every preorder is equivalently a pair: the equivalence relating mutually
comparable elements, plus the induced partial order on its quotient.
`symmetric_core` / `quotient_poset` go one way, `assemble_preorder` goes
back, and the two directions are mutually inverse.
"""

from __future__ import annotations

import numpy as np

from .category import Morph, PreObj
from .errors import ValidationError
from .relations import Partition, Rel

__all__ = [
    "symmetric_core", "quotient_poset", "assemble_preorder", "roundtrip_check",
]


def symmetric_core(a: PreObj) -> Rel:
    """The equivalence relating x and y when both x rel y and y rel x hold."""
    return a.rel.meet(a.rel.converse())


def quotient_poset(a: PreObj) -> tuple[PreObj, Morph]:
    """Quotient by the symmetric core, with the induced partial order.

    Blocks are indexed by smallest member; the second component is the
    canonical projection.
    """
    return core_quotient(a)[1:]


def core_quotient(a: PreObj) -> tuple[Partition, PreObj, Morph]:
    """The blocks of the symmetric core with `quotient_poset`, built from
    one partition, for callers that need both."""
    return _quotient(a, a.rel.bits & a.rel.bits.T)


def _quotient(a: PreObj, equiv: np.ndarray) -> tuple[Partition, PreObj, Morph]:
    """The blocks of an equivalence matrix on a's carrier, the quotient of a
    by them on the smallest member of each block, and its projection."""
    # valid only when every block lies inside a's preorder: then the
    # preorder restricted to one point per block is a preorder, related
    # points land on related representatives, and the projection is monotone
    part = Partition._of_equivalence(equiv)
    reps = [blk[0] for blk in part.blocks]
    q = PreObj._trusted(Rel(part.size, a.rel.bits[np.ix_(reps, reps)]))
    return part, q, Morph._trusted(a, q, part.class_of)


def assemble_preorder(sim: Rel, leq: Rel, part: Partition) -> PreObj:
    """Rebuild the preorder: a related to b iff block(a) <= block(b)."""
    if not sim.is_equivalence():
        raise ValidationError("first component must be an equivalence relation")
    if part.to_equivalence() != sim:
        raise ValidationError("partition does not match the equivalence")
    if leq.n != part.size:
        raise ValidationError("quotient order size does not match block count")
    if not leq.is_partial_order():
        raise ValidationError("second component must be a partial order")
    ids = np.array(part.class_of)
    return PreObj(Rel(sim.n, leq.bits[ids[:, None], ids[None, :]]))


def roundtrip_check(a: PreObj) -> bool:
    """Decompose then reassemble (and vice versa); both must be identities."""
    sim = symmetric_core(a)
    part, q, _ = core_quotient(a)
    back = assemble_preorder(sim, q.rel, part)
    if back.rel != a.rel:
        return False
    # opposite direction: the assembled preorder decomposes to the same pair
    sim2 = symmetric_core(back)
    q2, _ = quotient_poset(back)
    return sim2 == sim and q2.rel == q.rel

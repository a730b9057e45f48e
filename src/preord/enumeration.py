"""Exhaustive enumeration of labeled objects on tiny carriers.

Objects come out in lexicographic order of the row-major off-diagonal
bit string (the diagonal is forced), that is by increasing code, the bit
string read as a binary number.  Sizes are hard-capped at n = 6
(209,527 labeled preorders): the counts grow like labeled topologies,
and n = 7 (9,535,241 of them, each with 5,040 relabelings for its
canonical code) is out of desk-scale reach.

Every kind is read from one catalogue per carrier size, built once per
process on first use: the labeled preorders on n points as a stack of
relation matrices sorted by code, with a mask per kind.  A kind's objects
are built from its masked matrices only.  A range of sizes 1..max_n is
read through `catalogues`, which asks for the largest first, so a range
beyond the cap fails before any catalogue is built.  Each catalogue also
gives, on first use, the canonical code of every object, the smallest
code over its n! relabelings: two objects get the same one exactly when
they are isomorphic, and the object holding it, the first of its
isomorphism class in code order, represents the class.
Removing the last point of a preorder leaves a preorder, so the
preorders on n points are those on n - 1 points, each with a down-set
and an up-set for the new last point that keep it transitive (one-point
extension, the step of exhaustive generation in McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).  The candidates are checked
in chunks, one batched transitivity test per chunk.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, permutations
from typing import Iterator

import numpy as np

from .category import PreObj
from .errors import BudgetError, ValidationError
from .relations import Rel, carrier_size

__all__ = ["KINDS", "HARD_CAP", "enumerate_objects", "count_objects", "objects_upto",
           "class_representatives"]

KINDS = ("preorder", "equivalence", "partial_order", "trivial")
HARD_CAP = 6

# candidates checked per chunk of the extension: at most 4,096 matrices of
# n * n cells, far below DEFAULT_BUDGET cells at the cap
_CHUNK = 4096


def _codes(bits: np.ndarray) -> np.ndarray:
    """The code of each relation of a stack: its row-major off-diagonal
    bits read as a binary number, the first off-diagonal cell highest."""
    n = bits.shape[-1]
    off = ~np.eye(n, dtype=bool).ravel()
    weights = 1 << np.arange(n * (n - 1) - 1, -1, -1, dtype=np.int64)
    return bits.reshape(len(bits), n * n)[:, off] @ weights


def _canonical_codes(bits: np.ndarray) -> np.ndarray:
    """The smallest code of each relation of a stack over its n!
    relabelings, in chunks of at most `_CHUNK` x 256 products of a
    relation cell with a weight.

    Relabeled by p, a relation R has code sum R[p(i), p(j)] w(i, j) over
    the off-diagonal cells (i, j) with their weights w, that is R read with
    the weight matrix w[q(a), q(b)] for q the inverse of p.  As p runs over
    all permutations so does q, and one matrix product reads every
    relation with all n! weight matrices."""
    n = bits.shape[-1]
    w = np.zeros(n * n, dtype=np.float64)
    w[~np.eye(n, dtype=bool).ravel()] = 2.0 ** np.arange(n * (n - 1) - 1, -1, -1)
    w = w.reshape(n, n)
    q = np.array(list(permutations(range(n)))).T
    # cells x relabelings; codes stay below 2 ** 30 at the cap (n = 6), so
    # the float64 products are exact
    weights = w[q[:, None, :], q[None, :, :]].reshape(n * n, q.shape[1])
    flat = bits.reshape(len(bits), n * n)
    per = max(1, _CHUNK * 256 // weights.size)
    return np.concatenate([(flat[start:start + per] @ weights).min(axis=1)
                           for start in range(0, len(flat), per)]).astype(np.int64)


class Catalogue:
    """The labeled preorders on n points in increasing code: `bits`
    (objects x n x n), their sorted `codes` and a mask over them per kind
    (`masks`).  `canonical_codes` and each object are built on first use."""

    def __init__(self, n: int, bits: np.ndarray):
        codes = _codes(bits)
        order = np.argsort(codes)
        self.n, self.bits, self.codes = n, bits[order], codes[order]
        self._objs: list[PreObj | None] = [None] * len(order)
        both = self.bits & self.bits.transpose(0, 2, 1)
        self.masks = {
            "preorder": np.ones(len(order), dtype=bool),
            "equivalence": (both == self.bits).all(axis=(1, 2)),
            "partial_order": (both <= np.eye(n, dtype=bool)).all(axis=(1, 2)),
            "trivial": self.codes == 0,
        }

    def obj(self, i: int) -> PreObj:
        """The object at position i, built on first use and kept, so that
        every read of a position gives the same instance."""
        a = self._objs[i]
        if a is None:
            # the extension keeps only preorders, so the objects skip a second check
            a = self._objs[i] = PreObj._trusted(Rel(self.n, self.bits[i]))
        return a

    @cached_property
    def canonical_codes(self) -> np.ndarray:
        """Per object, the smallest code over its n! relabelings: equal
        exactly on isomorphic objects."""
        return _canonical_codes(self.bits)

    @property
    def class_of(self) -> np.ndarray:
        """Per object, the position of the first object of its isomorphism
        class, the one whose code is the class's canonical code."""
        return np.searchsorted(self.codes, self.canonical_codes)

    @property
    def representatives(self) -> np.ndarray:
        """The positions of the first object of each isomorphism class."""
        return np.flatnonzero(self.codes == self.canonical_codes)

    def index(self, bits: np.ndarray) -> np.ndarray:
        """The positions of a stack of preorders on n points."""
        return np.searchsorted(self.codes, _codes(bits))


def _extend(prev: np.ndarray) -> np.ndarray:
    """The preorders on n points from those on m = n - 1 points (a stack):
    each with every down-set (column m) and up-set (row m) of the new
    point, kept when transitive, in chunks of at most `_CHUNK` candidates."""
    m = prev.shape[-1]
    n = m + 1
    subsets = (np.arange(2 ** m)[:, None] >> np.arange(m) & 1).astype(bool)
    s = len(subsets)
    per = max(1, _CHUNK // (s * s))
    kept = []
    for start in range(0, len(prev), per):
        part = prev[start:start + per]
        bits = np.empty((len(part), s, s, n, n), dtype=bool)
        bits[..., :m, :m] = part[:, None, None]
        bits[..., :m, m] = subsets[:, None]
        bits[..., m, :m] = subsets
        bits[..., m, m] = True
        bits = bits.reshape(-1, n, n)
        # float32 counts the (at most n) witnesses exactly and, on batches of
        # tiny matrices, multiplies faster than bool or uint8
        w = bits.astype(np.float32)
        kept.append(bits[((w @ w > 0) <= bits).all(axis=(1, 2))])
    return np.concatenate(kept)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")


@lru_cache(maxsize=None)
def catalogue(n: int) -> Catalogue:
    """The catalogue of the labeled preorders on n points, 1 <= n <= HARD_CAP;
    the size is checked before any smaller catalogue is built."""
    if n < 1:
        raise ValidationError("objects must be non-empty")
    if n > HARD_CAP:
        raise BudgetError(f"enumeration capped at n <= {HARD_CAP}")
    return Catalogue(n, np.ones((1, 1, 1), dtype=bool) if n == 1
                     else _extend(catalogue(n - 1).bits))


def catalogues(max_n: int) -> list[Catalogue]:
    """The catalogues of sizes 1..max_n, smaller first, max_n read as a
    carrier size; BudgetError beyond the enumeration cap before any
    catalogue is built."""
    max_n = carrier_size(max_n)
    # the largest first: it raises beyond the cap, else builds the others
    return [catalogue(n) for n in range(max_n, 0, -1)][::-1]


def enumerate_objects(n: int, kind: str = "preorder") -> Iterator[PreObj]:
    """All labeled objects of the kind on exactly n elements, in
    lexicographic order, from the catalogue of size n."""
    n = carrier_size(n)
    _check_kind(kind)
    cat = catalogue(n)
    # one position at a time, with no masked copy of the stack and no index
    # array; the extension keeps only preorders, so the objects skip a
    # second check
    mask = cat.masks[kind]
    for i in compress(range(len(mask)), mask):
        yield PreObj._trusted(Rel(n, cat.bits[i]))


def count_objects(n: int, kind: str = "preorder") -> int:
    n = carrier_size(n)
    _check_kind(kind)
    return int(catalogue(n).masks[kind].sum())


def objects_upto(max_n: int, kind: str = "preorder") -> list[PreObj]:
    """All objects of the kind with 1 <= size <= max_n, smaller first; a
    bad kind is a ValidationError at every max_n."""
    _check_kind(kind)
    return [cat.obj(i) for cat in catalogues(max_n) for i in np.flatnonzero(cat.masks[kind])]


def class_representatives(max_n: int) -> list[PreObj]:
    """The first object of each isomorphism class with 1 <= size <= max_n,
    smaller first and in code order within a size."""
    return [cat.obj(i) for cat in catalogues(max_n) for i in cat.representatives]

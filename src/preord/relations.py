"""Boolean relation algebra on the finite carriers {0, ..., n-1}.

A relation is a dense n x n boolean matrix; entry (a, b) means "a is
related to b".  Carrier size 0 is allowed here for internal convenience;
the category layer rejects empty objects.

Composition and transitive closure have two exact kernels, chosen by
carrier size alone.  Below `_PACKED_MIN_N` points they use numpy's
bool matrix product (closure by repeated squaring): a few microseconds at
the n <= 5 of exhaustive verification, which makes tens of thousands of
such calls.  From `_PACKED_MIN_N` points on, rows are packed into 64-bit
words: a composition is one bitwise-OR reduction over the packed rows,
and a closure is Warshall's algorithm (J. ACM 9, 1962), one pass that ORs
row k into every row holding bit k.  The bool product does O(n^3) work
with no BLAS and squares up to log2(n) times; on a 298-point preorder
from an object file it takes 19 ms per transitivity check and 58 ms per
equivalence closure, where the packed kernels take 2.5 ms and 5 ms.  The
switch sits at the measured crossover (see `_PACKED_MIN_N`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError

__all__ = ["Rel", "Partition", "generated_equivalence", "join_preorders"]


def _freeze(n: int, bits) -> np.ndarray:
    a = np.asarray(bits, dtype=bool)
    # an empty list is the 0 x 0 matrix, not a row of no entries
    if a.shape != (n, n) and (n, a.shape) != (0, (0,)):
        raise ValidationError(f"relation matrix must be {n}x{n}, got shape {a.shape}")
    a = a.reshape(n, n).copy()
    a.setflags(write=False)
    return a


def as_ints(what: str, xs) -> tuple[int, ...]:
    """The entries of xs as Python ints, read through operator.index: True
    is 1, and an entry that is not an integer (a float, a string) is a
    ValidationError, neither truncated nor used as an index raw."""
    try:
        return tuple(map(index, xs))
    except TypeError as e:
        raise ValidationError(f"{what} must be integers: {e}") from None


def carrier_size(n) -> int:
    """n read through `as_ints` as the size of a carrier: an int >= 0."""
    n, = as_ints("carrier sizes", (n,))
    if n < 0:
        raise ValidationError("carrier size must be >= 0")
    return n


def _pair_array(pairs, n: int) -> np.ndarray:
    """The pairs as a k x 2 int array of points of {0..n-1}, read as one
    array.  Pairs that numpy cannot read so (ragged, not integers, out of
    range) are read one by one, to name the first that is not two points."""
    pairs = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    try:
        ab = np.asarray(pairs)
    except ValueError:  # ragged
        ab = np.empty(0)
    if ab.dtype.kind in "biu" and ab.ndim == 2 and ab.shape[1] == 2 and (
            ab.min(initial=0) >= 0 and ab.max(initial=0) < n):
        return ab.astype(np.intp, copy=False)
    rows = []
    for pair in pairs:
        ab = as_ints("pair entries", pair)
        if len(ab) != 2 or not (0 <= ab[0] < n and 0 <= ab[1] < n):
            raise ValidationError(f"pair {ab} is not two points in range for n={n}")
        rows.append(ab)
    return np.array(rows, dtype=np.intp).reshape(-1, 2)


# Carriers of at least this many points take the packed kernels.  Measured
# crossover on random preorders, equivalences and chains: the packed
# composition wins from about 32 points and Warshall's closure from 40 to
# 48; below, the bool product is cheaper (at n <= 5, 3-19 us against 13-44
# us for the packed kernels).
_PACKED_MIN_N = 48


def _pack(bits: np.ndarray) -> np.ndarray:
    """The rows of an n x n bool matrix as n x ceil(n / 64) uint64 words."""
    n = len(bits)
    rows = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    rows.view(np.uint8)[:, :-(-n // 8)] = np.packbits(bits, axis=1)
    return rows


def _unpack(rows: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n).view(bool)


def _compose(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The relation product r;s of two n x n bool matrices: a related to c
    when a r b and b s c for some b."""
    n = len(r)
    if n < _PACKED_MIN_N:
        return r @ s
    rows = _pack(s)
    # row a of r;s is the OR of the rows of s that row a of r selects
    return _unpack(np.bitwise_or.reduce(np.broadcast_to(rows, (n,) + rows.shape), axis=1,
                                        where=r[:, :, None], initial=0), n)


def transitive_closure_bits(bits: np.ndarray) -> np.ndarray:
    """The transitive closure of an n x n bool matrix, or of each of a
    stack of them (on the last two axes, as in `block_ids`), as a new
    array."""
    n = bits.shape[-1]
    if n < _PACKED_MIN_N:
        # by squaring, the whole stack at once: round k closes the paths of
        # up to 2 ** k steps, and no path needs more than n; a round that
        # adds no pair (a count, as the rounds only add) ends it early
        cur = bits.copy()
        for _ in range((n - 1).bit_length()):
            nxt = cur | (cur @ cur)
            if np.count_nonzero(nxt) == np.count_nonzero(cur):
                break
            cur = nxt
        return cur
    if bits.ndim > 2:
        out = np.empty_like(bits)
        for i in np.ndindex(bits.shape[:-2]):
            out[i] = transitive_closure_bits(bits[i])
        return out
    rows = _pack(bits)
    # np.packbits puts bit k of a row at 0x80 >> k % 8 of its byte k // 8
    row_bytes = rows.view(np.uint8)
    for k in range(n):
        rows[(row_bytes[:, k >> 3] & (0x80 >> (k & 7))).nonzero()[0]] |= rows[k]
    return _unpack(rows, n)


@dataclass(frozen=True, eq=False)
class Rel:
    """An arbitrary binary relation on {0..n-1}.

    No structural property is baked in; reflexivity, transitivity and
    friends are queried per value.  Instances are immutable and hashable,
    so they work as dict keys and memoization keys.
    """

    n: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", carrier_size(self.n))
        object.__setattr__(self, "bits", _freeze(self.n, self.bits))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n: int) -> "Rel":
        """The equality relation (the diagonal)."""
        return cls.from_pairs(n, (), reflexive=True)

    @classmethod
    def full(cls, n: int) -> "Rel":
        return cls(n, ~cls.empty(n).bits)

    @classmethod
    def empty(cls, n: int) -> "Rel":
        return cls.from_pairs(n, ())

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]],
                   reflexive: bool = False) -> "Rel":
        """The relation holding the pairs, and the diagonal if reflexive.
        Entries are integers (bools and numpy ints too), each pair two
        points of {0..n-1}; the first pair that is not is named."""
        n = carrier_size(n)
        bits = np.eye(n, dtype=bool) if reflexive else np.zeros((n, n), dtype=bool)
        ab = _pair_array(pairs, n)
        bits[ab[:, 0], ab[:, 1]] = True
        return cls(n, bits)

    # ------------------------------------------------------------------
    # value semantics

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rel) and self.n == other.n
                and np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # memoization keys hash the same relation many times
        return hash((self.n, self.bits.tobytes()))

    def __getitem__(self, ab: tuple[int, int]) -> bool:
        return bool(self.bits[ab])

    def __repr__(self) -> str:
        return f"Rel({self.n}, {self.pair_list})"

    @cached_property
    def pair_index(self) -> np.ndarray:
        """Off-diagonal related pairs as a read-only 2 x m int array.

        Row 0 holds the sources and row 1 the targets, in row-major order,
        so `u, v = rel.pair_index` indexes whole columns of map arrays.
        """
        idx = np.array(np.nonzero(self.bits & ~np.eye(self.n, dtype=bool)))
        idx.setflags(write=False)
        return idx

    @cached_property
    def pair_list(self) -> list[tuple[int, int]]:
        """`pair_index` as Python int pairs, for checks of a single map."""
        return list(zip(*self.pair_index.tolist()))

    def pairs(self, include_diagonal: bool = False) -> Iterator[tuple[int, int]]:
        """Related pairs (a, b) in row-major order, diagonal omitted unless
        requested."""
        yield from (map(tuple, np.argwhere(self.bits).tolist()) if include_diagonal
                    else self.pair_list)

    # ------------------------------------------------------------------
    # predicates

    def is_reflexive(self) -> bool:
        return bool(self.bits.diagonal().all())

    def is_transitive(self) -> bool:
        b = self.bits
        return bool((_compose(b, b) <= b).all())

    def is_symmetric(self) -> bool:
        return bool((self.bits == self.bits.T).all())

    def is_antisymmetric(self) -> bool:
        both = self.bits & self.bits.T
        return bool((both <= np.eye(self.n, dtype=bool)).all())

    def is_preorder(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_preorder() and self.is_symmetric()

    def is_partial_order(self) -> bool:
        return self.is_preorder() and self.is_antisymmetric()

    # ------------------------------------------------------------------
    # closures and lattice operations

    def transitive_closure(self) -> "Rel":
        """Smallest transitive relation containing this one."""
        return Rel(self.n, transitive_closure_bits(self.bits))

    def reflexive_closure(self) -> "Rel":
        return Rel(self.n, self.bits | np.eye(self.n, dtype=bool))

    def equivalence_closure(self) -> "Rel":
        """Smallest equivalence containing this relation.

        Two elements end up related exactly when a zig-zag chain joins
        them, each consecutive pair related in one direction or the other.
        """
        sym = Rel(self.n, self.bits | self.bits.T)
        return sym.reflexive_closure().transitive_closure()

    def converse(self) -> "Rel":
        return Rel(self.n, self.bits.T)

    def compose(self, other: "Rel") -> "Rel":
        """Relational composition: a related to c when a self b and b other c."""
        self._same_carrier(other)
        return Rel(self.n, _compose(self.bits, other.bits))

    def meet(self, other: "Rel") -> "Rel":
        """Pointwise intersection; the meet in the lattice of relations."""
        self._same_carrier(other)
        return Rel(self.n, self.bits & other.bits)

    def union(self, other: "Rel") -> "Rel":
        self._same_carrier(other)
        return Rel(self.n, self.bits | other.bits)

    def is_subrel(self, other: "Rel") -> bool:
        self._same_carrier(other)
        return bool((self.bits <= other.bits).all())

    __and__ = meet
    __or__ = union
    __le__ = is_subrel

    def _same_carrier(self, other: "Rel") -> None:
        if self.n != other.n:
            raise ValidationError(f"carrier mismatch: {self.n} vs {other.n}")


def block_ids(equiv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of an equivalence matrix, or of each of a stack of them
    (on the last two axes), numbered by smallest member as in `Partition`:
    per point, the number of its block and whether it is the smallest
    member of that block."""
    if not equiv.shape[-1]:
        # no points: argmax has no column to find
        return np.zeros(equiv.shape[:-1], dtype=np.intp), np.zeros(equiv.shape[:-1], dtype=bool)
    reps = equiv.argmax(axis=-1)  # the first True column: the smallest member
    is_rep = reps == np.arange(equiv.shape[-1])
    ids = np.cumsum(is_rep, axis=-1) - 1
    return ids[reps] if ids.ndim == 1 else np.take_along_axis(ids, reps, axis=-1), is_rep


def generated_equivalence(pairs: Iterable[tuple[int, int]], n: int) -> Rel:
    """Smallest equivalence relation on {0..n-1} containing the given pairs."""
    return Rel.from_pairs(n, pairs).equivalence_closure()


def join_preorders(r: Rel, s: Rel) -> Rel:
    """Least preorder above two preorders: the transitive closure of their union."""
    if not r.is_preorder():
        raise ValidationError("left argument is not a preorder")
    if not s.is_preorder():
        raise ValidationError("right argument is not a preorder")
    return r.union(s).transitive_closure()


@dataclass(frozen=True)
class Partition:
    """A partition of {0..n-1}: block index per element plus the block lists.

    Blocks are numbered by their smallest member, in increasing order, so
    every derived quotient carrier is deterministic.
    """

    class_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "class_of", tuple(int(c) for c in self.class_of))
        object.__setattr__(
            self, "blocks", tuple(tuple(int(x) for x in blk) for blk in self.blocks))
        n = len(self.class_of)
        seen = sorted(x for blk in self.blocks for x in blk)
        if seen != list(range(n)) or not all(self.blocks):
            raise ValidationError("blocks do not partition the carrier")
        for i, blk in enumerate(self.blocks):
            if list(blk) != sorted(blk):
                raise ValidationError("block members must be sorted")
            for x in blk:
                if self.class_of[x] != i:
                    raise ValidationError("class_of inconsistent with blocks")
        mins = [blk[0] for blk in self.blocks]
        if mins != sorted(mins):
            raise ValidationError("blocks must be ordered by smallest member")

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def size(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_class_ids(cls, ids: Iterable[int]) -> "Partition":
        """Build from an arbitrary element -> label map, renumbering blocks."""
        ids = list(ids)
        relabel: dict[int, int] = {}
        blocks: list[list[int]] = []
        for x, c in enumerate(ids):
            if c not in relabel:
                relabel[c] = len(blocks)
                blocks.append([])
            blocks[relabel[c]].append(x)
        class_of = tuple(relabel[c] for c in ids)
        return cls(class_of, tuple(tuple(b) for b in blocks))

    @classmethod
    def from_equivalence(cls, rel: Rel) -> "Partition":
        if not rel.is_equivalence():
            raise ValidationError("relation is not an equivalence")
        return cls._of_equivalence(rel.bits)

    @classmethod
    def _of_equivalence(cls, bits: np.ndarray) -> "Partition":
        """`from_equivalence` without the check, for a matrix known to be
        an equivalence: the blocks as `block_ids` numbers them, built
        without checking them again."""
        ids = block_ids(bits)[0].tolist()
        blocks = [[] for _ in range(max(ids, default=-1) + 1)]
        for x, c in enumerate(ids):
            blocks[c].append(x)
        part = object.__new__(cls)
        object.__setattr__(part, "class_of", tuple(ids))
        object.__setattr__(part, "blocks", tuple(map(tuple, blocks)))
        return part

    def to_equivalence(self) -> Rel:
        ids = np.array(self.class_of)
        return Rel(self.n, ids[:, None] == ids[None, :])

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.class_of[x]]

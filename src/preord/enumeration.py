"""Exhaustive enumeration of labeled objects on tiny carriers.

Objects come out in lexicographic order of the row-major off-diagonal
bit string (the diagonal is forced).  Sizes are hard-capped: the counts
grow like labeled topologies, and pairwise hom scans beyond n = 5 are
hopeless at desk scale anyway.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .category import PreObj
from .errors import BudgetError, ValidationError
from .relations import Rel

__all__ = ["KINDS", "HARD_CAP", "enumerate_objects", "count_objects", "objects_upto"]

KINDS = ("preorder", "equivalence", "partial_order", "trivial")
HARD_CAP = 5


def _cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


_CHUNK = 4096


def enumerate_objects(n: int, kind: str = "preorder") -> Iterator[PreObj]:
    """All labeled objects of the kind on exactly n elements.

    Candidate bit patterns are generated and filtered in vectorized
    chunks; at the n = 5 cap that is 2^20 candidate matrices.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if n < 1:
        raise ValidationError("objects must be non-empty")
    if n > HARD_CAP:
        raise BudgetError(f"enumeration capped at n <= {HARD_CAP}")
    if kind == "trivial":
        yield PreObj(Rel.identity(n))
        return
    cells = _cells(n)
    k = len(cells)
    eye = np.eye(n, dtype=bool)
    diag = np.arange(n)
    for start in range(0, 2 ** k, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, 2 ** k), dtype=np.int64)
        bits = np.zeros((len(codes), n, n), dtype=bool)
        bits[:, diag, diag] = True
        for t, (i, j) in enumerate(cells):
            bits[:, i, j] = ((codes >> (k - 1 - t)) & 1).astype(bool)
        # float32 counts the (at most n) witnesses exactly and, on batches of
        # tiny matrices, multiplies faster than bool or uint8
        w = bits.astype(np.float32)
        ok = ((np.matmul(w, w) > 0) <= bits).all(axis=(1, 2))
        if kind == "equivalence":
            ok &= (bits == bits.transpose(0, 2, 1)).all(axis=(1, 2))
        elif kind == "partial_order":
            ok &= ((bits & bits.transpose(0, 2, 1)) <= eye).all(axis=(1, 2))
        # the filter keeps only preorders, so the objects skip a second check
        for idx in np.nonzero(ok)[0]:
            yield PreObj._trusted(Rel(n, bits[idx]))


@lru_cache(maxsize=None)
def _objects_exact(n: int, kind: str) -> tuple[PreObj, ...]:
    return tuple(enumerate_objects(n, kind))


def count_objects(n: int, kind: str = "preorder") -> int:
    return len(_objects_exact(n, kind))


def objects_upto(max_n: int, kind: str = "preorder") -> list[PreObj]:
    """All objects of the kind with 1 <= size <= max_n, smaller first."""
    out: list[PreObj] = []
    for n in range(1, max_n + 1):
        out.extend(_objects_exact(n, kind))
    return out

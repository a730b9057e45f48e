"""The category of finite non-empty preordered sets.

Objects pair a carrier {0..n-1} with a reflexive transitive relation;
morphisms are relation-preserving maps.  Everything here is structural:
two objects are equal iff they have the same carrier size and the same
relation matrix, and isomorphism is a separate search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .relations import Rel

__all__ = [
    "DEFAULT_BUDGET", "PreObj", "Morph",
    "make_object", "trivial_object", "chain",
    "is_morphism", "compose", "identity",
    "is_trivial_object", "is_trivial_morphism",
    "hom_enumerate", "triv_enumerate", "monotone_maps",
    "is_mono", "is_epi",
    "coproduct", "product",
    "iso_search", "iso_enumerate", "find_lift",
]

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class PreObj:
    """A non-empty finite preordered set."""

    rel: Rel

    def __post_init__(self):
        if self.rel.n < 1:
            raise ValidationError("objects must be non-empty")
        if not self.rel.is_reflexive():
            raise ValidationError("object relation must be reflexive")
        if not self.rel.is_transitive():
            raise ValidationError("object relation must be transitive")

    @property
    def n(self) -> int:
        return self.rel.n

    def __repr__(self) -> str:
        return f"PreObj({self.n}, {sorted(self.rel.pairs())})"


def make_object(n: int, pairs: Iterable[tuple[int, int]] = (),
                mode: str = "close") -> PreObj:
    """Build an object from generating pairs.

    mode="close" takes the reflexive-transitive closure of the pairs;
    mode="strict" adds the diagonal only, and rejects inputs whose pairs
    are not already transitive.
    """
    if n < 1:
        raise ValidationError("objects must be non-empty")
    r = Rel.from_pairs(n, pairs, reflexive=True)
    if mode == "close":
        return PreObj(r.transitive_closure())
    if mode == "strict":
        if not r.is_transitive():
            raise ValidationError("pairs are not transitive (strict mode)")
        return PreObj(r)
    raise ValidationError(f"unknown mode {mode!r} (expected 'strict' or 'close')")


def trivial_object(n: int) -> PreObj:
    """The n-element set with the equality relation."""
    return PreObj(Rel.identity(n))


def chain(n: int) -> PreObj:
    """The linear order 0 <= 1 <= ... <= n-1."""
    return make_object(n, [(i, i + 1) for i in range(n - 1)], mode="close")


@dataclass(frozen=True)
class Morph:
    """A monotone map between two objects, stored as an image tuple."""

    dom: PreObj
    cod: PreObj
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(map(int, self.map)))
        if len(self.map) != self.dom.n:
            raise ValidationError(
                f"map length {len(self.map)} does not match domain size {self.dom.n}")
        if min(self.map) < 0 or max(self.map) >= self.cod.n:
            raise ValidationError("map image out of codomain range")
        if not _monotone_map(self.map, self.dom, self.cod):
            raise ValidationError("map is not monotone")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def __repr__(self) -> str:
        return f"Morph({list(self.map)}: {self.dom.n}->{self.cod.n})"


def monotone_mask(vals: np.ndarray, dom: Rel, cod: Rel) -> np.ndarray:
    """Row mask of the maps in `vals` (one image row each) that send every
    related pair of dom to a related pair of cod."""
    u, v = dom.pair_index
    return np.logical_and.reduce(cod.bits.ravel()[vals[:, u] * cod.n + vals[:, v]], axis=1)


def inverse_map(map_: Sequence[int], n: int) -> np.ndarray:
    """A preimage under the map of each point of {0..n-1}, -1 off the image."""
    inv = np.full(n, -1)
    inv[list(map_)] = np.arange(len(map_))
    return inv


def _monotone_map(map_: Sequence[int], dom: PreObj, cod: PreObj) -> bool:
    # one map: a Python loop beats numpy's per-call overhead
    bits = cod.rel.bits
    return all(bits[map_[a], map_[b]] for a, b in dom.rel.pair_list)


def is_iso_map(map_: Sequence[int], dom: PreObj, cod: PreObj) -> bool:
    """Is the map a monotone bijection dom -> cod with a monotone inverse?"""
    if sorted(map_) != list(range(cod.n)) or len(map_) != dom.n:
        return False
    return _monotone_map(map_, dom, cod) and _monotone_map(inverse_map(map_, cod.n), cod, dom)


def is_morphism(map_: Sequence[int], dom: PreObj, cod: PreObj) -> bool:
    """Is this image tuple a monotone map dom -> cod?"""
    if len(map_) != dom.n:
        raise ValidationError("map length does not match domain size")
    if any(not (0 <= x < cod.n) for x in map_):
        raise ValidationError("map image out of codomain range")
    return _monotone_map(map_, dom, cod)


def identity(a: PreObj) -> Morph:
    return Morph(a, a, tuple(range(a.n)))


def compose(g: Morph, f: Morph) -> Morph:
    """g after f.  Endpoints must match structurally."""
    if f.cod != g.dom:
        raise ValidationError("composition endpoint mismatch")
    return Morph(f.dom, g.cod, tuple(g.map[x] for x in f.map))


def is_trivial_object(a: PreObj) -> bool:
    """True iff the relation is the bare diagonal."""
    return a.rel == Rel.identity(a.n)


def is_trivial_morphism(f: Morph) -> bool:
    """True iff related points share an image (factors through equality)."""
    return all(f.map[a] == f.map[b] for a, b in f.dom.rel.pair_list)


# ----------------------------------------------------------------------
# hom-set enumeration

# candidate grids up to this many cells are kept for reuse, at most 64 of
# them, so the grid cache stays under 10 MB
_GRID_CACHE_CELLS = 1 << 14


def _candidate_grid(dom_n: int, cod_n: int) -> np.ndarray:
    """Every map {0..dom_n-1} -> {0..cod_n-1}, one per row, lexicographic."""
    grid = np.indices((cod_n,) * dom_n).reshape(dom_n, -1).T
    grid.setflags(write=False)
    return grid


_cached_grid = lru_cache(maxsize=64)(_candidate_grid)


@lru_cache(maxsize=8192)
def monotone_maps(dom: PreObj, cod: PreObj, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All monotone maps dom -> cod as an int array, one map per row.

    Rows come in lexicographic order of the image tuple.  The budget
    bounds the candidate grid, cod.n ** dom.n maps of dom.n cells each:
    BudgetError is raised, before anything is allocated, when that cell
    count exceeds it.  The grid is filtered in slices of bounded size, and
    only small grids are kept for reuse.
    The returned array is cached and write-protected; copy before mutating.
    """
    cells = cod.n ** dom.n * dom.n
    if cells > budget:
        raise BudgetError(f"{cod.n ** dom.n} candidate maps x {dom.n} cells "
                          f"exceed budget {budget}")
    grid = (_cached_grid if cells <= _GRID_CACHE_CELLS else _candidate_grid)(dom.n, cod.n)
    step = _GRID_CACHE_CELLS // max(1, dom.rel.pair_index.shape[1])
    keep = np.empty(len(grid), dtype=bool)
    for i in range(0, len(grid), step):
        keep[i:i + step] = monotone_mask(grid[i:i + step], dom.rel, cod.rel)
    out = grid[keep]
    out.setflags(write=False)
    return out


def hom_enumerate(dom: PreObj, cod: PreObj, budget: int = DEFAULT_BUDGET) -> list[Morph]:
    """Every morphism dom -> cod, in lexicographic map order."""
    return [Morph(dom, cod, tuple(row)) for row in monotone_maps(dom, cod, budget)]


def triv_enumerate(dom: PreObj, cod: PreObj, budget: int = DEFAULT_BUDGET) -> list[Morph]:
    """Every trivial morphism dom -> cod, in lexicographic map order."""
    return [f for f in hom_enumerate(dom, cod, budget) if is_trivial_morphism(f)]


def is_mono(f: Morph) -> bool:
    """Monomorphism test: injectivity of the underlying map."""
    return len(set(f.map)) == f.dom.n


def is_epi(f: Morph) -> bool:
    """Epimorphism test: surjectivity of the underlying map."""
    return len(set(f.map)) == f.cod.n


# ----------------------------------------------------------------------
# (co)products

def coproduct(objs: Sequence[PreObj]) -> tuple[PreObj, list[Morph]]:
    """Disjoint union with the block-diagonal relation, plus the injections."""
    if not objs:
        raise ValidationError("coproduct of an empty family")
    n = sum(a.n for a in objs)
    bits = np.zeros((n, n), dtype=bool)
    injections = []
    offset = 0
    for a in objs:
        bits[offset:offset + a.n, offset:offset + a.n] = a.rel.bits
        offset += a.n
    out = PreObj(Rel(n, bits))
    offset = 0
    for a in objs:
        injections.append(Morph(a, out, tuple(range(offset, offset + a.n))))
        offset += a.n
    return out, injections


def product(objs: Sequence[PreObj], budget: int = DEFAULT_BUDGET) -> tuple[PreObj, list[Morph]]:
    """Cartesian product with the componentwise relation, plus projections.

    Tuples are indexed row-major: the last factor varies fastest.  The
    budget bounds the cells of the carrier x carrier relation matrix;
    BudgetError is raised before anything is allocated.
    """
    if not objs:
        raise ValidationError("product of an empty family")
    total = reduce(lambda x, y: x * y, (a.n for a in objs), 1)
    if total ** 2 > budget:
        raise BudgetError(f"product relation of {total} x {total} cells exceeds budget {budget}")
    digits = []
    idx = np.arange(total)
    for i, a in enumerate(objs):
        stride = reduce(lambda x, y: x * y, (b.n for b in objs[i + 1:]), 1)
        digits.append((idx // stride) % a.n)
    bits = np.ones((total, total), dtype=bool)
    for d, a in zip(digits, objs):
        bits &= a.rel.bits[d[:, None], d[None, :]]
    out = PreObj(Rel(total, bits))
    projections = [Morph(out, a, tuple(int(x) for x in d)) for d, a in zip(digits, objs)]
    return out, projections


# ----------------------------------------------------------------------
# isomorphism search and lifts

def _degree_keys(a: PreObj) -> list[tuple[int, int]]:
    b = a.rel.bits
    return [(int(b[v].sum()), int(b[:, v].sum())) for v in range(a.n)]


def iso_enumerate(a: PreObj, b: PreObj) -> Iterator[Morph]:
    """All isomorphisms a -> b, lexicographically by image tuple.

    An isomorphism here is a bijection preserving the relation in both
    directions.  Candidates are pruned by (out-degree, in-degree) pairs.
    """
    if a.n != b.n:
        return
    ka, kb = _degree_keys(a), _degree_keys(b)
    if sorted(ka) != sorted(kb):
        return
    ba, bb = a.rel.bits, b.rel.bits
    n = a.n
    img = [-1] * n
    used = [False] * n

    def extend(v: int) -> Iterator[Morph]:
        if v == n:
            yield Morph(a, b, tuple(img))
            return
        for w in range(n):
            if used[w] or ka[v] != kb[w]:
                continue
            ok = True
            for u in range(v):
                if ba[v, u] != bb[w, img[u]] or ba[u, v] != bb[img[u], w]:
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False
                img[v] = -1

    yield from extend(0)


def iso_search(a: PreObj, b: PreObj) -> Morph | None:
    """First isomorphism a -> b in lexicographic order, or None."""
    return next(iter(iso_enumerate(a, b)), None)


def find_lift(g: Morph, f: Morph, budget: int = DEFAULT_BUDGET) -> Morph | None:
    """A morphism h with f o h = g, if one exists (lexicographically first).

    f must be an epimorphism onto the shared codomain.
    """
    if g.cod != f.cod:
        raise ValidationError("lift requires a shared codomain")
    if not is_epi(f):
        raise ValidationError("lifts are searched along epimorphisms only")
    x, a = g.dom, f.dom
    maps = monotone_maps(x, a, budget)
    fmap = np.array(f.map)
    gmap = np.array(g.map)
    keep = np.ones(len(maps), dtype=bool)
    for i in range(x.n):
        keep &= fmap[maps[:, i]] == gmap[i]
    rows = maps[keep]
    if len(rows) == 0:
        return None
    return Morph(x, a, tuple(rows[0]))

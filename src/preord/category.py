"""The category of finite non-empty preordered sets.

Objects pair a carrier {0..n-1} with a reflexive transitive relation;
morphisms are relation-preserving maps.  Everything here is structural:
two objects are equal iff they have the same carrier size and the same
relation matrix, and isomorphism is a separate search.

Hom sets come from candidate grids: every map between two carriers, one
per row.  A hom table filters one grid against a whole run of same-size
objects at once, one column per object, from one bool mask per cell of
their common carrier square: the objects relating that cell.  Maps into
the objects keep those in the masks of all cells a row's related pairs
land on; maps out of them keep those in no mask of a cell that a row
sends to a forbidden cell.

Both tables take one sequence's cells: a forbidden-cell matrix, or the
related pairs of one domain.  They return grid rows x objects, cut into
slices of rows that keep the table and every intermediate within the
budget.  `monotone_maps` is the out table of one domain against a run of
one codomain.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import groupby
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .relations import Rel, as_ints, carrier_size

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

    @classmethod
    def _trusted(cls, rel: Rel) -> "PreObj":
        """The object on a relation the caller already knows to be a
        non-empty preorder, built without checking it again.  Only for
        relations produced by a preorder-preserving construction, such as
        the enumeration's batched filter or a quotient of a preorder."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rel", rel)
        return obj

    @property
    def n(self) -> int:
        return self.rel.n

    def __hash__(self) -> int:
        # the relation's cached hash, without hashing a one-field tuple first
        return self.rel._hash

    def __repr__(self) -> str:
        return f"PreObj({self.n}, {self.rel.pair_list})"


def make_object(n: int, pairs: Iterable[tuple[int, int]] = (),
                mode: str = "close") -> PreObj:
    """Build an object from generating pairs.

    mode="close" takes the reflexive-transitive closure of the pairs;
    mode="strict" adds the diagonal only, and rejects inputs whose pairs
    are not already transitive.
    """
    n, = as_ints("carrier sizes", (n,))
    if n < 1:
        raise ValidationError("objects must be non-empty")
    r = Rel.from_pairs(n, pairs, reflexive=True)
    if mode == "close":
        # the closure of a non-empty reflexive relation is a preorder
        return PreObj._trusted(r.transitive_closure())
    if mode == "strict":
        # r is non-empty and reflexive, so PreObj can only reject it as
        # not transitive; its check is the only one
        try:
            return PreObj(r)
        except ValidationError as e:
            raise ValidationError("pairs are not transitive (strict mode)") from e
    raise ValidationError(f"unknown mode {mode!r} (expected 'strict' or 'close')")


def trivial_object(n: int) -> PreObj:
    """The n-element set with the equality relation."""
    return PreObj(Rel.identity(n))


def chain(n: int) -> PreObj:
    """The linear order 0 <= 1 <= ... <= n-1."""
    return make_object(n, [(i, i + 1) for i in range(carrier_size(n) - 1)], mode="close")


@dataclass(frozen=True)
class Morph:
    """A monotone map between two objects, stored as an image tuple."""

    dom: PreObj
    cod: PreObj
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", _map_entries(self.map, self.dom, self.cod))
        if not _monotone_map(self.map, self.dom, self.cod):
            raise ValidationError("map is not monotone")

    @classmethod
    def _trusted(cls, dom: PreObj, cod: PreObj, map_: tuple[int, ...]) -> "Morph":
        """The morphism with the image tuple `map_` (of Python ints), built
        without checking it.  Only for maps monotone by construction, such
        as composites, canonical (co)kernel maps and recognition witnesses
        already tested as isomorphisms."""
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "map", map_)
        return f

    def __call__(self, a: int) -> int:
        return self.map[a]

    def __repr__(self) -> str:
        return f"Morph({list(self.map)}: {self.dom.n}->{self.cod.n})"


def inverse_map(map_: Sequence[int], n: int) -> list[int]:
    """A preimage under the map of each point of {0..n-1}, -1 off the image."""
    # one map: a Python loop beats numpy's per-call overhead
    inv = [-1] * n
    for a, b in enumerate(map_):
        inv[b] = a
    return inv


def _map_entries(map_: Sequence[int], dom: PreObj, cod: PreObj) -> tuple[int, ...]:
    """The map's entries as Python ints, once they are one point of cod
    per point of dom."""
    map_ = as_ints("map entries", map_)
    if len(map_) != dom.n:
        raise ValidationError(f"map length {len(map_)} does not match domain size {dom.n}")
    if min(map_) < 0 or max(map_) >= cod.n:
        raise ValidationError("map image out of codomain range")
    return map_


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
    return _monotone_map(_map_entries(map_, dom, cod), dom, cod)


def identity(a: PreObj) -> Morph:
    return Morph._trusted(a, a, tuple(range(a.n)))


def compose(g: Morph, f: Morph) -> Morph:
    """g after f.  Endpoints must match structurally."""
    if f.cod != g.dom:
        raise ValidationError("composition endpoint mismatch")
    # monotone maps compose to a monotone map
    return Morph._trusted(f.dom, g.cod, tuple(g.map[x] for x in f.map))


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
    if cod_n == 1:
        # np.indices takes at most 64 axes; the one constant map needs none
        grid = np.zeros((1, dom_n), dtype=int)
    else:
        grid = np.indices((cod_n,) * dom_n).reshape(dom_n, -1).T
    grid.setflags(write=False)
    return grid


_cached_grid = lru_cache(maxsize=64)(_candidate_grid)


def candidate_grid(dom_n: int, cod_n: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Every map {0..dom_n-1} -> {0..cod_n-1}, one per row, lexicographic:
    the row index of a map is its image tuple read in base cod_n.

    The budget bounds the grid, cod_n ** dom_n maps of dom_n cells each:
    BudgetError is raised, before anything is allocated, when that cell
    count exceeds it.  Only small grids are kept for reuse; every grid is
    write-protected.
    """
    cells = cod_n ** dom_n * dom_n
    if cells > budget:
        raise BudgetError(f"{cod_n ** dom_n} candidate maps x {dom_n} cells "
                          f"exceed budget {budget}")
    return (_cached_grid if cells <= _GRID_CACHE_CELLS else _candidate_grid)(dom_n, cod_n)


@lru_cache(maxsize=None)
def _place_values(width: int, base: int) -> np.ndarray:
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def grid_index(rows: np.ndarray, base: int) -> np.ndarray:
    """Row index in `candidate_grid(rows.shape[-1], base)` of each map (one
    per row, on the last axis) into {0..base-1}."""
    return rows @ _place_values(rows.shape[-1], base)


# ----------------------------------------------------------------------
# hom tables: the maps of one candidate grid against many objects at once

@dataclass(frozen=True, eq=False)
class ProbeRun:
    """Consecutive objects of one size m with what the tables read of
    them, built on first use: `cells`, m * m cells (row-major) x objects,
    holds the objects relating each cell as a bool mask."""

    objs: tuple[PreObj, ...]

    @property
    def m(self) -> int:
        return self.objs[0].n

    @cached_property
    def cells(self) -> np.ndarray:
        if len(self.objs) == 1:  # one object (as in `monotone_maps`): a view, no copy
            return self.objs[0].rel.bits.reshape(-1, 1)
        return np.stack([a.rel.bits.ravel() for a in self.objs], axis=1)


@lru_cache(maxsize=64)
def _probe_runs(objs: tuple[PreObj, ...]) -> tuple[ProbeRun, ...]:
    return tuple(ProbeRun(tuple(run)) for _, run in groupby(objs, key=lambda a: a.n))


def same_size_runs(objs: Iterable[PreObj]) -> tuple[ProbeRun, ...]:
    """The maximal runs of consecutive objects of one size, in order, with
    their masks; kept for reuse per sequence of objects."""
    return _probe_runs(tuple(objs))


def table_slices(cols: int, rows: int, budget: int) -> list[slice]:
    """Slices, in order, of `cols` columns such that a table of `rows` grid
    rows x the slice's columns stays within the budget (one column at
    least)."""
    step = max(1, budget // rows)
    return [slice(i, i + step) for i in range(0, cols, step)]


def _by_slices(table, grid: np.ndarray, width: int, budget: int) -> np.ndarray:
    """grid rows x ...: table(rows) on slices of the grid's rows that keep
    `width` cells per row within the budget."""
    per = max(1, budget // width)
    parts = [table(grid[r:r + per]) for r in range(0, len(grid), per)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def stack_bits(objs: Sequence[PreObj]) -> np.ndarray:
    """The relation matrices of objects of one size, stacked."""
    return objs[0].rel.bits[None] if len(objs) == 1 else np.stack([a.rel.bits for a in objs])


def pair_rows(objs: Sequence[PreObj]) -> np.ndarray:
    """The off-diagonal related pairs of objects of one size, one row per
    object, as sources u and targets v (2 x objects x columns, so that
    `u, v = pair_rows(objs)`): each row holds its object's pairs in
    row-major order, then the diagonal pair (0, 0) up to the longest row.
    A map sends (0, 0) to a diagonal cell, which every preorder relates,
    so the padding changes no test a row's pairs make."""
    if len(objs) == 1:
        return objs[0].rel.pair_index[:, None]
    which, u, v = np.nonzero(stack_bits(objs) & ~np.eye(objs[0].n, dtype=bool))
    count = np.bincount(which, minlength=len(objs))
    pos = np.arange(len(which)) - (np.cumsum(count) - count)[which]
    out = np.zeros((2, len(objs), count.max()), dtype=np.intp)
    out[:, which, pos] = u, v
    return out


def maps_into_table(grid: np.ndarray, bad: np.ndarray, run: ProbeRun, cols: slice,
                    budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Grid rows x the objects run.objs[cols]: does the map (a grid row,
    from the objects' common carrier into the points indexing the square
    matrix `bad`) send no related pair of the object to a cell of `bad`?
    A row keeps the objects in no `run.cells` mask of a cell it sends to
    `bad`.  With bad = ~cod.rel.bits the table says which rows are
    monotone maps from each object into cod.
    """
    m = run.m
    masks = run.cells[:, cols].astype(np.float32)

    def table(rows):
        hit = bad[rows[:, :, None], rows[:, None, :]].reshape(len(rows), m * m)
        # does the row send a pair to `bad`?  float32 counts the (at most
        # m * m) such cells exactly, and uses BLAS where a bool product does not
        return (hit.astype(np.float32) @ masks) == 0
    return _by_slices(table, grid, m * m + masks.shape[1], budget)


def maps_out_table(grid: np.ndarray, pairs: np.ndarray, run: ProbeRun, cols: slice,
                   budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Grid rows x the objects run.objs[cols]: is the map (a grid row, from
    the domain into the objects' common carrier) monotone into the object?
    `pairs` holds the domain's related pairs as sources and targets
    (`dom.rel.pair_index`; the diagonal pair (0, 0) may pad it, as a map
    sends it to a related cell).  A row keeps the objects in the
    `run.cells` masks of all cells its related pairs land on.
    """
    m, masks = run.m, run.cells[:, cols]

    def table(rows):
        # per row, the cells its pairs land on, then the AND of their masks
        at = rows.T[pairs]
        return np.logical_and.reduce(masks.take(at[0] * m + at[1], axis=0), axis=0)
    return _by_slices(table, grid, max(1, pairs.shape[1]) * masks.shape[1], budget)


class ByteLRU:
    """A least-recently-used cache of arrays bounded by the `nbytes` of the
    arrays it holds, shared by the functions it decorates (of hashable
    arguments, returning arrays).  An array larger than the bound is
    returned without being kept.  Each decorated function counts its hits
    and misses in `cache_info()`, as under `functools.lru_cache`."""

    def __init__(self, max_bytes: int):
        self.max_bytes, self.nbytes = max_bytes, 0
        self._entries: OrderedDict = OrderedDict()

    def __call__(self, fn):
        counts = [0, 0]

        @wraps(fn)
        def cached(*args, **kwargs):
            key = (fn, args, tuple(kwargs.items()))
            # a hit hashes the key twice: the values are arrays, never None
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                counts[0] += 1
                return value
            counts[1] += 1
            value = fn(*args, **kwargs)
            if value.nbytes <= self.max_bytes:
                self._entries[key] = value
                self.nbytes += value.nbytes
                while self.nbytes > self.max_bytes:
                    self.nbytes -= self._entries.popitem(last=False)[1].nbytes
            return value
        cached.cache_info = lambda: CacheInfo(*counts)
        return cached


CacheInfo = namedtuple("CacheInfo", "hits misses")

# hom sets, per-object layouts and class tables, together at most 32 MB; one hom set
# within DEFAULT_BUDGET cells takes up to 8 MB
array_cache = ByteLRU(32 << 20)


@array_cache
def monotone_maps(dom: PreObj, cod: PreObj, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All monotone maps dom -> cod as an int array, one map per row.

    Rows come in lexicographic order of the image tuple.  The budget
    bounds the candidate grid as in `candidate_grid` (BudgetError before
    anything is allocated) and every intermediate of the filter.
    The returned array is write-protected (copy before mutating) and kept
    in `array_cache`, which is bounded by bytes.
    """
    grid = candidate_grid(dom.n, cod.n, budget)
    # one object: a run of its own, outside the shared run cache
    out = grid[maps_out_table(grid, dom.rel.pair_index, ProbeRun((cod,)), slice(None),
                              budget)[:, 0]]
    out.setflags(write=False)
    return out


def hom_enumerate(dom: PreObj, cod: PreObj, budget: int = DEFAULT_BUDGET) -> list[Morph]:
    """Every morphism dom -> cod, in lexicographic map order."""
    # the rows are monotone by construction; tolist gives Python ints
    return [Morph._trusted(dom, cod, tuple(row)) for row in
            monotone_maps(dom, cod, budget).tolist()]


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
    total = prod(a.n for a in objs)
    if total ** 2 > budget:
        raise BudgetError(f"product relation of {total} x {total} cells exceeds budget {budget}")
    digits = np.unravel_index(np.arange(total), [a.n for a in objs])
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
    ka, kb = _degree_keys(a), _degree_keys(b)
    if sorted(ka) != sorted(kb):  # different sizes included
        return
    ba, bb = a.rel.bits.tolist(), b.rel.bits.tolist()
    n = a.n

    def fits(v: int, w: int) -> bool:
        """May point v go to w, given the images of the points before it?"""
        return not used[w] and ka[v] == kb[w] and all(
            ba[v][u] == bb[w][img[u]] and ba[u][v] == bb[img[u]][w] for u in range(v))

    # depth-first over the points in order, without recursion: a carrier
    # of 1,000 points would pass the interpreter's recursion limit
    img, used, w = [], [False] * n, 0
    while True:
        v = len(img)
        while w < n and not fits(v, w):
            w += 1
        if w < n:
            img.append(w)
            used[w], w = True, 0
            if len(img) < n:
                continue
            # preserves and reflects the relation: monotone by construction
            yield Morph._trusted(a, b, tuple(img))
        if not img:
            return
        w = img.pop()
        used[w] = False
        w += 1


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
    rows = maps[(np.asarray(f.map)[maps] == g.map).all(axis=1)]
    if len(rows) == 0:
        return None
    return Morph(x, a, tuple(rows[0]))

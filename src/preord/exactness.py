"""Prekernels, precokernels, quotient objects and short preexact sequences.

Kernels and cokernels make no sense in a category without a zero object,
but "trivial" morphisms (those factoring through an equality-relation
object) play the role of zero maps.  A prekernel of f is universal among
morphisms whose composite with f is trivial; a precokernel is the dual.
Both exist canonically and are unique up to a unique isomorphism, which
is what `is_prekernel` / `is_precokernel` exploit: instead of quantifying
over the whole (infinite) category they compare against the canonical
construction.  The definitional verifiers below check the universal
property itself, over a finite list of probe objects: under plain
triviality a canonical leg passes in closed form, and any other leg is
decided by its composite and its tables.  The independent oracles,
map-by-map searches that share no code with this module, are in the
test suite (`tests/oracles.py`).

They run on one engine, `_universal`, that checks a `SeqBatch` of
same-shape sequences X --k--> A --g--> C.  A sequence is decided in one
of two ways.  Under plain triviality the closed-form rule for a
canonical leg (`_identity_legs`, `_quotient_legs`) runs on the whole
batch at once.  Every sequence it leaves open, and every sequence under
a searched predicate, is decided by its composite, again on the whole
batch, and then by its tables: it is tabulated on its own against all
probes of one size in one array pass, one table of grid rows x probes
per test.  `prekernel_batch` and `precokernel_batch` give the engine
what the two differ in: the closed-form rule, the grids, the table
kernel (`category.maps_into_table` or `maps_out_table`) and how a lam'
reaches a lam.  A single morphism is a batch of one.  The
class-relative checks of `preord.pretorsion` pass a row-wise triviality
predicate; the stable verifiers of `preord.stable` pass `classes(obj,
base)`, the first row of the stable class of each row of
`candidate_grid(obj.n, base)`, so that factorizations are counted by
class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .category import (
    Morph, PreObj, candidate_grid, compose, grid_index, inverse_map, is_iso_map,
    is_trivial_morphism, maps_into_table, maps_out_table, pair_rows, same_size_runs,
    stack_bits, table_slices,
    DEFAULT_BUDGET,
)
from .decompose import _quotient
from .enumeration import HARD_CAP
from .errors import ValidationError
from .relations import Rel, block_ids, transitive_closure_bits

__all__ = [
    "Seq", "kernel_pair_equiv", "prekernel", "quotient_object",
    "image_equivalence", "precokernel",
    "prekernel_witness", "is_prekernel",
    "precokernel_witness", "is_precokernel",
    "verify_prekernel_definitional", "verify_precokernel_definitional",
    "is_short_preexact", "canonical_preexact_from_morphism",
    "characterize_preexact", "identity_prekernel_test",
]


@dataclass(frozen=True)
class Seq:
    """A composable pair of morphisms f: X -> Y, g: Y -> Z."""

    f: Morph
    g: Morph

    def __post_init__(self):
        if self.f.cod != self.g.dom:
            raise ValidationError("sequence legs do not compose")


def kernel_pair_equiv(f: Morph) -> Rel:
    """The fibre equivalence on the domain: a ~ b iff f(a) = f(b)."""
    m = np.array(f.map)
    return Rel(f.dom.n, m[:, None] == m[None, :])


# Construction outputs on at most HARD_CAP points are interned, up to this
# many distinct relations: a recurring prekernel domain or precokernel
# codomain comes back as the same object, with its pair lists, hash and
# cached hom sets and layouts already in place.
_INTERNED = 1024


@lru_cache(maxsize=_INTERNED)
def _interned(n: int, cells: bytes) -> PreObj:
    return PreObj._trusted(Rel(n, np.frombuffer(cells, dtype=bool).reshape(n, n)))


def _constructed(bits: np.ndarray) -> PreObj:
    """The object on a preorder matrix that a construction built: interned
    up to HARD_CAP points, never checked again."""
    n = len(bits)
    return _interned(n, bits.tobytes()) if n <= HARD_CAP else PreObj._trusted(Rel(n, bits))


# The last outputs of `prekernel` and `precokernel` on carriers of at most
# HARD_CAP points, up to this many, by the value of the morphism: checking
# one morphism builds each construction several times (its verifiers, its
# canonical sequence and that sequence's recognition).
_BUILT = 64


@lru_cache(maxsize=_BUILT)
def _built(build, f: Morph) -> Morph:
    return build(f)


def _construction(build, f: Morph) -> Morph:
    """build(f), kept in `_built` if f's carriers have at most HARD_CAP
    points.  A kept output may end at the objects of an equal f built
    from other objects."""
    return build(f) if f.dom.n > HARD_CAP or f.cod.n > HARD_CAP else _built(build, f)


def prekernel(f: Morph) -> Morph:
    """Canonical prekernel: the identity map out of the domain with the
    relation cut down to pairs sharing an f-image.  Its codomain is f.dom."""
    k = _construction(_prekernel, f)
    return k if k.cod is f.dom else Morph._trusted(k.dom, f.dom, k.map)


def _prekernel(f: Morph) -> Morph:
    a = f.dom
    fmap = np.array(f.map)
    # a preorder meets an equivalence in a preorder
    k_dom = _constructed(a.rel.bits & (fmap[:, None] == fmap[None, :]))
    return Morph._trusted(k_dom, a, tuple(range(a.n)))


def quotient_object(a: PreObj, sim: Rel) -> tuple[PreObj, Morph]:
    """Quotient by an equivalence contained in the relation.

    The relation descends to blocks ([x] related to [y] iff x related to
    y, independent of representatives exactly because sim is contained in
    the relation).  Blocks are indexed by smallest member.  Returns the
    quotient object and the canonical projection.
    """
    if sim.n != a.n:
        raise ValidationError("equivalence carrier does not match the object")
    if not sim.is_equivalence():
        raise ValidationError("relation is not an equivalence")
    if not sim.is_subrel(a.rel):
        raise ValidationError("equivalence is not contained in the relation")
    return _quotient(a, sim.bits)[1:]


def _quotient_closures(xs: tuple, fmap: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Per map X --f--> A of a stack (xs, the rows of fmap, and the
    relation matrices `mids` of the As): the image equivalence zeta of f
    and the join of A with zeta, as two stacks of matrices.  They are the
    closures of the images of X's related pairs, both ways round, with the
    diagonal, and of those with A; the second holds zeta, as it holds the
    images, so one pass closes both."""
    rows = np.arange(len(fmap))[:, None]
    u, v = fmap[rows, pair_rows(xs)]
    gens = np.empty((2,) + mids.shape, dtype=bool)
    gens[0] = np.eye(mids.shape[-1], dtype=bool)
    gens[0, rows, u, v] = True
    gens[0] |= gens[0].swapaxes(1, 2)
    np.bitwise_or(mids, gens[0], out=gens[1])
    return transitive_closure_bits(gens)


def _closures_of(f: Morph) -> np.ndarray:
    """`_quotient_closures` of the one morphism f."""
    return _quotient_closures((f.dom,), np.array([f.map], dtype=np.intp), f.cod.rel.bits[None])


def image_equivalence(f: Morph) -> Rel:
    """Smallest equivalence on the codomain relating f(a) and f(b) for
    every related pair a, b of the domain."""
    return Rel(f.cod.n, _closures_of(f)[0, 0])


def precokernel(f: Morph) -> Morph:
    """Canonical precokernel: collapse the codomain by `image_equivalence`
    and carry the join of the codomain relation with it.  Its domain is
    f.cod."""
    p = _construction(_precokernel, f)
    return p if p.dom is f.cod else Morph._trusted(f.cod, p.cod, p.map)


def _precokernel(f: Morph) -> Morph:
    (zeta,), (joined,) = _closures_of(f)
    proj, is_rep = block_ids(zeta)
    reps = np.flatnonzero(is_rep)
    # the join restricted to one point per block of zeta, which it contains
    q = _constructed(joined[reps][:, reps])
    return Morph._trusted(f.cod, q, tuple(proj.tolist()))


# ----------------------------------------------------------------------
# recognition against the canonical constructions

def prekernel_witness(k: Morph, f: Morph) -> Morph | None:
    """The unique iso onto the canonical prekernel domain, or None.

    k is a prekernel of f iff f o k is trivial and k's underlying map,
    read as a map into the canonical domain, is an isomorphism; the
    commuting condition forces that map, so no search is needed.
    """
    if k.cod != f.dom:
        raise ValidationError("candidate prekernel must land in the domain of f")
    if not is_trivial_morphism(compose(f, k)):
        return None
    x_can = prekernel(f).dom
    if not is_iso_map(k.map, k.dom, x_can):
        return None
    return Morph._trusted(k.dom, x_can, k.map)


def precokernel_witness(p: Morph, f: Morph) -> Morph | None:
    """The unique iso from the canonical precokernel codomain, or None."""
    if p.dom != f.cod:
        raise ValidationError("candidate precokernel must start at the codomain of f")
    if not is_trivial_morphism(compose(p, f)):
        return None
    c = precokernel(f)
    q = c.cod
    # c.map is onto q, so phi reads p at one point of each block; p must
    # be constant on the blocks
    phi = [p.map[b] for b in inverse_map(c.map, q.n)]
    if tuple(phi[cls] for cls in c.map) != p.map or not is_iso_map(phi, q, p.cod):
        return None
    return Morph._trusted(q, p.cod, tuple(phi))


def is_prekernel(k: Morph, f: Morph) -> bool:
    return prekernel_witness(k, f) is not None


def is_precokernel(p: Morph, f: Morph) -> bool:
    return precokernel_witness(p, f) is not None


# ----------------------------------------------------------------------
# the universal-property engine and the definitional verifiers

def plain_trivial(rows: np.ndarray, dom: PreObj) -> np.ndarray:
    """Row mask of the maps out of dom (one per row) that are trivial:
    related points share an image."""
    u, v = dom.rel.pair_index
    return np.logical_and.reduce(rows[:, u] == rows[:, v], axis=1)


class SeqBatch:
    """Composable pairs X --k--> A --g--> C of one shape (the same sizes of
    X, A and C), stacked: the objects of each sequence, and k and g as the
    rows of two int arrays."""

    # a plain class: without a bytecode cache a dataclass costs each import
    # of the package about 0.4 ms
    __slots__ = ("xs", "mids", "cs", "k", "g")

    def __init__(self, xs: tuple, mids: tuple, cs: tuple, k: np.ndarray, g: np.ndarray):
        self.xs, self.mids, self.cs, self.k, self.g = xs, mids, cs, k, g

    @classmethod
    def of(cls, pairs) -> "SeqBatch":
        """From composable pairs (k, g) of morphisms."""
        return cls(tuple([k.dom for k, _ in pairs]), tuple([k.cod for k, _ in pairs]),
                   tuple([g.cod for _, g in pairs]), np.array([k.map for k, _ in pairs]),
                   np.array([g.map for _, g in pairs]))

    def __len__(self) -> int:
        return len(self.k)

    def take(self, idx) -> "SeqBatch":
        """The sequences at the positions idx, in that order."""
        return SeqBatch(tuple(self.xs[i] for i in idx), tuple(self.mids[i] for i in idx),
                        tuple(self.cs[i] for i in idx), self.k[idx], self.g[idx])

    def trivial_composites(self, trivial) -> np.ndarray:
        """Per sequence: is g o k trivial?  `trivial` as in the engine."""
        comp = self.g[np.arange(len(self))[:, None], self.k]
        if trivial is None:
            # related points share an image
            return ((comp[:, :, None] == comp[:, None, :]) >= stack_bits(self.xs)).all(axis=(1, 2))
        return np.array([trivial(comp[i:i + 1], x, c)[0]
                         for i, (x, c) in enumerate(zip(self.xs, self.cs))], dtype=bool)


def _failing(fail: np.ndarray, trivial, args) -> bool:
    """Does a marked lam of a `fail` table (grid rows x probes) break the
    property?  Without a predicate every one does; else the predicate is
    asked, on args(j), of the marked rows of probe j, probe by probe."""
    if trivial is None:
        return bool(fail.any())
    return any(fail[:, j].any() and trivial(*args(j)).any() for j in range(fail.shape[1]))


def _count_table(index: np.ndarray, table: np.ndarray, rows: int) -> np.ndarray:
    """rows x columns: per row r of a grid and column of `table` (marked
    rows x columns), how many marked rows of the column have grid index r
    in `index` (broadcast to the table's shape)?"""
    cols = table.shape[1]
    codes = index * cols + np.arange(cols)
    return np.bincount(codes.ravel(), weights=table.ravel(),
                       minlength=rows * cols).reshape(rows, cols)


def _unique_factors(reach: np.ndarray, factors: np.ndarray, rows: int,
                    lam_cls=None, fac_cls=None) -> np.ndarray:
    """`rows` grid rows x probes: does exactly one marked lam' of `factors`
    (factor grid rows x probes) reach the grid row, its composite with the
    leg having the grid row `reach` (per factor grid row)?  With the
    classes of the lam and of the lam', tables giving each row of either
    grid the first row of its class (broadcast to the tables), exactly one
    class of lam' must reach the row's class; a class's first row stands
    for it, as the leg maps a class into one."""
    if lam_cls is None:
        return _count_table(reach[:, None], factors, rows) == 1
    width, cols = factors.shape
    j = np.arange(cols)
    # per probe, the classes that hold a marked lam'
    held = _count_table(fac_cls, factors, width) > 0
    lam_cls = np.broadcast_to(lam_cls, (rows, cols))
    count = _count_table(lam_cls[reach[:, None], j], held, rows)
    return count[lam_cls, j] == 1


def _identity_legs(seqs: SeqBatch) -> np.ndarray:
    """Per sequence X --k--> A --g--> C: is k the identity map, with X
    exactly A cut down to the fibres of g, as in the canonical prekernel?"""
    kmap, fmap = seqs.k, seqs.g
    if kmap.shape[1] != fmap.shape[1]:
        return np.zeros(len(seqs), dtype=bool)
    fibres = fmap[:, :, None] == fmap[:, None, :]
    return ((kmap == np.arange(kmap.shape[1])).all(axis=1)
            & (stack_bits(seqs.xs) == stack_bits(seqs.mids) & fibres).all(axis=(1, 2)))


def _quotient_legs(seqs: SeqBatch) -> np.ndarray:
    """Per sequence X --f--> A --p--> C: is p onto C, are its fibres
    exactly the image equivalence zeta of f, and is C's relation, pulled
    back along p, exactly the join of A with zeta?  The canonical
    precokernel of f is such a p, under any labelling of C.

    Such a p is a precokernel of f under plain triviality, also up to
    stable class.  p o f is trivial, as zeta lies in p's fibres.  A lam
    with lam o f trivial is constant on the blocks of zeta, so lam =
    lam' o p for exactly one function lam', as p is onto.  lam' is
    monotone: C's relation is the closure of p's image of A, and the
    probe's relation is transitive.  Up to class, take one component D
    of C: the components of A that cover it are glued only by shared
    image points, so if lam'1 o p and lam'2 o p are stably equal, lam'1
    and lam'2 are equal on D or both constant there.  Hence, under plain
    triviality, every isomorphic p with a trivial composite meets the
    rule."""
    zeta, joined = _quotient_closures(seqs.xs, seqs.k, stack_bits(seqs.mids))
    rows, u, v = np.arange(len(seqs))[:, None], seqs.g[:, :, None], seqs.g[:, None, :]
    onto = np.zeros((len(seqs), seqs.cs[0].n), dtype=bool)
    onto[rows, seqs.g] = True
    # the fibres of p, and C pulled back along p
    return onto.all(axis=1) & ((u == v) == zeta).all(axis=(1, 2)) & (
        stack_bits(seqs.cs)[rows[:, :, None], u, v] == joined).all(axis=(1, 2))


def _universal(seqs: SeqBatch, tests: list[PreObj], trivial, budget: int,
               stats: Counter | None, side, closed=None) -> np.ndarray:
    """The engine of `prekernel_batch` and `precokernel_batch`: per sequence
    X --k--> A --g--> C of the batch, does its leg (k, or g) have the
    universal property over the probes?

    g o k must be trivial, and each lam the property asks about must factor
    through the leg by exactly one of the monotone lam', counted per row,
    or per class, they reach.  `closed`, if given, is a rule and the name
    of its counter: `rule(seqs)` marks the sequences that pass in closed
    form before anything else is built, and only the others go on, as a
    batch of their own.  Their composites are tested on the whole batch;
    each sequence with a trivial one is then tabulated on its own: the
    probes of one size share the grids of the lam and of the lam', and
    each test is a table of grid rows x probes.  A failed sequence skips
    later runs.  `side(seqs)`, asked once, at the first run that needs a
    table, gives (cells, table, args, tabulate): per sequence s, the cells
    that `table(grid, cells[s], run, cols, budget)` reads for the lam and
    the lam'; `args(s, rows, probe)`, what `trivial` is asked of the rows
    of sequence s that fail to factor; and `tabulate(run)`, built once per
    run: the two grids and `piece(cols, s, lam)`, the lam table of
    sequence s cut down to the trivial lam, the reach index (the lam grid
    row of each lam' after the leg) and the class tables of
    `_unique_factors`.

    Budgets are those of `monotone_maps` on the same hom sets, checked
    before each run that a sequence still has to tabulate, and the tables
    are cut, into slices of probes and then of grid rows, so that none,
    nor an intermediate, exceeds the budget.  So the batch raises
    BudgetError exactly when a call on one of its sequences alone would.
    A sequence passed by `closed`, or one whose composite is not trivial,
    meets no grid, so it never raises BudgetError, however large its
    probes or objects.  `stats`, a Counter, gains the sequences, those
    passed by `closed` (under its name: `identity_legs` or
    `quotient_legs`) and the table cells (lam tables: grid rows x probes,
    per sequence) checked, the same sums as calls on the sequences one by
    one.
    """
    if not len(seqs):
        return np.zeros(0, dtype=bool)
    if closed is not None:
        rule, name = closed
        passed = rule(seqs)
        if passed.any():
            if stats is not None:
                stats.update({"sequences": int(passed.sum()), name: int(passed.sum())})
            if not passed.all():
                rest = np.flatnonzero(~passed)
                passed[rest] = _universal(seqs.take(rest), tests, trivial, budget, stats, side)
            return passed
    alive = seqs.trivial_composites(trivial)
    tabulate = None
    for run in same_size_runs(tests):
        if not alive.any():
            break
        if tabulate is None:
            (lam_cells, prime_cells), table, args, tabulate = side(seqs)
        grid, primes, piece = tabulate(run)
        for s in np.flatnonzero(alive):
            # every slice is read, so that the cells sum as one call's would
            for cols in table_slices(len(run.objs), max(len(grid), len(primes)), budget):
                lam = table(grid, lam_cells[s], run, cols, budget)
                factors = table(primes, prime_cells[s], run, cols, budget)
                lam, reach, classes = piece(cols, s, lam)
                fail = lam & ~_unique_factors(reach, factors, len(grid), *classes)
                if alive[s] and _failing(fail, trivial, lambda j: args(
                        s, grid[fail[:, j]], run.objs[cols][j])):
                    alive[s] = False
                if stats is not None:
                    stats["cells"] += lam.size
    if stats is not None:
        stats["sequences"] += len(seqs)
    return alive


def prekernel_batch(seqs: SeqBatch, tests: list[PreObj], trivial, budget: int,
                    classes=None, stats: Counter | None = None) -> np.ndarray:
    """The prekernel property of k for g over probes, one bool per
    sequence X --k--> A --g--> C of the batch.

    g o k must be trivial, and for every probe Y and every lam: Y -> A
    with g o lam trivial there must be exactly one lam' with k o lam' = lam.
    `trivial` is None for plain triviality (related points share an
    image), or a predicate `trivial(rows, dom, cod)` saying which rows of
    maps dom -> cod count as trivial, asked sequence by sequence and probe
    by probe only of the rows that fail to factor.  With `classes(obj,
    base)`, giving each row of `candidate_grid(obj.n, base)` (maps out of
    obj) the first row of its class, both equalities hold up to class.
    The lam are the grid of maps Y -> A, the lam' that of maps Y -> X,
    and k need not be injective.

    Under plain triviality an identity leg passes in closed form, before
    the composite or any table is built: k the identity map and X exactly
    A cut down to the fibres of g, as in the canonical prekernel.  Then
    g o k is trivial, and each lam with g o lam trivial sends related
    points into one fibre, so lam itself is monotone into X and is its
    one lam'; up to class too, as the lam and the lam' are the same rows
    of one grid, with the same classes.  A searched predicate keeps its
    tables, and so does every other leg, an isomorphic one too.  Budgets,
    slicing and `stats` are those of the engine, `_universal`.
    """
    def side(seqs):
        kmap, fmap = seqs.k, seqs.g
        an, xn = fmap.shape[1], kmap.shape[1]
        a_bad, x_bad = ~stack_bits(seqs.mids), ~stack_bits(seqs.xs)
        lam_bad = a_bad if trivial is not None else a_bad | (fmap[:, :, None] != fmap[:, None, :])

        def tabulate(run):
            grid = candidate_grid(run.m, an, budget)
            primes = grid if xn == an else candidate_grid(run.m, xn, budget)
            # per probe, the class of each row of the grids of the lam and the lam'
            tables = [] if classes is None else [
                np.stack([classes(y, n) for y in run.objs], axis=1) for n in (an, xn)]
            return grid, primes, lambda cols, s, lam: (
                lam, grid_index(kmap[s][primes], an), [t[:, cols] for t in tables])
        return ((lam_bad, x_bad), maps_into_table,
                lambda s, rows, y: (fmap[s][rows], y, seqs.cs[s]), tabulate)
    return _universal(seqs, tests, trivial, budget, stats, side,
                      (_identity_legs, "identity_legs") if trivial is None else None)


def precokernel_batch(seqs: SeqBatch, tests: list[PreObj], trivial, budget: int,
                      classes=None, stats: Counter | None = None) -> np.ndarray:
    """Dual engine, one bool per sequence X --f--> A --p--> C: p o f
    trivial, and unique factorization lam = lam' o p for every lam: A -> T
    with lam o f trivial.  Triviality and classes are as in
    `prekernel_batch`; budgets, slicing and `stats` are the engine's.

    The lam are the grid of maps A -> T, the lam' that of maps C -> T,
    and p need not be surjective.  Plain triviality of lam o f does not
    depend on the probe (lam must send the image under f of each related
    pair of X to one point).  Under plain triviality, with or without
    classes, a quotient leg passes in closed form, before the composite
    or any table is built: p onto C, with the image equivalence of f as
    its fibres and C pulled back along p the join of A with it, as in
    the canonical precokernel (`_quotient_legs`, which also proves it).
    A searched predicate keeps its tables, and so does every other leg.
    """
    def side(seqs):
        fmap, pmap = seqs.k, seqs.g
        an, cn = pmap.shape[1], seqs.cs[0].n
        if trivial is None:
            # the cells of A x A that lam o f trivial asks lam to send to
            # equal points, padded with the diagonal cell (0, 0), never apart
            u, v = fmap[np.arange(len(seqs))[:, None], pair_rows(seqs.xs)]
            joined = u * an + v

        def tabulate(run):
            grid = candidate_grid(an, run.m, budget)
            afters = grid if cn == an else candidate_grid(cn, run.m, budget)
            if trivial is None:
                # per grid row, the cells of A x A it sends to unequal points
                apart = (grid[:, :, None] != grid[:, None, :]).reshape(len(grid), -1)
            return grid, afters, lambda cols, s, lam: (
                lam & ~apart[:, joined[s]].any(axis=1)[:, None] if trivial is None else lam,
                grid_index(afters[:, pmap[s]], run.m),
                # the class of each row of the grids of the lam and the lam'
                [] if classes is None else [classes(a[s], run.m)[:, None]
                                            for a in (seqs.mids, seqs.cs)])
        pairs = [a.rel.pair_index for a in seqs.mids], [c.rel.pair_index for c in seqs.cs]
        return (pairs, maps_out_table, lambda s, rows, y: (rows[:, fmap[s]], seqs.xs[s], y),
                tabulate)
    return _universal(seqs, tests, trivial, budget, stats, side,
                      (_quotient_legs, "quotient_legs") if trivial is None else None)


def prekernel_property(k: Morph, f: Morph, tests: list[PreObj], trivial,
                       budget: int, classes=None) -> bool:
    """`prekernel_batch` on the one sequence k, f."""
    if k.cod != f.dom:
        raise ValidationError("candidate prekernel must land in the domain of f")
    return bool(prekernel_batch(SeqBatch.of([(k, f)]), tests, trivial, budget, classes)[0])


def precokernel_property(p: Morph, f: Morph, tests: list[PreObj], trivial,
                         budget: int, classes=None) -> bool:
    """`precokernel_batch` on the one sequence f, p."""
    if p.dom != f.cod:
        raise ValidationError("candidate precokernel must start at the codomain of f")
    return bool(precokernel_batch(SeqBatch.of([(f, p)]), tests, trivial, budget, classes)[0])


def verify_prekernel_definitional(k: Morph, f: Morph, tests: list[PreObj],
                                  budget: int = DEFAULT_BUDGET) -> bool:
    """Check the prekernel universal property against probe objects.

    For every probe Y and every morphism lam: Y -> dom(f) with f o lam
    trivial there must be exactly one lam' with k o lam' = lam.  This is
    `prekernel_property` with plain triviality, which checks all probes
    of one size in one array pass.
    """
    return prekernel_property(k, f, tests, None, budget)


def verify_precokernel_definitional(p: Morph, f: Morph, tests: list[PreObj],
                                    budget: int = DEFAULT_BUDGET) -> bool:
    """Dual check: unique factorization through p for every lam with
    lam o f trivial, by `precokernel_property` with plain triviality."""
    return precokernel_property(p, f, tests, None, budget)


# ----------------------------------------------------------------------
# short preexact sequences

def is_short_preexact(s: Seq) -> bool:
    """f is a prekernel of g and g is a precokernel of f."""
    return is_prekernel(s.f, s.g) and is_precokernel(s.g, s.f)


def canonical_preexact_from_morphism(f: Morph) -> Seq:
    """The short preexact sequence induced by any morphism: its prekernel
    followed by that prekernel's precokernel."""
    k = prekernel(f)
    return Seq(k, precokernel(k))


def characterize_preexact(s: Seq) -> tuple[Morph, Morph]:
    """Witness isos matching a short preexact sequence to its canonical form.

    Returns (left, right) with left: X -> (Y, rel ^ fibre(g)) satisfying
    k o left = f, and right: Z -> quotient satisfying right o g = pi,
    where k, pi form the canonical sequence built from g.  Since f is k
    up to the iso left, precokernel(f) is pi, and right is the inverse of
    g's precokernel witness.
    """
    f, g = s.f, s.g
    left = prekernel_witness(f, g)
    phi = None if left is None else precokernel_witness(g, f)
    if phi is None:
        raise ValidationError("sequence is not short preexact")
    # the inverse of an isomorphism is one
    return left, Morph._trusted(g.cod, phi.dom, tuple(inverse_map(phi.map, g.cod.n)))


def identity_prekernel_test(sigma: Rel, rho: Rel) -> bool:
    """Is the identity-carried map (A, sigma) -> (A, rho) a prekernel?

    Holds exactly when sigma equals rho intersected with the equivalence
    closure of sigma.  When it does, the identity is a prekernel of the
    projection onto the quotient by that closure, which is re-verified
    here as a sanity check.
    """
    if sigma.n != rho.n:
        raise ValidationError("relations live on different carriers")
    if not sigma.is_preorder() or not rho.is_preorder():
        raise ValidationError("both relations must be preorders")
    if not sigma.is_subrel(rho):
        raise ValidationError("identity is not a morphism: sigma exceeds rho")
    closure = sigma.equivalence_closure()
    ok = sigma == rho.meet(closure)
    if ok:
        # the image equivalence of k is the equivalence closure of sigma
        k = Morph(PreObj(sigma), PreObj(rho), tuple(range(rho.n)))
        assert is_prekernel(k, precokernel(k)), "canonical projection lost its prekernel"
    return ok

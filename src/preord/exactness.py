"""Prekernels, precokernels, quotient objects and short preexact sequences.

Kernels and cokernels make no sense in a category without a zero object,
but "trivial" morphisms (those factoring through an equality-relation
object) play the role of zero maps.  A prekernel of f is universal among
morphisms whose composite with f is trivial; a precokernel is the dual.
Both exist canonically and are unique up to a unique isomorphism, which
is what `is_prekernel` / `is_precokernel` exploit: instead of quantifying
over the whole (infinite) category they compare against the canonical
construction.  The definitional verifiers below do quantify, over a
finite list of probe objects, and serve as independent oracles.

They run on one engine that checks all probes of one size in one array
pass: consecutive same-size probes share a candidate grid of maps, and
each test (monotone, trivial, factors) is a table of grid rows x probes,
read from bit masks (`category.maps_into_table`,
`category.maps_out_table`).  Plain triviality (related points share an
image) is a table too.  The class-relative checks of `preord.pretorsion`
share the engine, passing a row-wise triviality predicate that is asked,
probe by probe, only of the rows that fail to factor; the stable verifiers
of `preord.stable` pass a canonicalizer `canon(rows, dom)`, so that maps
are compared up to stable equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import (
    Morph, PreObj, candidate_grid, compose, grid_index, inverse_map, is_epi,
    is_iso_map, is_mono, is_trivial_morphism, maps_into_table, maps_out_table,
    same_size_runs, table_slices,
    DEFAULT_BUDGET,
)
from .errors import ValidationError
from .relations import Partition, Rel, generated_equivalence, join_preorders

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


def prekernel(f: Morph) -> Morph:
    """Canonical prekernel: the identity map out of the domain with the
    relation cut down to pairs sharing an f-image."""
    a = f.dom
    k_dom = PreObj(a.rel.meet(kernel_pair_equiv(f)))
    return Morph(k_dom, a, tuple(range(a.n)))


def quotient_object(a: PreObj, sim: Rel) -> tuple[PreObj, Morph]:
    """Quotient by an equivalence contained in the relation.

    The relation descends to blocks ([x] related to [y] iff x related to
    y, independent of representatives exactly because sim is contained in
    the relation).  Blocks are indexed by smallest member.  Returns the
    quotient object and the canonical projection.
    """
    if sim.n != a.n:
        raise ValidationError("equivalence carrier does not match the object")
    part = Partition.from_equivalence(sim)
    if not sim.is_subrel(a.rel):
        raise ValidationError("equivalence is not contained in the relation")
    reps = [blk[0] for blk in part.blocks]
    q = PreObj(Rel(part.size, a.rel.bits[np.ix_(reps, reps)]))
    return q, Morph(a, q, part.class_of)


def image_equivalence(f: Morph) -> Rel:
    """Smallest equivalence on the codomain relating f(a) and f(b) for
    every related pair a, b of the domain."""
    gens = [(f.map[a], f.map[b]) for a, b in f.dom.rel.pairs(include_diagonal=True)]
    return generated_equivalence(gens, f.cod.n)


def precokernel(f: Morph) -> Morph:
    """Canonical precokernel: collapse the codomain by `image_equivalence`
    and carry the join of the codomain relation with it."""
    b = f.cod
    zeta = image_equivalence(f)
    joined = join_preorders(b.rel, zeta)
    q, proj = quotient_object(PreObj(joined), zeta)
    return Morph(b, q, proj.map)


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
    return Morph(k.dom, x_can, k.map)


def precokernel_witness(p: Morph, f: Morph) -> Morph | None:
    """The unique iso from the canonical precokernel codomain, or None."""
    if p.dom != f.cod:
        raise ValidationError("candidate precokernel must start at the codomain of f")
    if not is_trivial_morphism(compose(p, f)):
        return None
    c = precokernel(f)
    q = c.cod
    phi: list[int | None] = [None] * q.n
    for b in range(f.cod.n):
        cls = c.map[b]
        if phi[cls] is None:
            phi[cls] = p.map[b]
        elif phi[cls] != p.map[b]:
            return None  # p does not respect the canonical collapse
    if None in phi or not is_iso_map(phi, q, p.cod):
        return None
    return Morph(q, p.cod, tuple(phi))


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


def _is_trivial(trivial, g: Morph) -> bool:
    """One morphism against the engine's triviality (None: plain)."""
    if trivial is None:
        return is_trivial_morphism(g)
    return bool(trivial(np.array([g.map]), g.dom, g.cod)[0])


def _row_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """One integer code per row of entries in [-1, base)."""
    return grid_index(rows + 1, base + 1)


def _exactly_one_match(targets: np.ndarray, candidates: np.ndarray, base: int,
                       classes: np.ndarray) -> np.ndarray:
    """Per target row: does exactly one class of candidate rows equal it?
    Rows hold entries in [-1, base) and are compared by integer codes;
    `classes` holds a code per candidate, and equal candidates of one
    class count once."""
    have = _row_codes(candidates, base)
    order = np.lexsort((classes, have))
    have, classes = have[order], classes[order]
    new = np.concatenate(([True], (have[1:] != have[:-1]) | (classes[1:] != classes[:-1])))
    have = have[new]
    codes = _row_codes(targets, base)
    return np.searchsorted(have, codes, "right") - np.searchsorted(have, codes) == 1


def _count_table(index: np.ndarray, table: np.ndarray, rows: int) -> np.ndarray:
    """rows x columns: per row r of a grid and per column of `table`, how
    many marked rows of `table` have grid index r in `index`?"""
    cols = table.shape[1]
    codes = index[:, None] * cols + np.arange(cols)
    return np.bincount(codes.ravel(), weights=table.ravel(),
                       minlength=rows * cols).reshape(rows, cols)


def prekernel_property(k: Morph, f: Morph, tests: list[PreObj], trivial,
                       budget: int, canon=None) -> bool:
    """The prekernel universal property over probes, a run of same-size
    probes at a time.

    f o k must be trivial, and for every probe Y and every lam: Y -> dom(f)
    with f o lam trivial there must be exactly one lam' with k o lam' = lam.
    `trivial` is None for plain triviality (related points share an
    image), or a predicate `trivial(rows, dom, cod)` saying which rows of
    maps dom -> cod count as trivial, e.g. relative to a class.

    The probes of one size share the candidate grid of maps Y -> dom(f),
    and one table says which rows are monotone out of which probe; with
    plain triviality the same table also asks f o lam to be trivial.  For
    injective k, lam' = k^-1 o lam must exist and be monotone; otherwise
    the monotone lam' of a second grid are counted per row they reach
    through k.  A predicate is asked, probe by probe, only of the rows
    that fail to factor, so a costly class-relative search runs rarely.

    With `canon(rows, dom)`, which maps each row of maps out of dom to a
    canonical row of its class, both equalities hold up to that class:
    per probe the canonical rows of the tables' maps are matched, and the
    factorizations lam' are counted once per class.

    Budgets are those of `monotone_maps` on the same hom sets, checked
    before each run; the tables are cut so that none exceeds the budget.
    """
    if k.cod != f.dom:
        raise ValidationError("candidate prekernel must land in the domain of f")
    if not _is_trivial(trivial, compose(f, k)):
        return False
    a, x = f.dom, k.dom
    fmap, kmap = np.array(f.map), np.array(k.map)
    lam_bad = ~a.rel.bits if trivial is not None else ~a.rel.bits | (fmap[:, None] != fmap)
    inv = inverse_map(k.map, a.n) if is_mono(k) and canon is None else None
    if inv is not None:
        k_bad = ~x.rel.bits[inv][:, inv]  # off the image of k, in_image rules
    for run in same_size_runs(tests):
        m = run.m
        grid = candidate_grid(m, a.n, budget)
        if inv is not None:
            primes, in_image = grid, (inv[grid] >= 0).all(axis=1)
        else:
            primes = candidate_grid(m, x.n, budget)
            reach = grid_index(kmap[primes], a.n) if canon is None else None
        for cols in table_slices(len(run.objs), max(len(grid), len(primes)), budget):
            part = run.objs[cols]
            lam = maps_into_table(grid, lam_bad, run, cols, budget)
            if inv is not None:
                ok = in_image[:, None] & maps_into_table(grid, k_bad, run, cols, budget)
            elif canon is None:
                ok = _count_table(reach, maps_into_table(primes, ~x.rel.bits, run, cols, budget),
                                  len(grid)) == 1
            else:
                after = maps_into_table(primes, ~x.rel.bits, run, cols, budget)
                ok = np.zeros_like(lam)
                for j, y in enumerate(part):
                    lams, lps = grid[lam[:, j]], primes[after[:, j]]
                    ok[lam[:, j], j] = _exactly_one_match(
                        canon(lams, y), canon(kmap[lps], y), a.n, _row_codes(canon(lps, y), x.n))
            fail = lam & ~ok
            if fail.any() and (trivial is None or any(
                    fail[:, j].any() and trivial(fmap[grid[fail[:, j]]], y, f.cod).any()
                    for j, y in enumerate(part))):
                return False
    return True


def precokernel_property(p: Morph, f: Morph, tests: list[PreObj], trivial,
                         budget: int, canon=None) -> bool:
    """Dual engine: p o f trivial, and unique factorization lam = lam' o p
    for every lam: cod(f) -> T with lam o f trivial.

    The probes of one size share the candidate grid of maps cod(f) -> T,
    and one table, read from the cells that each row's related pairs hit,
    says which rows are monotone into which probe; plain triviality of
    lam o f does not depend on the probe.  For surjective p, lam' is
    forced through a section of p: it must be consistent on the fibres of
    p and monotone.  Otherwise the monotone lam' of a second grid are
    counted per row they reach through p, up to the classes of `canon`
    when it is given.  Triviality, budgets and slicing are as in
    `prekernel_property`.
    """
    if p.dom != f.cod:
        raise ValidationError("candidate precokernel must start at the codomain of f")
    if not _is_trivial(trivial, compose(p, f)):
        return False
    a, q = f.cod, p.cod
    fmap, pmap = np.array(f.map), np.array(p.map)
    section = inverse_map(p.map, q.n) if is_epi(p) and canon is None else None
    for run in same_size_runs(tests):
        m = run.m
        grid = candidate_grid(a.n, m, budget)
        if section is not None:
            afters = grid[:, section]
            consistent = (afters[:, pmap] == grid).all(axis=1)
        else:
            afters = candidate_grid(q.n, m, budget)
            if canon is None:
                reach = grid_index(afters[:, pmap], m)
            else:
                reach_canon = canon(afters[:, pmap], a)
                classes = _row_codes(canon(afters, q), m)
        needed = plain_trivial(grid[:, fmap], f.dom)[:, None] if trivial is None else True
        for cols in table_slices(len(run.objs), max(len(grid), len(afters)), budget):
            part = run.objs[cols]
            lam = maps_out_table(grid, a, run, cols, budget) & needed
            after = maps_out_table(afters, q, run, cols, budget)
            if section is not None:
                ok = consistent[:, None] & after
            elif canon is None:
                ok = _count_table(reach, after, len(grid)) == 1
            else:
                # canonical rows only of the lam some probe of the slice keeps
                rows = np.flatnonzero(lam.any(axis=1))
                lam_canon = canon(grid[rows], a)
                ok = np.zeros_like(lam)
                for j in range(len(part)):
                    mine = lam[rows, j]
                    ok[rows[mine], j] = _exactly_one_match(
                        lam_canon[mine], reach_canon[after[:, j]], m, classes[after[:, j]])
            fail = lam & ~ok
            if fail.any() and (trivial is None or any(
                    fail[:, j].any() and trivial(grid[fail[:, j]][:, fmap], f.dom, t).any()
                    for j, t in enumerate(part))):
                return False
    return True


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
    where k, pi form the canonical sequence built from g.
    """
    if not is_short_preexact(s):
        raise ValidationError("sequence is not short preexact")
    f, g = s.f, s.g
    left = prekernel_witness(f, g)
    if left is None:
        raise ValidationError("no left witness; sequence is not short preexact")
    k = prekernel(g)
    pi = precokernel(k)
    q = pi.cod
    right_map: list[int | None] = [None] * g.cod.n
    for y in range(g.dom.n):
        z = g.map[y]
        if right_map[z] is None:
            right_map[z] = pi.map[y]
        elif right_map[z] != pi.map[y]:
            raise ValidationError("right witness is not well defined")
    if any(v is None for v in right_map):
        raise ValidationError("second leg is not surjective")
    vals = [int(v) for v in right_map]
    if sorted(vals) != list(range(q.n)):
        raise ValidationError("right witness is not bijective")
    right = Morph(g.cod, q, tuple(vals))
    if not is_iso_map(vals, g.cod, q):
        raise ValidationError("right witness inverse is not monotone")
    return left, right


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
        a = PreObj(rho)
        joined = join_preorders(rho, closure)
        q, proj = quotient_object(PreObj(joined), closure)
        pi = Morph(a, q, proj.map)
        k = Morph(PreObj(sigma), a, tuple(range(rho.n)))
        assert is_prekernel(k, pi), "canonical projection lost its prekernel"
    return ok
